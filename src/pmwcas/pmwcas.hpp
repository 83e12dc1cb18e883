// Persistent Multi-word Compare-And-Swap (PMwCAS) — Wang, Levandoski &
// Larson (ICDE'18), reimplemented from scratch.
//
// PMwCAS atomically (and failure-atomically) changes up to kMaxWords
// 64-bit words from expected to desired values.  The paper's two
// CASWithEffect queues (Figure 5b) are built on it: they update the queue
// links and the per-thread detectability word in a single PMwCAS, which
// "simplifies the implementation greatly but becomes a performance
// bottleneck as contention rises".
//
// Protocol (two phases, descriptor-based, with helping):
//   * Phase 1 — install: for each target word (in address order), a
//     two-step RDCSS conditionally replaces the expected value with a
//     pointer to the whole-operation descriptor, but only while the
//     descriptor is still Undecided.  Any thread finding a mid-flight
//     RDCSS or an installed descriptor helps it forward.
//   * Decision: once every word is installed (and the installed words are
//     flushed — recovery must be able to see them), status moves
//     Undecided → Succeeded, else → Failed; the status word is persisted.
//     The decision carries a DIRTY bit until that persist completes, and
//     no thread propagates under a dirty decision without persisting it
//     first: a word made durable under a decision that a crash then loses
//     would be rolled back by recovery while its siblings are not.
//   * Phase 2 — propagate: each word is CASed from the descriptor pointer
//     to the final value (desired on success, expected on failure) with a
//     DIRTY bit that readers clear after flushing — the standard
//     flush-before-depend discipline for persistent lock-free structures.
//
// Word format: bits 61..63 are reserved flags (descriptor / RDCSS / dirty),
// so application payloads are limited to 61 bits; 48-bit pointers and the
// queue's tag bits (48..51) fit untouched.
//
// The "Fast" optimisation (paper, Section 4): words the caller declares
// *private* (contended by no concurrent PMwCAS — e.g. a thread's own
// detectability word) skip the install phase entirely and are written
// directly during phase 2, saving one CAS and one flush per private word.
// Only the owner writes a private word: a helper that read the status and
// then stalled could otherwise land this operation's value on top of the
// owner's NEXT write to the word (its next prep of X).  After a crash,
// recover() re-applies the private words of a Succeeded descriptor that is
// still anchored.  The owner clears its anchor once the operation is
// complete (flushed here, fenced by the owner's next persist), so recovery
// never replays a finished operation over a newer prep.
//
// Descriptor life cycle: per-thread descriptor pools, reuse gated by EBR
// plus an owner-side sweep that scrubs any descriptor/RDCSS pointer still
// visible in a target word before the descriptor is retired (see
// sweep_before_retire) — without the sweep, a stalled helper could
// re-install a pointer to an already-recycled descriptor.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <thread>

#include "common/cacheline.hpp"
#include "common/tagged_ptr.hpp"
#include "ebr/ebr.hpp"
#include "pmem/context.hpp"
#include "pmem/node_arena.hpp"

namespace dssq::pmwcas {

inline constexpr std::uint64_t kDescriptorFlag = tag_bit(15);
inline constexpr std::uint64_t kRdcssFlag = tag_bit(14);
inline constexpr std::uint64_t kDirtyFlag = tag_bit(13);
inline constexpr std::uint64_t kFlagsMask =
    kDescriptorFlag | kRdcssFlag | kDirtyFlag;

/// Maximum words per PMwCAS (the queue needs 3: head-or-next, tail, X).
inline constexpr std::size_t kMaxWords = 4;

enum Status : std::uint32_t {
  kUndecided = 0,
  kSucceeded = 1,
  kFailed = 2,
};

/// Set with a decision until the status word is durable (durable_status).
inline constexpr std::uint32_t kStatusDirty = 1u << 31;

struct Descriptor;

struct WordDescriptor {
  std::atomic<std::uint64_t>* addr = nullptr;
  std::uint64_t expected = 0;
  std::uint64_t desired = 0;
  Descriptor* parent = nullptr;
  bool is_private = false;
};

struct alignas(kCacheLineSize) Descriptor {
  std::atomic<std::uint32_t> status{kUndecided};
  std::uint32_t count = 0;
  WordDescriptor words[kMaxWords];
};

template <class Ctx>
class Engine {
 public:
  Engine(Ctx& ctx, std::size_t max_threads, std::size_t descriptors_per_thread)
      : ctx_(ctx),
        descriptors_(ctx, max_threads, descriptors_per_thread),
        ebr_(max_threads),
        max_threads_(max_threads) {
    anchors_ = pmem::alloc_array<Anchor>(ctx_, max_threads);
    ctx_.persist(anchors_, sizeof(Anchor) * max_threads);
    // Persist-before-reuse: mwcas() leaves its anchor clear flushed but
    // unfenced, so a durable anchor may still name a retired descriptor.
    // Fencing once per drain batch, on the draining (owner) thread, makes
    // the clear durable before that descriptor can be rebuilt.  A user
    // that installs its own hook must keep a fence in it.
    ebr_.set_pre_reclaim_hook([this](std::size_t) { ctx_.fence(); });
  }

  /// Shared EBR instance: data structures built on the engine use it for
  /// their own node reclamation so one epoch system covers everything.
  ebr::EpochManager& ebr() noexcept { return ebr_; }

  /// Begin building a PMwCAS.  Caller must be inside an EBR region but must
  /// hold NO raw pointers read under it yet: when the descriptor pool is
  /// dry, allocation cycles the caller's reservation to pump the epoch,
  /// which invalidates previously read references.
  Descriptor* allocate(std::size_t tid) {
    Descriptor* d = descriptors_.try_acquire(tid);
    if (d == nullptr) {
      ebr_.exit(tid);
      for (int i = 0; i < 4096 && d == nullptr; ++i) {
        ebr_.try_advance_and_drain(tid);
        std::this_thread::yield();
        d = descriptors_.try_acquire(tid);
      }
      ebr_.enter(tid);
      if (d == nullptr) throw std::bad_alloc();
    }
    // dssq-lint: allow(persist-after-store) the descriptor is thread-private
    // until mwcas() publishes it; mwcas persists the fully-built descriptor
    // before the first install.
    d->status.store(kUndecided, std::memory_order_relaxed);
    d->count = 0;
    return d;
  }

  /// Return a descriptor that was never submitted to mwcas() (no word of
  /// it was ever published, so it needs no grace period).
  void discard(std::size_t tid, Descriptor* d) {
    descriptors_.release(tid, d);
  }

  /// Add one target word.  `is_private` selects the fast path for words no
  /// concurrent PMwCAS touches.  Values must not use the reserved bits.
  void add_word(Descriptor* d, std::atomic<std::uint64_t>* addr,
                std::uint64_t expected, std::uint64_t desired,
                bool is_private = false) {
    assert(d->count < kMaxWords);
    assert((expected & kFlagsMask) == 0 && (desired & kFlagsMask) == 0 &&
           "payload collides with reserved PMwCAS flag bits");
    d->words[d->count++] = WordDescriptor{addr, expected, desired, d,
                                          is_private};
  }

  /// Execute the PMwCAS.  Caller must be inside an EBR region and must not
  /// touch `d` afterwards (it is retired here).  Returns success.
  bool mwcas(std::size_t tid, Descriptor* d) {
    // Install order must be consistent across helpers: sort by address.
    std::sort(d->words, d->words + d->count,
              [](const WordDescriptor& a, const WordDescriptor& b) {
                return a.addr < b.addr;
              });
    // Persist only the used prefix of the descriptor (status + count +
    // d->count word slots), not the whole kMaxWords-sized record.
    ctx_.persist(d, offsetof(Descriptor, words) +
                        d->count * sizeof(WordDescriptor));
    // Anchor for recovery: the roll-forward/back pass must find in-flight
    // descriptors after a crash.
    anchors_[tid].desc.store(d, std::memory_order_release);
    ctx_.persist(&anchors_[tid], sizeof(Anchor));
    ctx_.crash_point("pmwcas:anchored");

    const bool ok = help(d, /*owner=*/true);
    sweep_before_retire(d);
    // The operation is complete and its words are durable: drop the
    // anchor so recovery cannot replay it over the owner's next write to
    // a private word.  No fence of its own — the owner's next persist
    // (a prep, or the next mwcas's descriptor) orders it; a crash before
    // then leaves this operation's record in the private word, which is
    // the stale-record case of the paper's Figure 2(d).
    anchors_[tid].desc.store(nullptr, std::memory_order_release);
    ctx_.flush(&anchors_[tid], sizeof(Anchor));
    ebr_.retire(tid, d, [this, tid](void* p) {
      descriptors_.release(tid, static_cast<Descriptor*>(p));
    });
    return ok;
  }

  /// Read a PMwCAS-managed word, helping any in-flight operation.  Caller
  /// must be inside an EBR region.  Returns a clean (flag-free) value.
  std::uint64_t read(std::atomic<std::uint64_t>* addr) {
    for (;;) {
      std::uint64_t v = addr->load(std::memory_order_acquire);
      if (v & kRdcssFlag) {
        complete_rdcss(untag_word(v));
        continue;
      }
      if (v & kDescriptorFlag) {
        help(untag_desc(v), /*owner=*/false);
        continue;
      }
      if (v & kDirtyFlag) {
        persist_clear_dirty(addr, v);
        return v & ~kDirtyFlag;
      }
      return v;
    }
  }

  /// Post-crash roll-forward/back (single-threaded, quiescence required):
  /// every anchored descriptor is driven to a decided, fully-propagated,
  /// persisted state.  Succeeded operations complete; Undecided ones abort.
  void recover() {
    ebr_.drain_all_unsafe_without_reclaiming();
    for (std::size_t t = 0; t < max_threads_; ++t) {
      Descriptor* d = anchors_[t].desc.load(std::memory_order_relaxed);
      if (d == nullptr) continue;
      std::uint32_t st =
          d->status.load(std::memory_order_relaxed) & ~kStatusDirty;
      if (st == kUndecided) {
        st = kFailed;  // not decided before the crash: abort
        d->status.store(kFailed, std::memory_order_relaxed);
        ctx_.persist(&d->status, sizeof(d->status));
      }
      for (std::size_t i = 0; i < d->count; ++i) {
        WordDescriptor& wd = d->words[i];
        const std::uint64_t raw = wd.addr->load(std::memory_order_relaxed);
        const std::uint64_t clean = raw & ~kDirtyFlag;
        const std::uint64_t final_value =
            st == kSucceeded ? wd.desired : wd.expected;
        if (clean == desc_word(d) || clean == rdcss_word(&wd)) {
          wd.addr->store(final_value, std::memory_order_relaxed);
          ctx_.persist(wd.addr, sizeof(std::uint64_t));
        } else if (st == kSucceeded && wd.is_private) {
          // Only the owner's phase 2 writes a private word, and the owner
          // may have died before it (if it died after, before its anchor
          // clear was durable, this rewrites the value already there).
          wd.addr->store(final_value, std::memory_order_relaxed);
          ctx_.persist(wd.addr, sizeof(std::uint64_t));
        } else if (raw & kDirtyFlag) {
          ctx_.persist(wd.addr, sizeof(std::uint64_t));
          // dssq-lint: allow(persist-after-store) dirty-bit protocol: the
          // persist above makes the payload durable, then the store clears
          // the volatile dirty mark.  Persist-then-store is the required
          // order; a flush after the store would be redundant.
          wd.addr->store(clean, std::memory_order_relaxed);
        }
      }
      anchors_[t].desc.store(nullptr, std::memory_order_relaxed);
      ctx_.persist(&anchors_[t], sizeof(Anchor));
    }
    // Descriptors are transient: once every anchored operation is rolled
    // forward/back, every allocated slot is free to reuse (the other
    // operations completed before the crash).  Nothing is marked.
    descriptors_.release_unmarked(
        pmem::NodeArena<Descriptor>::Marks(descriptors_));
  }

  std::size_t max_threads() const noexcept { return max_threads_; }

 private:
  struct alignas(kCacheLineSize) Anchor {
    std::atomic<Descriptor*> desc{nullptr};
  };

  static Descriptor* untag_desc(std::uint64_t v) noexcept {
    return reinterpret_cast<Descriptor*>(v & ~kFlagsMask);
  }
  static WordDescriptor* untag_word(std::uint64_t v) noexcept {
    return reinterpret_cast<WordDescriptor*>(v & ~kFlagsMask);
  }
  static std::uint64_t desc_word(Descriptor* d) noexcept {
    return reinterpret_cast<std::uint64_t>(d) | kDescriptorFlag;
  }
  static std::uint64_t rdcss_word(WordDescriptor* wd) noexcept {
    return reinterpret_cast<std::uint64_t>(wd) | kRdcssFlag;
  }

  /// Drive `d` to completion from any intermediate point.  Idempotent;
  /// runs concurrently in the owner and any number of helpers.  Only the
  /// owner (`owner` = true, called from mwcas) writes private words.
  bool help(Descriptor* d, bool owner) {
    if (d->status.load(std::memory_order_acquire) == kUndecided) {
      std::uint32_t decision = kSucceeded;
      for (std::size_t i = 0; i < d->count && decision == kSucceeded; ++i) {
        WordDescriptor& wd = d->words[i];
        if (wd.is_private) continue;
      retry_word:
        const std::uint64_t v = install_rdcss(&wd);
        if (v == wd.expected) continue;  // installed (by us or a helper)
        if ((v & ~kDirtyFlag) == desc_word(d)) continue;  // already in place
        if (v & kDescriptorFlag) {
          // Help the conflicting operation, then retry.
          help(untag_desc(v), /*owner=*/false);
          goto retry_word;
        }
        decision = kFailed;  // plain value mismatch
      }
      if (decision == kSucceeded) {
        // Persist installed descriptor pointers before deciding: recovery
        // must observe a Succeeded descriptor only with its installs
        // visible.
        for (std::size_t i = 0; i < d->count; ++i) {
          if (!d->words[i].is_private) {
            ctx_.flush(d->words[i].addr, sizeof(std::uint64_t));
          }
        }
        ctx_.fence();
      }
      ctx_.crash_point("pmwcas:pre-decision");
      std::uint32_t expected = kUndecided;
      // dssq-lint: allow(persist-after-cas) the decision goes in with its
      // dirty bit; durable_status() persists it before anyone acts on it.
      d->status.compare_exchange_strong(expected, decision | kStatusDirty,
                                        std::memory_order_acq_rel);
      durable_status(d);
      ctx_.crash_point("pmwcas:decided");
    }

    const bool succeeded = durable_status(d) == kSucceeded;
    // Phase 2: propagate final values.  Flushes are batched under a single
    // fence: write every word with its dirty bit, flush them all, fence
    // once, then clear the dirty bits.
    bool wrote[kMaxWords] = {};
    for (std::size_t i = 0; i < d->count; ++i) {
      WordDescriptor& wd = d->words[i];
      const std::uint64_t final_clean = succeeded ? wd.desired : wd.expected;
      if (wd.is_private) {
        if (succeeded && owner) {
          // Only the owner writes a private word.  A helper may reach
          // this point after the owner has returned and written the word
          // again (its next prep); its store would overwrite that.
          wd.addr->store(final_clean | kDirtyFlag, std::memory_order_release);
          ctx_.flush(wd.addr, sizeof(std::uint64_t));
          wrote[i] = true;
        }
        continue;
      }
      std::uint64_t expected_word = desc_word(d) | kDirtyFlag;
      // dssq-lint: allow(persist-after-cas, persist-order) dirty-bit
      // protocol: this CAS installs final_clean WITH the dirty bit set, so
      // readers know it is not yet durable and will flush+fence themselves
      // (persist_clear_dirty) before relying on it.  The batched flush of
      // every written word and the single fence() below make the values
      // durable; flushes from earlier loop iterations pending here are the
      // point of the batching, not a misordering.
      if (!wd.addr->compare_exchange_strong(expected_word,
                                            final_clean | kDirtyFlag)) {
        expected_word = desc_word(d);
        // dssq-lint: allow(persist-after-cas, persist-order) same dirty-bit
        // protocol as above — retry against the undirtied descriptor word.
        wd.addr->compare_exchange_strong(expected_word,
                                         final_clean | kDirtyFlag);
      }
      if (wd.addr->load(std::memory_order_acquire) ==
          (final_clean | kDirtyFlag)) {
        ctx_.flush(wd.addr, sizeof(std::uint64_t));
        wrote[i] = true;
      }
    }
    ctx_.fence();
    for (std::size_t i = 0; i < d->count; ++i) {
      if (!wrote[i]) continue;
      WordDescriptor& wd = d->words[i];
      const std::uint64_t final_clean = succeeded ? wd.desired : wd.expected;
      std::uint64_t dirty = final_clean | kDirtyFlag;
      // dssq-lint: allow(persist-after-cas) dirty-bit protocol: the flush +
      // fence above already made final_clean durable; this CAS only drops
      // the volatile dirty mark, so no further flush is needed.
      wd.addr->compare_exchange_strong(dirty, final_clean);
    }
    return succeeded;
  }

  /// The decision of `d`, durable before it is returned: whoever reads it
  /// with kStatusDirty persists the status word and clears the bit.
  std::uint32_t durable_status(Descriptor* d) {
    std::uint32_t st = d->status.load(std::memory_order_acquire);
    const std::uint32_t clean = st & ~kStatusDirty;
    if (st != clean) {
      ctx_.persist(&d->status, sizeof(d->status));
      // dssq-lint: allow(persist-after-cas) dirty-bit protocol: the persist
      // above makes the decision durable; the CAS only drops the volatile
      // mark (a failed CAS means another thread already dropped it).
      d->status.compare_exchange_strong(st, clean, std::memory_order_acq_rel);
    }
    return clean;
  }

  /// RDCSS: install `desc_word(parent)` into wd->addr in place of
  /// wd->expected, but only while parent is Undecided.  Returns
  /// wd->expected on success, or the conflicting value.
  std::uint64_t install_rdcss(WordDescriptor* wd) {
    for (;;) {
      std::uint64_t v = wd->expected;
      // dssq-lint: allow(persist-after-cas) an RDCSS descriptor word is
      // transient by design — complete_rdcss() replaces it before any
      // durable value is published, and recovery treats descriptor words
      // as in-flight.  Durability happens when the final value lands with
      // its dirty bit (phase 2 of complete()).
      if (wd->addr->compare_exchange_strong(v, rdcss_word(wd))) {
        complete_rdcss(wd);
        return wd->expected;
      }
      if (v & kRdcssFlag) {
        complete_rdcss(untag_word(v));
        continue;
      }
      if ((v & kDirtyFlag) && !(v & kDescriptorFlag)) {
        persist_clear_dirty(wd->addr, v);
        continue;
      }
      return v;  // descriptor word or plain mismatch
    }
  }

  void complete_rdcss(WordDescriptor* wd) {
    const bool undecided =
        wd->parent->status.load(std::memory_order_acquire) == kUndecided;
    std::uint64_t expected = rdcss_word(wd);
    const std::uint64_t target =
        undecided ? (desc_word(wd->parent) | kDirtyFlag) : wd->expected;
    // dssq-lint: allow(persist-after-cas) both outcomes need no flush here:
    // installing the parent descriptor is transient state carrying the dirty
    // bit (whoever resolves it persists), and reverting to wd->expected
    // restores the value that was already durable before the RDCSS.
    wd->addr->compare_exchange_strong(expected, target);
  }

  void persist_clear_dirty(std::atomic<std::uint64_t>* addr,
                           std::uint64_t dirty_value) {
    ctx_.persist(addr, sizeof(std::uint64_t));
    std::uint64_t expected = dirty_value;
    // dssq-lint: allow(persist-after-cas) dirty-bit protocol: the persist
    // above is deliberately *before* the CAS — once the payload is durable
    // the CAS merely clears the volatile dirty mark.
    addr->compare_exchange_strong(expected, dirty_value & ~kDirtyFlag);
  }

  /// Scrub any pointer into `d` still visible in its target words before
  /// the descriptor can be recycled.  See the file comment for why this
  /// (with EBR) closes the stale-reinstall race.
  void sweep_before_retire(Descriptor* d) {
    for (std::size_t i = 0; i < d->count; ++i) {
      WordDescriptor& wd = d->words[i];
      if (wd.is_private) continue;
      std::uint64_t v = wd.addr->load(std::memory_order_acquire);
      if (v == rdcss_word(&wd)) {
        complete_rdcss(&wd);  // status is decided: reverts or finalizes
        v = wd.addr->load(std::memory_order_acquire);
      }
      if ((v & ~kDirtyFlag) == desc_word(d)) {
        const bool succeeded =
            d->status.load(std::memory_order_acquire) == kSucceeded;
        const std::uint64_t final_clean =
            succeeded ? wd.desired : wd.expected;
        std::uint64_t expected = v;
        if (wd.addr->compare_exchange_strong(expected,
                                             final_clean | kDirtyFlag)) {
          persist_clear_dirty(wd.addr, final_clean | kDirtyFlag);
        }
      }
    }
  }

  Ctx& ctx_;
  pmem::NodeArena<Descriptor> descriptors_;
  ebr::EpochManager ebr_;
  std::size_t max_threads_;
  Anchor* anchors_ = nullptr;
};

}  // namespace dssq::pmwcas
