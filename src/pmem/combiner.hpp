// Cross-thread persist-fence combining (the "persist coalescer").
//
// The paper's Figure-5a gap between the detectable and non-detectable
// queues is the price of the extra flush/fence pairs detectability
// demands; Cho et al. (Practical Detectability for Persistent Lock-Free
// Data Structures) show that amortizing those barriers is the biggest
// practical lever for closing it.  The idea: a persist fence is a *drain*
// of everything flushed before it, by anyone — so when N threads have all
// finished flushing and each wants a fence, ONE fence issued after all N
// announcements satisfies all N.  This file implements that combining
// layer as a ticketed announcement protocol:
//
//   * `started_` is a ticket clock: ticket T is claimed by the thread that
//     CASes started_ from T-1 to T, and that thread performs one real
//     backend fence on behalf of everyone whose flushes precede the claim.
//   * A thread arriving at fence() computes target = started_ + 1 (one
//     seq_cst load) and waits for `completed_ >= target`, publishing the
//     target into its cache-line-padded slot once it actually waits.  Any
//     ticket >= target was claimed *after* that load (a seq_cst load that
//     returns T-1 precedes the RMW that writes T in the SC total order),
//     hence after the thread's flushes — so that ticket's fence drains
//     them.
//   * Fences for different tickets may finish out of order, so completion
//     is published as a monotone max on `completed_`.
//   * The wait is bounded: after `spin_limit()` pause rounds (the claimed
//     fencer may have been preempted mid-fence) the waiter falls back to
//     fencing for itself, which is always correct — a superset fence.
//
// The combiner never *adds* a fence and never removes one a thread's
// correctness depends on: on return from fence(), every write the calling
// thread flushed beforehand has been drained, exactly the contract of a
// raw backend fence.  Validity per backend tier is argued in
// docs/persistence-model.md (shared write-pending-queue drain for the
// emulated backend, file-global fdatasync for MmapBackend's msync tier,
// and the eADR/global-visibility assumption for raw CLWB hardware; the
// shm tier's fence is a compiler barrier and is never combined).
//
// Combiner state is volatile (DRAM): a crash discards announcements along
// with the threads that made them, so recovery sees exactly what a raw
// fence would have persisted or not persisted.
#pragma once

#include <array>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/cacheline.hpp"
#include "common/flight_recorder.hpp"
#include "common/metrics.hpp"
#include "common/spin.hpp"

#ifndef DSSQ_FENCE_COMBINING_ENABLED
#define DSSQ_FENCE_COMBINING_ENABLED 1
#endif

namespace dssq::pmem {

/// Runtime knob (the CMake option DSSQ_FENCE_COMBINING is the compile
/// gate).  Initialized once from the environment variable
/// DSSQ_FENCE_COMBINING ("0"/"off"/"false" disable); benches flip it with
/// the setter to emit ON and OFF series from one process.  When the
/// compile gate is off the getter is constant-false and contexts compile
/// fence_combined() straight down to fence().
bool fence_combining_enabled() noexcept;
void set_fence_combining_enabled(bool on) noexcept;

/// Process-wide slot index for combiner announcement arrays (stable per
/// OS thread, assigned on first use).  Exposed for tests.
std::size_t combiner_slot_of_this_thread() noexcept;

class FenceCombiner {
 public:
  /// Announcement slots.  Slots are an observability surface showing what
  /// each *waiting* thread is waiting on (tests and the flight recorder
  /// read them); correctness rides on the ticket counters, so index
  /// collisions past kSlots threads are benign and uncontended calls skip
  /// the slot entirely.
  static constexpr std::size_t kSlots = 64;

  FenceCombiner() noexcept = default;
  FenceCombiner(const FenceCombiner&) = delete;
  FenceCombiner& operator=(const FenceCombiner&) = delete;

  /// Combined fence: on return, every write the calling thread flushed
  /// before the call has been drained.  `hw` performs one real backend
  /// fence when invoked; it is called at most once per fence() call.
  template <class HwFence>
  void fence(HwFence&& hw) noexcept {
    fence_at(started_.load(std::memory_order_seq_cst) + 1,
             std::forward<HwFence>(hw));
  }

  /// Protocol body against an externally supplied target epoch.  fence()
  /// always passes started()+1; tests call this directly to construct the
  /// interleavings a timing race can't reach deterministically — a target
  /// whose ticket is claimed but not completed (the lost-race state, which
  /// exercises bounded spin + self-fence fallback) or one already
  /// completed (the elide path).
  template <class HwFence>
  void fence_at(std::uint64_t target, HwFence&& hw) noexcept {
    const std::uint64_t limit = spin_limit();
    std::uint64_t spins = 0;
    // The slot is written only once this thread actually waits: the
    // uncontended claim (the overwhelmingly common case when threads are
    // not overlapping inside the fence window) must cost as little over a
    // raw fence as possible, and the announcement array is observability,
    // not correctness — the ticket counters carry the protocol.
    Slot* slot = nullptr;
    for (;;) {
      if (completed_.load(std::memory_order_acquire) >= target) {
        // A ticket claimed after our flushes has fenced: elide ours.
        if (slot != nullptr) slot->announced.store(0, std::memory_order_release);
        metrics::add(metrics::Counter::kFencesElided);
        trace::fence_elided_event();
        return;
      }
      std::uint64_t expect = target - 1;
      if (started_.compare_exchange_strong(expect, target,
                                           std::memory_order_seq_cst,
                                           std::memory_order_relaxed)) {
        // We own ticket `target`: one real fence retires every announced
        // epoch <= target.
        hw();
        publish_completed(target);
        if (slot != nullptr) slot->announced.store(0, std::memory_order_release);
        metrics::add(metrics::Counter::kFencesCombined);
        return;
      }
      if (slot == nullptr) {
        // Lost the claim race: from here on we are a waiter — announce so
        // tests and the flight recorder can see what we are waiting on.
        slot = &slots_[combiner_slot_of_this_thread() % kSlots];
        slot->announced.store(target, std::memory_order_release);
      }
      if (++spins >= limit) {
        // The fencer for our ticket may be preempted; a self-fence is
        // always a superset of the combined one, so fall back rather
        // than wait unboundedly.
        hw();
        slot->announced.store(0, std::memory_order_release);
        metrics::add(metrics::Counter::kCombinerSpinFallbacks);
        trace::combiner_fallback_event();
        return;
      }
      cpu_pause();
    }
  }

  // ---- test/observability surface ------------------------------------

  std::uint64_t started() const noexcept {
    return started_.load(std::memory_order_acquire);
  }
  std::uint64_t completed() const noexcept {
    return completed_.load(std::memory_order_acquire);
  }
  /// Epoch currently announced in `slot` (0 = none).
  std::uint64_t announced(std::size_t slot) const noexcept {
    return slots_[slot % kSlots].announced.load(std::memory_order_acquire);
  }

  /// Bound on the pause rounds a waiter spends before self-fencing.
  /// Default comes from env DSSQ_COMBINER_SPIN (pause rounds), else 4096.
  /// 0 forces the fallback path on every contended wait (tests).
  std::uint64_t spin_limit() const noexcept {
    const std::uint64_t v = spin_limit_.load(std::memory_order_relaxed);
    return v != kSpinLimitUnset ? v : default_spin_limit();
  }
  void set_spin_limit(std::uint64_t rounds) noexcept {
    spin_limit_.store(rounds, std::memory_order_relaxed);
  }

 private:
  static constexpr std::uint64_t kSpinLimitUnset = ~std::uint64_t{0};
  static std::uint64_t default_spin_limit() noexcept;

  void publish_completed(std::uint64_t upto) noexcept {
    std::uint64_t cur = completed_.load(std::memory_order_relaxed);
    while (cur < upto &&
           !completed_.compare_exchange_weak(cur, upto,
                                             std::memory_order_release,
                                             std::memory_order_relaxed)) {
    }
  }

  struct alignas(kCacheLineSize) Slot {
    std::atomic<std::uint64_t> announced{0};
  };

  alignas(kCacheLineSize) std::atomic<std::uint64_t> started_{0};
  alignas(kCacheLineSize) std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> spin_limit_{kSpinLimitUnset};
  std::array<Slot, kSlots> slots_{};
};

/// Operation-level flat combining — the FenceCombiner's idea, one level up.
///
/// The fence combiner amortizes the *barrier*; this class amortizes the
/// *operation*: threads announce a prepared operation as an opaque payload
/// word in a per-thread slot, one thread claims the combiner role, collects
/// every announced request and applies the whole batch through a
/// caller-supplied callback — e.g. the sharded DSS queue links a batch of
/// enqueues with ONE tail CAS, one flush pass over the batch and one fence,
/// then publishes each caller's completion record.  Waiters spin until
/// their slot reads kDone, re-attempting the combiner role each round, so
/// a preempted combiner stalls but never strands the queue: whoever holds
/// the role eventually releases it and any waiter can take over the next
/// batch.
///
/// Payload words are opaque to the combiner; they must differ from kIdle
/// and kDone.  Pointers to cache-line-aligned nodes satisfy this and leave
/// their low 6 bits free for caller flag bits.
///
/// All state is volatile (DRAM): a crash discards announcements along with
/// the threads that made them — recovery calls reset() and replays nothing,
/// exactly as with the fence combiner.  Unlike the lock-free single-lane
/// queue, combining is blocking in the crash-free sense (the role is a
/// lock); the crash model is whole-process SIGKILL, so a "crashed combiner
/// holding the lock" cannot outlive the volatile lock word itself.
class OpCombiner {
 public:
  static constexpr std::uintptr_t kIdle = 0;
  static constexpr std::uintptr_t kDone = 1;

  struct Request {
    std::size_t slot = 0;        // announcing slot (the paper's thread id)
    std::uintptr_t payload = 0;  // the announced word
  };

  explicit OpCombiner(std::size_t slots) : slots_(slots) {
    batch_.reserve(slots);
  }
  OpCombiner(const OpCombiner&) = delete;
  OpCombiner& operator=(const OpCombiner&) = delete;

  std::size_t slot_count() const noexcept { return slots_.size(); }

  /// Publish a request without waiting (test-seam half 1 — the fence_at
  /// analogue: tests announce several requests, then drive one combining
  /// pass by hand to construct a batch a timing race can't reach
  /// deterministically).  run() is announce() + wait.
  void announce(std::size_t slot, std::uintptr_t payload) noexcept {
    assert(payload != kIdle && payload != kDone &&
           "payload words must be distinguishable from slot states");
    slots_[slot].word.store(payload, std::memory_order_release);
  }

  /// True once an announced request has been applied by some combiner.
  bool done(std::size_t slot) const noexcept {
    return slots_[slot].word.load(std::memory_order_acquire) == kDone;
  }

  /// Acknowledge a completed request, returning the slot to kIdle.
  void retire(std::size_t slot) noexcept {
    slots_[slot].word.store(kIdle, std::memory_order_relaxed);
  }

  /// Try to claim the combiner role; on success collect every announced
  /// request, apply them in one `apply(const Request*, size_t)` call, mark
  /// the batch done and return its size (possibly 0).  Returns SIZE_MAX
  /// when another thread holds the role.  (Test-seam half 2.)
  template <class Apply>
  std::size_t try_combine(Apply&& apply) {
    if (lock_.exchange(true, std::memory_order_acquire)) return SIZE_MAX;
    // Scope guard rather than a trailing store: a simulated crash thrown
    // from `apply` must not leave the volatile role lock held, or the
    // post-crash incarnation of an in-process sweep would deadlock.
    Unlocker unlock{this};
    batch_.clear();
    for (std::size_t s = 0; s < slots_.size(); ++s) {
      const std::uintptr_t w = slots_[s].word.load(std::memory_order_acquire);
      if (w != kIdle && w != kDone) batch_.push_back(Request{s, w});
    }
    if (!batch_.empty()) {
      apply(batch_.data(), batch_.size());
      for (const Request& r : batch_) {
        slots_[r.slot].word.store(kDone, std::memory_order_release);
      }
      metrics::add(metrics::Counter::kOpsCombined, batch_.size());
      trace::op_combined_event(batch_.size());
    }
    return batch_.size();
  }

  /// Announce + wait: returns once this slot's request has been applied —
  /// by this thread (it re-attempts the combiner role every spin round) or
  /// by another combiner that collected the announcement into its batch.
  template <class Apply>
  void run(std::size_t slot, std::uintptr_t payload, Apply&& apply) {
    announce(slot, payload);
    for (;;) {
      if (done(slot)) {
        retire(slot);
        return;
      }
      if (try_combine(apply) != SIZE_MAX) {
        // The announcement preceded the role claim, so the batch contained
        // this slot; the next round observes kDone.
        continue;
      }
      cpu_pause();
    }
  }

  /// Discard all volatile combining state (crash recovery, tests).
  void reset() noexcept {
    for (auto& s : slots_) s.word.store(kIdle, std::memory_order_relaxed);
    lock_.store(false, std::memory_order_relaxed);
  }

 private:
  struct Unlocker {
    OpCombiner* c;
    ~Unlocker() { c->lock_.store(false, std::memory_order_release); }
  };
  struct alignas(kCacheLineSize) Slot {
    std::atomic<std::uintptr_t> word{kIdle};
  };

  alignas(kCacheLineSize) std::atomic<bool> lock_{false};
  std::vector<Slot> slots_;
  std::vector<Request> batch_;  // combiner-private (guarded by lock_)
};

}  // namespace dssq::pmem
