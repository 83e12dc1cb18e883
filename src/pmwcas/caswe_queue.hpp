// The CASWithEffect queues — Figure 5b's PMwCAS-based competitors.
//
// "General CASWithEffect queue: a simple queue algorithm where the linked
// list and detectability state (analogous to X in DSS queue) are
// manipulated using [PMwCAS].  Fast CASWithEffect queue: similar, except
// that PMwCAS is optimized for multi-word operations that access a
// combination of shared variables (queue head, tail, and next pointers)
// and private variables (detectability state)."  (Section 4.)
//
// The simplification PMwCAS buys: each operation is ONE failure-atomic
// multi-word CAS, so the queue needs no marking protocol, no helping paths
// of its own, and no completion tags —
//
//   enqueue:        { tail: last→node,  last->next: null→node,
//                     X[t]: v|ENQ_PREP → v|ENQ_PREP|ENQ_COMPL }
//   dequeue:        { head: h→n,        X[t]: DEQ_PREP → v|DEQ_PREP|DEQ_DONE }
//   dequeue(empty): { h->next: null→null (emptiness witness),
//                     X[t]: DEQ_PREP → DEQ_PREP|EMPTY }
//
// and the queue's whole crash story is the engine's descriptor
// roll-forward/back.  The price is the descriptor traffic on every
// operation — which is exactly what Figure 5b measures against the DSS
// queue's hand-tuned protocol.
//
// Because X here records the *value* rather than a node pointer (the
// spare 48 payload bits hold it directly), resolve never dereferences
// nodes and no X-pinning of nodes is needed; application values are
// restricted to [0, 2^48) for these two queues.
//
// The only difference between the two variants is `FastPrivateWords`:
// the Fast queue declares X private to the calling thread, letting the
// engine skip the X word's install phase (one CAS + one flush saved).
// A private X[t] is written by thread t alone — by its preps and by the
// phase 2 of its own PMwCAS; helpers finish the shared words only.  So
// exec_* can trust the X it reads first: no late helper can replace a
// fresh prep with the previous operation's completion record.
#pragma once

#include <cassert>
#include <cstddef>
#include <thread>
#include <vector>

#include "common/metrics.hpp"
#include "common/tagged_ptr.hpp"
#include "ebr/ebr.hpp"
#include "pmem/context.hpp"
#include "pmem/node_arena.hpp"
#include "pmwcas/pmwcas.hpp"
#include "queues/types.hpp"

namespace dssq::pmwcas {

using queues::kDeqPrepTag;
using queues::kEmptyTag;
using queues::kEnqComplTag;
using queues::kEnqPrepTag;
using queues::Resolved;
using queues::Value;

/// Tag marking a dequeue whose value is recorded in X's payload bits.
inline constexpr TaggedWord kDeqDoneTag = tag_bit(4);

template <class Ctx, bool FastPrivateWords>
class CasWithEffectQueue {
 public:
  struct alignas(kCacheLineSize) CweNode {
    std::atomic<std::uint64_t> next{0};  // PMwCAS-managed pointer word
    Value value{0};
  };
  static_assert(sizeof(CweNode) == kCacheLineSize);

  CasWithEffectQueue(Ctx& ctx, std::size_t max_threads,
                     std::size_t nodes_per_thread)
      : ctx_(ctx),
        engine_(ctx, max_threads, /*descriptors_per_thread=*/512),
        arena_(ctx, max_threads, nodes_per_thread),
        max_threads_(max_threads) {
    head_ = pmem::alloc_object<PaddedWord>(ctx_);
    tail_ = pmem::alloc_object<PaddedWord>(ctx_);
    x_ = pmem::alloc_array<PaddedWord>(ctx_, max_threads);
    CweNode* sentinel = pmem::alloc_object<CweNode>(ctx_);
    ctx_.persist(sentinel, sizeof(CweNode));
    head_->word.store(ptr_word(sentinel), std::memory_order_relaxed);
    tail_->word.store(ptr_word(sentinel), std::memory_order_relaxed);
    ctx_.persist(head_, sizeof(PaddedWord));
    ctx_.persist(tail_, sizeof(PaddedWord));
    // Replaces the engine's fence-only hook; persist() fences too, so the
    // engine's persist-before-reuse of descriptors still holds.
    engine_.ebr().set_pre_reclaim_hook(
        [this](std::size_t) { ctx_.persist(head_, sizeof(PaddedWord)); });
  }

  static const char* name() noexcept {
    return FastPrivateWords ? "fast-caswe" : "general-caswe";
  }

  // ---- detectable operations ----------------------------------------------

  void prep_enqueue(std::size_t tid, Value v) {
    assert(v >= 0 && (static_cast<std::uint64_t>(v) & ~kAddressMask) == 0 &&
           "CASWithEffect queues store values in X's 48 payload bits");
    x_[tid].word.store(static_cast<std::uint64_t>(v) | kEnqPrepTag,
                       std::memory_order_release);
    ctx_.persist(&x_[tid], sizeof(PaddedWord));
    ctx_.crash_point("caswe:prep-enq");
  }

  void exec_enqueue(std::size_t tid) {
    const std::uint64_t xw = x_[tid].word.load(std::memory_order_acquire) &
                             ~kDirtyFlag;
    assert(has_tag(xw, kEnqPrepTag));
    if (has_tag(xw, kEnqComplTag)) return;  // already took effect
    const Value v = static_cast<Value>(xw & kAddressMask);

    // Acquire the node outside the epoch region: pool-dry acquisition
    // pumps epochs, which a held reservation would cap.
    CweNode* node = arena_.try_acquire(tid);
    for (int i = 0; i < 4096 && node == nullptr; ++i) {
      engine_.ebr().try_advance_and_drain(tid);
      std::this_thread::yield();
      node = arena_.try_acquire(tid);
    }
    if (node == nullptr) throw std::bad_alloc();
    node->next.store(0, std::memory_order_relaxed);
    node->value = v;
    ctx_.persist(node, sizeof(CweNode));
    ebr::EpochGuard guard(engine_.ebr(), tid);

    for (;;) {
      // Allocate BEFORE reading any pointers: a pool-dry allocation cycles
      // the epoch reservation, invalidating prior reads.
      Descriptor* d = engine_.allocate(tid);
      const std::uint64_t last_w = engine_.read(&tail_->word);
      auto* last = reinterpret_cast<CweNode*>(last_w);
      const std::uint64_t next_w = engine_.read(&last->next);
      if (next_w != 0) {  // a concurrent enqueue is ahead; retry
        metrics::add(metrics::Counter::kCasRetries);
        engine_.discard(tid, d);
        continue;
      }
      engine_.add_word(d, &tail_->word, last_w, ptr_word(node));
      engine_.add_word(d, &last->next, 0, ptr_word(node));
      engine_.add_word(d, &x_[tid].word, xw, xw | kEnqComplTag,
                       FastPrivateWords);
      if (engine_.mwcas(tid, d)) {
        ctx_.crash_point("caswe:enq-done");
        return;
      }
      metrics::add(metrics::Counter::kCasRetries);  // PMwCAS lost
    }
  }

  void prep_dequeue(std::size_t tid) {
    x_[tid].word.store(kDeqPrepTag, std::memory_order_release);
    ctx_.persist(&x_[tid], sizeof(PaddedWord));
    ctx_.crash_point("caswe:prep-deq");
  }

  Value exec_dequeue(std::size_t tid) {
    const std::uint64_t xw = x_[tid].word.load(std::memory_order_acquire) &
                             ~kDirtyFlag;
    assert(has_tag(xw, kDeqPrepTag));

    ebr::EpochGuard guard(engine_.ebr(), tid);
    for (;;) {
      // Allocate before reading (see exec_enqueue).
      Descriptor* d = engine_.allocate(tid);
      const std::uint64_t head_w = engine_.read(&head_->word);
      auto* first = reinterpret_cast<CweNode*>(head_w);
      const std::uint64_t next_w = engine_.read(&first->next);
      if (next_w == 0) {
        // Empty: witness emptiness (first->next is still null — first can
        // only stop being the head after its next fills in) atomically
        // with the X update.
        engine_.add_word(d, &first->next, 0, 0);
        engine_.add_word(d, &x_[tid].word, xw, xw | kEmptyTag,
                         FastPrivateWords);
        if (engine_.mwcas(tid, d)) {
          ctx_.crash_point("caswe:deq-empty");
          return queues::kEmpty;
        }
        metrics::add(metrics::Counter::kCasRetries);  // PMwCAS lost
        continue;
      }
      auto* next = reinterpret_cast<CweNode*>(next_w);
      const Value v = next->value;
      engine_.add_word(d, &head_->word, head_w, next_w);
      engine_.add_word(d, &x_[tid].word, xw,
                       static_cast<std::uint64_t>(v) | kDeqPrepTag |
                           kDeqDoneTag,
                       FastPrivateWords);
      if (engine_.mwcas(tid, d)) {
        ctx_.crash_point("caswe:deq-done");
        retire(tid, first);
        return v;
      }
      metrics::add(metrics::Counter::kCasRetries);  // PMwCAS lost
    }
  }

  /// Logically const: a PMwCAS read may help in-flight descriptors along
  /// (hence the mutable engine), but the queue's abstract state is
  /// untouched.
  Resolved resolve(std::size_t tid) const {
    ebr::EpochGuard guard(engine_.ebr(), tid);
    const std::uint64_t xw = engine_.read(&x_[tid].word);
    if (has_tag(xw, kEnqPrepTag)) {
      const Value arg = static_cast<Value>(xw & kAddressMask);
      if (has_tag(xw, kEnqComplTag)) return Resolved::enqueue(arg, queues::kOk);
      return Resolved::enqueue(arg);
    }
    if (has_tag(xw, kDeqPrepTag)) {
      if (has_tag(xw, kEmptyTag)) {
        return Resolved::dequeue(queues::kEmpty);
      }
      if (has_tag(xw, kDeqDoneTag)) {
        return Resolved::dequeue(static_cast<Value>(xw & kAddressMask));
      }
      return Resolved::dequeue();
    }
    return Resolved::none();  // (⊥, ⊥)
  }

  // ---- convenience: whole detectable operations ---------------------------

  void enqueue(std::size_t tid, Value v) {
    prep_enqueue(tid, v);
    exec_enqueue(tid);
  }

  Value dequeue(std::size_t tid) {
    prep_dequeue(tid);
    return exec_dequeue(tid);
  }

  // ---- recovery ------------------------------------------------------------

  /// Post-crash recovery: roll descriptors forward/back (which restores
  /// head/tail/next/X to clean decided values), then rebuild free lists.
  /// Requires quiescence.
  void recover() {
    engine_.recover();
    typename pmem::NodeArena<CweNode>::Marks live(arena_);
    auto* n = reinterpret_cast<CweNode*>(
        head_->word.load(std::memory_order_relaxed) & ~kFlagsMask);
    while (n != nullptr) {
      live.set(n);
      n = reinterpret_cast<CweNode*>(n->next.load(std::memory_order_relaxed) &
                                     ~kFlagsMask);
    }
    arena_.release_unmarked(live);
  }

  void drain_to(std::vector<Value>& out) const {
    auto* n = reinterpret_cast<const CweNode*>(
        head_->word.load(std::memory_order_relaxed) & ~kFlagsMask);
    n = reinterpret_cast<const CweNode*>(
        n->next.load(std::memory_order_relaxed) & ~kFlagsMask);
    while (n != nullptr) {
      out.push_back(n->value);
      n = reinterpret_cast<const CweNode*>(
          n->next.load(std::memory_order_relaxed) & ~kFlagsMask);
    }
  }

  std::size_t max_threads() const noexcept { return max_threads_; }

 private:
  struct alignas(kCacheLineSize) PaddedWord {
    std::atomic<std::uint64_t> word{0};
  };

  static std::uint64_t ptr_word(CweNode* n) noexcept {
    return reinterpret_cast<std::uint64_t>(n);
  }

  void retire(std::size_t tid, CweNode* node) {
    engine_.ebr().retire(tid, node, [this, tid](void* p) {
      arena_.release(tid, static_cast<CweNode*>(p));
    });
  }

  Ctx& ctx_;
  mutable Engine<Ctx> engine_;
  pmem::NodeArena<CweNode> arena_;
  std::size_t max_threads_;
  PaddedWord* head_ = nullptr;
  PaddedWord* tail_ = nullptr;
  PaddedWord* x_ = nullptr;
};

template <class Ctx>
using GeneralCasWithEffectQueue = CasWithEffectQueue<Ctx, false>;
template <class Ctx>
using FastCasWithEffectQueue = CasWithEffectQueue<Ctx, true>;

}  // namespace dssq::pmwcas
