// The DSS queue — Li & Golab, DISC'21, Section 3.
//
// A lock-free, strictly-linearizable implementation of D⟨queue⟩ for the
// asynchronous shared-memory model with persistent memory, volatile cache
// and system-wide crash failures.  Based on the Michael–Scott queue and
// Friedman et al.'s durable queue; detectability state lives in a
// per-thread array X of tagged node pointers:
//
//   prep-enqueue  (Fig. 3): allocate+persist the node, X[t] = node|ENQ_PREP.
//   exec-enqueue  (Fig. 3): MS-queue insert with flushes; after the link
//                 CAS persists, X[t] |= ENQ_COMPL (lines 13–14) — the
//                 completion record resolve will consult.
//   prep-dequeue  (Fig. 4): X[t] = null|DEQ_PREP.
//   exec-dequeue  (Fig. 4): on the empty path X[t] |= EMPTY (lines 41–42);
//                 on the non-empty path X[t] = pred|DEQ_PREP is persisted
//                 *before* the deq_tid CAS (lines 47–48), so a successful
//                 mark is already detectable: resolve re-derives the
//                 outcome from pred->next->deq_tid.
//   resolve       (Figs. 3–4): the pure detection function; idempotent,
//                 callable any number of times.
//   recovery      (Fig. 6): centralized post-crash pass that repairs
//                 head/tail, completes ENQ_COMPL tags for enqueues whose
//                 link persisted but whose completion record did not, and
//                 (our extension, as the paper prescribes) rebuilds the
//                 free lists without leaking nodes.
//   recover_independent (Section 3.3): the variant with *no auxiliary
//                 state* — each thread repairs only its own X entry by
//                 directly testing whether its prepared enqueue took
//                 effect; no centralized phase is required because the
//                 MS-queue helping paths self-heal stale head/tail.
//
// Non-detectable enqueue/dequeue are the same code paths minus every X
// access (and dequeue marks nodes with tid|kNonDetectableMark so resolve
// cannot confuse them with the caller's detectable dequeue).
//
// Memory-safety additions beyond the paper's pseudocode (both are
// load-bearing for crash-recoverability and documented in DESIGN.md):
//   * persist-before-reuse: a dequeued node may be handed back to an
//     allocation pool only after the persistent head pointer has advanced
//     past it (one head persist per reclamation batch), so the recovery
//     walk from the persisted head never crosses recycled memory;
//   * X-pinning: a node still referenced by any X entry — directly (a
//     prepared/completed enqueue's node, a dequeue's predecessor) or as
//     the predecessor's successor (the node resolve-dequeue would read) —
//     is deferred rather than reused, so resolve never dereferences
//     recycled nodes.
#pragma once

#include <cassert>
#include <cstddef>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/flight_recorder.hpp"
#include "common/metrics.hpp"
#include "common/spin.hpp"
#include "common/tagged_ptr.hpp"
#include "ebr/ebr.hpp"
#include "pmem/context.hpp"
#include "pmem/node_arena.hpp"
#include "queues/types.hpp"

namespace dssq::queues {

/// Memory-safety policy for the DSS queue.  The default enables both
/// hardening rules; DssUnsafeReusePolicy exists ONLY for the ablation
/// bench that quantifies their cost (a queue built with it is not
/// crash-safe against the node-reuse hazards described above).
struct DssHardenedPolicy {
  static constexpr bool kPinXOnReclaim = true;
  static constexpr bool kPersistHeadBeforeReuse = true;
};
struct DssUnsafeReusePolicy {
  static constexpr bool kPinXOnReclaim = false;
  static constexpr bool kPersistHeadBeforeReuse = false;
};

template <class Ctx, class Policy = DssHardenedPolicy>
class DssQueue {
 public:
  DssQueue(Ctx& ctx, std::size_t max_threads, std::size_t nodes_per_thread)
      : ctx_(ctx),
        arena_(ctx, max_threads, nodes_per_thread),
        ebr_(max_threads),
        max_threads_(max_threads),
        deferred_(max_threads) {
    head_ = pmem::alloc_object<PaddedPtr>(ctx_);
    tail_ = pmem::alloc_object<PaddedPtr>(ctx_);
    x_ = pmem::alloc_array<XSlot>(ctx_, max_threads);
    Node* sentinel = pmem::alloc_object<Node>(ctx_);
    ctx_.persist(sentinel, sizeof(Node));
    head_->ptr.store(sentinel, std::memory_order_relaxed);
    tail_->ptr.store(sentinel, std::memory_order_relaxed);
    ctx_.persist(head_, sizeof(PaddedPtr));
    ctx_.persist(tail_, sizeof(PaddedPtr));
    ctx_.persist(x_, sizeof(XSlot) * max_threads);
    ebr_.set_pre_reclaim_hook(
        [this](std::size_t t) { persist_head_for_reuse(t); });
  }

  /// Attach to a queue that already lives in `ctx`'s recovered persistent
  /// heap (same geometry as the crashed process — callers persist it in the
  /// heap's root block).  Replays the normal constructor's allocation
  /// sequence positionally, so head_/tail_/x_/sentinel/slabs resolve to the
  /// crashed process's addresses, but performs NO initialization: the
  /// persisted state is the whole point.  The caller must run recover()
  /// (or recover_independent() per thread) before using the queue.
  DssQueue(pmem::attach_t, Ctx& ctx, std::size_t max_threads,
           std::size_t nodes_per_thread)
      : ctx_(ctx),
        arena_(pmem::attach, ctx, max_threads, nodes_per_thread),
        ebr_(max_threads),
        max_threads_(max_threads),
        deferred_(max_threads) {
    head_ = static_cast<PaddedPtr*>(
        ctx_.raw_alloc(sizeof(PaddedPtr), alignof(PaddedPtr)));
    tail_ = static_cast<PaddedPtr*>(
        ctx_.raw_alloc(sizeof(PaddedPtr), alignof(PaddedPtr)));
    x_ = static_cast<XSlot*>(
        ctx_.raw_alloc(sizeof(XSlot) * max_threads, alignof(XSlot)));
    // The sentinel occupies the next slot of the sequence; it is reachable
    // from the recovered head_, so only the cursor bump matters here.
    (void)ctx_.raw_alloc(sizeof(Node), alignof(Node));
    if (head_->ptr.load(std::memory_order_relaxed) == nullptr) {
      // A never-initialized queue (or a geometry mismatch) replays to a
      // null head; refuse rather than walk garbage in recover().
      throw std::runtime_error(
          "DssQueue: attach found no initialized queue at the replayed "
          "addresses (wrong geometry or heap never held this queue?)");
    }
    ebr_.set_pre_reclaim_hook(
        [this](std::size_t t) { persist_head_for_reuse(t); });
  }

  /// Adopt a queue by ROOT DESCRIPTOR (multi-process attach): every
  /// persistent region is taken by the raw address the creator recorded in
  /// `root` — no allocation, no replay, so any number of processes can
  /// adopt concurrently while the creator keeps serving.  The instance is
  /// in shared-serving mode from birth (see make_root).  The caller must
  /// hold a lease on every slot it drives (pmem/slot_lease.hpp).
  DssQueue(pmem::adopt_t, Ctx& ctx, const QueueRoot& root)
      : ctx_(ctx),
        arena_(pmem::adopt,
               reinterpret_cast<std::byte*>(checked_root(root).slab_addr),
               reinterpret_cast<pmem::SlotCursor*>(root.cursors_addr),
               root.max_threads, root.nodes_per_thread),
        ebr_(root.max_threads),
        max_threads_(root.max_threads),
        deferred_(root.max_threads),
        shared_serving_(true) {
    head_ = reinterpret_cast<PaddedPtr*>(root.head_addr);
    tail_ = reinterpret_cast<PaddedPtr*>(root.tail_addr);
    x_ = reinterpret_cast<XSlot*>(root.x_addr);
    if (head_->ptr.load(std::memory_order_acquire) == nullptr) {
      throw std::runtime_error(
          "DssQueue: root descriptor points at an uninitialized queue");
    }
    ebr_.set_pre_reclaim_hook(
        [this](std::size_t t) { persist_head_for_reuse(t); });
  }

  /// Build and persist a root descriptor so OTHER processes can adopt this
  /// queue, and switch THIS instance into shared-serving mode: fresh nodes
  /// are drawn through durable per-slot cursors (a concurrent attacher
  /// cannot replay our allocation cursor), and dequeued nodes are deferred
  /// instead of reused (EBR grace periods are per-process — no epoch here
  /// can prove a FOREIGN process holds no reference).  Call once; publish
  /// the result in the heap's directory.
  QueueRoot* make_root() {
    auto* cursors = pmem::alloc_array<pmem::SlotCursor>(ctx_, max_threads_);
    arena_.install_cursors(ctx_, cursors);
    QueueRoot* r = pmem::alloc_object<QueueRoot>(ctx_);
    r->magic = QueueRoot::kMagic;
    r->kind = QueueRoot::kKindSingle;
    r->max_threads = max_threads_;
    r->nodes_per_thread = arena_.capacity_per_thread();
    r->x_addr = reinterpret_cast<std::uintptr_t>(x_);
    r->slab_addr = reinterpret_cast<std::uintptr_t>(arena_.slab());
    r->cursors_addr = reinterpret_cast<std::uintptr_t>(cursors);
    r->head_addr = reinterpret_cast<std::uintptr_t>(head_);
    r->tail_addr = reinterpret_cast<std::uintptr_t>(tail_);
    ctx_.persist(r, sizeof(QueueRoot));
    shared_serving_ = true;
    return r;
  }

  // ---- detectable operations (Figures 3 and 4) --------------------------

  /// prep-enqueue(val): create and persist the node, announce it in X.
  void prep_enqueue(std::size_t tid, Value val) {
    trace::OpScope scope(trace::Op::kEnqueue, trace::Phase::kPrep);
    reclaim_failed_prep(tid);
    Node* node = acquire_node(tid);  // line 1
    node->next.store(nullptr, std::memory_order_relaxed);
    node->deq_tid.store(kUnmarked, std::memory_order_relaxed);
    node->value = val;
    ctx_.persist_combined(node, sizeof(Node));  // line 2
    ctx_.crash_point("dss:prep-enq:node-persisted");
    x_[tid].word.store(make_tagged(node, kEnqPrepTag),
                       std::memory_order_release);  // line 3
    ctx_.persist_combined(&x_[tid], sizeof(XSlot));          // line 4
    ctx_.crash_point("dss:prep-enq:announced");
  }

  /// exec-enqueue(): apply the prepared enqueue detectably.
  void exec_enqueue(std::size_t tid) {
    trace::OpScope scope(trace::Op::kEnqueue, trace::Phase::kExec);
    const TaggedWord xw = x_[tid].word.load(std::memory_order_acquire);
    assert(has_tag(xw, kEnqPrepTag) &&
           "exec-enqueue without a prepared enqueue (Axiom 2 precondition)");
    if (has_tag(xw, kEnqComplTag)) return;  // R[t] ≠ ⊥: already took effect
    Node* node = untag<Node>(xw);  // line 5
    ebr::EpochGuard guard(ebr_, tid);
    enqueue_loop(tid, node, /*detectable=*/true);
  }

  /// prep-dequeue(): announce the intent to dequeue.
  void prep_dequeue(std::size_t tid) {
    trace::OpScope scope(trace::Op::kDequeue, trace::Phase::kPrep);
    x_[tid].word.store(kDeqPrepTag, std::memory_order_release);  // line 32
    ctx_.persist_combined(&x_[tid], sizeof(XSlot));                       // line 33
    ctx_.crash_point("dss:prep-deq:announced");
  }

  /// exec-dequeue(): apply the prepared dequeue detectably.
  Value exec_dequeue(std::size_t tid) {
    trace::OpScope scope(trace::Op::kDequeue, trace::Phase::kExec);
    assert(has_tag(x_[tid].word.load(std::memory_order_relaxed),
                   kDeqPrepTag) &&
           "exec-dequeue without a prepared dequeue (Axiom 2 precondition)");
    ebr::EpochGuard guard(ebr_, tid);
    return dequeue_loop(tid, /*detectable=*/true);
  }

  /// resolve (Figure 3, lines 20–27): the status of the most recently
  /// prepared operation.  Total and idempotent.
  Resolved resolve(std::size_t tid) const {
    trace::OpScope scope(trace::Op::kNone, trace::Phase::kResolve);
    const TaggedWord xw = x_[tid].word.load(std::memory_order_acquire);
    if (has_tag(xw, kEnqPrepTag)) {        // line 20
      return resolve_enqueue(xw);          // lines 21–22
    }
    if (has_tag(xw, kDeqPrepTag)) {        // line 23
      return resolve_dequeue(tid, xw);     // lines 24–25
    }
    return Resolved::none();               // line 27: (⊥, ⊥)
  }

  // ---- non-detectable operations (Axiom 4) -------------------------------

  /// enqueue = prep-enqueue; exec-enqueue with every X access omitted.
  void enqueue(std::size_t tid, Value val) {
    trace::OpScope scope(trace::Op::kEnqueue);
    Node* node = acquire_node(tid);
    node->next.store(nullptr, std::memory_order_relaxed);
    node->deq_tid.store(kUnmarked, std::memory_order_relaxed);
    node->value = val;
    ctx_.persist_combined(node, sizeof(Node));
    ebr::EpochGuard guard(ebr_, tid);
    enqueue_loop(tid, node, /*detectable=*/false);
  }

  /// dequeue with every X access omitted; marks with tid|kNonDetectableMark.
  Value dequeue(std::size_t tid) {
    trace::OpScope scope(trace::Op::kDequeue);
    ebr::EpochGuard guard(ebr_, tid);
    return dequeue_loop(tid, /*detectable=*/false);
  }

  // ---- recovery ----------------------------------------------------------

  /// Centralized recovery (Figure 6 + free-list rebuild).  Precondition:
  /// quiescence — run by the main thread before application threads revive.
  /// What the pass did is recorded in last_recovery() and mirrored into the
  /// global recovery counters.
  void recover() {
    last_recovery_ = metrics::RecoveryTrace{};
    ebr_.drain_all_unsafe_without_reclaiming();
    for (auto& d : deferred_) d.clear();

    // Line 64: AllNodes := nodes reachable from head (the one list walk).
    Marks marks(arena_);
    Node* old_head = head_->ptr.load(std::memory_order_relaxed);
    Node* last = old_head;
    marks.set(old_head);
    last_recovery_.nodes_scanned = 1;
    while (Node* next = last->next.load(std::memory_order_relaxed)) {
      last = next;
      marks.set(last);
      ++last_recovery_.nodes_scanned;
    }
    trace::recovery_step(trace::RecoveryStep::kScan,
                         last_recovery_.nodes_scanned);
    // Lines 65–66: tail := last reachable node.
    last_recovery_.tail_moved =
        tail_->ptr.load(std::memory_order_relaxed) != last;
    tail_->ptr.store(last, std::memory_order_relaxed);
    ctx_.persist(tail_, sizeof(PaddedPtr));
    trace::recovery_step(trace::RecoveryStep::kTailRepair,
                         last_recovery_.tail_moved ? 1 : 0);
    // Lines 67–69: head := last marked node reachable from oldHead.
    Node* new_head = old_head;
    for (Node* n = old_head->next.load(std::memory_order_relaxed);
         n != nullptr && n->deq_tid.load(std::memory_order_relaxed) !=
                             kUnmarked;
         n = n->next.load(std::memory_order_relaxed)) {
      new_head = n;
    }
    last_recovery_.head_moved = new_head != old_head;
    head_->ptr.store(new_head, std::memory_order_relaxed);
    ctx_.persist(head_, sizeof(PaddedPtr));
    trace::recovery_step(trace::RecoveryStep::kHeadRepair,
                         last_recovery_.head_moved ? 1 : 0);

    // Lines 70–76: complete ENQ_COMPL for enqueues that took effect.
    last_recovery_.tags_repaired =
        repair_enq_tags(ctx_, x_, max_threads_, marks);
    trace::recovery_step(trace::RecoveryStep::kTagRepair,
                         last_recovery_.tags_repaired);
    // The keep set is what is reachable from the NEW head: unmark the
    // prefix the head repair skipped, then pin X's nodes and sweep.
    marks.clear_chain(old_head, new_head);
    last_recovery_.nodes_reclaimed =
        sweep_unpinned(arena_, marks, x_, max_threads_);
    trace::recovery_step(trace::RecoveryStep::kReclaim,
                         last_recovery_.nodes_reclaimed);
    metrics::add(metrics::Counter::kRecoveryNodesScanned,
                 last_recovery_.nodes_scanned);
    metrics::add(metrics::Counter::kRecoveryTagsRepaired,
                 last_recovery_.tags_repaired);
  }

  /// Thread-local recovery (Section 3.3's "recover independently" variant,
  /// which "eliminates the last trace of auxiliary state"): repair only
  /// this thread's X entry.  Stale head/tail need no repair — the helping
  /// paths of exec-enqueue/exec-dequeue self-heal them during normal
  /// operation.  Does not reclaim memory; call rebuild_free_lists() from
  /// any single thread at a quiescent moment if reuse is needed.
  void recover_independent(std::size_t tid) {
    const TaggedWord xw = x_[tid].word.load(std::memory_order_acquire);
    if (!has_tag(xw, kEnqPrepTag) || has_tag(xw, kEnqComplTag)) return;
    Node* d = untag<Node>(xw);
    if (d == nullptr) return;
    // The enqueue took effect iff the node entered the list: it is marked
    // (already dequeued) or still reachable from head.
    bool took_effect =
        d->deq_tid.load(std::memory_order_relaxed) != kUnmarked;
    if (!took_effect) {
      for (Node* n = head_->ptr.load(std::memory_order_acquire); n != nullptr;
           n = n->next.load(std::memory_order_acquire)) {
        metrics::add(metrics::Counter::kRecoveryNodesScanned);
        if (n == d) {
          took_effect = true;
          break;
        }
      }
    }
    if (took_effect) {
      x_[tid].word.store(with_tag(xw, kEnqComplTag),
                         std::memory_order_release);
      ctx_.persist(&x_[tid], sizeof(XSlot));
      metrics::add(metrics::Counter::kRecoveryTagsRepaired);
    }
  }

  /// Rebuild the per-thread free lists after a crash: every allocated node
  /// that is neither reachable from head nor pinned by an X entry returns
  /// to its owner's pool.  Precondition: quiescence.
  void rebuild_free_lists() {
    ebr_.drain_all_unsafe_without_reclaiming();
    for (auto& d : deferred_) d.clear();
    Marks marks(arena_);
    marks.set_chain(head_->ptr.load(std::memory_order_relaxed));
    sweep_unpinned(arena_, marks, x_, max_threads_);
  }

  // ---- introspection ------------------------------------------------------

  /// Raw X entry (white-box tests).
  TaggedWord x_word(std::size_t tid) const {
    return x_[tid].word.load(std::memory_order_acquire);
  }

  /// What the most recent recover() call did (zeroed at its start).
  /// Available in every build — recovery is off the hot path.
  const metrics::RecoveryTrace& last_recovery() const noexcept {
    return last_recovery_;
  }

  /// Remaining (unconsumed) elements in FIFO order (quiescence required).
  void drain_to(std::vector<Value>& out) const {
    Node* n =
        head_->ptr.load(std::memory_order_relaxed)->next.load(
            std::memory_order_relaxed);
    while (n != nullptr) {
      if (n->deq_tid.load(std::memory_order_relaxed) == kUnmarked) {
        out.push_back(n->value);
      }
      n = n->next.load(std::memory_order_relaxed);
    }
  }

  std::size_t max_threads() const noexcept { return max_threads_; }
  std::size_t free_count(std::size_t tid) const {
    return arena_.free_count(tid);
  }

 private:
  struct alignas(kCacheLineSize) PaddedPtr {
    std::atomic<Node*> ptr{nullptr};
  };
  using Marks = pmem::NodeArena<Node>::Marks;
  friend struct WhiteBox;

  // ---- exec-enqueue body (Figure 3, lines 6–19) ---------------------------
  void enqueue_loop(std::size_t tid, Node* node, bool detectable) {
    Backoff backoff;
    for (;;) {  // line 6
      Node* last = tail_->ptr.load(std::memory_order_acquire);   // line 7
      Node* next = last->next.load(std::memory_order_acquire);   // line 8
      if (last != tail_->ptr.load(std::memory_order_acquire)) {  // line 9
        metrics::add(metrics::Counter::kCasRetries);
        trace::cas_retry();
        continue;
      }
      if (next == nullptr) {  // line 10: at tail
        ctx_.crash_point("dss:exec-enq:pre-link");
        if (last->next.compare_exchange_strong(next, node)) {  // line 11
          ctx_.crash_point("dss:exec-enq:linked-unflushed");
          ctx_.persist_combined(&last->next, sizeof(last->next));  // line 12
          ctx_.crash_point("dss:exec-enq:linked");
          if (detectable) {
            // Lines 13–14: record that the enqueue took effect.
            const TaggedWord xw =
                x_[tid].word.load(std::memory_order_relaxed);
            x_[tid].word.store(with_tag(xw, kEnqComplTag),
                               std::memory_order_release);
            ctx_.persist_combined(&x_[tid], sizeof(XSlot));
            ctx_.crash_point("dss:exec-enq:completed");
          }
          tail_->ptr.compare_exchange_strong(last, node);  // line 15
          return;                                          // line 16
        }
        metrics::add(metrics::Counter::kCasRetries);  // lost the line-11 CAS
        trace::cas_retry();
        backoff.pause();
      } else {  // lines 17–19: help another enqueuing thread
        metrics::add(metrics::Counter::kCasRetries);
        trace::cas_retry();
        ctx_.persist_combined(&last->next, sizeof(last->next));  // line 18
        tail_->ptr.compare_exchange_strong(last, next);  // line 19
      }
    }
  }

  // ---- exec-dequeue body (Figure 4, lines 34–55) --------------------------
  Value dequeue_loop(std::size_t tid, bool detectable) {
    Backoff backoff;
    for (;;) {                                                    // line 34
      Node* first = head_->ptr.load(std::memory_order_acquire);   // line 35
      Node* last = tail_->ptr.load(std::memory_order_acquire);    // line 36
      Node* next = first->next.load(std::memory_order_acquire);   // line 37
      if (first != head_->ptr.load(std::memory_order_acquire)) {  // line 38
        metrics::add(metrics::Counter::kCasRetries);
        trace::cas_retry();
        continue;
      }
      if (first == last) {   // line 39: empty queue?
        if (next == nullptr) {  // line 40: nothing newly appended
          if (detectable) {
            // Lines 41–42: record that the dequeue saw an empty queue.
            const TaggedWord xw =
                x_[tid].word.load(std::memory_order_relaxed);
            x_[tid].word.store(with_tag(xw, kEmptyTag),
                               std::memory_order_release);
            ctx_.persist_combined(&x_[tid], sizeof(XSlot));
            ctx_.crash_point("dss:exec-deq:empty-recorded");
          }
          return kEmpty;  // line 43
        }
        metrics::add(metrics::Counter::kCasRetries);  // stale tail
        trace::cas_retry();
        ctx_.persist_combined(&last->next, sizeof(last->next));   // line 44
        tail_->ptr.compare_exchange_strong(last, next);  // line 45
      } else {  // line 46: non-empty queue
        if (detectable) {
          // Lines 47–48: save the predecessor of the node to be dequeued
          // *before* attempting to claim it — this makes a successful mark
          // self-detecting.
          x_[tid].word.store(make_tagged(first, kDeqPrepTag),
                             std::memory_order_release);
          ctx_.persist_combined(&x_[tid], sizeof(XSlot));
          ctx_.crash_point("dss:exec-deq:pred-saved");
        }
        const std::int64_t mark =
            detectable ? static_cast<std::int64_t>(tid)
                       : static_cast<std::int64_t>(tid) | kNonDetectableMark;
        std::int64_t unmarked = kUnmarked;
        if (next->deq_tid.compare_exchange_strong(unmarked, mark)) {  // l. 49
          ctx_.crash_point("dss:exec-deq:marked-unflushed");
          ctx_.persist_combined(&next->deq_tid, sizeof(next->deq_tid));  // line 50
          ctx_.crash_point("dss:exec-deq:marked");
          if (head_->ptr.compare_exchange_strong(first, next)) {  // line 51
            retire(tid, first);
          }
          return next->value;  // line 52
        }
        metrics::add(metrics::Counter::kCasRetries);  // lost the line-49 CAS
        trace::cas_retry();
        if (head_->ptr.load(std::memory_order_acquire) == first) {  // l. 53
          // Lines 54–55: help the winning dequeuer.
          ctx_.persist_combined(&next->deq_tid, sizeof(next->deq_tid));
          if (head_->ptr.compare_exchange_strong(first, next)) {
            retire(tid, first);
          }
        }
        backoff.pause();
      }
    }
  }

  // ---- resolve helpers ----------------------------------------------------

  /// resolve-enqueue (Figure 3, lines 28–31).
  Resolved resolve_enqueue(TaggedWord xw) const {
    const Value arg = untag<Node>(xw)->value;
    if (has_tag(xw, kEnqComplTag)) {
      return Resolved::enqueue(arg, kOk);  // line 29: took effect
    }
    return Resolved::enqueue(arg);  // line 31: prepared, no effect — ⊥
  }

  /// resolve-dequeue (Figure 4, lines 56–63).
  Resolved resolve_dequeue(std::size_t tid, TaggedWord xw) const {
    // Line 58: EMPTY is a membership test, not an exact word match — a
    // failed non-empty attempt leaves its saved predecessor in the word,
    // and the exec loop then ORs EMPTY onto it (lines 41–42).  An empty
    // outcome after such an attempt must still resolve to kEmpty, not
    // fall through to the stale predecessor.
    if (has_tag(xw, kEmptyTag)) {
      return Resolved::dequeue(kEmpty);  // line 59
    }
    if (without_tag(xw, kDeqPrepTag) == 0) {  // line 56: prepared, no effect
      return Resolved::dequeue();             // line 57: ⊥
    }
    Node* pred = untag<Node>(xw);
    Node* target =
        pred != nullptr ? pred->next.load(std::memory_order_acquire)
                        : nullptr;
    if (target != nullptr &&
        target->deq_tid.load(std::memory_order_acquire) ==
            static_cast<std::int64_t>(tid)) {  // line 60
      return Resolved::dequeue(target->value);  // line 61
    }
    // Line 62: crashed between saving the predecessor (line 47) and a
    // successful mark (line 49) — the successor may be unmarked, marked by
    // another thread, or marked by this thread's *non-detectable* dequeue.
    return Resolved::dequeue();  // line 63: ⊥
  }

  // ---- memory management ---------------------------------------------------

  /// On the next prep-enqueue, a previous prepared-but-never-effective
  /// enqueue's node (ENQ_PREP without ENQ_COMPL) is provably unlinked and
  /// unmarked, so it can be reused instead of leaked (the paper's
  /// "prevent memory leaks, such as due to a crash in prep-enqueue").
  void reclaim_failed_prep(std::size_t tid) {
    const TaggedWord xw = x_[tid].word.load(std::memory_order_relaxed);
    if (has_tag(xw, kEnqPrepTag) && !has_tag(xw, kEnqComplTag)) {
      Node* node = untag<Node>(xw);
      if (node != nullptr) arena_.release(tid, node);
    }
  }

  /// Acquire a node, pumping the epoch when the pool is dry (retired nodes
  /// may be waiting out their grace period in limbo).  Must run outside any
  /// epoch region — a held reservation would cap the advance at one epoch,
  /// not the two a grace period needs.  Both call sites (prep-enqueue and
  /// the non-detectable enqueue) acquire before entering their region.
  Node* acquire_node(std::size_t tid) {
    Node* node = arena_.try_acquire(ctx_, tid);
    for (int i = 0; i < 4096 && node == nullptr; ++i) {
      ebr_.try_advance_and_drain(tid);
      std::this_thread::yield();  // let region-holders run (slow path only)
      node = arena_.try_acquire(ctx_, tid);
    }
    if (node == nullptr) throw std::bad_alloc();
    return node;
  }

  /// Shared-serving mode never reuses a node in flight (see reclaim), so
  /// it skips EBR: a limbo entry per dequeue would only pile up while a
  /// stalled thread pins the epoch, and then go unused.
  void retire(std::size_t tid, Node* node) {
    if (shared_serving_) return;
    ebr_.retire(tid, node, [this, tid](void* p) {
      reclaim(tid, static_cast<Node*>(p));
    });
  }

  /// EBR reclaim callback: reuse the node unless an X entry still pins it.
  /// In shared-serving mode EVERY node is deferred: this process's EBR
  /// grace period says nothing about readers in other processes, so reuse
  /// waits for a quiescent recover()/rebuild_free_lists().
  void reclaim(std::size_t tid, Node* node) {
    if (shared_serving_) {
      deferred_[tid].push_back(node);
      return;
    }
    if constexpr (Policy::kPinXOnReclaim) {
      if (pinned_by_x(node)) {
        deferred_[tid].push_back(node);
        return;
      }
    }
    arena_.release(tid, node);
  }

  /// True iff some X entry references `node` directly, or as the successor
  /// of a saved dequeue predecessor (the node resolve-dequeue would read).
  bool pinned_by_x(const Node* node) const {
    for (std::size_t i = 0; i < max_threads_; ++i) {
      const TaggedWord xw = x_[i].word.load(std::memory_order_acquire);
      const Node* d = untag<const Node>(xw);
      if (d == node) return true;
      if (has_tag(xw, kDeqPrepTag) && d != nullptr &&
          d->next.load(std::memory_order_acquire) == node) {
        return true;
      }
    }
    return false;
  }

  /// Pre-reclaim hook: runs once per EBR drain batch, before any node of
  /// the batch becomes reusable.  Persisting head here maintains the
  /// persist-before-reuse invariant (recovery's walk from the persisted
  /// head never reaches a recycled node) at a cost amortized over the
  /// whole batch.  Also retries previously deferred (X-pinned) nodes.
  void persist_head_for_reuse(std::size_t tid) {
    if constexpr (Policy::kPersistHeadBeforeReuse) {
      ctx_.persist_combined(head_, sizeof(PaddedPtr));
    }
    auto& deferred = deferred_[tid];
    if (shared_serving_) return;  // deferred nodes wait for quiescence
    if (!deferred.empty()) {
      std::size_t kept = 0;
      for (std::size_t i = 0; i < deferred.size(); ++i) {
        if (pinned_by_x(deferred[i])) {
          deferred[kept++] = deferred[i];
        } else {
          arena_.release(tid, deferred[i]);
        }
      }
      deferred.resize(kept);
    }
  }

  /// Validated pass-through for the adopt constructor's member-init list
  /// (the root must be checked BEFORE the arena dereferences its fields).
  static const QueueRoot& checked_root(const QueueRoot& r) {
    return validate_queue_root(r, QueueRoot::kKindSingle, "DssQueue");
  }

  Ctx& ctx_;
  pmem::NodeArena<Node> arena_;
  ebr::EpochManager ebr_;
  std::size_t max_threads_;
  PaddedPtr* head_ = nullptr;
  PaddedPtr* tail_ = nullptr;
  XSlot* x_ = nullptr;
  std::vector<std::vector<Node*>> deferred_;
  bool shared_serving_ = false;  // multi-process: no node reuse in-flight
  metrics::RecoveryTrace last_recovery_;
};

}  // namespace dssq::queues
