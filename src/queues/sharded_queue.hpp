// The sharded DSS queue — N single-lane sub-queues behind one
// detectability surface, with operation-level (flat) combining per lane.
//
// DssQueue's single head/tail pair is the scalability ceiling visible in
// fig5a at high thread counts: every enqueue contends on one tail cache
// line, every dequeue on one head, and every detectable operation pays its
// own persist barriers against them.  This queue splits the list into N
// lanes (env/ctor knob DSSQ_LANES), each a Michael–Scott sub-list with its
// own head/tail anchors, and restores a single linearizable FIFO across
// lanes with a global enqueue ticket:
//
//   * enqueue ORDER: every link goes through the lane's OpCombiner — the
//     combiner thread reserves a contiguous range of the global ticket
//     clock (one fetch_add per batch), stamps each node's `seq`, chains
//     the batch and links the whole chain with ONE tail CAS, one flush
//     pass and one fence.  Combiner exclusivity per lane makes each lane's
//     list strictly increasing in seq.
//   * dequeue ORDER: a bounded lane scan takes the first unmarked node of
//     each lane and claims the one with the minimum seq (the global FIFO
//     head).  An element the scan missed was linked after the scan read
//     its lane — concurrent with this dequeue, so ordering the dequeue
//     first is a legal linearization (the full argument, including the
//     empty case, is in docs/algorithms.md).
//   * EMPTY: per-lane link epochs (a seqlock bumped odd/even around every
//     link) double-checked after a fruitless scan certify that no link
//     overlapped it — at the instant the last lane was read, every lane
//     was simultaneously empty.
//
// Detectability is WORD-FOR-WORD the single-lane story: one per-thread X
// entry holds a tagged node pointer, with the operation's lane packed into
// spare tag bits (tagged_ptr.hpp's lane field) so prep/exec/resolve remain
// single failure-atomic 64-bit transitions.  resolve() never needs the
// lane — an enqueue resolves from its node's ENQ_COMPL tag, a dequeue from
// pred->next->deq_tid — so the resolve code is the single-lane code; the
// lane field steers recovery's reachability checks and exec-enqueue's
// combiner choice.  Recovery is the Figure-6 pass iterated per lane plus
// one global repair: the volatile ticket clock restarts above the maximum
// seq reachable in any lane.
//
// Memory-safety hardening (persist-before-reuse, X-pinning) carries over
// unchanged from DssQueue; the pre-reclaim hook persists every lane's head
// with one combined fence per batch.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "common/flight_recorder.hpp"
#include "common/metrics.hpp"
#include "common/spin.hpp"
#include "common/tagged_ptr.hpp"
#include "ebr/ebr.hpp"
#include "pmem/combiner.hpp"
#include "pmem/context.hpp"
#include "pmem/node_arena.hpp"
#include "queues/dss_queue.hpp"
#include "queues/types.hpp"

namespace dssq::queues {

// kMaxLanes lives in queues/types.hpp next to validate_queue_root (the
// root validation needs it).

/// Lane count from DSSQ_LANES, else min(hardware threads, 8), clamped to
/// [1, kMaxLanes].
std::size_t default_lane_count() noexcept;

/// True when DSSQ_LANE_PICK=affinity: enqueuers stick to lane tid % N
/// instead of the default per-thread round-robin ticket.
bool lane_pick_affinity_from_env() noexcept;

template <class Ctx, class Policy = DssHardenedPolicy>
class ShardedDssQueue {
 public:
  /// `lanes` = 0 resolves through default_lane_count() (DSSQ_LANES).
  ShardedDssQueue(Ctx& ctx, std::size_t max_threads,
                  std::size_t nodes_per_thread, std::size_t lanes = 0)
      : ctx_(ctx),
        arena_(ctx, max_threads, nodes_per_thread),
        ebr_(max_threads),
        max_threads_(max_threads),
        deferred_(max_threads),
        cursor_(max_threads),
        affinity_(lane_pick_affinity_from_env()) {
    const std::size_t n = resolve_lane_count(lanes);
    x_ = pmem::alloc_array<XSlot>(ctx_, max_threads);
    ctx_.persist(x_, sizeof(XSlot) * max_threads);
    lanes_.reserve(n);
    for (std::size_t l = 0; l < n; ++l) {
      auto lane = std::make_unique<LaneState>(max_threads);
      LaneAnchors* a = pmem::alloc_object<LaneAnchors>(ctx_);
      Node* sentinel = pmem::alloc_object<Node>(ctx_);
      ctx_.persist(sentinel, sizeof(Node));
      a->head.ptr.store(sentinel, std::memory_order_relaxed);
      a->tail.ptr.store(sentinel, std::memory_order_relaxed);
      ctx_.persist(a, sizeof(LaneAnchors));
      lane->anchors = a;
      lanes_.push_back(std::move(lane));
    }
    ebr_.set_pre_reclaim_hook(
        [this](std::size_t t) { persist_heads_for_reuse(t); });
  }

  /// Attach to a queue already living in `ctx`'s recovered heap.  Replays
  /// the normal constructor's allocation sequence positionally (arena
  /// slabs, X array, then per-lane anchors + sentinel), so `lanes` must be
  /// the crashed process's resolved lane count — callers persist it in the
  /// heap's root block alongside the thread/node geometry.  No
  /// initialization is performed; run recover() before use.
  ShardedDssQueue(pmem::attach_t, Ctx& ctx, std::size_t max_threads,
                  std::size_t nodes_per_thread, std::size_t lanes = 0)
      : ctx_(ctx),
        arena_(pmem::attach, ctx, max_threads, nodes_per_thread),
        ebr_(max_threads),
        max_threads_(max_threads),
        deferred_(max_threads),
        cursor_(max_threads),
        affinity_(lane_pick_affinity_from_env()) {
    const std::size_t n = resolve_lane_count(lanes);
    x_ = static_cast<XSlot*>(
        ctx_.raw_alloc(sizeof(XSlot) * max_threads, alignof(XSlot)));
    lanes_.reserve(n);
    for (std::size_t l = 0; l < n; ++l) {
      auto lane = std::make_unique<LaneState>(max_threads);
      lane->anchors = static_cast<LaneAnchors*>(
          ctx_.raw_alloc(sizeof(LaneAnchors), alignof(LaneAnchors)));
      // The sentinel occupies the next slot of the sequence; it is
      // reachable from the recovered head, so only the cursor bump matters.
      (void)ctx_.raw_alloc(sizeof(Node), alignof(Node));
      lanes_.push_back(std::move(lane));
    }
    if (lanes_[0]->anchors->head.ptr.load(std::memory_order_relaxed) ==
        nullptr) {
      throw std::runtime_error(
          "ShardedDssQueue: attach found no initialized queue at the "
          "replayed addresses (wrong geometry/lane count, or the heap "
          "never held this queue?)");
    }
    ebr_.set_pre_reclaim_hook(
        [this](std::size_t t) { persist_heads_for_reuse(t); });
  }

  /// Adopt a queue by ROOT DESCRIPTOR (multi-process attach; see the
  /// single-lane overload).  The global ticket clock and per-lane link
  /// epochs come from HEAP-SHARED words recorded in the root — a foreign
  /// process drawing tickets from a private clock would collide seqs and
  /// break every lane's sort order, and a private epoch word would blind
  /// the EMPTY certification to other processes' links.
  ShardedDssQueue(pmem::adopt_t, Ctx& ctx, const QueueRoot& root)
      : ctx_(ctx),
        arena_(pmem::adopt,
               reinterpret_cast<std::byte*>(checked_root(root).slab_addr),
               reinterpret_cast<pmem::SlotCursor*>(root.cursors_addr),
               root.max_threads, root.nodes_per_thread),
        ebr_(root.max_threads),
        max_threads_(root.max_threads),
        deferred_(root.max_threads),
        cursor_(root.max_threads),
        shared_serving_(true),
        affinity_(lane_pick_affinity_from_env()) {
    x_ = reinterpret_cast<XSlot*>(root.x_addr);
    enq_seq_p_ = &reinterpret_cast<PaddedSeq*>(root.ticket_addr)->v;
    const auto* anchor_tab =
        reinterpret_cast<const std::uint64_t*>(root.anchors_addr);
    auto* epochs = reinterpret_cast<PaddedSeq*>(root.epochs_addr);
    lanes_.reserve(root.lanes);
    for (std::size_t l = 0; l < root.lanes; ++l) {
      auto lane = std::make_unique<LaneState>(max_threads_);
      lane->anchors = reinterpret_cast<LaneAnchors*>(anchor_tab[l]);
      lane->epoch = &epochs[l].v;
      lanes_.push_back(std::move(lane));
    }
    if (lanes_[0]->anchors->head.ptr.load(std::memory_order_acquire) ==
        nullptr) {
      throw std::runtime_error(
          "ShardedDssQueue: root descriptor points at an uninitialized "
          "queue");
    }
    ebr_.set_pre_reclaim_hook(
        [this](std::size_t t) { persist_heads_for_reuse(t); });
  }

  /// Build and persist a root descriptor so OTHER processes can adopt this
  /// queue, and switch THIS instance into shared-serving mode (durable
  /// fresh-node cursors, no in-flight node reuse).  The volatile ticket
  /// clock and link epochs MIGRATE into heap lines here — every attacher,
  /// this process included, sequences through the same words from now on.
  /// Call once, at quiescence, before publishing.
  QueueRoot* make_root() {
    auto* cursors = pmem::alloc_array<pmem::SlotCursor>(ctx_, max_threads_);
    arena_.install_cursors(ctx_, cursors);
    auto* ticket = pmem::alloc_object<PaddedSeq>(ctx_);
    auto* epochs = pmem::alloc_array<PaddedSeq>(ctx_, lanes_.size());
    auto* anchor_tab = static_cast<std::uint64_t*>(ctx_.raw_alloc(
        sizeof(std::uint64_t) * lanes_.size(), kCacheLineSize));
    ticket->v.store(enq_seq_p_->load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
    for (std::size_t l = 0; l < lanes_.size(); ++l) {
      epochs[l].v.store(lanes_[l]->epoch->load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
      anchor_tab[l] = reinterpret_cast<std::uintptr_t>(lanes_[l]->anchors);
      lanes_[l]->epoch = &epochs[l].v;
    }
    ctx_.persist(anchor_tab, sizeof(std::uint64_t) * lanes_.size());
    enq_seq_p_ = &ticket->v;
    QueueRoot* r = pmem::alloc_object<QueueRoot>(ctx_);
    r->magic = QueueRoot::kMagic;
    r->kind = QueueRoot::kKindSharded;
    r->max_threads = max_threads_;
    r->nodes_per_thread = arena_.capacity_per_thread();
    r->lanes = lanes_.size();
    r->x_addr = reinterpret_cast<std::uintptr_t>(x_);
    r->slab_addr = reinterpret_cast<std::uintptr_t>(arena_.slab());
    r->cursors_addr = reinterpret_cast<std::uintptr_t>(cursors);
    r->anchors_addr = reinterpret_cast<std::uintptr_t>(anchor_tab);
    r->ticket_addr = reinterpret_cast<std::uintptr_t>(ticket);
    r->epochs_addr = reinterpret_cast<std::uintptr_t>(epochs);
    ctx_.persist(r, sizeof(QueueRoot));
    shared_serving_ = true;
    return r;
  }

  // ---- detectable operations (Figures 3 and 4, per lane) ------------------

  /// prep-enqueue(val): pick a lane, create and persist the node, announce
  /// node AND lane in X — one failure-atomic word, exactly like the
  /// single-lane prep.
  void prep_enqueue(std::size_t tid, Value val) {
    trace::OpScope scope(trace::Op::kEnqueue, trace::Phase::kPrep);
    reclaim_failed_prep(tid);
    const std::size_t lane = pick_lane(tid);
    Node* node = acquire_node(tid);
    node->next.store(nullptr, std::memory_order_relaxed);
    node->deq_tid.store(kUnmarked, std::memory_order_relaxed);
    node->seq.store(0, std::memory_order_relaxed);
    node->value = val;
    ctx_.persist_combined(node, sizeof(Node));
    ctx_.crash_point("shard:prep-enq:node-persisted");
    x_[tid].word.store(make_tagged(node, kEnqPrepTag) | lane_field(lane),
                       std::memory_order_release);
    ctx_.persist_combined(&x_[tid], sizeof(XSlot));
    ctx_.crash_point("shard:prep-enq:announced");
  }

  /// exec-enqueue(): hand the prepared node to its lane's combiner.  On
  /// return the link AND the ENQ_COMPL record are persisted (the combiner
  /// publishes completions before releasing the batch).
  void exec_enqueue(std::size_t tid) {
    trace::OpScope scope(trace::Op::kEnqueue, trace::Phase::kExec);
    const TaggedWord xw = x_[tid].word.load(std::memory_order_acquire);
    assert(has_tag(xw, kEnqPrepTag) &&
           "exec-enqueue without a prepared enqueue (Axiom 2 precondition)");
    if (has_tag(xw, kEnqComplTag)) return;  // R[t] ≠ ⊥: already took effect
    Node* node = untag<Node>(xw);
    const std::size_t lane = lane_of(xw);
    ebr::EpochGuard guard(ebr_, tid);
    run_combined_enqueue(tid, lane, node, /*detectable=*/true);
  }

  /// prep-dequeue(): announce the intent; the lane is bound later, by the
  /// exec attempt that saves a predecessor.
  void prep_dequeue(std::size_t tid) {
    trace::OpScope scope(trace::Op::kDequeue, trace::Phase::kPrep);
    x_[tid].word.store(kDeqPrepTag, std::memory_order_release);
    ctx_.persist_combined(&x_[tid], sizeof(XSlot));
    ctx_.crash_point("shard:prep-deq:announced");
  }

  /// exec-dequeue(): min-seq lane scan + Figure-4 claim.
  Value exec_dequeue(std::size_t tid) {
    trace::OpScope scope(trace::Op::kDequeue, trace::Phase::kExec);
    assert(has_tag(x_[tid].word.load(std::memory_order_relaxed),
                   kDeqPrepTag) &&
           "exec-dequeue without a prepared dequeue (Axiom 2 precondition)");
    ebr::EpochGuard guard(ebr_, tid);
    return dequeue_loop(tid, /*detectable=*/true);
  }

  /// resolve: identical decision tree to the single-lane queue — the lane
  /// field rides along in the word but the outcome never depends on it.
  Resolved resolve(std::size_t tid) const {
    trace::OpScope scope(trace::Op::kNone, trace::Phase::kResolve);
    const TaggedWord xw = x_[tid].word.load(std::memory_order_acquire);
    if (has_tag(xw, kEnqPrepTag)) {
      return resolve_enqueue(xw);
    }
    if (has_tag(xw, kDeqPrepTag)) {
      return resolve_dequeue(tid, xw);
    }
    return Resolved::none();
  }

  // ---- non-detectable operations (Axiom 4) --------------------------------

  /// enqueue still routes through the lane combiner — combiner exclusivity
  /// is what keeps every lane seq-sorted, so ALL links must take it — but
  /// skips every X access.
  void enqueue(std::size_t tid, Value val) {
    trace::OpScope scope(trace::Op::kEnqueue);
    const std::size_t lane = pick_lane(tid);
    Node* node = acquire_node(tid);
    node->next.store(nullptr, std::memory_order_relaxed);
    node->deq_tid.store(kUnmarked, std::memory_order_relaxed);
    node->seq.store(0, std::memory_order_relaxed);
    node->value = val;
    ctx_.persist_combined(node, sizeof(Node));
    ebr::EpochGuard guard(ebr_, tid);
    run_combined_enqueue(tid, lane, node, /*detectable=*/false);
  }

  /// dequeue with every X access omitted; marks with tid|kNonDetectableMark.
  Value dequeue(std::size_t tid) {
    trace::OpScope scope(trace::Op::kDequeue);
    ebr::EpochGuard guard(ebr_, tid);
    return dequeue_loop(tid, /*detectable=*/false);
  }

  // ---- recovery -----------------------------------------------------------

  /// Centralized recovery: the Figure-6 pass per lane, the thread-directed
  /// ENQ_COMPL repair over the one X array, ticket-clock repair, free-list
  /// rebuild.  Precondition: quiescence.
  void recover() {
    last_recovery_ = metrics::RecoveryTrace{};
    ebr_.drain_all_unsafe_without_reclaiming();
    for (auto& d : deferred_) d.clear();

    Marks marks(arena_);
    std::uint64_t max_seq = 0;
    std::size_t tails_moved = 0;
    std::size_t heads_moved = 0;
    for (auto& lane : lanes_) {
      lane->comb.reset();
      lane->epoch->store(0, std::memory_order_relaxed);
      LaneAnchors* a = lane->anchors;
      // Line 64 per lane: AllNodes ∪= nodes reachable from this head.
      Node* old_head = a->head.ptr.load(std::memory_order_relaxed);
      Node* last = old_head;
      marks.set(old_head);
      ++last_recovery_.nodes_scanned;
      while (Node* next = last->next.load(std::memory_order_relaxed)) {
        last = next;
        marks.set(last);
        max_seq = std::max(max_seq, last->seq.load(std::memory_order_relaxed));
        ++last_recovery_.nodes_scanned;
      }
      // Lines 65–66: tail := last reachable node.
      tails_moved += a->tail.ptr.load(std::memory_order_relaxed) != last;
      a->tail.ptr.store(last, std::memory_order_relaxed);
      ctx_.persist(&a->tail, sizeof(a->tail));
      // Lines 67–69: head := last marked node reachable from oldHead.
      Node* new_head = old_head;
      for (Node* n = old_head->next.load(std::memory_order_relaxed);
           n != nullptr &&
           n->deq_tid.load(std::memory_order_relaxed) != kUnmarked;
           n = n->next.load(std::memory_order_relaxed)) {
        new_head = n;
      }
      heads_moved += new_head != old_head;
      a->head.ptr.store(new_head, std::memory_order_relaxed);
      ctx_.persist(&a->head, sizeof(a->head));
    }
    last_recovery_.tail_moved = tails_moved != 0;
    last_recovery_.head_moved = heads_moved != 0;
    trace::recovery_step(trace::RecoveryStep::kScan,
                         last_recovery_.nodes_scanned);
    trace::recovery_step(trace::RecoveryStep::kTailRepair, tails_moved);
    trace::recovery_step(trace::RecoveryStep::kHeadRepair, heads_moved);

    // Lines 70–76: complete ENQ_COMPL for enqueues that took effect.  One
    // pass over the one X array; reachability is checked against the union
    // of all lanes (a node lives in exactly the lane its X word names).
    last_recovery_.tags_repaired =
        repair_enq_tags(ctx_, x_, max_threads_, marks);
    trace::recovery_step(trace::RecoveryStep::kTagRepair,
                         last_recovery_.tags_repaired);

    // The volatile ticket clock restarts above every stamped seq, so
    // post-recovery enqueues sort after every surviving element.
    enq_seq_p_->store(max_seq + 1, std::memory_order_relaxed);

    last_recovery_.nodes_reclaimed =
        sweep_unpinned(arena_, marks, x_, max_threads_);
    trace::recovery_step(trace::RecoveryStep::kReclaim,
                         last_recovery_.nodes_reclaimed);
    metrics::add(metrics::Counter::kRecoveryNodesScanned,
                 last_recovery_.nodes_scanned);
    metrics::add(metrics::Counter::kRecoveryTagsRepaired,
                 last_recovery_.tags_repaired);
  }

  /// Thread-local recovery: repair only this thread's X entry, walking
  /// only the lane its word names.  Stale lane heads/tails self-heal in
  /// normal operation, exactly as in the single-lane queue.
  void recover_independent(std::size_t tid) {
    const TaggedWord xw = x_[tid].word.load(std::memory_order_acquire);
    if (!has_tag(xw, kEnqPrepTag) || has_tag(xw, kEnqComplTag)) return;
    Node* d = untag<Node>(xw);
    if (d == nullptr) return;
    bool took_effect =
        d->deq_tid.load(std::memory_order_relaxed) != kUnmarked;
    if (!took_effect) {
      LaneAnchors* a = lanes_[lane_of(xw) % lanes_.size()]->anchors;
      for (Node* n = a->head.ptr.load(std::memory_order_acquire);
           n != nullptr; n = n->next.load(std::memory_order_acquire)) {
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

  /// Rebuild the free lists after a crash (quiescence required).
  void rebuild_free_lists() {
    ebr_.drain_all_unsafe_without_reclaiming();
    for (auto& d : deferred_) d.clear();
    Marks marks(arena_);
    for (auto& lane : lanes_) {
      marks.set_chain(lane->anchors->head.ptr.load(std::memory_order_relaxed));
    }
    sweep_unpinned(arena_, marks, x_, max_threads_);
  }

  // ---- introspection ------------------------------------------------------

  TaggedWord x_word(std::size_t tid) const {
    return x_[tid].word.load(std::memory_order_acquire);
  }

  const metrics::RecoveryTrace& last_recovery() const noexcept {
    return last_recovery_;
  }

  /// Remaining elements in FIFO order — ascending seq across every lane
  /// (quiescence required).
  void drain_to(std::vector<Value>& out) const {
    std::vector<std::pair<std::uint64_t, Value>> rest;
    for (const auto& lane : lanes_) {
      Node* n = lane->anchors->head.ptr.load(std::memory_order_relaxed)
                    ->next.load(std::memory_order_relaxed);
      for (; n != nullptr; n = n->next.load(std::memory_order_relaxed)) {
        if (n->deq_tid.load(std::memory_order_relaxed) == kUnmarked) {
          rest.emplace_back(n->seq.load(std::memory_order_relaxed), n->value);
        }
      }
    }
    std::sort(rest.begin(), rest.end());
    for (const auto& [seq, value] : rest) out.push_back(value);
  }

  std::size_t max_threads() const noexcept { return max_threads_; }
  std::size_t lane_count() const noexcept { return lanes_.size(); }
  std::size_t free_count(std::size_t tid) const {
    return arena_.free_count(tid);
  }
  /// Next global enqueue ticket (white-box tests).
  std::uint64_t next_seq() const noexcept {
    return enq_seq_p_->load(std::memory_order_relaxed);
  }
  /// Force/disable thread-affine lane picking (bench + deterministic tests;
  /// default comes from DSSQ_LANE_PICK).
  void set_lane_affinity(bool on) noexcept { affinity_ = on; }

  // ---- deterministic-combining test seam (the fence_at analogue) ----------

  /// Announce tid's prepared enqueue on its lane WITHOUT waiting for a
  /// combiner.  Pair with combine_lane(): tests announce several prepared
  /// enqueues, then drive one combining pass by hand to construct a batch
  /// deterministically.  After the pass the operation has taken effect and
  /// exec_enqueue(tid) is a no-op.
  void announce_enqueue(std::size_t tid) {
    const TaggedWord xw = x_[tid].word.load(std::memory_order_acquire);
    assert(has_tag(xw, kEnqPrepTag) && !has_tag(xw, kEnqComplTag));
    lanes_[lane_of(xw)]->comb.announce(
        tid, request_word(untag<Node>(xw), /*detectable=*/true));
  }

  /// Drive one combining pass over `lane` on the calling thread; returns
  /// the batch size (SIZE_MAX when another thread holds the combiner role).
  std::size_t combine_lane(std::size_t lane) {
    ebr::EpochGuard guard(ebr_, 0);
    return lanes_[lane]->comb.try_combine(
        [&](const pmem::OpCombiner::Request* reqs, std::size_t n) {
          apply_enqueue_batch(lane, reqs, n);
        });
  }

 private:
  struct alignas(kCacheLineSize) PaddedPtr {
    std::atomic<Node*> ptr{nullptr};
  };
  using Marks = pmem::NodeArena<Node>::Marks;
  friend struct WhiteBox;
  /// One lane's persistent anchors, co-allocated so attach replays one
  /// allocation per lane.
  struct LaneAnchors {
    PaddedPtr head;
    PaddedPtr tail;
  };
  /// One lane's volatile state.
  struct LaneState {
    explicit LaneState(std::size_t max_threads)
        : comb(max_threads), epoch(&epoch_own.v) {}
    LaneAnchors* anchors = nullptr;
    pmem::OpCombiner comb;
    /// Seqlock over this lane's link section: odd while a combiner is
    /// between reserving tickets and finishing the link, bumped even
    /// after.  The dequeue empty path double-reads these to certify that
    /// no link overlapped its scan.  Accessed through `epoch`: per-process
    /// storage in single-process mode, a heap-shared line once make_root/
    /// adopt wires multi-process serving (a private word would hide other
    /// processes' links from the certification).
    PaddedSeq epoch_own;
    std::atomic<std::uint64_t>* epoch;
  };
  struct alignas(kCacheLineSize) PaddedCursor {
    std::size_t v = 0;
  };

  /// Payload flag: the announced enqueue is detectable (publish ENQ_COMPL).
  /// Nodes are cache-line aligned, so bit 1 never collides with an address
  /// (and the word stays distinct from OpCombiner::kIdle/kDone).
  static constexpr std::uintptr_t kDetectableReq = 2;

  static std::uintptr_t request_word(Node* node, bool detectable) noexcept {
    return reinterpret_cast<std::uintptr_t>(node) |
           (detectable ? kDetectableReq : 0);
  }
  static Node* request_node(std::uintptr_t payload) noexcept {
    return reinterpret_cast<Node*>(payload & ~kDetectableReq);
  }

  static std::size_t resolve_lane_count(std::size_t lanes) {
    if (lanes == 0) lanes = default_lane_count();
    return std::clamp<std::size_t>(lanes, 1, kMaxLanes);
  }

  /// Lane choice: per-thread round-robin ticket by default (each thread
  /// spreads its enqueues over every lane), thread affinity on request.
  std::size_t pick_lane(std::size_t tid) noexcept {
    const std::size_t n = lanes_.size();
    if (n == 1) return 0;
    if (affinity_) return tid % n;
    return (tid + cursor_[tid].v++) % n;
  }

  // ---- combined exec-enqueue ----------------------------------------------

  void run_combined_enqueue(std::size_t tid, std::size_t lane, Node* node,
                            bool detectable) {
    lanes_[lane]->comb.run(
        tid, request_word(node, detectable),
        [&](const pmem::OpCombiner::Request* reqs, std::size_t n) {
          apply_enqueue_batch(lane, reqs, n);
        });
  }

  /// The combiner body: applied once per batch, on whichever thread holds
  /// the lane's combiner role.  Orders exactly like n single-lane
  /// exec-enqueues collapsed together:
  ///   1. reserve n global tickets (one fetch_add), stamp + chain the
  ///      batch, flush every node, ONE fence;
  ///   2. link the chain with one tail CAS, persist the link;
  ///   3. publish every detectable caller's ENQ_COMPL, flush them all,
  ///      ONE fence.
  /// A batch of n detectable enqueues thus pays 3 fences instead of 2n.
  void apply_enqueue_batch(std::size_t lane,
                           const pmem::OpCombiner::Request* reqs,
                           std::size_t n) {
    LaneState& ln = *lanes_[lane];
    const std::uint64_t s0 =
        enq_seq_p_->fetch_add(n, std::memory_order_relaxed);
    for (std::size_t i = 0; i < n; ++i) {
      Node* node = request_node(reqs[i].payload);
      node->seq.store(s0 + i, std::memory_order_relaxed);
      node->next.store(
          i + 1 < n ? request_node(reqs[i + 1].payload) : nullptr,
          std::memory_order_relaxed);
      ctx_.flush(node, sizeof(Node));
    }
    ctx_.fence_combined();  // one fence persists the whole stamped chain
    ctx_.crash_point("shard:combine:batch-persisted");

    Node* first = request_node(reqs[0].payload);
    Node* last_new = request_node(reqs[n - 1].payload);
    ln.epoch->fetch_add(1, std::memory_order_acq_rel);  // odd: linking
    for (;;) {
      Node* last = ln.anchors->tail.ptr.load(std::memory_order_acquire);
      Node* next = last->next.load(std::memory_order_acquire);
      if (last != ln.anchors->tail.ptr.load(std::memory_order_acquire)) {
        metrics::add(metrics::Counter::kCasRetries);
        trace::cas_retry();
        continue;
      }
      if (next == nullptr) {
        ctx_.crash_point("shard:combine:pre-link");
        if (last->next.compare_exchange_strong(next, first)) {
          ctx_.crash_point("shard:combine:linked-unflushed");
          ctx_.persist_combined(&last->next, sizeof(last->next));
          ctx_.crash_point("shard:combine:linked");
          ln.anchors->tail.ptr.compare_exchange_strong(last, last_new);
          break;
        }
        metrics::add(metrics::Counter::kCasRetries);
        trace::cas_retry();
      } else {
        // The tail lags (a dequeuer helped it into the middle of an
        // earlier chain, or a crash left it stale): help it forward.
        metrics::add(metrics::Counter::kCasRetries);
        trace::cas_retry();
        ctx_.persist_combined(&last->next, sizeof(last->next));
        ln.anchors->tail.ptr.compare_exchange_strong(last, next);
      }
    }
    ln.epoch->fetch_add(1, std::memory_order_release);  // even: done

    bool any_detectable = false;
    for (std::size_t i = 0; i < n; ++i) {
      if ((reqs[i].payload & kDetectableReq) == 0) continue;
      const std::size_t t = reqs[i].slot;
      // The owner is parked in run() until the batch completes, so this
      // read-modify-write cannot race its own stores.
      const TaggedWord w = x_[t].word.load(std::memory_order_relaxed);
      x_[t].word.store(with_tag(w, kEnqComplTag), std::memory_order_release);
      ctx_.flush(&x_[t], sizeof(XSlot));
      any_detectable = true;
    }
    if (any_detectable) ctx_.fence_combined();
    ctx_.crash_point("shard:combine:completed");
  }

  // ---- exec-dequeue body --------------------------------------------------

  Value dequeue_loop(std::size_t tid, bool detectable) {
    Backoff backoff;
    const std::size_t nl = lanes_.size();
    std::uint64_t epochs[kMaxLanes];
    for (;;) {
      metrics::add(metrics::Counter::kLaneScans);
      trace::lane_scan_event(nl);
      std::size_t best_lane = nl;
      Node* best_pred = nullptr;
      Node* best_node = nullptr;
      std::uint64_t best_seq = ~std::uint64_t{0};
      for (std::size_t l = 0; l < nl; ++l) {
        LaneState& ln = *lanes_[l];
        // Epoch first (acquire): the lane walk below cannot hoist above it.
        epochs[l] = ln.epoch->load(std::memory_order_acquire);
        Node* pred = ln.anchors->head.ptr.load(std::memory_order_acquire);
        Node* n = pred->next.load(std::memory_order_acquire);
        while (n != nullptr &&
               n->deq_tid.load(std::memory_order_acquire) != kUnmarked) {
          pred = n;
          n = n->next.load(std::memory_order_acquire);
        }
        if (n != nullptr) {
          // Lanes are seq-sorted, so the first unmarked node carries the
          // lane minimum; the link CAS released the stamp our acquire walk
          // synchronized with.
          const std::uint64_t s = n->seq.load(std::memory_order_relaxed);
          if (s < best_seq) {
            best_seq = s;
            best_lane = l;
            best_pred = pred;
            best_node = n;
          }
        }
      }
      if (best_node != nullptr) {
        if (detectable) {
          // Save predecessor + lane before attempting the claim — a
          // successful mark is then self-detecting (Fig. 4 lines 47–48).
          x_[tid].word.store(
              make_tagged(best_pred, kDeqPrepTag) | lane_field(best_lane),
              std::memory_order_release);
          ctx_.persist_combined(&x_[tid], sizeof(XSlot));
          ctx_.crash_point("shard:exec-deq:pred-saved");
        }
        const std::int64_t mark =
            detectable ? static_cast<std::int64_t>(tid)
                       : static_cast<std::int64_t>(tid) | kNonDetectableMark;
        std::int64_t unmarked = kUnmarked;
        if (best_node->deq_tid.compare_exchange_strong(unmarked, mark)) {
          ctx_.crash_point("shard:exec-deq:marked-unflushed");
          ctx_.persist_combined(&best_node->deq_tid,
                                sizeof(best_node->deq_tid));
          ctx_.crash_point("shard:exec-deq:marked");
          advance_head(best_lane, tid);
          return best_node->value;
        }
        metrics::add(metrics::Counter::kCasRetries);  // lost the claim
        trace::cas_retry();
        backoff.pause();
        continue;
      }
      // Every lane looked empty.  Certify simultaneity: if no lane's link
      // epoch moved (and none was mid-link), no link overlapped the scan,
      // so at the instant the LAST lane was read every lane was still
      // empty — a legal linearization point for EMPTY.
      //
      // dssq-lint: allow(raw-fence) volatile-memory acquire ordering for
      // the seqlock validation reads below (the lane walks must not sink
      // past them); this orders CPU loads, not persistence, so
      // Ctx::fence() — a persist drain — would be the wrong tool.
      std::atomic_thread_fence(std::memory_order_acquire);
      bool certified = true;
      for (std::size_t l = 0; l < nl; ++l) {
        if ((epochs[l] & 1) != 0 ||
            lanes_[l]->epoch->load(std::memory_order_acquire) !=
                epochs[l]) {
          certified = false;
          break;
        }
      }
      if (certified) {
        if (detectable) {
          const TaggedWord xw = x_[tid].word.load(std::memory_order_relaxed);
          x_[tid].word.store(with_tag(xw, kEmptyTag),
                             std::memory_order_release);
          ctx_.persist_combined(&x_[tid], sizeof(XSlot));
          ctx_.crash_point("shard:exec-deq:empty-recorded");
        }
        return kEmpty;
      }
      metrics::add(metrics::Counter::kCasRetries);  // a link raced the scan
      trace::cas_retry();
      backoff.pause();
    }
  }

  /// Advance `lane`'s head past its marked prefix, retiring passed nodes.
  /// Helps persist each mark first, so the persisted-head order of the
  /// pre-reclaim hook never commits an unpersisted dequeue.
  void advance_head(std::size_t lane, std::size_t tid) {
    LaneAnchors* a = lanes_[lane]->anchors;
    for (;;) {
      Node* h = a->head.ptr.load(std::memory_order_acquire);
      Node* n = h->next.load(std::memory_order_acquire);
      if (n == nullptr ||
          n->deq_tid.load(std::memory_order_acquire) == kUnmarked) {
        return;
      }
      ctx_.persist_combined(&n->deq_tid, sizeof(n->deq_tid));
      if (a->head.ptr.compare_exchange_strong(h, n)) {
        retire(tid, h);
      }
    }
  }

  // ---- resolve helpers ----------------------------------------------------

  Resolved resolve_enqueue(TaggedWord xw) const {
    const Value arg = untag<Node>(xw)->value;
    if (has_tag(xw, kEnqComplTag)) {
      return Resolved::enqueue(arg, kOk);
    }
    return Resolved::enqueue(arg);
  }

  Resolved resolve_dequeue(std::size_t tid, TaggedWord xw) const {
    if (has_tag(xw, kEmptyTag)) {
      return Resolved::dequeue(kEmpty);
    }
    Node* pred = untag<Node>(xw);
    if (pred == nullptr) {  // prepared, no attempt recorded
      return Resolved::dequeue();
    }
    Node* target = pred->next.load(std::memory_order_acquire);
    if (target != nullptr &&
        target->deq_tid.load(std::memory_order_acquire) ==
            static_cast<std::int64_t>(tid)) {
      return Resolved::dequeue(target->value);
    }
    return Resolved::dequeue();
  }

  // ---- memory management --------------------------------------------------

  void reclaim_failed_prep(std::size_t tid) {
    const TaggedWord xw = x_[tid].word.load(std::memory_order_relaxed);
    if (has_tag(xw, kEnqPrepTag) && !has_tag(xw, kEnqComplTag)) {
      Node* node = untag<Node>(xw);
      if (node != nullptr) arena_.release(tid, node);
    }
  }

  Node* acquire_node(std::size_t tid) {
    Node* node = arena_.try_acquire(ctx_, tid);
    for (int i = 0; i < 4096 && node == nullptr; ++i) {
      ebr_.try_advance_and_drain(tid);
      std::this_thread::yield();
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

  /// Pre-reclaim hook: persist EVERY lane's head (one flush per lane, one
  /// combined fence) before any node of the batch becomes reusable, then
  /// retry deferred X-pinned nodes.
  void persist_heads_for_reuse(std::size_t tid) {
    if constexpr (Policy::kPersistHeadBeforeReuse) {
      for (auto& lane : lanes_) {
        ctx_.flush(&lane->anchors->head, sizeof(PaddedPtr));
      }
      ctx_.fence_combined();
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
    return validate_queue_root(r, QueueRoot::kKindSharded,
                               "ShardedDssQueue");
  }

  Ctx& ctx_;
  pmem::NodeArena<Node> arena_;
  ebr::EpochManager ebr_;
  std::size_t max_threads_;
  XSlot* x_ = nullptr;
  std::vector<std::unique_ptr<LaneState>> lanes_;
  /// Global enqueue ticket clock, accessed through enq_seq_p_: the owned
  /// word in single-process mode, a heap-shared line after make_root/
  /// adopt.  Volatile by design either way: recovery recomputes it as
  /// (max reachable seq) + 1, so it never needs its own persists.
  PaddedSeq enq_seq_own_{{1}};
  std::atomic<std::uint64_t>* enq_seq_p_ = &enq_seq_own_.v;
  std::vector<std::vector<Node*>> deferred_;
  std::vector<PaddedCursor> cursor_;
  bool shared_serving_ = false;  // multi-process: no node reuse in-flight
  bool affinity_ = false;
  metrics::RecoveryTrace last_recovery_;
};

}  // namespace dssq::queues
