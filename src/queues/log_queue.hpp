// The log queue — Friedman, Herlihy, Marathe & Petrank's detectable queue
// (PPoPP'18), reimplemented as the paper's Figure 5b competitor.
//
// Detectability here comes from per-thread *logs* rather than the DSS
// queue's tagged X array: every operation dynamically allocates a log
// entry holding the operation kind, argument and (eventually) its return
// value; the thread's log-anchor slot points at its current entry.  Queue
// nodes carry a `remover` pointer to the dequeuing operation's log entry
// (in place of the durable queue's deqThreadID), and concurrent helpers
// write the dequeued value *into the winner's log entry* before advancing
// the head — "operation arguments and return values are stored directly in
// the logs, and are accessed by other threads via helping mechanisms"
// (Li & Golab, Section 4).
//
// The contrast the paper draws (and Figure 5b measures): the DSS queue's
// detectability state is statically allocated and effectively private,
// while the log queue allocates log objects dynamically in addition to
// queue nodes, and those objects are shared during concurrent dequeues —
// costing extra persists and cache traffic.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <thread>
#include <vector>

#include "common/flight_recorder.hpp"
#include "common/metrics.hpp"
#include "common/spin.hpp"
#include "ebr/ebr.hpp"
#include "pmem/context.hpp"
#include "pmem/node_arena.hpp"
#include "queues/types.hpp"

namespace dssq::queues {

template <class Ctx>
class LogQueue {
 public:
  /// Sentinel stored in LogEntry::result before the response is known.
  static constexpr Value kUnset = INT64_MIN;

  enum class OpKind : std::uint64_t { kNone = 0, kEnqueue = 1, kDequeue = 2 };

  struct alignas(kCacheLineSize) LogEntry {
    std::atomic<std::uint64_t> kind{0};  // OpKind
    Value arg{0};
    std::atomic<void*> node{nullptr};    // enqueue: the node being inserted
    std::atomic<Value> result{kUnset};
  };
  static_assert(sizeof(LogEntry) == kCacheLineSize);

  struct alignas(kCacheLineSize) LogNode {
    std::atomic<LogNode*> next{nullptr};
    std::atomic<LogEntry*> remover{nullptr};
    Value value{0};
  };
  static_assert(sizeof(LogNode) == kCacheLineSize);

  LogQueue(Ctx& ctx, std::size_t max_threads, std::size_t nodes_per_thread)
      : ctx_(ctx),
        nodes_(ctx, max_threads, nodes_per_thread),
        // Log entries churn once per operation and linger in EBR limbo for
        // up to a grace period plus a drain interval, so the entry pool is
        // sized with generous headroom over the node pool.
        entries_(ctx, max_threads, nodes_per_thread + 512),
        ebr_(max_threads),
        max_threads_(max_threads) {
    head_ = pmem::alloc_object<PaddedPtr>(ctx_);
    tail_ = pmem::alloc_object<PaddedPtr>(ctx_);
    anchors_ = pmem::alloc_array<Anchor>(ctx_, max_threads);
    LogNode* sentinel = pmem::alloc_object<LogNode>(ctx_);
    ctx_.persist(sentinel, sizeof(LogNode));
    head_->ptr.store(sentinel, std::memory_order_relaxed);
    tail_->ptr.store(sentinel, std::memory_order_relaxed);
    ctx_.persist(head_, sizeof(PaddedPtr));
    ctx_.persist(tail_, sizeof(PaddedPtr));
    ebr_.set_pre_reclaim_hook(
        [this](std::size_t) { ctx_.persist_combined(head_, sizeof(PaddedPtr)); });
  }

  /// Detectable enqueue (every log-queue operation is detectable; there is
  /// no on-demand knob — one of the contrasts with the DSS approach).
  void enqueue(std::size_t tid, Value v) {
    trace::OpScope scope(trace::Op::kEnqueue);
    // Allocate outside the epoch region (pool-dry acquisition pumps
    // epochs, which a held reservation would cap).
    LogEntry* e = new_entry(tid, OpKind::kEnqueue, v);
    LogNode* node = acquire_node(tid);
    node->next.store(nullptr, std::memory_order_relaxed);
    node->remover.store(nullptr, std::memory_order_relaxed);
    node->value = v;
    e->node.store(node, std::memory_order_relaxed);
    ctx_.persist_combined(node, sizeof(LogNode));
    ctx_.persist_combined(e, sizeof(LogEntry));
    ebr::EpochGuard guard(ebr_, tid);
    publish_anchor(tid, e);
    ctx_.crash_point("log:enq:announced");

    Backoff backoff;
    for (;;) {
      LogNode* last = tail_->ptr.load(std::memory_order_acquire);
      LogNode* next = last->next.load(std::memory_order_acquire);
      if (last != tail_->ptr.load(std::memory_order_acquire)) {
        metrics::add(metrics::Counter::kCasRetries);
        trace::cas_retry();
        continue;
      }
      if (next == nullptr) {
        if (last->next.compare_exchange_strong(next, node)) {
          ctx_.persist_combined(&last->next, sizeof(last->next));
          ctx_.crash_point("log:enq:linked");
          // Record the response in the log (the extra persist the DSS
          // queue's tag-in-X trick avoids).
          e->result.store(kOk, std::memory_order_release);
          ctx_.persist_combined(&e->result, sizeof(e->result));
          tail_->ptr.compare_exchange_strong(last, node);
          return;
        }
        metrics::add(metrics::Counter::kCasRetries);  // lost the link CAS
        trace::cas_retry();
        backoff.pause();
      } else {
        metrics::add(metrics::Counter::kCasRetries);
        trace::cas_retry();
        ctx_.persist_combined(&last->next, sizeof(last->next));
        tail_->ptr.compare_exchange_strong(last, next);
      }
    }
  }

  /// Detectable dequeue.
  Value dequeue(std::size_t tid) {
    trace::OpScope scope(trace::Op::kDequeue);
    LogEntry* e = new_entry(tid, OpKind::kDequeue, 0);  // outside the region
    ctx_.persist_combined(e, sizeof(LogEntry));
    ebr::EpochGuard guard(ebr_, tid);
    publish_anchor(tid, e);
    ctx_.crash_point("log:deq:announced");

    Backoff backoff;
    for (;;) {
      LogNode* first = head_->ptr.load(std::memory_order_acquire);
      LogNode* last = tail_->ptr.load(std::memory_order_acquire);
      LogNode* next = first->next.load(std::memory_order_acquire);
      if (first != head_->ptr.load(std::memory_order_acquire)) {
        metrics::add(metrics::Counter::kCasRetries);
        trace::cas_retry();
        continue;
      }
      if (first == last) {
        if (next == nullptr) {
          e->result.store(kEmpty, std::memory_order_release);
          ctx_.persist_combined(&e->result, sizeof(e->result));
          ctx_.crash_point("log:deq:empty-recorded");
          return kEmpty;
        }
        metrics::add(metrics::Counter::kCasRetries);  // stale tail
        trace::cas_retry();
        ctx_.persist_combined(&last->next, sizeof(last->next));
        tail_->ptr.compare_exchange_strong(last, next);
      } else {
        LogEntry* expected = nullptr;
        ctx_.crash_point("log:deq:pre-claim");
        if (next->remover.compare_exchange_strong(expected, e)) {
          ctx_.persist_combined(&next->remover, sizeof(next->remover));
          ctx_.crash_point("log:deq:claimed");
          e->result.store(next->value, std::memory_order_release);
          ctx_.persist_combined(&e->result, sizeof(e->result));
          if (head_->ptr.compare_exchange_strong(first, next)) {
            retire_node(tid, first);
          }
          return next->value;
        }
        // Help the winner: persist its claim, complete its log entry, and
        // advance the head.
        metrics::add(metrics::Counter::kCasRetries);  // lost the claim CAS
        trace::cas_retry();
        if (head_->ptr.load(std::memory_order_acquire) == first) {
          LogEntry* winner = next->remover.load(std::memory_order_acquire);
          if (winner != nullptr) {
            ctx_.persist_combined(&next->remover, sizeof(next->remover));
            Value unset = kUnset;
            if (winner->result.compare_exchange_strong(unset, next->value)) {
              ctx_.persist_combined(&winner->result, sizeof(winner->result));
            }
            if (head_->ptr.compare_exchange_strong(first, next)) {
              retire_node(tid, first);
            }
          }
        }
        backoff.pause();
      }
    }
  }

  /// Detection: the status of this thread's most recent operation,
  /// reconstructed from its log anchor.
  Resolved resolve(std::size_t tid) const {
    const LogEntry* e = anchors_[tid].cur.load(std::memory_order_acquire);
    if (e == nullptr) return Resolved::none();
    const auto kind =
        static_cast<OpKind>(e->kind.load(std::memory_order_acquire));
    const Value result = e->result.load(std::memory_order_acquire);
    const std::optional<Value> resp =
        result != kUnset ? std::optional<Value>(result) : std::nullopt;
    return kind == OpKind::kEnqueue ? Resolved::enqueue(e->arg, resp)
                                    : Resolved::dequeue(resp);
  }

  /// Centralized recovery: repair head/tail, complete log entries whose
  /// operation took effect but whose result was not persisted, rebuild
  /// free lists.  Requires quiescence.
  void recover() {
    ebr_.drain_all_unsafe_without_reclaiming();

    LogNode* old_head = head_->ptr.load(std::memory_order_relaxed);
    typename pmem::NodeArena<LogNode>::Marks reachable(nodes_);
    LogNode* last = old_head;
    reachable.set(old_head);
    std::size_t scanned = 1;
    while (LogNode* next = last->next.load(std::memory_order_relaxed)) {
      last = next;
      reachable.set(last);
      ++scanned;
    }
    trace::recovery_step(trace::RecoveryStep::kScan, scanned);
    const bool tail_moved = tail_->ptr.load(std::memory_order_relaxed) != last;
    tail_->ptr.store(last, std::memory_order_relaxed);
    ctx_.persist(tail_, sizeof(PaddedPtr));
    trace::recovery_step(trace::RecoveryStep::kTailRepair,
                         tail_moved ? 1 : 0);
    metrics::add(metrics::Counter::kRecoveryNodesScanned, scanned);

    // Complete interrupted operations from the logs: enqueues here,
    // dequeues (at most one per thread) in one list walk below.
    std::uint64_t log_repairs = 0;
    std::vector<LogEntry*> pending_deq;
    for (std::size_t i = 0; i < max_threads_; ++i) {
      LogEntry* e = anchors_[i].cur.load(std::memory_order_relaxed);
      if (e == nullptr) continue;
      if (e->result.load(std::memory_order_relaxed) != kUnset) continue;
      const auto kind =
          static_cast<OpKind>(e->kind.load(std::memory_order_relaxed));
      if (kind == OpKind::kEnqueue) {
        auto* node =
            static_cast<LogNode*>(e->node.load(std::memory_order_relaxed));
        const bool linked =
            node != nullptr &&
            (reachable.test(node) ||
             node->remover.load(std::memory_order_relaxed) != nullptr);
        if (linked) {
          e->result.store(kOk, std::memory_order_relaxed);
          ctx_.persist(&e->result, sizeof(e->result));
          metrics::add(metrics::Counter::kRecoveryTagsRepaired);
          ++log_repairs;
        }
      } else if (kind == OpKind::kDequeue) {
        pending_deq.push_back(e);
      }
    }
    // A pending dequeue took effect iff some node names it as its remover;
    // the first such node from old_head carries its value.
    for (LogNode* n = old_head; n != nullptr && !pending_deq.empty();
         n = n->next.load(std::memory_order_relaxed)) {
      LogEntry* r = n->remover.load(std::memory_order_relaxed);
      const auto it = std::find(pending_deq.begin(), pending_deq.end(), r);
      if (it == pending_deq.end()) continue;
      r->result.store(n->value, std::memory_order_relaxed);
      ctx_.persist(&r->result, sizeof(r->result));
      metrics::add(metrics::Counter::kRecoveryTagsRepaired);
      ++log_repairs;
      pending_deq.erase(it);
    }

    // Advance head past claimed nodes.
    LogNode* new_head = old_head;
    for (LogNode* n = old_head->next.load(std::memory_order_relaxed);
         n != nullptr &&
         n->remover.load(std::memory_order_relaxed) != nullptr;
         n = n->next.load(std::memory_order_relaxed)) {
      new_head = n;
    }
    head_->ptr.store(new_head, std::memory_order_relaxed);
    ctx_.persist(head_, sizeof(PaddedPtr));
    trace::recovery_step(trace::RecoveryStep::kHeadRepair,
                         new_head != old_head ? 1 : 0);
    trace::recovery_step(trace::RecoveryStep::kTagRepair, log_repairs);

    // Free lists: keep nodes reachable from the NEW head (unmark the
    // prefix the head advance skipped), anchored entries, and the nodes
    // they reference.
    reachable.clear_chain(old_head, new_head);
    typename pmem::NodeArena<LogEntry>::Marks keep_entries(entries_);
    for (std::size_t i = 0; i < max_threads_; ++i) {
      const LogEntry* e = anchors_[i].cur.load(std::memory_order_relaxed);
      if (e == nullptr) continue;
      keep_entries.set(e);
      if (const auto* node =
              static_cast<const LogNode*>(e->node.load(
                  std::memory_order_relaxed))) {
        reachable.set(node);
      }
    }
    const std::uint64_t reclaimed = nodes_.release_unmarked(reachable) +
                                    entries_.release_unmarked(keep_entries);
    trace::recovery_step(trace::RecoveryStep::kReclaim, reclaimed);
  }

  void drain_to(std::vector<Value>& out) const {
    LogNode* n = head_->ptr.load(std::memory_order_relaxed)
                     ->next.load(std::memory_order_relaxed);
    while (n != nullptr) {
      if (n->remover.load(std::memory_order_relaxed) == nullptr) {
        out.push_back(n->value);
      }
      n = n->next.load(std::memory_order_relaxed);
    }
  }

  std::size_t max_threads() const noexcept { return max_threads_; }

 private:
  struct alignas(kCacheLineSize) PaddedPtr {
    std::atomic<LogNode*> ptr{nullptr};
  };
  struct alignas(kCacheLineSize) Anchor {
    std::atomic<LogEntry*> cur{nullptr};
  };

  /// Pool-dry acquisition pumps epochs; callers are outside any region.
  LogNode* acquire_node(std::size_t tid) {
    LogNode* node = nodes_.try_acquire(tid);
    for (int i = 0; i < 4096 && node == nullptr; ++i) {
      ebr_.try_advance_and_drain(tid);
      std::this_thread::yield();
      node = nodes_.try_acquire(tid);
    }
    if (node == nullptr) throw std::bad_alloc();
    return node;
  }

  LogEntry* new_entry(std::size_t tid, OpKind kind, Value arg) {
    LogEntry* e = entries_.try_acquire(tid);
    for (int i = 0; i < 4096 && e == nullptr; ++i) {
      ebr_.try_advance_and_drain(tid);
      std::this_thread::yield();
      e = entries_.try_acquire(tid);
    }
    if (e == nullptr) throw std::bad_alloc();
    // dssq-lint: allow(persist-after-store) the entry is thread-private
    // until publish_anchor(); both callers persist the whole LogEntry once
    // before publishing, which is cheaper than a flush per field.
    e->kind.store(static_cast<std::uint64_t>(kind),
                  std::memory_order_relaxed);
    e->arg = arg;
    // dssq-lint: allow(persist-after-store) private until publish; see above.
    e->node.store(nullptr, std::memory_order_relaxed);
    // dssq-lint: allow(persist-after-store) private until publish; see above.
    e->result.store(kUnset, std::memory_order_relaxed);
    return e;
  }

  void publish_anchor(std::size_t tid, LogEntry* e) {
    LogEntry* prev = anchors_[tid].cur.load(std::memory_order_relaxed);
    anchors_[tid].cur.store(e, std::memory_order_release);
    ctx_.persist_combined(&anchors_[tid], sizeof(Anchor));
    if (prev != nullptr) retire_entry(tid, prev);
  }

  void retire_node(std::size_t tid, LogNode* node) {
    ebr_.retire(tid, node, [this, tid](void* p) {
      nodes_.release(tid, static_cast<LogNode*>(p));
    });
  }

  /// A superseded log entry may still be written by helpers completing the
  /// previous operation, so it passes through a grace period before reuse.
  void retire_entry(std::size_t tid, LogEntry* e) {
    ebr_.retire(tid, e, [this, tid](void* p) {
      entries_.release(tid, static_cast<LogEntry*>(p));
    });
  }

  Ctx& ctx_;
  pmem::NodeArena<LogNode> nodes_;
  pmem::NodeArena<LogEntry> entries_;
  ebr::EpochManager ebr_;
  std::size_t max_threads_;
  PaddedPtr* head_ = nullptr;
  PaddedPtr* tail_ = nullptr;
  Anchor* anchors_ = nullptr;
};

}  // namespace dssq::queues
