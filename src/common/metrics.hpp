// Observability counters — the measurement substrate behind every
// "measurably faster" claim in this repository.
//
// The paper's evaluation (Section 4) is about *attributed* cost: the gap
// between the MS queue, the non-detectable DSS queue and the detectable
// DSS queue is the price of persistence and of detectability, and that
// price is paid in concrete events — cache-line write-backs, persist
// fences, CAS retries.  This header provides cache-line-padded per-thread
// counter slots for those events, so benches can report not just "Mops/s"
// but "flushes per operation", turning the paper's prose claims (e.g. the
// detectable queue's extra X persists) into testable ratios.
//
// Design rules:
//   * counting must never perturb what it measures: each OS thread owns a
//     padded slot (leased from a ThreadRegistry on first use) and is its
//     only writer, so a bump is a relaxed load plus a relaxed store on its
//     own cache line — no locked instruction, no sharing, no fences.  Only
//     the shared overflow slot (threads beyond the registry's capacity, and
//     adds made after a thread's lease was released at exit) takes a
//     fetch_add;
//   * aggregation (snapshot/reset) is for quiescent or statistical use:
//     totals are sums of relaxed per-slot reads;
//   * the whole subsystem compiles to no-ops when the CMake option
//     DSSQ_METRICS is OFF (DSSQ_METRICS_ENABLED=0), so the hot path of a
//     metrics-free build is provably unchanged.
//
// Counter semantics and the paper lines they instrument are documented in
// docs/observability.md.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

#include "common/cacheline.hpp"

#ifndef DSSQ_METRICS_ENABLED
#define DSSQ_METRICS_ENABLED 1
#endif

namespace dssq::metrics {

enum class Counter : std::size_t {
  kOps = 0,                // operations issued through a harness adapter
  kFlushCalls,             // backend flush() invocations (CLWB batches)
  kFlushLines,             // cache lines written back across those calls
  kFences,                 // backend fence() invocations (SFENCE)
  kFencesElided,           // combined fences satisfied by another thread
  kFencesCombined,         // combiner-issued fences that covered waiters
  kCombinerSpinFallbacks,  // bounded spin expired; thread self-fenced
  kCasRetries,             // failed-CAS / stale-snapshot loop repetitions
  kEbrRetired,             // nodes handed to EBR limbo
  kEbrReclaimed,           // nodes whose reclaim callback ran
  kRecoveryNodesScanned,   // nodes visited by a recovery pass
  kRecoveryTagsRepaired,   // X/log records completed by recovery
  kOpsCombined,            // operations applied by op-combining batches
  kLaneScans,              // full lane scans by a sharded dequeue
  kLeasesAcquired,         // detectability slots leased to a client
  kLeasesReclaimed,        // leases taken over from a provably dead client
  kCount
};

inline constexpr std::size_t kCounterCount =
    static_cast<std::size_t>(Counter::kCount);

/// Stable machine-readable counter name (used as the JSON key).
inline const char* name(Counter c) noexcept {
  switch (c) {
    case Counter::kOps: return "ops";
    case Counter::kFlushCalls: return "flush_calls";
    case Counter::kFlushLines: return "flush_lines";
    case Counter::kFences: return "fences";
    case Counter::kFencesElided: return "fences_elided";
    case Counter::kFencesCombined: return "fences_combined";
    case Counter::kCombinerSpinFallbacks: return "combiner_spin_fallbacks";
    case Counter::kCasRetries: return "cas_retries";
    case Counter::kEbrRetired: return "ebr_retired";
    case Counter::kEbrReclaimed: return "ebr_reclaimed";
    case Counter::kRecoveryNodesScanned: return "recovery_nodes_scanned";
    case Counter::kRecoveryTagsRepaired: return "recovery_tags_repaired";
    case Counter::kOpsCombined: return "ops_combined";
    case Counter::kLaneScans: return "lane_scans";
    case Counter::kLeasesAcquired: return "leases_acquired";
    case Counter::kLeasesReclaimed: return "leases_reclaimed";
    case Counter::kCount: break;
  }
  return "unknown";
}

/// Point-in-time totals (sum over every slot).  Snapshots taken before and
/// after a run subtract to the run's attribution; all counters are
/// monotonic between reset() calls, so deltas never underflow.
struct Snapshot {
  std::array<std::uint64_t, kCounterCount> values{};

  std::uint64_t operator[](Counter c) const noexcept {
    return values[static_cast<std::size_t>(c)];
  }
  Snapshot operator-(const Snapshot& rhs) const noexcept {
    Snapshot d;
    for (std::size_t i = 0; i < kCounterCount; ++i) {
      d.values[i] = values[i] - rhs.values[i];
    }
    return d;
  }
};

/// What one recovery pass did (the Figure-6 walk).  Kept separate from the
/// global counters so a white-box test can interrogate a specific queue's
/// last recovery even in a DSSQ_METRICS=OFF build — recovery is a cold
/// path, so this costs the hot path nothing.
struct RecoveryTrace {
  std::uint64_t nodes_scanned = 0;   // list walk from the persisted head
  std::uint64_t tags_repaired = 0;   // ENQ_COMPL (or log-result) completions
  std::uint64_t nodes_reclaimed = 0; // nodes returned to free lists
  bool head_moved = false;           // head advanced past marked prefix
  bool tail_moved = false;           // tail repaired to the last node
};

#if DSSQ_METRICS_ENABLED

inline constexpr bool kEnabled = true;

namespace detail {
// kCounterCount words exceed one line; alignment (not exact size) is what
// prevents two slots from sharing a line.
struct alignas(kCacheLineSize) Slot {
  std::array<std::atomic<std::uint64_t>, kCounterCount> c{};
};

// 256 concurrent threads cover every harness in the repo with headroom
// (kMaxThreads is 32); g_slots[kSlotCapacity] is the shared overflow slot
// for any excess, so add() never fails or blocks.
inline constexpr std::size_t kSlotCapacity = 256;
extern Slot g_slots[kSlotCapacity + 1];

/// The calling thread's slot: nullptr until its first add() leases one,
/// and the overflow slot once the lease is released at thread exit (a late
/// add from another thread_local destructor then never races the slot's
/// next tenant).  constinit, so reading it needs no TLS guard.
extern constinit thread_local Slot* t_slot;

/// Slow path of the first add(): lease a slot and cache it in t_slot.
Slot& lease_slot() noexcept;
}  // namespace detail

/// Bump a counter on the calling thread's slot.  Wait-free; a leased slot
/// has exactly one writer, so the bump is a relaxed load and store (slot
/// contents survive the lease, so totals stay monotonic).
inline void add(Counter c, std::uint64_t n = 1) noexcept {
  detail::Slot* s = detail::t_slot;
  if (s == nullptr) [[unlikely]] s = &detail::lease_slot();
  std::atomic<std::uint64_t>& w = s->c[static_cast<std::size_t>(c)];
  if (s == &detail::g_slots[detail::kSlotCapacity]) [[unlikely]] {
    w.fetch_add(n, std::memory_order_relaxed);
  } else {
    w.store(w.load(std::memory_order_relaxed) + n,
            std::memory_order_relaxed);
  }
}

/// Index of the calling thread's slot (tests: slot-isolation assertions).
/// Threads beyond the registry's capacity share the overflow slot
/// (index == max_slots()).
std::size_t slot_id() noexcept;
std::size_t max_slots() noexcept;

/// One slot's current value (tests).  `slot` in [0, max_slots()].
std::uint64_t slot_value(std::size_t slot, Counter c) noexcept;

/// Sum of every slot, per counter.
Snapshot snapshot() noexcept;

/// Zero every slot.  Call only at quiescence (concurrent adds may be lost).
void reset() noexcept;

#else  // !DSSQ_METRICS_ENABLED — every entry point folds to nothing.

inline constexpr bool kEnabled = false;

inline void add(Counter, std::uint64_t = 1) noexcept {}
inline std::size_t slot_id() noexcept { return 0; }
inline std::size_t max_slots() noexcept { return 0; }
inline std::uint64_t slot_value(std::size_t, Counter) noexcept { return 0; }
inline Snapshot snapshot() noexcept { return {}; }
inline void reset() noexcept {}

#endif  // DSSQ_METRICS_ENABLED

}  // namespace dssq::metrics
