// Tests for the observability layer (src/common/metrics.hpp):
//
//   * per-thread slot isolation — concurrent threads get distinct slots and
//     nothing is lost in aggregation;
//   * counter correctness — a known operation sequence on the emulated-NVM
//     DSS queue produces the exact flush/fence counts implied by Figure 3,
//     and the detectable path strictly out-flushes the non-detectable one
//     (the price of detectability, made into a testable ratio);
//   * recovery tracing — after an injected crash, the queue's
//     last_recovery() trace reports the Figure-6 walk (works even in
//     DSSQ_METRICS=OFF builds: RecoveryTrace is never compiled out);
//   * the JSON writer the reports are built from.

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <set>
#include <thread>
#include <vector>

#include "common/json_writer.hpp"
#include "common/metrics.hpp"
#include "pmem/context.hpp"
#include "pmem/crash.hpp"
#include "pmem/shadow_pool.hpp"
#include "queues/dss_queue.hpp"

namespace dssq {
namespace {

using metrics::Counter;
using metrics::Snapshot;

// ---- slot isolation -------------------------------------------------------

TEST(MetricsSlots, ThreadsGetDistinctSlotsAndNoLostUpdates) {
  if (!metrics::kEnabled) GTEST_SKIP() << "metrics compiled out";

  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kPerThread = 10'000;

  const Snapshot before = metrics::snapshot();
  std::vector<std::size_t> slot_ids(kThreads);
  std::atomic<bool> go{false};
  std::atomic<std::size_t> arrived{0};
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) {}
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        metrics::add(Counter::kCasRetries);
      }
      slot_ids[t] = metrics::slot_id();
      // Slots are leased for the thread's lifetime and recycled at exit;
      // distinctness is only guaranteed while the leases overlap, so hold
      // every thread alive until all of them own a slot.
      arrived.fetch_add(1, std::memory_order_acq_rel);
      while (arrived.load(std::memory_order_acquire) < kThreads) {
        std::this_thread::yield();
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& w : workers) w.join();
  const Snapshot delta = metrics::snapshot() - before;

  // Far fewer threads than registry capacity: every thread owns its slot.
  const std::set<std::size_t> distinct(slot_ids.begin(), slot_ids.end());
  EXPECT_EQ(distinct.size(), kThreads);
  for (const std::size_t id : slot_ids) EXPECT_LE(id, metrics::max_slots());

  // Relaxed per-slot adds with no sharing: totals are exact, not sampled.
  EXPECT_EQ(delta[Counter::kCasRetries], kThreads * kPerThread);
}

TEST(MetricsSlots, SequentialThreadsReuseASlotAndTotalsStayExact) {
  if (!metrics::kEnabled) GTEST_SKIP() << "metrics compiled out";

  constexpr std::size_t kThreads = 6;
  constexpr std::uint64_t kPerThread = 5'000;

  const Snapshot before = metrics::snapshot();
  std::vector<std::size_t> slot_ids(kThreads);
  std::vector<std::uint64_t> slot_before(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    std::thread([&, t] {
      slot_ids[t] = metrics::slot_id();
      slot_before[t] = metrics::slot_value(slot_ids[t], Counter::kLaneScans);
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        metrics::add(Counter::kLaneScans);
      }
    }).join();
  }
  const Snapshot delta = metrics::snapshot() - before;

  // Each thread's lease was released before the next one started, so
  // every thread got the same (lowest free) slot and carried on from the
  // previous tenant's value: the single-writer adds lose nothing.
  const std::set<std::size_t> distinct(slot_ids.begin(), slot_ids.end());
  EXPECT_EQ(distinct.size(), 1u);
  EXPECT_LT(slot_ids[0], metrics::max_slots());
  for (std::size_t t = 1; t < kThreads; ++t) {
    EXPECT_EQ(slot_before[t], slot_before[t - 1] + kPerThread);
  }
  EXPECT_EQ(delta[Counter::kLaneScans], kThreads * kPerThread);
}

TEST(MetricsSlots, AddAfterLeaseReleaseLandsInOverflowSlot) {
  if (!metrics::kEnabled) GTEST_SKIP() << "metrics compiled out";

  // A thread_local constructed BEFORE the thread's first add() is
  // destroyed AFTER the slot lease, so its destructor adds to a released
  // lease: the add must land, counted, in the shared overflow slot.
  struct LateAdder {
    bool armed = false;
    ~LateAdder() {
      if (armed) metrics::add(Counter::kLeasesReclaimed, 3);
    }
  };
  const std::size_t overflow = metrics::max_slots();
  const Snapshot before = metrics::snapshot();
  const std::uint64_t overflow_before =
      metrics::slot_value(overflow, Counter::kLeasesReclaimed);
  std::size_t leased = overflow;
  std::thread([&] {
    thread_local LateAdder late;
    late.armed = true;
    metrics::add(Counter::kLeasesReclaimed);
    leased = metrics::slot_id();
  }).join();
  const Snapshot delta = metrics::snapshot() - before;

  EXPECT_LT(leased, overflow);
  EXPECT_EQ(metrics::slot_value(overflow, Counter::kLeasesReclaimed),
            overflow_before + 3);
  EXPECT_EQ(delta[Counter::kLeasesReclaimed], 4u);
}

TEST(MetricsSlots, SnapshotDeltaIsolatesARun) {
  if (!metrics::kEnabled) GTEST_SKIP() << "metrics compiled out";
  const Snapshot a = metrics::snapshot();
  metrics::add(Counter::kOps, 7);
  const Snapshot b = metrics::snapshot();
  const Snapshot d = b - a;
  EXPECT_EQ(d[Counter::kOps], 7u);
  EXPECT_EQ(d[Counter::kFences], 0u);
}

// ---- counter correctness on a known sequence ------------------------------

using NvmQ = queues::DssQueue<pmem::EmulatedNvmContext>;

// Figure 3's persistence schedule, counted.  A non-detectable enqueue
// persists (a) the initialized node and (b) the link; each persist is one
// flush call + one fence on the emulated backend.  The detectable path
// adds (c) the X[p] announcement in prep and (d) the X[p] completion —
// exactly 2 extra flushes and 2 extra fences per operation.
TEST(MetricsCounters, EnqueueFlushCountsMatchFigure3) {
  if (!metrics::kEnabled) GTEST_SKIP() << "metrics compiled out";

  constexpr std::uint64_t kOps = 10;

  pmem::EmulatedNvmContext ctx(1 << 22);
  NvmQ q(ctx, 1, 64);
  const Snapshot before = metrics::snapshot();
  for (std::uint64_t i = 0; i < kOps; ++i) {
    q.enqueue(0, static_cast<queues::Value>(i) + 1);
  }
  const Snapshot nondet = metrics::snapshot() - before;

  pmem::EmulatedNvmContext ctx2(1 << 22);
  NvmQ q2(ctx2, 1, 64);
  const Snapshot before2 = metrics::snapshot();
  for (std::uint64_t i = 0; i < kOps; ++i) {
    q2.prep_enqueue(0, static_cast<queues::Value>(i) + 1);
    q2.exec_enqueue(0);
  }
  const Snapshot det = metrics::snapshot() - before2;

  EXPECT_EQ(nondet[Counter::kFlushCalls], 2 * kOps);
  EXPECT_EQ(nondet[Counter::kFences], 2 * kOps);
  EXPECT_EQ(det[Counter::kFlushCalls], 4 * kOps);
  EXPECT_EQ(det[Counter::kFences], 4 * kOps);

  // The invariant the fig5a JSON report lets CI assert.
  EXPECT_GT(det[Counter::kFlushCalls], nondet[Counter::kFlushCalls]);

  // Single-threaded, uncontended: no CAS retries, no reclamation.
  EXPECT_EQ(nondet[Counter::kCasRetries], 0u);
  EXPECT_EQ(det[Counter::kCasRetries], 0u);
  EXPECT_EQ(det[Counter::kEbrRetired], 0u);
}

// ---- recovery tracing -----------------------------------------------------

using SimQ = queues::DssQueue<pmem::SimContext>;

TEST(MetricsRecovery, TraceReportsTheFigure6Walk) {
  pmem::ShadowPool pool(1 << 22);
  pmem::CrashPoints points;
  pmem::SimContext ctx(pool, points);
  SimQ q(ctx, 1, 64);
  for (queues::Value v = 1; v <= 3; ++v) q.enqueue(0, v);

  // Crash right after the link CAS persisted: the node is in the list but
  // X[0] still lacks ENQ_COMPL, so recovery must repair exactly one tag.
  q.prep_enqueue(0, 100);
  points.arm_at_label("dss:exec-enq:linked");
  bool crashed = false;
  try {
    q.exec_enqueue(0);
  } catch (const pmem::SimulatedCrash&) {
    crashed = true;
  }
  points.disarm();
  ASSERT_TRUE(crashed);

  pool.crash({pmem::ShadowPool::Survival::kAll, 1.0, 1});
  const metrics::Snapshot before = metrics::snapshot();
  q.recover();
  const metrics::Snapshot delta = metrics::snapshot() - before;

  const metrics::RecoveryTrace& trace = q.last_recovery();
  // Sentinel + {1,2,3} + the linked 100-node.
  EXPECT_EQ(trace.nodes_scanned, 5u);
  EXPECT_EQ(trace.tags_repaired, 1u);

  if (metrics::kEnabled) {
    EXPECT_EQ(delta[Counter::kRecoveryNodesScanned], trace.nodes_scanned);
    EXPECT_EQ(delta[Counter::kRecoveryTagsRepaired], trace.tags_repaired);
  }

  const queues::Resolved r = q.resolve(0);
  EXPECT_EQ(r.op, queues::Resolved::Op::kEnqueue);
  EXPECT_EQ(r.arg, 100);
  ASSERT_TRUE(r.response.has_value());
  EXPECT_EQ(*r.response, queues::kOk);
}

TEST(MetricsRecovery, CleanRecoveryRepairsNothing) {
  pmem::ShadowPool pool(1 << 22);
  pmem::CrashPoints points;
  pmem::SimContext ctx(pool, points);
  SimQ q(ctx, 1, 64);
  for (queues::Value v = 1; v <= 3; ++v) q.enqueue(0, v);

  pool.crash({pmem::ShadowPool::Survival::kAll, 1.0, 1});
  q.recover();

  EXPECT_EQ(q.last_recovery().tags_repaired, 0u);
  EXPECT_EQ(q.last_recovery().nodes_scanned, 4u);  // sentinel + {1,2,3}
}

// ---- JSON writer ----------------------------------------------------------

TEST(JsonWriter, EmitsValidNestedDocument) {
  json::Writer w;
  w.begin_object();
  w.kv("name", "fig\"5a\"");
  w.kv("enabled", true);
  w.kv("count", std::uint64_t{42});
  w.kv("ratio", 0.5);
  w.key("series");
  w.begin_array();
  w.value(std::uint64_t{1});
  w.value(std::uint64_t{2});
  w.end_array();
  w.end_object();

  EXPECT_EQ(w.str(),
            "{\"name\":\"fig\\\"5a\\\"\",\"enabled\":true,\"count\":42,"
            "\"ratio\":0.5,\"series\":[1,2]}");
}

TEST(JsonWriter, NonFiniteDoublesSerializeAsNull) {
  json::Writer w;
  w.begin_array();
  w.value(std::numeric_limits<double>::infinity());
  w.value(std::numeric_limits<double>::quiet_NaN());
  w.end_array();
  EXPECT_EQ(w.str(), "[null,null]");
}

TEST(JsonWriter, EscapesControlCharacters) {
  json::Writer w;
  w.value(std::string_view("a\nb\tc\x01"));
  EXPECT_EQ(w.str(), "\"a\\nb\\tc\\u0001\"");
}

}  // namespace
}  // namespace dssq
