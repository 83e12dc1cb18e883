// Crash-recovery property tests for the DSS queue — the heart of the
// reproduction.  These tests realize the paper's failure model against the
// shadow-pool simulator:
//
//   * exhaustive single-threaded crash sweeps: for EVERY instrumented
//     crash location inside prep/exec (countdown k = 0, 1, 2, ... until an
//     uninterrupted run), under every survival adversary, the post-crash
//     recover+resolve outcome must match the DSS semantics of Figure 2 —
//     resolve reports (op, r) with r ≠ ⊥ iff the operation's effect is
//     actually in the recovered queue;
//   * exactly-once re-execution: a ⊥ resolution followed by a retry yields
//     exactly one copy; an OK resolution followed by NO retry also yields
//     exactly one copy;
//   * the independent-recovery variant (Section 3.3, "no auxiliary
//     state"): the same sweep with per-thread recover_independent;
//   * crash-during-recovery: recovery is idempotent under repeated crashes;
//   * multi-threaded crash storms with full multiset verification.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "harness/crash_harness.hpp"
#include "pmem/context.hpp"
#include "pmem/crash.hpp"
#include "pmem/shadow_pool.hpp"
#include "queues/dss_queue.hpp"

namespace dssq::queues {
namespace {

using SimQ = DssQueue<pmem::SimContext>;
using pmem::ShadowPool;
using pmem::SimulatedCrash;

struct Adversary {
  ShadowPool::CrashOptions options;
  const char* name;
};

std::vector<Adversary> adversaries() {
  std::vector<Adversary> out;
  out.push_back({{ShadowPool::Survival::kNone, 0.0, 1}, "none"});
  out.push_back({{ShadowPool::Survival::kAll, 1.0, 1}, "all"});
  for (std::uint64_t seed : {7ull, 21ull, 99ull}) {
    out.push_back({{ShadowPool::Survival::kRandom, 0.5, seed}, "random"});
  }
  return out;
}

std::vector<Value> sorted_drain(const SimQ& q) {
  std::vector<Value> rest;
  q.drain_to(rest);
  std::sort(rest.begin(), rest.end());
  return rest;
}

bool contains(const std::vector<Value>& v, Value x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

// ---- exhaustive single-threaded sweeps ------------------------------------------

class CrashSweep : public ::testing::TestWithParam<std::size_t> {};

// Sweep crash points through a detectable enqueue.  The queue is pre-seeded
// with {1,2,3}; the op under test enqueues 100.
TEST_P(CrashSweep, EnqueueEveryCrashLocationResolvesConsistently) {
  const Adversary adv = adversaries()[GetParam()];
  for (std::int64_t k = 0;; ++k) {
    ShadowPool pool(1 << 22);
    pmem::CrashPoints points;
    pmem::SimContext ctx(pool, points);
    SimQ q(ctx, 1, 64);
    for (Value v = 1; v <= 3; ++v) q.enqueue(0, v);

    bool crashed = false;
    points.arm_countdown(k);
    try {
      q.prep_enqueue(0, 100);
      q.exec_enqueue(0);
    } catch (const SimulatedCrash&) {
      crashed = true;
    }
    points.disarm();

    if (!crashed) {
      // Sweep exhausted: the whole operation ran without the injector
      // firing; final sanity check and stop.
      EXPECT_TRUE(contains(sorted_drain(q), 100));
      ASSERT_GT(k, 3) << "suspiciously few crash points instrumented";
      break;
    }

    pool.crash(adv.options);
    q.recover();
    const Resolved r = q.resolve(0);
    const auto rest = sorted_drain(q);

    if (r.op == Resolved::Op::kEnqueue && r.arg == 100) {
      if (r.response.has_value()) {
        EXPECT_EQ(*r.response, kOk);
        EXPECT_TRUE(contains(rest, 100))
            << adv.name << " k=" << k
            << ": resolve says OK but the value is not in the queue";
      } else {
        EXPECT_FALSE(contains(rest, 100))
            << adv.name << " k=" << k
            << ": resolve says ⊥ but the value is in the queue";
      }
    } else {
      // Crash inside prep before X persisted (Figure 2 case (d)): the
      // record may be absent, but then the effect must be absent too.
      EXPECT_FALSE(contains(rest, 100)) << adv.name << " k=" << k;
    }
    // Pre-seeded values are never lost (their enqueues completed).
    for (Value v = 1; v <= 3; ++v) {
      EXPECT_TRUE(contains(rest, v)) << adv.name << " k=" << k;
    }
  }
}

// Sweep crash points through a detectable dequeue of a seeded queue.
TEST_P(CrashSweep, DequeueEveryCrashLocationResolvesConsistently) {
  const Adversary adv = adversaries()[GetParam()];
  for (std::int64_t k = 0;; ++k) {
    ShadowPool pool(1 << 22);
    pmem::CrashPoints points;
    pmem::SimContext ctx(pool, points);
    SimQ q(ctx, 1, 64);
    for (Value v = 1; v <= 3; ++v) q.enqueue(0, v);

    bool crashed = false;
    points.arm_countdown(k);
    try {
      q.prep_dequeue(0);
      (void)q.exec_dequeue(0);
    } catch (const SimulatedCrash&) {
      crashed = true;
    }
    points.disarm();

    if (!crashed) break;

    pool.crash(adv.options);
    q.recover();
    const Resolved r = q.resolve(0);
    const auto rest = sorted_drain(q);

    if (r.op == Resolved::Op::kDequeue && r.response.has_value()) {
      ASSERT_NE(*r.response, kEmpty)
          << adv.name << " k=" << k << ": queue was non-empty";
      EXPECT_EQ(*r.response, 1) << "FIFO: only the head can be dequeued";
      EXPECT_FALSE(contains(rest, 1))
          << adv.name << " k=" << k
          << ": resolve says value dequeued but it is still queued";
      EXPECT_TRUE(contains(rest, 2));
      EXPECT_TRUE(contains(rest, 3));
    } else {
      // ⊥ (or a stale record): the dequeue must not have removed anything.
      EXPECT_EQ(rest, (std::vector<Value>{1, 2, 3}))
          << adv.name << " k=" << k
          << ": resolve says no effect but a value vanished";
    }
  }
}

// Dequeue sweep against an EMPTY queue: resolve must report EMPTY or ⊥,
// and the queue stays empty.
TEST_P(CrashSweep, EmptyDequeueCrashLocations) {
  const Adversary adv = adversaries()[GetParam()];
  for (std::int64_t k = 0;; ++k) {
    ShadowPool pool(1 << 22);
    pmem::CrashPoints points;
    pmem::SimContext ctx(pool, points);
    SimQ q(ctx, 1, 64);

    bool crashed = false;
    points.arm_countdown(k);
    try {
      q.prep_dequeue(0);
      (void)q.exec_dequeue(0);
    } catch (const SimulatedCrash&) {
      crashed = true;
    }
    points.disarm();
    if (!crashed) break;

    pool.crash(adv.options);
    q.recover();
    const Resolved r = q.resolve(0);
    EXPECT_TRUE(sorted_drain(q).empty());
    if (r.op == Resolved::Op::kDequeue && r.response.has_value()) {
      EXPECT_EQ(*r.response, kEmpty);
    }
  }
}

std::string adversary_name(
    const ::testing::TestParamInfo<std::size_t>& info) {
  static const char* names[] = {"none", "all", "random7", "random21",
                                "random99"};
  return names[info.param];
}

INSTANTIATE_TEST_SUITE_P(AllAdversaries, CrashSweep,
                         ::testing::Range<std::size_t>(0, 5),
                         adversary_name);

// ---- exactly-once retry -------------------------------------------------------------

class RetrySweep : public ::testing::TestWithParam<std::size_t> {};

// After any crash, the application protocol "resolve; if ⊥ then re-prep
// and re-exec" must deliver the value exactly once.
TEST_P(RetrySweep, EnqueueRetriesExactlyOnce) {
  const Adversary adv = adversaries()[GetParam()];
  for (std::int64_t k = 0;; ++k) {
    ShadowPool pool(1 << 22);
    pmem::CrashPoints points;
    pmem::SimContext ctx(pool, points);
    SimQ q(ctx, 1, 64);

    bool crashed = false;
    points.arm_countdown(k);
    try {
      q.prep_enqueue(0, 100);
      q.exec_enqueue(0);
    } catch (const SimulatedCrash&) {
      crashed = true;
    }
    points.disarm();
    if (!crashed) break;

    pool.crash(adv.options);
    q.recover();
    const Resolved r = q.resolve(0);
    const bool took_effect = r.op == Resolved::Op::kEnqueue &&
                             r.arg == 100 && r.response.has_value();
    if (!took_effect) {
      q.prep_enqueue(0, 100);  // retry
      q.exec_enqueue(0);
    }
    const auto rest = sorted_drain(q);
    EXPECT_EQ(std::count(rest.begin(), rest.end(), 100), 1)
        << adv.name << " k=" << k << ": not exactly-once";
  }
}

TEST_P(RetrySweep, DequeueRetriesConsumeEachValueOnce) {
  const Adversary adv = adversaries()[GetParam()];
  for (std::int64_t k = 0;; ++k) {
    ShadowPool pool(1 << 22);
    pmem::CrashPoints points;
    pmem::SimContext ctx(pool, points);
    SimQ q(ctx, 1, 64);
    for (Value v = 1; v <= 3; ++v) q.enqueue(0, v);

    bool crashed = false;
    std::vector<Value> got;
    points.arm_countdown(k);
    try {
      q.prep_dequeue(0);
      got.push_back(q.exec_dequeue(0));
    } catch (const SimulatedCrash&) {
      crashed = true;
    }
    points.disarm();
    if (!crashed) break;

    pool.crash(adv.options);
    q.recover();
    const Resolved r = q.resolve(0);
    if (r.op == Resolved::Op::kDequeue && r.response.has_value()) {
      got.push_back(*r.response);  // recovered the interrupted response
    } else {
      q.prep_dequeue(0);  // retry
      got.push_back(q.exec_dequeue(0));
    }
    // Consume the rest.
    for (;;) {
      q.prep_dequeue(0);
      const Value v = q.exec_dequeue(0);
      if (v == kEmpty) break;
      got.push_back(v);
    }
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, (std::vector<Value>{1, 2, 3}))
        << adv.name << " k=" << k
        << ": dequeue sequence lost or duplicated a value";
  }
}

INSTANTIATE_TEST_SUITE_P(AllAdversaries, RetrySweep,
                         ::testing::Range<std::size_t>(0, 5));

// ---- independent recovery (Section 3.3) ------------------------------------------------

class IndependentRecoverySweep
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(IndependentRecoverySweep, EnqueueSweepWithoutCentralizedPhase) {
  const Adversary adv = adversaries()[GetParam()];
  for (std::int64_t k = 0;; ++k) {
    ShadowPool pool(1 << 22);
    pmem::CrashPoints points;
    pmem::SimContext ctx(pool, points);
    SimQ q(ctx, 1, 64);
    for (Value v = 1; v <= 3; ++v) q.enqueue(0, v);

    bool crashed = false;
    points.arm_countdown(k);
    try {
      q.prep_enqueue(0, 100);
      q.exec_enqueue(0);
    } catch (const SimulatedCrash&) {
      crashed = true;
    }
    points.disarm();
    if (!crashed) break;

    pool.crash(adv.options);
    // No Figure-6 pass: the thread repairs only its own X entry.
    q.recover_independent(0);
    q.rebuild_free_lists();
    const Resolved r = q.resolve(0);
    const auto rest = sorted_drain(q);
    if (r.op == Resolved::Op::kEnqueue && r.arg == 100) {
      EXPECT_EQ(r.response.has_value(), contains(rest, 100))
          << adv.name << " k=" << k;
    } else {
      EXPECT_FALSE(contains(rest, 100));
    }
  }
}

TEST_P(IndependentRecoverySweep, QueueRemainsOperationalWithoutRepair) {
  // After an independent recovery (which repairs neither head nor tail),
  // the helping paths must self-heal: subsequent operations still work.
  const Adversary adv = adversaries()[GetParam()];
  for (std::int64_t k = 0; k < 12; ++k) {
    ShadowPool pool(1 << 22);
    pmem::CrashPoints points;
    pmem::SimContext ctx(pool, points);
    SimQ q(ctx, 1, 64);
    for (Value v = 1; v <= 3; ++v) q.enqueue(0, v);

    points.arm_countdown(k);
    try {
      q.prep_enqueue(0, 100);
      q.exec_enqueue(0);
      q.prep_dequeue(0);
      (void)q.exec_dequeue(0);
    } catch (const SimulatedCrash&) {
    }
    points.disarm();

    pool.crash(adv.options);
    q.recover_independent(0);
    q.rebuild_free_lists();
    (void)q.resolve(0);
    // Post-crash operation must succeed and preserve FIFO of survivors.
    q.prep_enqueue(0, 200);
    q.exec_enqueue(0);
    std::vector<Value> out;
    for (;;) {
      q.prep_dequeue(0);
      const Value v = q.exec_dequeue(0);
      if (v == kEmpty) break;
      out.push_back(v);
    }
    EXPECT_FALSE(out.empty());
    EXPECT_EQ(out.back(), 200) << adv.name << " k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(AllAdversaries, IndependentRecoverySweep,
                         ::testing::Range<std::size_t>(0, 5));

// ---- crash during recovery ---------------------------------------------------------------

TEST(CrashDuringRecovery, RecoveryIsIdempotentUnderRepeatedCrashes) {
  for (std::int64_t k = 0; k < 40; ++k) {
    ShadowPool pool(1 << 22);
    pmem::CrashPoints points;
    pmem::SimContext ctx(pool, points);
    SimQ q(ctx, 2, 64);
    for (Value v = 1; v <= 4; ++v) q.enqueue(0, v);

    // First crash: mid-dequeue.
    points.arm_at_label("dss:exec-deq:marked");
    try {
      q.prep_dequeue(1);
      (void)q.exec_dequeue(1);
    } catch (const SimulatedCrash&) {
    }
    points.disarm();
    pool.crash();

    // Second crash: inside recovery itself, at point k.
    points.arm_countdown(k);
    bool recovery_crashed = false;
    try {
      q.recover();
    } catch (const SimulatedCrash&) {
      recovery_crashed = true;
    }
    points.disarm();
    if (recovery_crashed) {
      pool.crash();
      q.recover();  // second recovery attempt must succeed
    }

    const Resolved r = q.resolve(1);
    ASSERT_EQ(r.op, Resolved::Op::kDequeue);
    ASSERT_TRUE(r.response.has_value())
        << "the mark was persisted before the crash";
    EXPECT_EQ(*r.response, 1);
    const auto rest = sorted_drain(q);
    EXPECT_EQ(rest, (std::vector<Value>{2, 3, 4})) << "k=" << k;
    if (!recovery_crashed) break;  // sweep exhausted recovery's points
  }
}

// ---- multi-threaded crash storms ------------------------------------------------------------

struct StormResult {
  std::size_t crashes = 0;
};

void run_storm(std::size_t threads, std::int64_t crash_after,
               const ShadowPool::CrashOptions& adv, std::uint64_t seed) {
  ShadowPool pool(1 << 24);
  pmem::CrashPoints points;
  pmem::SimContext ctx(pool, points);
  SimQ q(ctx, threads, 512);

  auto outcomes = harness::run_crash_storm(q, threads, /*ops_per_thread=*/400,
                                           points, crash_after, seed);
  pool.crash(adv);
  q.recover();

  // Assemble effective multisets from completed knowledge + resolution.
  std::multiset<Value> enqueued, dequeued;
  for (std::size_t t = 0; t < threads; ++t) {
    const auto& out = outcomes[t];
    for (const Value v : out.enqueued) enqueued.insert(v);
    for (const Value v : out.dequeued) dequeued.insert(v);
    if (!out.crashed || out.pending == harness::ThreadOutcome::Pending::kNone) {
      continue;
    }
    const Resolved r = q.resolve(t);
    if (out.pending == harness::ThreadOutcome::Pending::kEnqueue) {
      if (r.op == Resolved::Op::kEnqueue && r.arg == out.pending_arg &&
          r.response.has_value()) {
        enqueued.insert(out.pending_arg);
      }
    } else {
      // Filter the Figure 2(d) stale-record case: a crash inside
      // prep-dequeue before X persisted leaves the previous (already
      // counted) dequeue's record in X.
      if (r.op == Resolved::Op::kDequeue && r.response.has_value() &&
          *r.response != kEmpty &&
          std::find(out.dequeued.begin(), out.dequeued.end(),
                    *r.response) == out.dequeued.end()) {
        dequeued.insert(*r.response);
      }
    }
  }

  std::multiset<Value> remaining;
  {
    std::vector<Value> rest;
    q.drain_to(rest);
    remaining.insert(rest.begin(), rest.end());
  }

  // Exactly-once accounting: enqueued == dequeued ⊎ remaining.
  std::multiset<Value> consumed_plus_left = dequeued;
  consumed_plus_left.insert(remaining.begin(), remaining.end());
  EXPECT_EQ(enqueued, consumed_plus_left)
      << "value lost or duplicated across the crash "
      << "(threads=" << threads << " crash_after=" << crash_after
      << " seed=" << seed << ")";
}

TEST(CrashStorm, TwoThreadsEarlyCrash) {
  run_storm(2, 25, {ShadowPool::Survival::kNone, 0.0, 1}, 11);
}

TEST(CrashStorm, FourThreadsMidCrashNoSurvival) {
  run_storm(4, 400, {ShadowPool::Survival::kNone, 0.0, 2}, 22);
}

TEST(CrashStorm, FourThreadsMidCrashFullSurvival) {
  run_storm(4, 400, {ShadowPool::Survival::kAll, 1.0, 3}, 33);
}

TEST(CrashStorm, FourThreadsRandomSurvivalSeeds) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    run_storm(4, 700, {ShadowPool::Survival::kRandom, 0.5, seed}, seed * 7);
  }
}

TEST(CrashStorm, EightThreadsLateCrash) {
  run_storm(8, 3000, {ShadowPool::Survival::kRandom, 0.3, 5}, 55);
}

TEST(CrashStorm, RepeatedCrashRecoverContinueCycles) {
  ShadowPool pool(1 << 24);
  pmem::CrashPoints points;
  pmem::SimContext ctx(pool, points);
  constexpr std::size_t kThreads = 3;
  SimQ q(ctx, kThreads, 512);

  std::multiset<Value> enqueued, dequeued;
  // X[t] and its resolution as the previous recovery (or construction)
  // left them: each thread's interrupted op is judged against its whole
  // history, not just the current cycle.
  std::vector<TaggedWord> prev_x(kThreads);
  std::vector<Resolved> prev_resolved(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    prev_x[t] = q.x_word(t);
    prev_resolved[t] = q.resolve(t);
  }
  std::uint64_t seed = 1000;
  for (int cycle = 0; cycle < 4; ++cycle) {
    // Each cycle enqueues its own values, so a resolution that names an
    // earlier cycle's op can never be mistaken for this cycle's.
    auto outcomes = harness::run_crash_storm(
        q, kThreads, 150, points, /*crash_after=*/200, seed++,
        /*value_base=*/static_cast<Value>(cycle) * 10'000'000);
    pool.crash({ShadowPool::Survival::kRandom, 0.5, seed});
    q.recover();
    for (std::size_t t = 0; t < kThreads; ++t) {
      const auto& out = outcomes[t];
      for (const Value v : out.enqueued) enqueued.insert(v);
      for (const Value v : out.dequeued) dequeued.insert(v);
      const Resolved r = q.resolve(t);
      const TaggedWord xw = q.x_word(t);
      const bool unchanged = xw == prev_x[t] && r == prev_resolved[t];
      prev_x[t] = xw;
      prev_resolved[t] = r;
      if (!out.crashed ||
          out.pending == harness::ThreadOutcome::Pending::kNone) {
        continue;
      }
      // The interrupted op was the thread's first of the cycle, and X[t]
      // and its resolution are what the previous recovery left: the op
      // never announced (Figure 2(d): resolve reports an earlier op), or
      // announced the very same record without effect.  A word alone is
      // not enough: a dequeue retried from the same predecessor can take
      // effect under an unchanged X[t], and then only its resolution
      // changes.
      if (out.enqueued.empty() && out.dequeued.empty() && unchanged) {
        continue;
      }
      if (out.pending == harness::ThreadOutcome::Pending::kEnqueue) {
        if (r.op == Resolved::Op::kEnqueue &&
            r.arg == out.pending_arg && r.took_effect()) {
          enqueued.insert(out.pending_arg);
        }
      } else if (r.op == Resolved::Op::kDequeue && r.took_effect() &&
                 *r.response != kEmpty &&
                 // A stale record can only be the thread's last completed
                 // op; naming any earlier value would be a duplicate.
                 (out.dequeued.empty() ||
                  *r.response != out.dequeued.back())) {
        dequeued.insert(*r.response);
      }
    }
  }
  std::multiset<Value> remaining;
  std::vector<Value> rest;
  q.drain_to(rest);
  remaining.insert(rest.begin(), rest.end());
  std::multiset<Value> consumed_plus_left = dequeued;
  consumed_plus_left.insert(remaining.begin(), remaining.end());
  EXPECT_EQ(enqueued, consumed_plus_left);
}

}  // namespace
}  // namespace dssq::queues
