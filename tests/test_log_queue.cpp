// Tests of the log queue (Friedman et al.'s detectable queue): FIFO
// semantics, log-based resolve, helping, recovery, and crash sweeps.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "pmem/context.hpp"
#include "pmem/crash.hpp"
#include "pmem/shadow_pool.hpp"
#include "queues/log_queue.hpp"

namespace dssq::queues {
namespace {

using SimQ = LogQueue<pmem::SimContext>;

struct LogFixture : ::testing::Test {
  pmem::ShadowPool pool{1 << 23};
  pmem::CrashPoints points;
  pmem::SimContext ctx{pool, points};
};

TEST_F(LogFixture, FifoSingleThread) {
  SimQ q(ctx, 1, 64);
  for (Value v = 1; v <= 10; ++v) q.enqueue(0, v);
  for (Value v = 1; v <= 10; ++v) EXPECT_EQ(q.dequeue(0), v);
  EXPECT_EQ(q.dequeue(0), kEmpty);
}

TEST_F(LogFixture, ResolveReflectsLastOperation) {
  SimQ q(ctx, 1, 64);
  q.enqueue(0, 42);
  Resolved r = q.resolve(0);
  EXPECT_EQ(r.op, Resolved::Op::kEnqueue);
  EXPECT_EQ(r.arg, 42);
  EXPECT_EQ(r.response, kOk);

  EXPECT_EQ(q.dequeue(0), 42);
  r = q.resolve(0);
  EXPECT_EQ(r.op, Resolved::Op::kDequeue);
  EXPECT_EQ(r.response, 42);

  EXPECT_EQ(q.dequeue(0), kEmpty);
  r = q.resolve(0);
  EXPECT_EQ(r.response, kEmpty);
}

TEST_F(LogFixture, ResolveBeforeAnyOperation) {
  SimQ q(ctx, 1, 64);
  EXPECT_EQ(q.resolve(0).op, Resolved::Op::kNone);
}

TEST_F(LogFixture, EntryRecyclingThroughManyRounds) {
  SimQ q(ctx, 1, 32);
  for (int round = 0; round < 3000; ++round) {
    q.enqueue(0, round);
    ASSERT_EQ(q.dequeue(0), round);
  }
}

TEST_F(LogFixture, CrashAfterAnnounceBeforeLink) {
  SimQ q(ctx, 1, 64);
  points.arm_at_label("log:enq:announced");
  EXPECT_THROW(q.enqueue(0, 9), pmem::SimulatedCrash);
  points.disarm();
  pool.crash();
  q.recover();
  const Resolved r = q.resolve(0);
  EXPECT_EQ(r.op, Resolved::Op::kEnqueue);
  EXPECT_EQ(r.arg, 9);
  EXPECT_FALSE(r.response.has_value()) << "never linked: no effect";
  std::vector<Value> rest;
  q.drain_to(rest);
  EXPECT_TRUE(rest.empty());
}

TEST_F(LogFixture, CrashAfterLinkRecoveryCompletesTheLog) {
  SimQ q(ctx, 1, 64);
  points.arm_at_label("log:enq:linked");
  EXPECT_THROW(q.enqueue(0, 9), pmem::SimulatedCrash);
  points.disarm();
  pool.crash();
  q.recover();
  const Resolved r = q.resolve(0);
  EXPECT_EQ(r.op, Resolved::Op::kEnqueue);
  EXPECT_EQ(r.response, kOk) << "linked and persisted: recovery completes it";
  std::vector<Value> rest;
  q.drain_to(rest);
  EXPECT_EQ(rest, (std::vector<Value>{9}));
}

TEST_F(LogFixture, CrashAfterClaimRecoveryReportsDequeuedValue) {
  SimQ q(ctx, 1, 64);
  q.enqueue(0, 7);
  points.arm_at_label("log:deq:claimed");
  EXPECT_THROW(q.dequeue(0), pmem::SimulatedCrash);
  points.disarm();
  pool.crash();
  q.recover();
  const Resolved r = q.resolve(0);
  EXPECT_EQ(r.op, Resolved::Op::kDequeue);
  EXPECT_EQ(r.response, 7);
  std::vector<Value> rest;
  q.drain_to(rest);
  EXPECT_TRUE(rest.empty());
}

TEST_F(LogFixture, CrashBeforeClaimLeavesValueQueued) {
  SimQ q(ctx, 1, 64);
  q.enqueue(0, 7);
  points.arm_at_label("log:deq:pre-claim");
  EXPECT_THROW(q.dequeue(0), pmem::SimulatedCrash);
  points.disarm();
  pool.crash();
  q.recover();
  const Resolved r = q.resolve(0);
  EXPECT_EQ(r.op, Resolved::Op::kDequeue);
  EXPECT_FALSE(r.response.has_value());
  std::vector<Value> rest;
  q.drain_to(rest);
  EXPECT_EQ(rest, (std::vector<Value>{7}));
}

TEST_F(LogFixture, SeveralPendingDequeuesEachResolveToTheirClaim) {
  // Threads 0-3 each claim the front node, store their result and die
  // before flushing it.  The next thread's help cannot complete that entry
  // (its result CAS loses to the stored value) but advances the head, so
  // at the crash four dequeues have durable claims and lost results.
  // Thread 4 dies before claiming.  One recovery walk resolves each
  // claimed dequeue to its own node's value.
  constexpr std::size_t kThreads = 5;
  SimQ q(ctx, kThreads, 64);
  for (Value v = 1; v <= 6; ++v) q.enqueue(0, v);
  bool claimed = false;
  points.set_hook([&](const char* label) {
    if (std::strcmp(label, "log:deq:claimed") == 0) {
      claimed = true;
    } else if (claimed && std::strcmp(label, "pmem:flush") == 0) {
      claimed = false;
      throw pmem::SimulatedCrash{label};  // result stored, never flushed
    }
  });
  for (std::size_t t = 0; t + 1 < kThreads; ++t) {
    EXPECT_THROW(q.dequeue(t), pmem::SimulatedCrash) << "thread " << t;
  }
  points.arm_at_label("log:deq:pre-claim");
  EXPECT_THROW(q.dequeue(kThreads - 1), pmem::SimulatedCrash);
  points.disarm();
  points.set_hook(nullptr);
  pool.crash();
  for (std::size_t t = 0; t < kThreads; ++t) {
    ASSERT_FALSE(q.resolve(t).response.has_value())
        << "thread " << t << " must be pending at the crash";
  }
  q.recover();
  for (std::size_t t = 0; t + 1 < kThreads; ++t) {
    const Resolved r = q.resolve(t);
    EXPECT_EQ(r.op, Resolved::Op::kDequeue);
    EXPECT_EQ(r.response, static_cast<Value>(t + 1)) << "thread " << t;
  }
  const Resolved last = q.resolve(kThreads - 1);
  EXPECT_EQ(last.op, Resolved::Op::kDequeue);
  EXPECT_FALSE(last.response.has_value()) << "never claimed: no effect";
  std::vector<Value> rest;
  q.drain_to(rest);
  EXPECT_EQ(rest, (std::vector<Value>{5, 6}));
}

// Exhaustive crash sweep through one enqueue + one dequeue, all survival
// policies: resolve must always agree with the recovered queue state.
class LogSweep : public ::testing::TestWithParam<int> {};

TEST_P(LogSweep, EnqueueSweepResolveConsistent) {
  const auto survival = static_cast<pmem::ShadowPool::Survival>(GetParam());
  for (std::int64_t k = 0;; ++k) {
    pmem::ShadowPool pool(1 << 23);
    pmem::CrashPoints points;
    pmem::SimContext ctx(pool, points);
    SimQ q(ctx, 1, 64);
    q.enqueue(0, 1);

    bool crashed = false;
    points.arm_countdown(k);
    try {
      q.enqueue(0, 100);
    } catch (const pmem::SimulatedCrash&) {
      crashed = true;
    }
    points.disarm();
    if (!crashed) break;

    pool.crash({survival, 0.5, 13});
    q.recover();
    const Resolved r = q.resolve(0);
    std::vector<Value> rest;
    q.drain_to(rest);
    const bool in_queue =
        std::find(rest.begin(), rest.end(), 100) != rest.end();
    if (r.op == Resolved::Op::kEnqueue && r.arg == 100) {
      EXPECT_EQ(r.response.has_value(), in_queue) << "k=" << k;
    } else {
      EXPECT_FALSE(in_queue) << "k=" << k;
    }
    EXPECT_TRUE(std::find(rest.begin(), rest.end(), 1) != rest.end());
  }
}

TEST_P(LogSweep, DequeueSweepResolveConsistent) {
  const auto survival = static_cast<pmem::ShadowPool::Survival>(GetParam());
  for (std::int64_t k = 0;; ++k) {
    pmem::ShadowPool pool(1 << 23);
    pmem::CrashPoints points;
    pmem::SimContext ctx(pool, points);
    SimQ q(ctx, 1, 64);
    q.enqueue(0, 1);
    q.enqueue(0, 2);

    bool crashed = false;
    points.arm_countdown(k);
    try {
      (void)q.dequeue(0);
    } catch (const pmem::SimulatedCrash&) {
      crashed = true;
    }
    points.disarm();
    if (!crashed) break;

    pool.crash({survival, 0.5, 29});
    q.recover();
    const Resolved r = q.resolve(0);
    std::vector<Value> rest;
    q.drain_to(rest);
    std::sort(rest.begin(), rest.end());
    if (r.op == Resolved::Op::kDequeue && r.response.has_value()) {
      EXPECT_EQ(*r.response, 1) << "FIFO head only, k=" << k;
      EXPECT_EQ(rest, (std::vector<Value>{2}));
    } else {
      EXPECT_EQ(rest, (std::vector<Value>{1, 2})) << "k=" << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Survival, LogSweep, ::testing::Values(0, 1, 2));

TEST(LogQueueStorm, MultiThreadCrashRecoverExactlyOnce) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    pmem::ShadowPool pool(1 << 24);
    pmem::CrashPoints points;
    pmem::SimContext ctx(pool, points);
    constexpr std::size_t kThreads = 3;
    LogQueue<pmem::SimContext> q(ctx, kThreads, 512);

    struct Outcome {
      std::vector<Value> enqueued, dequeued;
      bool crashed = false;
      bool pending_is_enq = false;
      Value pending_arg = 0;
      bool has_pending = false;
    };
    std::vector<Outcome> outcomes(kThreads);

    points.arm_countdown(250);
    {
      std::vector<std::thread> workers;
      for (std::size_t t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t] {
          Outcome& o = outcomes[t];
          Xoshiro256 rng(seed * 7919 + t);
          Value next = static_cast<Value>(t + 1) * 1'000'000;
          try {
            for (int i = 0; i < 200; ++i) {
              if (rng.next_bool(0.5)) {
                const Value v = next++;
                o.has_pending = true;
                o.pending_is_enq = true;
                o.pending_arg = v;
                q.enqueue(t, v);
                o.enqueued.push_back(v);
              } else {
                o.has_pending = true;
                o.pending_is_enq = false;
                const Value v = q.dequeue(t);
                if (v != kEmpty) o.dequeued.push_back(v);
              }
              o.has_pending = false;
            }
          } catch (const pmem::SimulatedCrash&) {
            o.crashed = true;
          }
        });
      }
      for (auto& w : workers) w.join();
    }
    points.disarm();
    pool.crash({pmem::ShadowPool::Survival::kRandom, 0.5, seed * 3});
    q.recover();

    std::multiset<Value> enqueued, dequeued;
    for (std::size_t t = 0; t < kThreads; ++t) {
      const Outcome& o = outcomes[t];
      for (const Value v : o.enqueued) enqueued.insert(v);
      for (const Value v : o.dequeued) dequeued.insert(v);
      if (!o.crashed || !o.has_pending) continue;
      const Resolved r = q.resolve(t);
      if (o.pending_is_enq) {
        if (r.op == Resolved::Op::kEnqueue && r.arg == o.pending_arg &&
            r.response.has_value()) {
          enqueued.insert(o.pending_arg);
        }
      } else if (r.op == Resolved::Op::kDequeue &&
                 r.response.has_value() && *r.response != kEmpty &&
                 std::find(o.dequeued.begin(), o.dequeued.end(),
                           *r.response) == o.dequeued.end()) {
        // (stale-anchor filtering as in the DSS queue storms)
        dequeued.insert(*r.response);
      }
    }
    std::multiset<Value> remaining;
    {
      std::vector<Value> rest;
      q.drain_to(rest);
      remaining.insert(rest.begin(), rest.end());
    }
    std::multiset<Value> consumed_plus_left = dequeued;
    consumed_plus_left.insert(remaining.begin(), remaining.end());
    EXPECT_EQ(enqueued, consumed_plus_left) << "seed=" << seed;
  }
}

TEST(LogQueuePerf, ConcurrentMultisetInvariant) {
  pmem::EmulatedNvmContext ctx(1 << 25, pmem::EmulatedNvmBackend(
                                            pmem::EmulationParams{0, 0}));
  LogQueue<pmem::EmulatedNvmContext> q(ctx, 4, 512);
  constexpr int kOps = 1200;
  std::vector<std::vector<Value>> popped(4);
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kOps; ++i) {
        q.enqueue(t, static_cast<Value>(t * 1'000'000 + i));
        const Value v = q.dequeue(t);
        if (v != kEmpty) popped[t].push_back(v);
      }
    });
  }
  for (auto& w : workers) w.join();
  std::vector<Value> all;
  for (const auto& p : popped) all.insert(all.end(), p.begin(), p.end());
  std::vector<Value> rest;
  q.drain_to(rest);
  all.insert(all.end(), rest.begin(), rest.end());
  std::sort(all.begin(), all.end());
  std::vector<Value> expected;
  for (std::size_t t = 0; t < 4; ++t) {
    for (int i = 0; i < kOps; ++i) {
      expected.push_back(static_cast<Value>(t * 1'000'000 + i));
    }
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(all, expected);
}

}  // namespace
}  // namespace dssq::queues
