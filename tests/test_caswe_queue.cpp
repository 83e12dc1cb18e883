// Tests of the General and Fast CASWithEffect queues (PMwCAS-based,
// Figure 5b competitors).  Both variants share one templated test suite.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <thread>
#include <vector>

#include "pmem/context.hpp"
#include "pmem/crash.hpp"
#include "pmem/shadow_pool.hpp"
#include "harness/crash_harness.hpp"
#include "pmwcas/caswe_queue.hpp"

namespace dssq::pmwcas {
namespace {

using queues::kEmpty;
using queues::kOk;

template <class Q>
class CasweTest : public ::testing::Test {
 protected:
  pmem::ShadowPool pool{1 << 23};
  pmem::CrashPoints points;
  pmem::SimContext ctx{pool, points};
};

using Variants =
    ::testing::Types<GeneralCasWithEffectQueue<pmem::SimContext>,
                     FastCasWithEffectQueue<pmem::SimContext>>;
TYPED_TEST_SUITE(CasweTest, Variants);

TYPED_TEST(CasweTest, FifoSingleThread) {
  TypeParam q(this->ctx, 1, 64);
  for (Value v = 1; v <= 10; ++v) q.enqueue(0, v);
  for (Value v = 1; v <= 10; ++v) EXPECT_EQ(q.dequeue(0), v);
  EXPECT_EQ(q.dequeue(0), kEmpty);
}

TYPED_TEST(CasweTest, ResolveTracksOperations) {
  TypeParam q(this->ctx, 1, 64);
  q.prep_enqueue(0, 42);
  Resolved r = q.resolve(0);
  EXPECT_EQ(r.op, Resolved::Op::kEnqueue);
  EXPECT_EQ(r.arg, 42);
  EXPECT_FALSE(r.response.has_value());

  q.exec_enqueue(0);
  r = q.resolve(0);
  EXPECT_EQ(r.response, kOk);

  q.prep_dequeue(0);
  r = q.resolve(0);
  EXPECT_EQ(r.op, Resolved::Op::kDequeue);
  EXPECT_FALSE(r.response.has_value());

  EXPECT_EQ(q.exec_dequeue(0), 42);
  r = q.resolve(0);
  EXPECT_EQ(r.response, 42);
}

TYPED_TEST(CasweTest, EmptyDequeueResolvesEmpty) {
  TypeParam q(this->ctx, 1, 64);
  q.prep_dequeue(0);
  EXPECT_EQ(q.exec_dequeue(0), kEmpty);
  EXPECT_EQ(q.resolve(0).response, kEmpty);
}

TYPED_TEST(CasweTest, FreshQueueResolvesBottom) {
  TypeParam q(this->ctx, 1, 64);
  EXPECT_EQ(q.resolve(0).op, Resolved::Op::kNone);
}

TYPED_TEST(CasweTest, RecoveryResolvesThePrepAfterACompletedOp) {
  // A completed operation must not be replayed by recovery: a crash right
  // after the next prep persisted resolves to that prep, pending.
  TypeParam q(this->ctx, 1, 64);
  q.enqueue(0, 1);
  q.prep_enqueue(0, 100);
  this->pool.crash();
  q.recover();
  Resolved r = q.resolve(0);
  EXPECT_EQ(r.op, Resolved::Op::kEnqueue);
  EXPECT_EQ(r.arg, 100);
  EXPECT_FALSE(r.response.has_value());

  EXPECT_EQ(q.dequeue(0), 1);
  q.prep_dequeue(0);
  this->pool.crash();
  q.recover();
  r = q.resolve(0);
  EXPECT_EQ(r.op, Resolved::Op::kDequeue);
  EXPECT_FALSE(r.response.has_value());
  std::vector<Value> rest;
  q.drain_to(rest);
  EXPECT_TRUE(rest.empty());
}

TYPED_TEST(CasweTest, NodeAndDescriptorRecycling) {
  TypeParam q(this->ctx, 1, 32);
  for (int round = 0; round < 2000; ++round) {
    q.enqueue(0, round);
    ASSERT_EQ(q.dequeue(0), round);
  }
}

TYPED_TEST(CasweTest, CrashSweepEnqueueFailureAtomic) {
  for (std::int64_t k = 0;; ++k) {
    pmem::ShadowPool pool(1 << 23);
    pmem::CrashPoints points;
    pmem::SimContext ctx(pool, points);
    TypeParam q(ctx, 1, 64);
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

    pool.crash();
    q.recover();
    const Resolved r = q.resolve(0);
    std::vector<Value> rest;
    q.drain_to(rest);
    const bool in_queue =
        std::find(rest.begin(), rest.end(), 100) != rest.end();
    if (r.op == Resolved::Op::kEnqueue && r.arg == 100) {
      EXPECT_EQ(r.response.has_value(), in_queue)
          << "k=" << k << ": X and queue state disagree";
    } else {
      EXPECT_FALSE(in_queue) << "k=" << k;
    }
    EXPECT_TRUE(std::find(rest.begin(), rest.end(), 1) != rest.end())
        << "k=" << k << ": completed enqueue lost";
  }
}

TYPED_TEST(CasweTest, CrashSweepDequeueFailureAtomic) {
  for (std::int64_t k = 0;; ++k) {
    pmem::ShadowPool pool(1 << 23);
    pmem::CrashPoints points;
    pmem::SimContext ctx(pool, points);
    TypeParam q(ctx, 1, 64);
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

    pool.crash();
    q.recover();
    const Resolved r = q.resolve(0);
    std::vector<Value> rest;
    q.drain_to(rest);
    if (r.op == Resolved::Op::kDequeue && r.response.has_value() &&
        *r.response != kEmpty) {
      EXPECT_EQ(*r.response, 1) << "k=" << k;
      EXPECT_EQ(rest, (std::vector<Value>{2})) << "k=" << k;
    } else {
      EXPECT_EQ(rest, (std::vector<Value>{1, 2}))
          << "k=" << k << ": dequeue reported no effect but state changed";
    }
  }
}

TYPED_TEST(CasweTest, ConcurrentCrashStormExactlyOnce) {
  // Multi-threaded storm: random detectable ops, a system-wide crash,
  // descriptor roll-forward/back recovery, resolve-based accounting.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    pmem::ShadowPool pool(1 << 24);
    pmem::CrashPoints points;
    pmem::SimContext ctx(pool, points);
    TypeParam q(ctx, 3, 512);

    auto outcomes = harness::run_crash_storm(q, 3, /*ops_per_thread=*/200,
                                             points, /*crash_after=*/300,
                                             seed * 101);
    pool.crash({pmem::ShadowPool::Survival::kRandom, 0.5, seed});
    q.recover();

    std::multiset<Value> enqueued, dequeued;
    for (std::size_t t = 0; t < 3; ++t) {
      const auto& o = outcomes[t];
      for (const Value v : o.enqueued) enqueued.insert(v);
      for (const Value v : o.dequeued) dequeued.insert(v);
      if (!o.crashed ||
          o.pending == harness::ThreadOutcome::Pending::kNone) {
        continue;
      }
      const Resolved r = q.resolve(t);
      if (o.pending == harness::ThreadOutcome::Pending::kEnqueue) {
        if (r.op == Resolved::Op::kEnqueue && r.arg == o.pending_arg &&
            r.response.has_value()) {
          enqueued.insert(o.pending_arg);
        }
      } else if (r.op == Resolved::Op::kDequeue &&
                 r.response.has_value() && *r.response != queues::kEmpty &&
                 std::find(o.dequeued.begin(), o.dequeued.end(),
                           *r.response) == o.dequeued.end()) {
        // The completed-list check filters the Figure 2(d) stale-record
        // case: a crash inside prep-dequeue before X persisted leaves the
        // PREVIOUS (already counted) dequeue's record in X.
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

TYPED_TEST(CasweTest, ConcurrentMultisetInvariant) {
  pmem::ShadowPool pool(1 << 24);
  pmem::CrashPoints points;
  pmem::SimContext ctx(pool, points);
  TypeParam q(ctx, 4, 256);
  constexpr int kOps = 600;
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
}  // namespace dssq::pmwcas
