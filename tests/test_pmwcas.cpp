// Tests of the PMwCAS engine: single/multi-word semantics, helping under
// contention, the persistent read protocol, private-word fast path, and
// post-crash descriptor roll-forward/back.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "common/cacheline.hpp"
#include "ebr/ebr.hpp"
#include "pmem/context.hpp"
#include "pmem/crash.hpp"
#include "pmem/shadow_pool.hpp"
#include "pmwcas/pmwcas.hpp"

namespace dssq::pmwcas {
namespace {

using SimEngine = Engine<pmem::SimContext>;
using PerfEngine = Engine<pmem::EmulatedNvmContext>;

struct PmwcasFixture : ::testing::Test {
  pmem::ShadowPool pool{1 << 22};
  pmem::CrashPoints points;
  pmem::SimContext ctx{pool, points};
};

std::atomic<std::uint64_t>* alloc_word(pmem::SimContext& ctx,
                                       std::uint64_t init = 0) {
  auto* w = pmem::alloc_object<std::atomic<std::uint64_t>>(ctx, init);
  ctx.persist(w, sizeof(*w));
  return w;
}

/// Spin until `flag` is set, for at most 10 s; returns whether it was set.
bool wait_for(const std::atomic<bool>& flag) {
  using Clock = std::chrono::steady_clock;
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  while (!flag.load() && Clock::now() < deadline) std::this_thread::yield();
  return flag.load();
}

TEST_F(PmwcasFixture, SingleWordSuccess) {
  SimEngine eng(ctx, 2, 16);
  auto* w = alloc_word(ctx, 5);
  ebr::EpochGuard guard(eng.ebr(), 0);
  Descriptor* d = eng.allocate(0);
  eng.add_word(d, w, 5, 9);
  EXPECT_TRUE(eng.mwcas(0, d));
  EXPECT_EQ(eng.read(w), 9u);
}

TEST_F(PmwcasFixture, SingleWordFailureLeavesValue) {
  SimEngine eng(ctx, 2, 16);
  auto* w = alloc_word(ctx, 5);
  ebr::EpochGuard guard(eng.ebr(), 0);
  Descriptor* d = eng.allocate(0);
  eng.add_word(d, w, 4, 9);  // wrong expected
  EXPECT_FALSE(eng.mwcas(0, d));
  EXPECT_EQ(eng.read(w), 5u);
}

TEST_F(PmwcasFixture, MultiWordAllOrNothing) {
  SimEngine eng(ctx, 2, 16);
  auto* a = alloc_word(ctx, 1);
  auto* b = alloc_word(ctx, 2);
  auto* c = alloc_word(ctx, 3);
  ebr::EpochGuard guard(eng.ebr(), 0);
  // One mismatching word poisons the whole operation.
  Descriptor* d = eng.allocate(0);
  eng.add_word(d, a, 1, 10);
  eng.add_word(d, b, 99, 20);  // mismatch
  eng.add_word(d, c, 3, 30);
  EXPECT_FALSE(eng.mwcas(0, d));
  EXPECT_EQ(eng.read(a), 1u);
  EXPECT_EQ(eng.read(b), 2u);
  EXPECT_EQ(eng.read(c), 3u);
  // All matching: all words change.
  d = eng.allocate(0);
  eng.add_word(d, a, 1, 10);
  eng.add_word(d, b, 2, 20);
  eng.add_word(d, c, 3, 30);
  EXPECT_TRUE(eng.mwcas(0, d));
  EXPECT_EQ(eng.read(a), 10u);
  EXPECT_EQ(eng.read(b), 20u);
  EXPECT_EQ(eng.read(c), 30u);
}

TEST_F(PmwcasFixture, PrivateWordWrittenOnSuccessOnly) {
  SimEngine eng(ctx, 2, 16);
  auto* shared = alloc_word(ctx, 1);
  auto* priv = alloc_word(ctx, 100);
  ebr::EpochGuard guard(eng.ebr(), 0);
  Descriptor* d = eng.allocate(0);
  eng.add_word(d, shared, 2, 10);  // will fail
  eng.add_word(d, priv, 100, 200, /*is_private=*/true);
  EXPECT_FALSE(eng.mwcas(0, d));
  EXPECT_EQ(eng.read(priv), 100u) << "failed op must not write private word";

  d = eng.allocate(0);
  eng.add_word(d, shared, 1, 10);
  eng.add_word(d, priv, 100, 200, /*is_private=*/true);
  EXPECT_TRUE(eng.mwcas(0, d));
  EXPECT_EQ(eng.read(priv), 200u);
}

TEST_F(PmwcasFixture, LateHelperNeverOverwritesOwnersNextPrivateWrite) {
  // A helper reads the status as Succeeded, then stalls in phase 2 between
  // the shared word and the private word (help() sorts words by address,
  // and `shared` is allocated first, so it comes first).  The owner
  // finishes its mwcas and writes the private word again, as its next prep
  // would.  The released helper must not put the old value back.
  SimEngine eng(ctx, 2, 16);
  auto* shared = alloc_word(ctx, 1);
  auto* priv = alloc_word(ctx, 100);
  ASSERT_LT(static_cast<void*>(shared), static_cast<void*>(priv));

  static thread_local bool is_helper = false;
  std::atomic<bool> decided{false}, helper_stalled{false}, release{false};
  points.set_hook([&](const char* label) {
    if (is_helper) {
      // The helper's first flush is phase 2's flush of the shared word.
      if (std::strcmp(label, "pmem:flush") == 0 && !helper_stalled) {
        helper_stalled = true;
        wait_for(release);
      }
    } else if (std::strcmp(label, "pmwcas:decided") == 0) {
      decided = true;
      wait_for(helper_stalled);
    }
  });
  std::thread helper([&] {
    is_helper = true;
    if (!wait_for(decided)) return;
    ebr::EpochGuard guard(eng.ebr(), 1);
    EXPECT_EQ(eng.read(shared), 10u);  // helps the owner's descriptor
  });
  {
    ebr::EpochGuard guard(eng.ebr(), 0);
    Descriptor* d = eng.allocate(0);
    eng.add_word(d, shared, 1, 10);
    eng.add_word(d, priv, 100, 200, /*is_private=*/true);
    EXPECT_TRUE(eng.mwcas(0, d));
  }
  priv->store(300);  // the owner's next write, e.g. its next prep
  ctx.persist(priv, sizeof(*priv));
  release = true;
  helper.join();
  points.set_hook(nullptr);
  EXPECT_TRUE(helper_stalled) << "the helper never reached phase 2";
  EXPECT_EQ(priv->load(), 300u) << "a late helper overwrote the private word";
}

TEST_F(PmwcasFixture, ReadNeverReturnsFlaggedValue) {
  SimEngine eng(ctx, 2, 64);
  auto* w = alloc_word(ctx, 0);
  ebr::EpochGuard guard(eng.ebr(), 0);
  for (std::uint64_t i = 0; i < 32; ++i) {
    Descriptor* d = eng.allocate(0);
    eng.add_word(d, w, i, i + 1);
    ASSERT_TRUE(eng.mwcas(0, d));
    const std::uint64_t v = eng.read(w);
    EXPECT_EQ(v & kFlagsMask, 0u);
    EXPECT_EQ(v, i + 1);
  }
}

TEST_F(PmwcasFixture, DescriptorPoolRecycles) {
  SimEngine eng(ctx, 1, 8);  // tiny pool: must recycle across 1000 ops
  auto* w = alloc_word(ctx, 0);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    ebr::EpochGuard guard(eng.ebr(), 0);
    Descriptor* d = eng.allocate(0);
    eng.add_word(d, w, i, i + 1);
    ASSERT_TRUE(eng.mwcas(0, d));
  }
  ebr::EpochGuard guard(eng.ebr(), 0);
  EXPECT_EQ(eng.read(w), 1000u);
}

TEST(PmwcasConcurrent, ContendedCountersStayConsistent) {
  // Two counters advanced together by a 2-word PMwCAS from many threads:
  // they must remain equal at every successful step and sum to the number
  // of successes at the end.
  pmem::EmulatedNvmContext ctx(1 << 24, pmem::EmulatedNvmBackend(
                                            pmem::EmulationParams{0, 0}));
  constexpr std::size_t kThreads = 4;
  constexpr int kSuccessTarget = 800;
  PerfEngine eng(ctx, kThreads, 128);
  auto* a = pmem::alloc_object<std::atomic<std::uint64_t>>(ctx, 0);
  auto* b = pmem::alloc_object<std::atomic<std::uint64_t>>(ctx, 0);

  std::atomic<int> successes{0};
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      while (successes.load(std::memory_order_relaxed) < kSuccessTarget) {
        ebr::EpochGuard guard(eng.ebr(), t);
        Descriptor* d = eng.allocate(t);
        const std::uint64_t av = eng.read(a);
        const std::uint64_t bv = eng.read(b);
        if (av != bv) {
          // A successful PMwCAS updates both atomically, and reads help
          // in-flight operations to completion — but two separate reads
          // are not a snapshot, so unequal reads just mean "raced";
          // retry.  What must NEVER happen is a committed state with
          // a != b, which the final check verifies.
          eng.discard(t, d);
          continue;
        }
        eng.add_word(d, a, av, av + 1);
        eng.add_word(d, b, bv, bv + 1);
        if (eng.mwcas(t, d)) successes.fetch_add(1);
      }
    });
  }
  for (auto& w : workers) w.join();
  ebr::EpochGuard guard(eng.ebr(), 0);
  const std::uint64_t av = eng.read(a);
  const std::uint64_t bv = eng.read(b);
  EXPECT_EQ(av, bv);
  EXPECT_GE(static_cast<int>(av), kSuccessTarget);
}

// ---- crash recovery -----------------------------------------------------------

TEST_F(PmwcasFixture, RecoveryRollsBackUndecided) {
  SimEngine eng(ctx, 1, 16);
  auto* a = alloc_word(ctx, 1);
  auto* b = alloc_word(ctx, 2);
  {
    ebr::EpochGuard guard(eng.ebr(), 0);
    Descriptor* d = eng.allocate(0);
    eng.add_word(d, a, 1, 10);
    eng.add_word(d, b, 2, 20);
    points.arm_at_label("pmwcas:pre-decision");
    EXPECT_THROW(eng.mwcas(0, d), pmem::SimulatedCrash);
    points.disarm();
  }
  pool.crash({pmem::ShadowPool::Survival::kAll, 1.0, 1});
  eng.recover();
  EXPECT_EQ(a->load() & ~kFlagsMask, 1u) << "undecided op must roll back";
  EXPECT_EQ(b->load() & ~kFlagsMask, 2u);
}

TEST_F(PmwcasFixture, RecoveryRollsForwardSucceeded) {
  SimEngine eng(ctx, 1, 16);
  auto* a = alloc_word(ctx, 1);
  auto* b = alloc_word(ctx, 2);
  {
    ebr::EpochGuard guard(eng.ebr(), 0);
    Descriptor* d = eng.allocate(0);
    eng.add_word(d, a, 1, 10);
    eng.add_word(d, b, 2, 20);
    points.arm_at_label("pmwcas:decided");
    EXPECT_THROW(eng.mwcas(0, d), pmem::SimulatedCrash);
    points.disarm();
  }
  pool.crash({pmem::ShadowPool::Survival::kAll, 1.0, 1});
  eng.recover();
  EXPECT_EQ(a->load() & ~kFlagsMask, 10u)
      << "succeeded op must roll forward";
  EXPECT_EQ(b->load() & ~kFlagsMask, 20u);
}

TEST_F(PmwcasFixture, NoWordIsPropagatedBeforeTheDecisionIsDurable) {
  // A helper decides the owner's PMwCAS and stalls before its status
  // persist completes.  A second helper reads the decision and stalls in
  // its own fence, and a reader then finds `a` and makes what it sees
  // durable.  A crash follows.  Recovery must not find `a` propagated
  // while the decision is lost, or it would roll `b` back: a torn update.
  SimEngine eng(ctx, 4, 16);
  // One cache line each: persisting `a` must not carry `b` along.
  struct alignas(kCacheLineSize) LineWord {
    std::atomic<std::uint64_t> word;
  };
  auto* a = &pmem::alloc_object<LineWord>(ctx, 1u)->word;
  auto* b = &pmem::alloc_object<LineWord>(ctx, 2u)->word;
  ctx.persist(a, sizeof(*a));
  ctx.persist(b, sizeof(*b));

  enum Role { kReader, kOwner, kDecider, kSecondHelper };
  static thread_local Role role = kReader;
  static thread_local bool decided = false;
  std::atomic<bool> owner_installed{false}, decider_stalled{false},
      second_stalled{false}, crash{false};
  const auto stall = [&](std::atomic<bool>& stalled, const char* label) {
    stalled = true;
    wait_for(crash);
    throw pmem::SimulatedCrash{label};
  };
  points.set_hook([&](const char* label) {
    const bool fence = std::strcmp(label, "pmem:fence") == 0;
    const bool pre_decision = std::strcmp(label, "pmwcas:pre-decision") == 0;
    switch (role) {
      case kOwner:  // both words installed, status not yet decided
        if (pre_decision) stall(owner_installed, label);
        break;
      case kDecider:  // status decided, its persist not yet fenced
        if (pre_decision) decided = true;
        if (decided && fence) stall(decider_stalled, label);
        break;
      case kSecondHelper:
        if (fence) stall(second_stalled, label);
        break;
      case kReader:
        break;
    }
  });
  const auto helper = [&](Role r, std::size_t tid,
                          const std::atomic<bool>& after) {
    return std::thread([&, r, tid] {
      role = r;
      if (!wait_for(after)) return;
      try {
        ebr::EpochGuard guard(eng.ebr(), tid);
        (void)eng.read(a);
      } catch (const pmem::SimulatedCrash&) {
      }
    });
  };
  std::thread owner([&] {
    role = kOwner;
    try {
      ebr::EpochGuard guard(eng.ebr(), 0);
      Descriptor* d = eng.allocate(0);
      eng.add_word(d, a, 1, 10);
      eng.add_word(d, b, 2, 20);
      eng.mwcas(0, d);
    } catch (const pmem::SimulatedCrash&) {
    }
  });
  std::thread decider = helper(kDecider, 1, owner_installed);
  std::thread second = helper(kSecondHelper, 2, decider_stalled);
  ASSERT_TRUE(wait_for(second_stalled)) << "the second helper never stalled";
  {
    ebr::EpochGuard guard(eng.ebr(), 3);
    EXPECT_EQ(eng.read(a), 10u);
  }
  crash = true;
  for (std::thread* t : {&owner, &decider, &second}) t->join();
  points.set_hook(nullptr);

  pool.crash();
  eng.recover();
  const std::uint64_t av = a->load() & ~kFlagsMask;
  const std::uint64_t bv = b->load() & ~kFlagsMask;
  EXPECT_TRUE((av == 1 && bv == 2) || (av == 10 && bv == 20))
      << "torn multi-word update (a=" << av << " b=" << bv << ")";
}

TEST(PmwcasRecovery, RecycledDescriptorIsNeverReplayed) {
  // With one descriptor per thread, the second PMwCAS rebuilds the first
  // one's descriptor.  A crash before the rebuilt descriptor is persisted
  // may keep any subset of its cache lines (random survival); recovery must
  // not read the half-rebuilt record as the first, Succeeded operation and
  // apply the second one's private value.
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    pmem::ShadowPool pool(1 << 22);
    pmem::CrashPoints points;
    pmem::SimContext ctx(pool, points);
    SimEngine eng(ctx, 1, 1);
    auto* a = alloc_word(ctx, 1);
    auto* p = alloc_word(ctx, 100);
    Descriptor* first = nullptr;
    {
      ebr::EpochGuard guard(eng.ebr(), 0);
      first = eng.allocate(0);
      eng.add_word(first, a, 1, 10);
      eng.add_word(first, p, 100, 200, /*is_private=*/true);
      ASSERT_TRUE(eng.mwcas(0, first));
    }
    {
      ebr::EpochGuard guard(eng.ebr(), 0);
      Descriptor* d = eng.allocate(0);
      ASSERT_EQ(d, first) << "the pool should hand back the only descriptor";
      eng.add_word(d, a, 10, 11);
      eng.add_word(d, p, 200, 300, /*is_private=*/true);
      points.arm_at_label("pmem:flush");  // mwcas's descriptor persist
      EXPECT_THROW(eng.mwcas(0, d), pmem::SimulatedCrash);
      points.disarm();
    }
    pool.crash({pmem::ShadowPool::Survival::kRandom, 0.5, seed});
    eng.recover();
    EXPECT_EQ(a->load() & ~kFlagsMask, 10u) << "seed=" << seed;
    EXPECT_EQ(p->load() & ~kFlagsMask, 200u)
        << "seed=" << seed << ": replayed a half-rebuilt descriptor";
  }
}

TEST_F(PmwcasFixture, RecoverySweepAllCrashPointsAtomicOutcome) {
  // For every crash point inside a 2-word PMwCAS, after crash+recovery the
  // words are either BOTH old or BOTH new — failure atomicity.
  for (std::int64_t k = 0;; ++k) {
    pmem::ShadowPool pool(1 << 22);
    pmem::CrashPoints points;
    pmem::SimContext ctx(pool, points);
    SimEngine eng(ctx, 1, 16);
    auto* a = alloc_word(ctx, 1);
    auto* b = alloc_word(ctx, 2);

    bool crashed = false;
    points.arm_countdown(k);
    try {
      ebr::EpochGuard guard(eng.ebr(), 0);
      Descriptor* d = eng.allocate(0);
      eng.add_word(d, a, 1, 10);
      eng.add_word(d, b, 2, 20);
      eng.mwcas(0, d);
    } catch (const pmem::SimulatedCrash&) {
      crashed = true;
    }
    points.disarm();
    if (!crashed) break;

    pool.crash();
    eng.recover();
    const std::uint64_t av = a->load() & ~kFlagsMask;
    const std::uint64_t bv = b->load() & ~kFlagsMask;
    const bool both_old = av == 1 && bv == 2;
    const bool both_new = av == 10 && bv == 20;
    EXPECT_TRUE(both_old || both_new)
        << "k=" << k << ": torn multi-word update (a=" << av << " b=" << bv
        << ")";
  }
}

TEST_F(PmwcasFixture, RecoveryIsIdempotentUnderRepeatedCrashes) {
  // Crash inside the PMwCAS, then crash inside recovery itself at every
  // point; a second recovery must still produce an atomic outcome.
  for (std::int64_t k = 0; k < 30; ++k) {
    pmem::ShadowPool pool(1 << 22);
    pmem::CrashPoints points;
    pmem::SimContext ctx(pool, points);
    SimEngine eng(ctx, 1, 16);
    auto* a = alloc_word(ctx, 1);
    auto* b = alloc_word(ctx, 2);
    {
      ebr::EpochGuard guard(eng.ebr(), 0);
      Descriptor* d = eng.allocate(0);
      eng.add_word(d, a, 1, 10);
      eng.add_word(d, b, 2, 20);
      points.arm_at_label("pmwcas:decided");
      EXPECT_THROW(eng.mwcas(0, d), pmem::SimulatedCrash);
      points.disarm();
    }
    pool.crash();

    points.arm_countdown(k);
    bool recovery_crashed = false;
    try {
      eng.recover();
    } catch (const pmem::SimulatedCrash&) {
      recovery_crashed = true;
    }
    points.disarm();
    if (recovery_crashed) {
      pool.crash();
      eng.recover();
    }
    const std::uint64_t av = a->load() & ~kFlagsMask;
    const std::uint64_t bv = b->load() & ~kFlagsMask;
    const bool both_old = av == 1 && bv == 2;
    const bool both_new = av == 10 && bv == 20;
    EXPECT_TRUE(both_old || both_new) << "k=" << k << " a=" << av
                                      << " b=" << bv;
    if (!recovery_crashed) break;
  }
}

}  // namespace
}  // namespace dssq::pmwcas
