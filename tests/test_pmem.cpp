// Unit tests for the persistence substrate: backends, the shadow-pool
// crash simulator, crash-point injection, and the context policies.

#include <gtest/gtest.h>

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "common/metrics.hpp"
#include "pmem/backend.hpp"
#include "pmem/combiner.hpp"
#include "pmem/context.hpp"
#include "pmem/mmap_backend.hpp"
#include "pmem/crash.hpp"
#include "pmem/shadow_pool.hpp"

namespace dssq::pmem {
namespace {

// ---- backends ----------------------------------------------------------------

TEST(Backend, NullBackendIsNoop) {
  NullBackend b;
  int x = 0;
  b.persist(&x, sizeof(x));  // must not crash
  EXPECT_STREQ(NullBackend::name(), "null");
}

TEST(Backend, EmulatedLatencyScalesWithLines) {
  EmulationParams p;
  p.flush_ns_per_line = 50'000;  // big enough to measure: 50 µs per line
  p.fence_ns = 0;
  EmulatedNvmBackend b(p);
  alignas(64) char buf[64 * 8] = {};
  using Clock = std::chrono::steady_clock;
  spin_for_ns(1);  // force one-time spin calibration outside the timing

  // Best of several trials: a single measurement can be inflated by
  // preemption (parallel ctest, sanitizer runtimes), but the *minimum*
  // converges on the emulated spin time.
  auto min_elapsed = [&](std::size_t bytes) {
    Clock::duration best = Clock::duration::max();
    for (int trial = 0; trial < 5; ++trial) {
      const auto t0 = Clock::now();
      b.flush(buf, bytes);
      best = std::min(best, Clock::now() - t0);
    }
    return best;
  };
  const auto one = min_elapsed(64);        // 1 line
  const auto eight = min_elapsed(64 * 8);  // 8 lines

  EXPECT_GT(eight.count(), one.count() * 3);  // superlinear vs 1 line
}

TEST(Backend, EnvParamsFallBackToDefaults) {
  // (Environment is not set in the test runner.)
  const EmulationParams p = emulation_params_from_env();
  EXPECT_GT(p.flush_ns_per_line, 0u);
  EXPECT_GT(p.fence_ns, 0u);
}

TEST(Backend, ClwbBackendFlushesWithoutFaulting) {
  ClwbBackend b;
  alignas(64) char buf[256] = {};
  b.persist(buf, sizeof(buf));
  EXPECT_NE(ClwbBackend::name(), nullptr);
}

// ---- shadow pool ----------------------------------------------------------------

TEST(ShadowPool, AllocZeroedAndAligned) {
  ShadowPool pool(1 << 16);
  auto* p = static_cast<std::uint64_t*>(pool.alloc(64, 64));
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 64, 0u);
  EXPECT_EQ(*p, 0u);
  EXPECT_TRUE(pool.contains(p));
}

TEST(ShadowPool, AllocExhaustionThrows) {
  ShadowPool pool(128);
  pool.alloc(64, 8);
  pool.alloc(64, 8);
  EXPECT_THROW(pool.alloc(1, 1), std::bad_alloc);
}

TEST(ShadowPool, UnflushedWritesAreLostOnCrash) {
  ShadowPool pool(1 << 12);
  auto* p = static_cast<std::uint64_t*>(pool.alloc(8, 8));
  *p = 0xdeadbeef;
  EXPECT_TRUE(pool.line_dirty(p));
  const auto report = pool.crash();  // Survival::kNone
  EXPECT_EQ(report.dirty_lines, 1u);
  EXPECT_EQ(report.survived_lines, 0u);
  EXPECT_EQ(*p, 0u) << "unflushed write must not survive";
}

TEST(ShadowPool, FlushAlonePersistsNothing) {
  ShadowPool pool(1 << 12);
  auto* p = static_cast<std::uint64_t*>(pool.alloc(8, 8));
  *p = 42;
  pool.flush(p, 8);  // CLWB without SFENCE: no guarantee yet
  pool.crash();
  EXPECT_EQ(*p, 0u);
}

TEST(ShadowPool, FlushPlusFenceSurvivesCrash) {
  ShadowPool pool(1 << 12);
  auto* p = static_cast<std::uint64_t*>(pool.alloc(8, 8));
  *p = 42;
  pool.persist(p, 8);
  EXPECT_FALSE(pool.line_dirty(p));
  pool.crash();
  EXPECT_EQ(*p, 42u);
}

TEST(ShadowPool, FencedLinesSurviveLaterUnfencedOverwrite) {
  ShadowPool pool(1 << 12);
  auto* p = static_cast<std::uint64_t*>(pool.alloc(8, 8));
  *p = 1;
  pool.persist(p, 8);
  *p = 2;  // overwrite, never flushed
  pool.crash();
  EXPECT_EQ(*p, 1u) << "crash must restore the last persisted value";
}

TEST(ShadowPool, SurvivalAllKeepsDirtyLines) {
  ShadowPool pool(1 << 12);
  auto* p = static_cast<std::uint64_t*>(pool.alloc(8, 8));
  *p = 7;
  ShadowPool::CrashOptions opt;
  opt.survival = ShadowPool::Survival::kAll;
  const auto report = pool.crash(opt);
  EXPECT_EQ(report.survived_lines, report.dirty_lines);
  EXPECT_EQ(*p, 7u);
}

TEST(ShadowPool, SurvivalRandomIsSeedDeterministic) {
  // Two identical pools with identical writes and the same seed must make
  // identical survival decisions (replayability of crash tests).
  auto run = [](std::uint64_t seed) {
    ShadowPool pool(1 << 14);
    std::vector<std::uint64_t*> ptrs;
    for (int i = 0; i < 32; ++i) {
      auto* p = static_cast<std::uint64_t*>(pool.alloc(64, 64));
      *p = 0x1000 + i;
      ptrs.push_back(p);
    }
    ShadowPool::CrashOptions opt;
    opt.survival = ShadowPool::Survival::kRandom;
    opt.p_survive = 0.5;
    opt.seed = seed;
    pool.crash(opt);
    std::vector<std::uint64_t> out;
    for (auto* p : ptrs) out.push_back(*p);
    return out;
  };
  EXPECT_EQ(run(123), run(123));
  EXPECT_NE(run(123), run(456));
}

TEST(ShadowPool, PendingFlushesInvalidatedByCrash) {
  ShadowPool pool(1 << 12);
  auto* p = static_cast<std::uint64_t*>(pool.alloc(8, 8));
  *p = 5;
  pool.flush(p, 8);  // pending, no fence
  pool.crash();
  EXPECT_EQ(*p, 0u);
  // A fence AFTER the crash must not commit the pre-crash pending flush.
  *p = 9;
  pool.fence();  // no flush since crash: commits nothing
  pool.crash();
  EXPECT_EQ(*p, 0u) << "pre-crash pending flush leaked through the crash";
}

TEST(ShadowPool, PerThreadPendingSetsAreIndependent) {
  ShadowPool pool(1 << 12);
  auto* a = static_cast<std::uint64_t*>(pool.alloc(64, 64));
  auto* b = static_cast<std::uint64_t*>(pool.alloc(64, 64));
  *a = 1;
  pool.flush(a, 8);  // main thread pending
  std::thread other([&] {
    *b = 2;
    pool.flush(b, 8);
    pool.fence();  // commits only b
  });
  other.join();
  pool.crash();
  EXPECT_EQ(*a, 0u) << "main thread never fenced";
  EXPECT_EQ(*b, 2u) << "other thread's fence must commit its flush";
}

TEST(ShadowPool, OneThreadKeepsPendingSetsApartAcrossPoolsAndChurn) {
  ShadowPool a(1 << 12);
  auto* pa = static_cast<std::uint64_t*>(a.alloc(64, 64));
  *pa = 1;
  a.flush(pa, 8);  // pending in pool a
  // Many short-lived pools on this thread: each one's pending set is
  // recycled after it dies and never mixes with a live pool's.
  for (int i = 0; i < 2000; ++i) {
    ShadowPool c(1 << 12);
    auto* pc = static_cast<std::uint64_t*>(c.alloc(64, 64));
    *pc = 7;
    c.flush(pc, 8);
    if (i % 2 == 0) c.fence();
    EXPECT_EQ(c.line_dirty(pc), i % 2 != 0) << i;
  }
  ShadowPool b(1 << 12);
  auto* pb = static_cast<std::uint64_t*>(b.alloc(64, 64));
  *pb = 2;
  b.flush(pb, 8);
  b.fence();  // commits only b's line
  EXPECT_FALSE(b.line_dirty(pb));
  EXPECT_TRUE(a.line_dirty(pa)) << "a fence on b committed a's flush";
  a.fence();
  EXPECT_FALSE(a.line_dirty(pa)) << "a's pending flush was lost";
}

TEST(ShadowPool, FlushOutsidePoolThrows) {
  ShadowPool pool(1 << 12);
  std::uint64_t local = 0;
  EXPECT_THROW(pool.flush(&local, 8), std::logic_error);
}

TEST(ShadowPool, PersistEverythingCleansAllLines) {
  ShadowPool pool(1 << 12);
  for (int i = 0; i < 8; ++i) {
    auto* p = static_cast<std::uint64_t*>(pool.alloc(64, 64));
    *p = i + 1;
  }
  EXPECT_GT(pool.count_dirty_lines(), 0u);
  pool.persist_everything();
  EXPECT_EQ(pool.count_dirty_lines(), 0u);
}

TEST(ShadowPool, WholeLineGranularity) {
  // Persisting one word persists its whole cache line (hardware behaviour).
  ShadowPool pool(1 << 12);
  auto* line = static_cast<std::uint64_t*>(pool.alloc(64, 64));
  line[0] = 11;
  line[7] = 77;
  pool.persist(&line[0], 8);  // flush word 0 only
  pool.crash();
  EXPECT_EQ(line[0], 11u);
  EXPECT_EQ(line[7], 77u) << "same-line neighbour persists with the line";
}

TEST(ShadowPool, ConcurrentPersistStress) {
  // Many threads persist increasing counters to their own lines; after a
  // kNone crash each line must hold exactly the last value its owner
  // persisted — concurrent flush/fence bookkeeping must not lose or leak
  // commits across threads.
  constexpr std::size_t kThreads = 4;
  constexpr std::uint64_t kRounds = 400;
  ShadowPool pool(1 << 16);
  std::vector<std::uint64_t*> slots(kThreads);
  for (auto& s : slots) {
    s = static_cast<std::uint64_t*>(pool.alloc(64, 64));
  }
  std::vector<std::uint64_t> last_persisted(kThreads, 0);
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (std::uint64_t i = 1; i <= kRounds; ++i) {
        *slots[t] = i;
        pool.persist(slots[t], 8);
        last_persisted[t] = i;
      }
      *slots[t] = 999'999;  // never persisted: must not survive
    });
  }
  for (auto& w : workers) w.join();
  pool.crash();  // kNone
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(*slots[t], last_persisted[t]) << "thread " << t;
  }
}

// ---- crash points -----------------------------------------------------------------

TEST(CrashPoints, CountdownFiresAtNthPoint) {
  CrashPoints cp;
  cp.arm_countdown(2);
  EXPECT_NO_THROW(cp.point("a"));
  EXPECT_NO_THROW(cp.point("b"));
  EXPECT_THROW(cp.point("c"), SimulatedCrash);
}

TEST(CrashPoints, SystemWideOnceFired) {
  CrashPoints cp;
  cp.arm_countdown(0);
  EXPECT_THROW(cp.point("a"), SimulatedCrash);
  // Every subsequent point (any thread) must also die until disarmed.
  EXPECT_THROW(cp.point("b"), SimulatedCrash);
  EXPECT_TRUE(cp.fired());
  cp.disarm();
  EXPECT_NO_THROW(cp.point("c"));
}

TEST(CrashPoints, LabelTargeting) {
  CrashPoints cp;
  cp.arm_at_label("hot", 1);  // second occurrence of "hot"
  EXPECT_NO_THROW(cp.point("cold"));
  EXPECT_NO_THROW(cp.point("hot"));
  EXPECT_NO_THROW(cp.point("cold"));
  EXPECT_THROW(cp.point("hot"), SimulatedCrash);
}

TEST(CrashPoints, HitCountingForSweepBounds) {
  CrashPoints cp;
  cp.reset_hits();
  cp.point("x");
  cp.point("y");
  cp.point("z");
  EXPECT_EQ(cp.hits(), 3u);
}

TEST(CrashPoints, DisarmedIsFree) {
  CrashPoints cp;
  for (int i = 0; i < 1000; ++i) EXPECT_NO_THROW(cp.point("p"));
}

// ---- contexts -----------------------------------------------------------------------

TEST(Context, PerfContextAllocatesAligned) {
  VolatileContext ctx(1 << 16);
  auto* p = static_cast<std::uint64_t*>(ctx.raw_alloc(128, 64));
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 64, 0u);
  EXPECT_EQ(*p, 0u);
  ctx.persist(p, 8);
  ctx.crash_point("ignored");  // no-op by construction
}

TEST(Context, PerfContextExhaustionThrows) {
  VolatileContext ctx(256);
  ctx.raw_alloc(128, 64);
  EXPECT_THROW(ctx.raw_alloc(512, 64), std::bad_alloc);
}

TEST(Context, SimContextRoutesToPoolAndPoints) {
  ShadowPool pool(1 << 12);
  CrashPoints points;
  SimContext ctx(pool, points);
  auto* p = static_cast<std::uint64_t*>(ctx.raw_alloc(8, 8));
  *p = 3;
  points.reset_hits();
  ctx.persist(p, 8);
  EXPECT_GE(points.hits(), 2u) << "persist must pass flush+fence points";
  pool.crash();
  EXPECT_EQ(*p, 3u);
}

TEST(Context, SimContextCrashAtFlushPoint) {
  ShadowPool pool(1 << 12);
  CrashPoints points;
  SimContext ctx(pool, points);
  auto* p = static_cast<std::uint64_t*>(ctx.raw_alloc(8, 8));
  *p = 3;
  points.arm_at_label("pmem:flush");
  EXPECT_THROW(ctx.persist(p, 8), SimulatedCrash);
  points.disarm();
  pool.crash();
  EXPECT_EQ(*p, 0u) << "crash at the flush point precedes the write-back";
}

// ---- backend crash hooks ----------------------------------------------------

/// Label tally used as CrashHook state.
struct HookLog {
  int flush = 0;
  int fence = 0;
  int fence_done = 0;
  static void hook(void* state, const char* label) {
    auto* self = static_cast<HookLog*>(state);
    if (std::strcmp(label, "pmem:flush") == 0) ++self->flush;
    if (std::strcmp(label, "pmem:fence") == 0) ++self->fence;
    if (std::strcmp(label, "pmem:fence-done") == 0) ++self->fence_done;
  }
};

TEST(Backend, EmulatedCrashHookFiresOnFlushAndFence) {
  // The regression this pins down: injection used to reach only flush
  // paths, so a crash could never land in the flush→fence window — the
  // exact window where write-back has begun but is not yet guaranteed.
  EmulatedNvmBackend b(EmulationParams{0, 0});
  HookLog log;
  b.set_crash_hook(&HookLog::hook, &log);
  int x = 0;
  b.flush(&x, sizeof(x));
  EXPECT_EQ(log.flush, 1);
  EXPECT_EQ(log.fence, 0);
  b.fence();
  EXPECT_EQ(log.fence, 1);
  EXPECT_EQ(log.fence_done, 1);
  b.persist(&x, sizeof(x));  // = flush + fence
  EXPECT_EQ(log.flush, 2);
  EXPECT_EQ(log.fence, 2);
  EXPECT_EQ(log.fence_done, 2);
  b.set_crash_hook(nullptr, nullptr);
  b.persist(&x, sizeof(x));
  EXPECT_EQ(log.flush, 2) << "disarmed hook must not fire";
}

TEST(Backend, MmapBackendHooksAndDisengagedNoop) {
  // A default-constructed (disengaged) MmapBackend must still fire hooks
  // symmetrically — the KillSwitch counts points, mapped or not — while
  // flush/fence themselves are no-ops.
  MmapBackend b;
  EXPECT_STREQ(MmapBackend::name(), "mmap");
  EXPECT_STREQ(b.mode_name(), "mmap-msync");
  HookLog log;
  b.set_crash_hook(&HookLog::hook, &log);
  int x = 0;
  b.persist(&x, sizeof(x));
  EXPECT_EQ(log.flush, 1);
  EXPECT_EQ(log.fence, 1);
  EXPECT_EQ(log.fence_done, 1);
}

TEST(Backend, MmapShmBackendHooksAndCountersFireOncePerPersist) {
  // The shm tier (tmpfs heap) makes no syscall, yet every flush and fence
  // still fires its crash hook and counts exactly once, as on the msync
  // tier: KillSwitch countdowns and the per-op cost model see the same
  // persist points.
  const int fd = ::memfd_create("dssq-shm-backend", MFD_CLOEXEC);
  if (fd < 0) GTEST_SKIP() << "memfd_create failed: " << std::strerror(errno);
  constexpr std::size_t kBytes = 4096;
  ASSERT_EQ(::ftruncate(fd, kBytes), 0);
  void* base =
      ::mmap(nullptr, kBytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ASSERT_NE(base, MAP_FAILED);
  MmapBackend b(base, kBytes, fd, MmapBackend::Mode::kShm);
  EXPECT_STREQ(b.mode_name(), "mmap-shm");
  HookLog log;
  b.set_crash_hook(&HookLog::hook, &log);
  auto* bytes = static_cast<char*>(base);
  const metrics::Snapshot before = metrics::snapshot();
  b.flush(bytes + 32, 64);  // straddles two lines
  EXPECT_EQ(log.flush, 1);
  EXPECT_EQ(log.fence, 0);
  b.fence();
  EXPECT_EQ(log.fence, 1);
  EXPECT_EQ(log.fence_done, 1);
  b.persist(bytes, 8);
  EXPECT_EQ(log.flush, 2);
  EXPECT_EQ(log.fence, 2);
  EXPECT_EQ(log.fence_done, 2);
  if (metrics::kEnabled) {
    const metrics::Snapshot d = metrics::snapshot() - before;
    EXPECT_EQ(d[metrics::Counter::kFlushCalls], 2u);
    EXPECT_EQ(d[metrics::Counter::kFlushLines], 3u);
    EXPECT_EQ(d[metrics::Counter::kFences], 2u);
    EXPECT_EQ(d[metrics::Counter::kFencesElided], 0u);
  }
  ::munmap(base, kBytes);
  ::close(fd);
}

// ---- fence combiner -----------------------------------------------------------

TEST(FenceCombiner, SingleThreadAlwaysClaimsItsOwnTicket) {
  // Degenerate case: with no concurrency there is never a fence to share,
  // so every call must claim its own ticket and run the hardware fence —
  // combining must not change single-threaded semantics or cost shape.
  const metrics::Snapshot before = metrics::snapshot();
  FenceCombiner c;
  int hw = 0;
  for (int i = 0; i < 5; ++i) c.fence([&] { ++hw; });
  EXPECT_EQ(hw, 5);
  EXPECT_EQ(c.started(), 5u);
  EXPECT_EQ(c.completed(), 5u);
  const metrics::Snapshot d = metrics::snapshot() - before;
  EXPECT_EQ(d[metrics::Counter::kFencesCombined], 5u);
  EXPECT_EQ(d[metrics::Counter::kFencesElided], 0u);
  EXPECT_EQ(d[metrics::Counter::kCombinerSpinFallbacks], 0u);
}

TEST(FenceCombiner, EpochClockIsMonotoneUnderContention) {
  constexpr std::size_t kThreads = 4;
  constexpr int kRounds = 500;
  const metrics::Snapshot before = metrics::snapshot();
  FenceCombiner c;
  std::atomic<std::uint64_t> hw_calls{0};
  std::atomic<int> monotonicity_violations{0};
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      std::uint64_t prev = 0;
      for (int i = 0; i < kRounds; ++i) {
        const std::uint64_t cur = c.completed();
        if (cur < prev) monotonicity_violations.fetch_add(1);
        prev = cur;
        c.fence([&] { hw_calls.fetch_add(1, std::memory_order_relaxed); });
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(monotonicity_violations.load(), 0);
  // Quiescent: every claimed ticket has been published.
  EXPECT_EQ(c.completed(), c.started());
  // Accounting closes: each call either elided, combined, or fell back,
  // and the hardware fence ran exactly once per non-elided call.
  const metrics::Snapshot d = metrics::snapshot() - before;
  const std::uint64_t elided = d[metrics::Counter::kFencesElided];
  const std::uint64_t combined = d[metrics::Counter::kFencesCombined];
  const std::uint64_t fallbacks = d[metrics::Counter::kCombinerSpinFallbacks];
  EXPECT_EQ(elided + combined + fallbacks, kThreads * kRounds);
  EXPECT_EQ(hw_calls.load(), combined + fallbacks);
  EXPECT_EQ(c.started(), combined);
}

TEST(FenceCombiner, BoundedSpinFallsBackToSelfFence) {
  // A thread that loses the ticket race sees started_ already at its
  // target: its claim CAS can never succeed, and it must not wait
  // unboundedly for the winner (who may be preempted mid-fence).  Build
  // that state deterministically: a holder thread claims ticket 1 and
  // blocks inside the hardware fence, then the main thread runs the
  // protocol body against the same target.
  const metrics::Snapshot before = metrics::snapshot();
  FenceCombiner c;
  std::atomic<bool> in_hw{false};
  std::atomic<bool> release{false};
  std::thread holder([&] {
    c.fence([&] {
      in_hw.store(true);
      while (!release.load()) std::this_thread::yield();
    });
  });
  while (!in_hw.load()) std::this_thread::yield();
  // Ticket 1 is claimed but not completed — the lost-race state.
  EXPECT_EQ(c.started(), 1u);
  EXPECT_EQ(c.completed(), 0u);

  int self_fences = 0;
  c.set_spin_limit(0);  // fall back on the first failed claim
  c.fence_at(1, [&] { ++self_fences; });
  EXPECT_EQ(self_fences, 1);
  c.set_spin_limit(64);  // spin the full budget, then still fall back
  c.fence_at(1, [&] { ++self_fences; });
  EXPECT_EQ(self_fences, 2);

  release.store(true);
  holder.join();
  EXPECT_EQ(c.completed(), 1u);
  const metrics::Snapshot d = metrics::snapshot() - before;
  EXPECT_EQ(d[metrics::Counter::kCombinerSpinFallbacks], 2u);
  EXPECT_EQ(d[metrics::Counter::kFencesCombined], 1u);
  EXPECT_EQ(d[metrics::Counter::kFencesElided], 0u);
}

TEST(FenceCombiner, AlreadyCompletedEpochElidesTheFence) {
  // The elide path, deterministically: a waiter whose announced epoch is
  // <= completed_ got its drain from the epoch's fencer and must return
  // without touching the hardware.
  const metrics::Snapshot before = metrics::snapshot();
  FenceCombiner c;
  c.fence([] {});  // completed_ = 1
  int hw = 0;
  c.fence_at(1, [&] { ++hw; });
  EXPECT_EQ(hw, 0) << "epoch 1 already drained: the fence must be elided";
  const metrics::Snapshot d = metrics::snapshot() - before;
  EXPECT_EQ(d[metrics::Counter::kFencesElided], 1u);
  EXPECT_EQ(d[metrics::Counter::kFencesCombined], 1u);
}

TEST(FenceCombiner, CombinedFenceFiresCrashHookInsideWindow) {
  // The crash-injection contract must survive combining: a combined
  // persist still passes through the backend's flush and fence hooks, so
  // a KillSwitch countdown can land inside the combined flush→fence
  // window exactly as it can on the raw path.
  EmulatedNvmContext ctx(1 << 16,
                         EmulatedNvmBackend(EmulationParams{0, 0}));
  HookLog log;
  ctx.backend().set_crash_hook(&HookLog::hook, &log);
  int* p = alloc_object<int>(ctx, 7);
  ctx.persist_combined(p, sizeof(*p));
  EXPECT_EQ(log.flush, 1);
  // Single-threaded, so the combiner claims and performs the real fence.
  EXPECT_EQ(log.fence, 1);
  EXPECT_EQ(log.fence_done, 1);
}

TEST(FenceCombiner, RuntimeKnobRoutesAroundCombiner) {
  const bool saved = fence_combining_enabled();
  EmulatedNvmContext ctx(1 << 16,
                         EmulatedNvmBackend(EmulationParams{0, 0}));
  int* p = alloc_object<int>(ctx, 1);
  set_fence_combining_enabled(false);
  ctx.persist_combined(p, sizeof(*p));
  EXPECT_EQ(ctx.combiner().started(), 0u)
      << "disabled: the combiner must not see the fence";
  set_fence_combining_enabled(true);
  ctx.persist_combined(p, sizeof(*p));
#if DSSQ_FENCE_COMBINING_ENABLED
  EXPECT_EQ(ctx.combiner().started(), 1u);
#else
  // Compile gate off: the getter is constant-false, so even an enabled
  // runtime knob must route straight to the backend.
  EXPECT_EQ(ctx.combiner().started(), 0u);
#endif
  set_fence_combining_enabled(saved);
}

TEST(Context, AllocObjectConstructs) {
  VolatileContext ctx(1 << 16);
  struct Pod {
    int a;
    int b;
  };
  Pod* p = alloc_object<Pod>(ctx, Pod{1, 2});
  EXPECT_EQ(p->a, 1);
  EXPECT_EQ(p->b, 2);
  auto* arr = alloc_array<std::uint64_t>(ctx, 16);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(arr[i], 0u);
}

}  // namespace
}  // namespace dssq::pmem
