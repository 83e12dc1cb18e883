// Unit tests for the UringTable submission/completion rings: round trips,
// wraparound past the ring capacity, full-ring backpressure, refusal of
// torn (checksum-failing) submissions, idempotent re-drain after a lost
// index publish — and a real fork-and-SIGKILL orphan (countdown swept
// across every persistence point of the submit/drain pipeline) whose
// submission ring must be settled during lease reclamation BEFORE the
// slot is reissued, with the exactly-once multiset intact after.

#include <gtest/gtest.h>

#include <signal.h>
#include <unistd.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "harness/fork_crash.hpp"
#include "heap_tiers.hpp"
#include "pmem/dss_uring.hpp"
#include "pmem/persistent_heap.hpp"
#include "pmem/slot_lease.hpp"
#include "queues/dss_queue.hpp"

namespace dssq::pmem {
namespace {

std::string temp_heap_path(const char* tag) {
  return ::testing::TempDir() + "dssq-uring-" + tag + "-" +
         std::to_string(::getpid()) + ".bin";
}

struct PathGuard {
  std::string path;
  explicit PathGuard(std::string p) : path(std::move(p)) {
    ::unlink(path.c_str());
  }
  ~PathGuard() { ::unlink(path.c_str()); }
};

/// A queue plus a formatted ring table in a throwaway heap.
struct RingFixture {
  static constexpr std::size_t kSlots = 2;
  static constexpr std::size_t kCapacity = 4;

  PathGuard guard;
  PersistentHeap heap;
  MmapContext ctx;
  queues::DssQueue<MmapContext> q;
  UringTable rings;

  explicit RingFixture(const char* tag)
      : guard(temp_heap_path(tag)),
        heap(guard.path, PersistentHeap::OpenMode::kCreate,
             [] {
               PersistentHeap::Options o;
               o.bytes = 8u << 20;
               return o;
             }()),
        ctx(heap),
        q(ctx, kSlots, 256),
        rings([&] {
          void* base = heap.raw_alloc(
              UringTable::bytes_for(kSlots, kCapacity), kCacheLineSize);
          UringTable::format(base, kSlots, kCapacity, heap.backend());
          return static_cast<UringTable::Header*>(base);
        }()) {}
};

TEST(UringTable, GeometryAndFormatChecks) {
  RingFixture f("geometry");
  EXPECT_EQ(f.rings.slots(), RingFixture::kSlots);
  EXPECT_EQ(f.rings.capacity(), RingFixture::kCapacity);
  EXPECT_NO_THROW(UringTable::attach_check(f.rings.header(), "t"));
  UringTable::Header bad;
  bad.magic = UringTable::kMagic ^ 1;
  EXPECT_THROW(UringTable::attach_check(&bad, "t"), HeapOpenError);
  EXPECT_THROW(UringTable::attach_check(nullptr, "t"), HeapOpenError);
  // Non-power-of-two capacities are refused at format time.
  void* scratch = f.heap.raw_alloc(UringTable::bytes_for(1, 4),
                                   kCacheLineSize);
  EXPECT_THROW(UringTable::format(scratch, 1, 3, f.heap.backend()),
               std::invalid_argument);
}

TEST(UringTable, SubmitDrainPollRoundTrip) {
  RingFixture f("roundtrip");
  ASSERT_TRUE(f.rings.submit(f.ctx, 0, UringTable::kOpEnqueue, 42));
  EXPECT_EQ(f.rings.depth(0), 1u);
  EXPECT_FALSE(f.rings.poll(0, 0).has_value()) << "nothing drained yet";
  EXPECT_EQ(f.rings.drain(f.ctx, f.q, 0), 1u);
  const auto c1 = f.rings.poll(0, 0);
  ASSERT_TRUE(c1.has_value());
  EXPECT_EQ(c1->seq, 1u);
  EXPECT_EQ(c1->op, UringTable::kOpEnqueue);
  EXPECT_EQ(c1->result, queues::kOk);
  EXPECT_FALSE(c1->refused());

  ASSERT_TRUE(f.rings.submit(f.ctx, 0, UringTable::kOpDequeue, 0));
  EXPECT_EQ(f.rings.drain(f.ctx, f.q, 0), 1u);
  const auto c2 = f.rings.poll(0, 1);
  ASSERT_TRUE(c2.has_value());
  EXPECT_EQ(c2->seq, 2u);
  EXPECT_EQ(c2->result, 42);

  // Dequeue on empty reports kEmpty through the completion, not a hang.
  ASSERT_TRUE(f.rings.submit(f.ctx, 0, UringTable::kOpDequeue, 0));
  EXPECT_EQ(f.rings.drain(f.ctx, f.q, 0), 1u);
  const auto c3 = f.rings.poll(0, 2);
  ASSERT_TRUE(c3.has_value());
  EXPECT_EQ(c3->result, queues::kEmpty);
  EXPECT_EQ(f.rings.depth(0), 0u);
}

TEST(UringTable, StagedEntriesInvisibleUntilPublished) {
  RingFixture f("staged");
  // Three staged entries: written and flushed, but the tail never moved —
  // the drainer must see an empty ring.
  ASSERT_TRUE(f.rings.stage(f.ctx, 0, 0, UringTable::kOpEnqueue, 11));
  ASSERT_TRUE(f.rings.stage(f.ctx, 0, 1, UringTable::kOpEnqueue, 12));
  ASSERT_TRUE(f.rings.stage(f.ctx, 0, 2, UringTable::kOpEnqueue, 13));
  EXPECT_EQ(f.rings.depth(0), 0u);
  EXPECT_EQ(f.rings.drain(f.ctx, f.q, 0), 0u);

  // Staging counts against capacity: a 4th stage fits a capacity-4 ring,
  // a 5th does not.
  ASSERT_TRUE(f.rings.stage(f.ctx, 0, 3, UringTable::kOpEnqueue, 14));
  EXPECT_FALSE(f.rings.stage(f.ctx, 0, 4, UringTable::kOpEnqueue, 15));

  // One publish announces the whole batch; sequences and FIFO order match
  // the staging order.
  f.rings.publish_staged(f.ctx, 0, 4);
  EXPECT_EQ(f.rings.depth(0), 4u);
  EXPECT_EQ(f.rings.drain(f.ctx, f.q, 0), 4u);
  for (std::uint64_t s = 0; s < 4; ++s) {
    const auto c = f.rings.poll(0, s);
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(c->seq, s + 1);
    EXPECT_FALSE(c->refused());
  }
  std::vector<queues::Value> rest;
  f.q.drain_to(rest);
  EXPECT_EQ(rest, (std::vector<queues::Value>{11, 12, 13, 14}));

  // publish_staged(0) is a no-op (no fence, no tail movement).
  const std::uint64_t tail = f.rings.sub_tail(0);
  f.rings.publish_staged(f.ctx, 0, 0);
  EXPECT_EQ(f.rings.sub_tail(0), tail);
}

TEST(UringTable, WraparoundManyTimesCapacity) {
  RingFixture f("wrap");
  // 6 full revolutions of a capacity-4 ring, in window-1 submit/drain/poll
  // steps; FIFO order must survive every cell reuse.
  std::uint64_t cursor = 0;
  for (queues::Value v = 1; v <= 24; ++v) {
    ASSERT_TRUE(f.rings.submit(f.ctx, 0, UringTable::kOpEnqueue, v));
    ASSERT_EQ(f.rings.drain(f.ctx, f.q, 0), 1u);
    const auto c = f.rings.poll(0, cursor++);
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(c->seq, static_cast<std::uint64_t>(v));
  }
  for (queues::Value v = 1; v <= 24; ++v) {
    ASSERT_TRUE(f.rings.submit(f.ctx, 0, UringTable::kOpDequeue, 0));
    ASSERT_EQ(f.rings.drain(f.ctx, f.q, 0), 1u);
    const auto c = f.rings.poll(0, cursor++);
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(c->result, v) << "FIFO order broken after wraparound";
  }
  EXPECT_EQ(f.rings.sub_tail(0), 48u);
  EXPECT_EQ(f.rings.comp_tail(0), 48u);
}

TEST(UringTable, FullRingExertsBackpressure) {
  RingFixture f("backpressure");
  for (queues::Value v = 0; v < 4; ++v) {
    ASSERT_TRUE(f.rings.submit(f.ctx, 0, UringTable::kOpEnqueue, v));
  }
  EXPECT_FALSE(f.rings.submit(f.ctx, 0, UringTable::kOpEnqueue, 99))
      << "capacity submissions outstanding: the ring must refuse";
  EXPECT_EQ(f.rings.sub_tail(0), 4u) << "refused submit must not publish";
  // A partial drain frees exactly that much headroom.
  EXPECT_EQ(f.rings.drain(f.ctx, f.q, 0, 2), 2u);
  EXPECT_TRUE(f.rings.submit(f.ctx, 0, UringTable::kOpEnqueue, 4));
  EXPECT_TRUE(f.rings.submit(f.ctx, 0, UringTable::kOpEnqueue, 5));
  EXPECT_FALSE(f.rings.submit(f.ctx, 0, UringTable::kOpEnqueue, 99));
  EXPECT_EQ(f.rings.drain(f.ctx, f.q, 0), 4u);
  std::vector<queues::Value> rest;
  f.q.drain_to(rest);
  EXPECT_EQ(rest, (std::vector<queues::Value>{0, 1, 2, 3, 4, 5}));
}

TEST(UringTable, TornSubmissionIsRefusedNeverExecuted) {
  RingFixture f("torn");
  // Forge what a client dying mid-submit leaves behind: entry bytes
  // published by the tail store, checksum wrong (payload half-written).
  UringTable::SubEntry& s = f.rings.sub_entries(0)[0];
  s.seq.store(1, std::memory_order_relaxed);
  s.op.store(UringTable::kOpEnqueue, std::memory_order_relaxed);
  s.arg.store(777, std::memory_order_relaxed);
  s.t_submit.store(0, std::memory_order_relaxed);
  s.checksum.store(0xDEAD, std::memory_order_relaxed);
  f.rings.client_ctl(0).sub_tail.store(1, std::memory_order_release);

  EXPECT_EQ(f.rings.drain(f.ctx, f.q, 0), 1u);
  const auto c = f.rings.poll(0, 0);
  ASSERT_TRUE(c.has_value());
  EXPECT_TRUE(c->refused());
  EXPECT_EQ(f.rings.torn_refused(0), 1u);
  std::vector<queues::Value> rest;
  f.q.drain_to(rest);
  EXPECT_TRUE(rest.empty()) << "a torn submission must never execute";

  // The ring keeps serving: the next (whole) submission lands as seq 2.
  ASSERT_TRUE(f.rings.submit(f.ctx, 0, UringTable::kOpEnqueue, 5));
  EXPECT_EQ(f.rings.drain(f.ctx, f.q, 0), 1u);
  const auto c2 = f.rings.poll(0, 1);
  ASSERT_TRUE(c2.has_value());
  EXPECT_EQ(c2->seq, 2u);
  EXPECT_FALSE(c2->refused());
}

TEST(UringTable, UnknownOpcodeIsRefusedToo) {
  RingFixture f("badop");
  UringTable::SubEntry& s = f.rings.sub_entries(0)[0];
  const std::uint64_t bogus = 99;
  s.seq.store(1, std::memory_order_relaxed);
  s.op.store(bogus, std::memory_order_relaxed);
  s.arg.store(1, std::memory_order_relaxed);
  s.t_submit.store(0, std::memory_order_relaxed);
  // A CORRECT checksum over a nonsense opcode: still refused.
  s.checksum.store(UringTable::sub_checksum(1, bogus, 1, 0),
                   std::memory_order_relaxed);
  f.rings.client_ctl(0).sub_tail.store(1, std::memory_order_release);
  EXPECT_EQ(f.rings.drain(f.ctx, f.q, 0), 1u);
  const auto c = f.rings.poll(0, 0);
  ASSERT_TRUE(c.has_value());
  EXPECT_TRUE(c->refused());
}

// A drainer that executed entries but died before the batch-end index
// publish persisted: the journal (done_seq) survived, the indexes did
// not.  Re-draining must re-ack from the journal — never re-apply.
TEST(UringTable, RedrainAfterLostIndexPublishNeverDoubleApplies) {
  RingFixture f("redrain");
  for (queues::Value v = 10; v < 13; ++v) {
    ASSERT_TRUE(f.rings.submit(f.ctx, 0, UringTable::kOpEnqueue, v));
  }
  ASSERT_EQ(f.rings.drain(f.ctx, f.q, 0), 3u);
  // Simulate the crash: the control-line stores evaporate (as if their
  // persist never landed), the journal fields keep their values.
  UringTable::ExecCtl& e = f.rings.exec_ctl(0);
  ASSERT_EQ(e.done_seq.load(std::memory_order_relaxed), 3u);
  e.sub_head.store(0, std::memory_order_relaxed);
  e.comp_tail.store(0, std::memory_order_relaxed);

  EXPECT_EQ(f.rings.drain(f.ctx, f.q, 0), 3u) << "all three re-acked";
  for (std::uint64_t cur = 0; cur < 3; ++cur) {
    const auto c = f.rings.poll(0, cur);
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(c->seq, cur + 1);
    EXPECT_FALSE(c->refused());
  }
  std::vector<queues::Value> rest;
  f.q.drain_to(rest);
  EXPECT_EQ(rest, (std::vector<queues::Value>{10, 11, 12}))
      << "journaled entries must not execute twice";
}

// ---- checksums, table format and stage stamps --------------------------------

/// A random word that differs from `w` (a single flipped bit on even
/// draws, an arbitrary nonzero xor on odd ones).
std::uint64_t changed_word(Xoshiro256& rng, std::uint64_t w) {
  const std::uint64_t r = rng.next();
  const std::uint64_t d = (r & 1) != 0 ? std::uint64_t{1} << (r >> 58)
                                       : (r >> 1) | 1;
  return w ^ d;
}

TEST(UringTable, ChecksumsChangeWithEverySingleWord) {
  // Each word_mix step is a bijection in the hash and in the word, so no
  // single-word change can ever leave either checksum unchanged.
  Xoshiro256 rng(15);
  for (int trial = 0; trial < 200'000; ++trial) {
    std::uint64_t w[4] = {rng.next(), rng.next(), rng.next(), rng.next()};
    const std::uint64_t sub = UringTable::sub_checksum(w[0], w[1], w[2], w[3]);
    const std::uint64_t comp =
        UringTable::comp_checksum(w[0], w[1], w[2], w[3]);
    const std::size_t k = static_cast<std::size_t>(trial) % 4;
    w[k] = changed_word(rng, w[k]);
    ASSERT_NE(UringTable::sub_checksum(w[0], w[1], w[2], w[3]), sub)
        << "word " << k << ", trial " << trial;
    ASSERT_NE(UringTable::comp_checksum(w[0], w[1], w[2], w[3]), comp)
        << "word " << k << ", trial " << trial;
  }
}

TEST(UringTable, SingleWordChangedSubmissionsAreRefused) {
  RingFixture f("oneword");
  Xoshiro256 rng(7);
  constexpr int kTrials = 400;
  for (int trial = 0; trial < kTrials; ++trial) {
    const std::uint64_t seq = f.rings.sub_tail(0) + 1;
    std::uint64_t op = rng.next_bool(0.5) ? UringTable::kOpEnqueue
                                          : UringTable::kOpDequeue;
    std::uint64_t arg = rng.next();
    std::uint64_t t = rng.next();
    const std::uint64_t sum = UringTable::sub_checksum(seq, op, arg, t);
    std::uint64_t stored_seq = seq;
    switch (trial % 4) {
      case 0: stored_seq = changed_word(rng, seq); break;
      // The other valid opcode: only the checksum can tell.
      case 1: op ^= UringTable::kOpEnqueue ^ UringTable::kOpDequeue; break;
      case 2: arg = changed_word(rng, arg); break;
      default: t = changed_word(rng, t); break;
    }
    UringTable::SubEntry& s = f.rings.sub_entries(0)[(seq - 1) & 3];
    s.seq.store(stored_seq, std::memory_order_relaxed);
    s.op.store(op, std::memory_order_relaxed);
    s.arg.store(static_cast<std::int64_t>(arg), std::memory_order_relaxed);
    s.t_submit.store(t, std::memory_order_relaxed);
    s.checksum.store(sum, std::memory_order_relaxed);
    f.rings.client_ctl(0).sub_tail.store(seq, std::memory_order_release);
    ASSERT_EQ(f.rings.drain(f.ctx, f.q, 0), 1u);
    const auto c = f.rings.poll(0, seq - 1);
    ASSERT_TRUE(c.has_value());
    ASSERT_EQ(c->op, UringTable::kOpRefused) << "trial " << trial;
  }
  EXPECT_EQ(f.rings.torn_refused(0), static_cast<std::uint64_t>(kTrials));
  std::vector<queues::Value> rest;
  f.q.drain_to(rest);
  EXPECT_TRUE(rest.empty()) << "a refused submission must never execute";

  // Control: the same path accepts an untouched entry.
  ASSERT_TRUE(f.rings.submit(f.ctx, 0, UringTable::kOpEnqueue, 9));
  ASSERT_EQ(f.rings.drain(f.ctx, f.q, 0), 1u);
  const auto ok = f.rings.poll(0, kTrials);
  ASSERT_TRUE(ok.has_value());
  EXPECT_FALSE(ok->refused());
}

// The re-post path of an entry at done_seq trusts its completion cell only
// when the cell validates; a cell with any one word changed is refused and
// the journal's done_result is re-posted instead.  The journal result is
// forged to a fresh sentinel each round so the test can tell the sources
// apart.
TEST(UringTable, SingleWordChangedCompletionIsNotTrustedOnRepost) {
  RingFixture f("compword");
  f.q.enqueue(0, 5);
  ASSERT_TRUE(f.rings.submit(f.ctx, 0, UringTable::kOpDequeue, 0));
  ASSERT_EQ(f.rings.drain(f.ctx, f.q, 0), 1u);
  UringTable::ExecCtl& e = f.rings.exec_ctl(0);
  ASSERT_EQ(e.done_seq.load(std::memory_order_relaxed), 1u);
  const auto lose_publish = [&] {
    e.sub_head.store(0, std::memory_order_relaxed);
    e.comp_tail.store(0, std::memory_order_relaxed);
  };

  // Control: an intact cell is re-posted as it stands.
  lose_publish();
  e.done_result.store(-1, std::memory_order_relaxed);
  ASSERT_EQ(f.rings.drain(f.ctx, f.q, 0), 1u);
  ASSERT_EQ(f.rings.poll(0, 0)->result, 5);

  Xoshiro256 rng(11);
  UringTable::CompEntry& ce = f.rings.comp_entries(0)[0];
  for (int round = 0; round < 100; ++round) {
    lose_publish();
    const dss::Value sentinel = 1000 + round;
    e.done_result.store(sentinel, std::memory_order_relaxed);
    switch (round % 4) {
      case 0:
        ce.seq.store(changed_word(rng, ce.seq.load()),
                     std::memory_order_relaxed);
        break;
      case 1:
        ce.op.store(changed_word(rng, ce.op.load()),
                    std::memory_order_relaxed);
        break;
      case 2:
        ce.result.store(static_cast<std::int64_t>(changed_word(
                            rng, static_cast<std::uint64_t>(ce.result.load()))),
                        std::memory_order_relaxed);
        break;
      default:
        ce.t_submit.store(changed_word(rng, ce.t_submit.load()),
                          std::memory_order_relaxed);
        break;
    }
    ASSERT_EQ(f.rings.drain(f.ctx, f.q, 0), 1u);
    const auto c = f.rings.poll(0, 0);
    ASSERT_TRUE(c.has_value());
    ASSERT_EQ(c->result, sentinel) << "round " << round;
  }
  std::vector<queues::Value> rest;
  f.q.drain_to(rest);
  EXPECT_TRUE(rest.empty()) << "re-posts must never re-execute";
}

TEST(UringTable, AttachRefusesTheOldChecksumFormat) {
  UringTable::Header old;
  old.magic = 0x44535351'55524E47ULL;  // "DSSQURNG": byte-wise FNV entries
  old.slots = 2;
  old.capacity = 4;
  EXPECT_THROW(UringTable::attach_check(&old, "t"), HeapOpenError);
  old.magic = UringTable::kMagic;
  EXPECT_NO_THROW(UringTable::attach_check(&old, "t"));
}

TEST(UringTable, StageStampsAreOrderedAndChainedWithinABatch) {
  RingFixture f("stamps");
  std::uint64_t cursor = 0;
  for (int round = 0; round < 20; ++round) {
    // One batch of four: enqueues, dequeues, and (every other round) a
    // torn entry that is refused without executing.
    std::uint64_t staged = 0;
    for (; staged < 3; ++staged) {
      ASSERT_TRUE(f.rings.stage(f.ctx, 0, staged,
                                staged % 2 == 0 ? UringTable::kOpEnqueue
                                                : UringTable::kOpDequeue,
                                round));
    }
    ASSERT_TRUE(f.rings.stage(f.ctx, 0, staged++, UringTable::kOpEnqueue, 1));
    if (round % 2 == 1) {
      f.rings.sub_entries(0)[(f.rings.sub_tail(0) + 1) & 3].checksum.fetch_xor(
          1, std::memory_order_relaxed);
    }
    f.rings.publish_staged(f.ctx, 0, staged);
    ASSERT_EQ(f.rings.drain(f.ctx, f.q, 0), staged);
    std::optional<UringTable::Completion> prev;
    for (std::uint64_t k = 0; k < staged; ++k) {
      const auto c = f.rings.poll(0, cursor++);
      ASSERT_TRUE(c.has_value());
      EXPECT_LE(c->t_submit, c->t_drain) << "round " << round << " k " << k;
      EXPECT_LE(c->t_drain, c->t_exec) << "round " << round << " k " << k;
      if (c->refused()) {
        EXPECT_EQ(c->t_exec, c->t_drain);
      }
      if (prev) {
        EXPECT_EQ(c->t_drain, prev->t_exec) << "round " << round;
      }
      prev = c;
    }
  }
}

#if !DSSQ_UNDER_TSAN
/// One fork-and-SIGKILL round at a fixed KillSwitch countdown: the child
/// leases slot 0, begins an oracle op, submits it into its ring and pumps
/// — dying at the countdown-th persistence/crash point (or finishing, on
/// overshoot).  The parent then reclaims the orphaned lease; the settle
/// callback MUST drain the orphan's ring (after per-slot recovery, before
/// settle_pending reads X) — then exactly-once must hold.
void orphan_round(const std::string& dir, const char* tier,
                  std::int64_t countdown, bool* overshot) {
  PathGuard g(dir + "dssq-uring-orphan-" + std::to_string(::getpid()) +
              ".bin");
  constexpr std::size_t kSlots = 2;
  constexpr std::size_t kCapacity = 8;
  PersistentHeap::Options opt;
  opt.bytes = 8u << 20;
  PersistentHeap heap(g.path, PersistentHeap::OpenMode::kCreate, opt);
  ASSERT_STREQ(heap.backend().mode_name(), tier);
  MmapContext ctx(heap);
  queues::DssQueue<MmapContext> q(ctx, kSlots, 128);
  harness::Oracle oracle(heap, kSlots, 64);
  (void)q.make_root();  // shared-serving mode (durable cursors, no reuse)
  void* lbase =
      heap.raw_alloc(SlotLeaseTable::bytes_for(kSlots), kCacheLineSize);
  SlotLeaseTable::format(lbase, kSlots, heap.backend());
  SlotLeaseTable leases(lbase);
  void* ubase = heap.raw_alloc(UringTable::bytes_for(kSlots, kCapacity),
                               kCacheLineSize);
  UringTable::format(ubase, kSlots, kCapacity, heap.backend());
  UringTable rings(static_cast<UringTable::Header*>(ubase));

  // Seed one committed value so a crashed dequeue has something to take.
  {
    const queues::Value v = oracle.begin_enqueue(1);
    q.prep_enqueue(1, v);
    q.exec_enqueue(1);
    oracle.complete_enqueue(1);
  }

  static harness::KillSwitch ks;  // static: lives in the forked child too
  const harness::ChildResult res = harness::run_in_child([&] {
    const std::size_t slot = leases.acquire(heap.backend());
    if (slot == SlotLeaseTable::kNoSlot) return 3;
    ctx.set_crash_hook(harness::KillSwitch::hook, &ks);
    ks.arm(countdown);
    // One enqueue, then one dequeue, each submit→pump→poll (window 1,
    // matching the oracle's one-pending-op constraint).
    std::uint64_t cursor = rings.comp_tail(slot);
    {
      const queues::Value v = oracle.begin_enqueue(slot);
      if (!rings.submit(ctx, slot, UringTable::kOpEnqueue, v)) return 4;
      while (rings.drain(ctx, q, slot) == 0 &&
             !rings.poll(slot, cursor).has_value()) {
      }
      if (!rings.poll(slot, cursor).has_value()) return 5;
      ++cursor;
      oracle.complete_enqueue(slot);
    }
    {
      oracle.begin_dequeue(slot);
      if (!rings.submit(ctx, slot, UringTable::kOpDequeue, 0)) return 4;
      (void)rings.drain(ctx, q, slot);
      const auto c = rings.poll(slot, cursor);
      if (!c.has_value()) return 5;
      oracle.complete_dequeue(slot, c->result);
    }
    ks.disarm();
    ctx.set_crash_hook(nullptr, nullptr);
    leases.release(slot, heap.backend());
    return 7;  // overshoot: the countdown outlived both ops
  });

  if (!res.sigkilled()) {
    ASSERT_TRUE(res.exited && res.exit_code == 7)
        << "child failed (exited=" << res.exited
        << " code=" << res.exit_code << " sig=" << res.term_signal << ")";
    *overshot = true;
  }

  // Reclaim every dead lease; every settle drains the orphan's ring
  // first.  On overshoot nothing is held, and that's fine too.
  std::size_t settled = 0;
  std::size_t lost = 0;
  UringTable::SettleStats total;
  for (;;) {
    const std::size_t i =
        leases.reclaim_dead(heap.backend(), [&](std::size_t t) {
          oracle.repair_slot(t);
          q.recover_independent(t);
          const UringTable::SettleStats st = rings.settle(ctx, q, t);
          total.entries += st.entries;
          total.acked += st.acked;
          total.reexecuted += st.reexecuted;
          total.refused += st.refused;
          harness::settle_pending(q, oracle, t, &settled, &lost);
        });
    if (i == SlotLeaseTable::kNoSlot) break;
    leases.release(i, heap.backend());
  }
  if (res.sigkilled()) {
    EXPECT_EQ(rings.settle_passes(0), 1u)
        << "the orphan's ring was not settled during reclamation";
  }

  // After settling, no slot's ring may hold an unconsumed submission.
  for (std::size_t i = 0; i < kSlots; ++i) {
    EXPECT_EQ(rings.depth(i), 0u);
    EXPECT_EQ(rings.comp_tail(i), rings.sub_tail(i));
  }
  q.recover();
  for (std::size_t t = 0; t < oracle.threads(); ++t) oracle.repair_slot(t);
  const harness::VerifyResult vr = harness::verify_exactly_once(q, oracle);
  EXPECT_TRUE(vr.ok) << "countdown " << countdown << ": " << vr.error;
  heap.close();
}

/// Sweep the kill countdown across the whole submit/drain pipeline:
/// entry persists, tail publishes, journal persists, exec persists, batch
/// publishes — every prefix of the protocol gets a run.  Stop once a
/// sweep overshoots both ops end-to-end.
void orphan_sweep(const std::string& dir, const char* tier) {
  bool overshot = false;
  for (std::int64_t countdown = 1; countdown <= 160 && !overshot;
       ++countdown) {
    SCOPED_TRACE("countdown " + std::to_string(countdown));
    orphan_round(dir, tier, countdown, &overshot);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_TRUE(overshot) << "sweep never reached a clean full run; the "
                           "countdown ceiling is too low";
}

TEST(UringTable, SigkilledClientsRingIsSettledBeforeReissue) {
  const std::string dir = ::testing::TempDir();
  orphan_sweep(dir, test::on_tmpfs(dir) ? "mmap-shm" : "mmap-msync");
}

TEST(UringTable, SigkilledClientsRingIsSettledBeforeReissueOnShmTier) {
  const test::HeapDir d = test::shm_heap_dir();
  if (d.dir.empty()) GTEST_SKIP() << d.reason;
  orphan_sweep(d.dir, "mmap-shm");
}
#endif  // !DSSQ_UNDER_TSAN

}  // namespace
}  // namespace dssq::pmem
