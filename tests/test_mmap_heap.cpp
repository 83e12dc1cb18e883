// Unit tests for the file-backed persistence subsystem: MmapBackend and
// its tier selection (tmpfs runs mmap-shm, other filesystems mmap-msync),
// PersistentHeap (header validation, generation protocol, fixed-base
// re-mapping, positional allocation replay), tagged pointers over real
// mapped addresses, and an in-process crash→attach→recover round trip of
// the DSS queue.  The cross-process SIGKILL version of the last scenario
// lives in tools/crashrun (exercised by the crashrun.smoke ctest and the
// CI crash-restart job).

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <string>

#include "common/metrics.hpp"
#include "harness/fork_crash.hpp"
#include "heap_tiers.hpp"
#include "pmem/persistent_heap.hpp"
#include "queues/dss_queue.hpp"

namespace dssq::pmem {
namespace {

std::string temp_heap_path(const char* tag) {
  return ::testing::TempDir() + "dssq-heap-" + tag + "-" +
         std::to_string(::getpid()) + ".bin";
}

/// RAII unlink so failing tests do not leak files between runs.
struct PathGuard {
  std::string path;
  explicit PathGuard(std::string p) : path(std::move(p)) {
    ::unlink(path.c_str());
  }
  ~PathGuard() { ::unlink(path.c_str()); }
};

/// Create, write, close, reopen: the data and the base survive, and the
/// heap runs the `tier` its filesystem selects.
void round_trip(const std::string& path, const char* tier) {
  PersistentHeap::Options opt;
  opt.bytes = 1u << 20;
  std::uintptr_t base = 0;
  std::uintptr_t payload_addr = 0;
  {
    PersistentHeap heap(path, PersistentHeap::OpenMode::kCreate, opt);
    EXPECT_STREQ(heap.backend().mode_name(), tier);
    EXPECT_FALSE(heap.recovered());
    EXPECT_EQ(heap.generation(), 1u);
    base = reinterpret_cast<std::uintptr_t>(heap.base());
    auto* p = static_cast<std::uint64_t*>(
        heap.raw_alloc(sizeof(std::uint64_t), alignof(std::uint64_t)));
    *p = 0xfeedface;
    heap.persist(p, sizeof(*p));
    payload_addr = reinterpret_cast<std::uintptr_t>(p);
    std::memcpy(heap.root(), "cfg!", 4);
    heap.persist(heap.root(), 4);
    heap.close();
  }
  {
    PersistentHeap heap(path, PersistentHeap::OpenMode::kOpen);
    EXPECT_STREQ(heap.backend().mode_name(), tier);
    EXPECT_TRUE(heap.recovered());
    EXPECT_TRUE(heap.previous_shutdown_clean());
    EXPECT_EQ(heap.generation(), 2u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(heap.base()), base);
    // Positional allocation replay hands back the same address…
    auto* p = static_cast<std::uint64_t*>(
        heap.raw_alloc(sizeof(std::uint64_t), alignof(std::uint64_t)));
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p), payload_addr);
    // …and the bytes written before close are there.
    EXPECT_EQ(*p, 0xfeedfaceu);
    EXPECT_EQ(std::memcmp(heap.root(), "cfg!", 4), 0);
    heap.close();
  }
}

TEST(PersistentHeap, CreateOpenRoundTripsDataAtSameBase) {
  PathGuard g(temp_heap_path("roundtrip"));
  round_trip(g.path, test::on_tmpfs(::testing::TempDir()) ? "mmap-shm"
                                                          : "mmap-msync");
}

TEST(PersistentHeap, CreateOpenRoundTripsOnShmTier) {
  const test::HeapDir d = test::shm_heap_dir();
  if (d.dir.empty()) GTEST_SKIP() << d.reason;
  PathGuard g(d.dir + "dssq-heap-roundtrip-" + std::to_string(::getpid()) +
              ".bin");
  round_trip(g.path, "mmap-shm");
}

// ---- tier selection: the heap's filesystem picks the persist tier -------

TEST(HeapTier, MemfdHeapRunsShmTierAndFencesWithoutCombining) {
  // A memfd is tmpfs, so the heap runs the shm tier, whose fence is a
  // compiler barrier: fence_combined() skips the coalescer but keeps its
  // crash point and counts every fence.
  const int fd = ::memfd_create("dssq-tier", MFD_CLOEXEC);
  if (fd < 0) GTEST_SKIP() << "memfd_create failed: " << std::strerror(errno);
  PersistentHeap::Options opt;
  opt.bytes = 1u << 20;
  {
    PersistentHeap heap("/proc/self/fd/" + std::to_string(fd),
                        PersistentHeap::OpenMode::kCreate, opt);
    EXPECT_EQ(heap.backend().mode(), MmapBackend::Mode::kShm);
    MmapContext ctx(heap);
    EXPECT_STREQ(ctx.backend_name(), "mmap-shm");
    int points = 0;
    ctx.set_crash_hook(
        [](void* state, const char* label) {
          if (std::strcmp(label, "pmem:fence-combined") == 0) {
            ++*static_cast<int*>(state);
          }
        },
        &points);
    const metrics::Snapshot before = metrics::snapshot();
    for (int i = 0; i < 3; ++i) ctx.fence_combined();
    const metrics::Snapshot d = metrics::snapshot() - before;
    ctx.set_crash_hook(nullptr, nullptr);
    EXPECT_EQ(points, 3);
    if (metrics::kEnabled) {
      EXPECT_EQ(d[metrics::Counter::kFences], 3u);
      EXPECT_EQ(d[metrics::Counter::kFencesCombined], 0u);
      EXPECT_EQ(d[metrics::Counter::kFencesElided], 0u);
    }
    heap.close();
  }
  ::close(fd);
}

TEST(PersistentHeap, DirtyTeardownReadsAsCrash) {
  PathGuard g(temp_heap_path("dirty"));
  PersistentHeap::Options opt;
  opt.bytes = 1u << 20;
  {
    PersistentHeap heap(g.path, PersistentHeap::OpenMode::kCreate, opt);
    heap.close();
  }
  {
    // Destroyed without close(): crash-equivalent.
    PersistentHeap heap(g.path, PersistentHeap::OpenMode::kOpen);
    EXPECT_TRUE(heap.previous_shutdown_clean());
  }
  {
    PersistentHeap heap(g.path, PersistentHeap::OpenMode::kOpen);
    EXPECT_FALSE(heap.previous_shutdown_clean());
    EXPECT_EQ(heap.generation(), 3u);  // every open bumps, clean or not
    heap.close();
  }
}

TEST(PersistentHeap, ContainsAndDisengagedBackendScratch) {
  PathGuard g(temp_heap_path("contains"));
  PersistentHeap::Options opt;
  opt.bytes = 1u << 20;
  PersistentHeap heap(g.path, PersistentHeap::OpenMode::kCreate, opt);
  void* inside = heap.raw_alloc(64, 64);
  int outside = 0;
  EXPECT_TRUE(heap.contains(inside));
  EXPECT_FALSE(heap.contains(&outside));
  // Persisting a DRAM address through the heap backend must be a no-op,
  // not an msync fault: contexts persist stack temporaries too.
  heap.persist(&outside, sizeof(outside));
  heap.close();
}

// ---- header validation: corrupt heaps are refused with a clear error ----

/// Clobber `len` bytes at `off` in the (closed) heap file.
void clobber(const std::string& path, off_t off, const void* bytes,
             std::size_t len) {
  const int fd = ::open(path.c_str(), O_RDWR);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::pwrite(fd, bytes, len, off), static_cast<ssize_t>(len));
  ::close(fd);
}

void make_closed_heap(const std::string& path) {
  PersistentHeap::Options opt;
  opt.bytes = 1u << 20;
  PersistentHeap heap(path, PersistentHeap::OpenMode::kCreate, opt);
  heap.close();
}

void expect_refused(const std::string& path, const char* needle) {
  try {
    PersistentHeap heap(path, PersistentHeap::OpenMode::kOpen);
    FAIL() << "open() accepted a corrupt heap (wanted error containing '"
           << needle << "')";
  } catch (const HeapOpenError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "actual error: " << e.what();
  }
}

TEST(PersistentHeapCorruption, BadMagicIsRefused) {
  PathGuard g(temp_heap_path("magic"));
  make_closed_heap(g.path);
  const std::uint64_t junk = 0x1122334455667788ULL;
  clobber(g.path, offsetof(HeapHeader, magic), &junk, sizeof(junk));
  expect_refused(g.path, "bad magic");
}

TEST(PersistentHeapCorruption, UnsupportedVersionIsRefused) {
  PathGuard g(temp_heap_path("version"));
  make_closed_heap(g.path);
  // Bump version AND fix the checksum: the version check must fire on its
  // own, not by riding the checksum mismatch.
  HeapHeader h{};
  {
    const int fd = ::open(g.path.c_str(), O_RDONLY);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::pread(fd, &h, sizeof(h), 0), static_cast<ssize_t>(sizeof(h)));
    ::close(fd);
  }
  h.version = PersistentHeap::kVersion + 7;
  h.checksum = PersistentHeap::header_checksum(h);
  clobber(g.path, 0, &h, sizeof(h));
  expect_refused(g.path, "unsupported layout version");
}

TEST(PersistentHeapCorruption, TornChecksumIsRefused) {
  PathGuard g(temp_heap_path("checksum"));
  make_closed_heap(g.path);
  // Any checksummed field changed without a checksum update must refuse
  // the open (the v2 header is immutable, so EVERY field is covered).
  const std::uint64_t db = 999;
  clobber(g.path, offsetof(HeapHeader, dir_bytes), &db, sizeof(db));
  expect_refused(g.path, "checksum mismatch");
}

TEST(PersistentHeapCorruption, TruncatedFileIsRefused) {
  PathGuard g(temp_heap_path("truncated"));
  make_closed_heap(g.path);
  const int fd = ::open(g.path.c_str(), O_RDWR);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::ftruncate(fd, 1 << 12), 0);
  ::close(fd);
  expect_refused(g.path, "file size");
}

TEST(PersistentHeapCorruption, EmptyFileIsRefused) {
  PathGuard g(temp_heap_path("empty"));
  const int fd = ::open(g.path.c_str(), O_RDWR | O_CREAT, 0644);
  ASSERT_GE(fd, 0);
  ::close(fd);
  expect_refused(g.path, "too small");
}

// ---- tagged pointers over real mapped addresses --------------------------

TEST(MmapTaggedPtr, RoundTripsAddressesNearThe48BitBoundary) {
  PathGuard g(temp_heap_path("highbase"));
  PersistentHeap::Options opt;
  opt.bytes = 1u << 20;
  // The highest practical userspace base: just under the x86-64 canonical
  // 47-bit userspace limit, itself well inside the 48 tag-free bits.  The
  // kernel may refuse the hint (ASLR layout, sanitizer shadow, 32-bit VA)
  // — skip rather than fail, the arithmetic below is what matters.
  opt.base_hint = 0x7ffe'0000'0000ULL;
  try {
    PersistentHeap heap(g.path, PersistentHeap::OpenMode::kCreate, opt);
    auto* node = static_cast<std::uint64_t*>(heap.raw_alloc(64, 64));
    ASSERT_TRUE(
        fits_in_address_bits(reinterpret_cast<std::uintptr_t>(node)));
    const TaggedWord w = make_tagged(node, tag_bit(0) | tag_bit(3));
    EXPECT_EQ(untag<std::uint64_t>(w), node);
    EXPECT_TRUE(has_tag(w, tag_bit(0)));
    EXPECT_TRUE(has_tag(w, tag_bit(3)));
    // The address survives a store/reload through persistent memory.
    auto* cell = static_cast<TaggedWord*>(heap.raw_alloc(8, 8));
    *cell = w;
    heap.persist(cell, sizeof(*cell));
    EXPECT_EQ(untag<std::uint64_t>(*cell), node);
    heap.close();
  } catch (const HeapOpenError&) {
    GTEST_SKIP() << "kernel refused the high fixed base; covered only on "
                    "layouts that grant it";
  }
}

// ---- queue attach + recovery across a (simulated in-process) restart -----

TEST(MmapQueueRestart, AttachRecoverPreservesValuesAndDetectability) {
  PathGuard g(temp_heap_path("queue"));
  constexpr std::size_t kThreads = 2;
  constexpr std::size_t kNodes = 64;
  PersistentHeap::Options opt;
  opt.bytes = 4u << 20;
  {
    PersistentHeap heap(g.path, PersistentHeap::OpenMode::kCreate, opt);
    MmapContext ctx(heap);
    queues::DssQueue<MmapContext> q(ctx, kThreads, kNodes);
    for (queues::Value v = 1; v <= 5; ++v) {
      q.prep_enqueue(0, v * 10);
      q.exec_enqueue(0);
    }
    q.prep_dequeue(1);
    EXPECT_EQ(q.exec_dequeue(1), 10);
    // Leave thread 0 with a prepared-but-unexecuted enqueue, then "crash"
    // (scope exit without close): the announcement is persisted, the link
    // never happened.
    q.prep_enqueue(0, 777);
  }
  {
    PersistentHeap heap(g.path, PersistentHeap::OpenMode::kOpen);
    EXPECT_FALSE(heap.previous_shutdown_clean());
    MmapContext ctx(heap);
    queues::DssQueue<MmapContext> q(pmem::attach, ctx, kThreads, kNodes);
    q.recover();
    // Thread 0's in-flight enqueue: prepared, never linked — resolve must
    // report (enqueue 777, ⊥).
    const queues::Resolved r0 = q.resolve(0);
    EXPECT_EQ(r0.op, queues::Resolved::Op::kEnqueue);
    EXPECT_EQ(r0.arg, 777);
    EXPECT_FALSE(r0.response.has_value());
    // Thread 1's completed dequeue of 10 is detectable too.
    const queues::Resolved r1 = q.resolve(1);
    EXPECT_EQ(r1.op, queues::Resolved::Op::kDequeue);
    ASSERT_TRUE(r1.response.has_value());
    EXPECT_EQ(*r1.response, 10);
    // FIFO contents survived: 20,30,40,50.
    std::vector<queues::Value> rest;
    q.drain_to(rest);
    ASSERT_EQ(rest.size(), 4u);
    EXPECT_EQ(rest.front(), 20);
    EXPECT_EQ(rest.back(), 50);
    // And the queue is live: normal operation continues post-recovery.
    q.prep_enqueue(0, 60);
    q.exec_enqueue(0);
    q.prep_dequeue(1);
    EXPECT_EQ(q.exec_dequeue(1), 20);
    heap.close();
  }
}

TEST(MmapQueueRestart, AttachToVirginHeapIsRefused) {
  PathGuard g(temp_heap_path("virgin"));
  PersistentHeap::Options opt;
  opt.bytes = 4u << 20;
  {
    PersistentHeap heap(g.path, PersistentHeap::OpenMode::kCreate, opt);
    heap.close();  // heap exists but never held a queue
  }
  PersistentHeap heap(g.path, PersistentHeap::OpenMode::kOpen);
  MmapContext ctx(heap);
  EXPECT_THROW((queues::DssQueue<MmapContext>(pmem::attach, ctx, 2, 64)),
               std::runtime_error);
}

// ---- the persisted oracle's own crash protocol ---------------------------

TEST(ForkCrashOracle, LogSurvivesReopenAndReportsPending) {
  PathGuard g(temp_heap_path("oracle"));
  PersistentHeap::Options opt;
  opt.bytes = 4u << 20;
  queues::Value v0 = 0;
  {
    PersistentHeap heap(g.path, PersistentHeap::OpenMode::kCreate, opt);
    harness::Oracle log(heap, /*threads=*/2, /*capacity=*/16);
    v0 = log.begin_enqueue(0);
    log.complete_enqueue(0);
    log.begin_dequeue(0);
    log.complete_dequeue(0, v0);
    log.begin_enqueue(1);  // in flight at the "crash"
  }
  {
    PersistentHeap heap(g.path, PersistentHeap::OpenMode::kOpen);
    harness::Oracle log(heap, 2, 16);
    EXPECT_EQ(log.completed(0), 2u);
    std::size_t seen = 0;
    log.for_each_completed(0, [&](const harness::Oracle::Entry& e) {
      ++seen;
      if (e.op == harness::Oracle::kOpEnqueue) {
        EXPECT_EQ(e.arg, v0);
      }
      if (e.op == harness::Oracle::kOpDequeue) {
        EXPECT_EQ(e.result, v0);
      }
    });
    EXPECT_EQ(seen, 2u);
    EXPECT_EQ(log.pending(0), nullptr);
    harness::Oracle::Entry* p = log.pending(1);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->op, harness::Oracle::kOpEnqueue);
    // Settling as lost erases the pending record but never reuses its
    // value: a fresh begin draws a strictly later sequence number.
    const queues::Value lost = p->arg;
    log.settle(1, /*took_effect=*/false, 0);
    EXPECT_EQ(log.pending(1), nullptr);
    EXPECT_GT(log.begin_enqueue(1), lost);
  }
}

}  // namespace
}  // namespace dssq::pmem
