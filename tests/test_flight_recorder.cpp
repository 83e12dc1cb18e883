// Tests for the crash-surviving flight recorder
// (src/common/flight_recorder.hpp):
//
//   * value-type protocol — format/attach round trips, ring wraparound,
//     and the torn-tail trust protocol: a garbled tail record (a crash in
//     the middle of a record body) costs exactly the untrustworthy suffix,
//     and a record written but not yet counted (crash between body and
//     count bump) is recovered by the forward probe;
//   * forensic discovery — find() locates a block inside a larger byte
//     buffer, the way traceview scans a dead heap image;
//   * label interning — crash-point names survive to readers that never
//     saw the dead binary;
//   * process-global glue — ring leases bind, recycle at thread exit, and
//     drop (with a count) when every ring is claimed.  Glue tests skip in
//     DSSQ_TRACE=OFF builds; the value type is always compiled.

#include <gtest/gtest.h>

#include <cstring>
#include <new>
#include <thread>
#include <vector>

#include "common/cacheline.hpp"
#include "common/flight_recorder.hpp"

namespace dssq::trace {
namespace {

/// Cache-line-aligned buffer holding a freshly formatted block.
class Block {
 public:
  Block(std::size_t rings, std::size_t per_ring)
      : bytes_(FlightRecorder::bytes_for(rings, per_ring)),
        mem_(::operator new(bytes_, std::align_val_t{kCacheLineSize})),
        rec_(FlightRecorder::format(mem_, rings, per_ring)) {}
  ~Block() { ::operator delete(mem_, std::align_val_t{kCacheLineSize}); }
  Block(const Block&) = delete;
  Block& operator=(const Block&) = delete;

  FlightRecorder& rec() noexcept { return rec_; }
  std::size_t bytes() const noexcept { return bytes_; }
  void* mem() noexcept { return mem_; }

  /// Raw slot address for ring `ring`, sequence `seq` (layout mirror of
  /// the recorder's private accessors; kept in the test so a layout change
  /// breaks loudly here).
  Record* slot(std::size_t ring, std::uint64_t seq, std::size_t rings,
               std::size_t per_ring) noexcept {
    char* p = static_cast<char*>(mem_);
    p += sizeof(RecorderHeader);
    p += sizeof(Label) * FlightRecorder::kLabelCapacity;
    p += sizeof(RingControl) * rings;
    p += (ring * per_ring + (seq - 1) % per_ring) * sizeof(Record);
    return reinterpret_cast<Record*>(p);
  }

 private:
  std::size_t bytes_;
  void* mem_;
  FlightRecorder rec_;
};

TEST(FlightRecorderValue, FormatAttachRoundTrip) {
  Block b(4, 16);
  EXPECT_TRUE(b.rec().valid());
  EXPECT_EQ(b.rec().ring_count(), 4u);
  EXPECT_EQ(b.rec().records_per_ring(), 16u);

  const FlightRecorder view = FlightRecorder::attach(b.mem(), b.bytes());
  ASSERT_TRUE(view.valid());
  EXPECT_EQ(view.ring_count(), 4u);
  EXPECT_EQ(view.records_per_ring(), 16u);

  // Too-small windows and garbage must not validate.
  EXPECT_FALSE(FlightRecorder::attach(b.mem(), 64).valid());
  char junk[256] = {};
  EXPECT_FALSE(FlightRecorder::attach(junk, sizeof junk).valid());
}

TEST(FlightRecorderValue, EmitDecodePreservesOrderAndPayload) {
  Block b(2, 32);
  b.rec().emit(0, Event::kOpBegin, Op::kEnqueue, Phase::kPrep);
  b.rec().emit(0, Event::kCasRetry);
  b.rec().emit(0, Event::kOpEnd, Op::kEnqueue, Phase::kPrep);
  b.rec().emit(1, Event::kFlush);

  const auto r0 = b.rec().decode_ring(0);
  ASSERT_EQ(r0.size(), 3u);
  EXPECT_EQ(r0[0].seq, 1u);
  EXPECT_EQ(r0[0].event, Event::kOpBegin);
  EXPECT_EQ(r0[0].op, Op::kEnqueue);
  EXPECT_EQ(r0[0].phase, Phase::kPrep);
  EXPECT_EQ(r0[1].event, Event::kCasRetry);
  EXPECT_EQ(r0[2].event, Event::kOpEnd);
  EXPECT_LE(r0[0].time_ns, r0[2].time_ns);

  const auto r1 = b.rec().decode_ring(1);
  ASSERT_EQ(r1.size(), 1u);
  EXPECT_EQ(r1[0].event, Event::kFlush);
}

TEST(FlightRecorderValue, WraparoundKeepsNewestWindow) {
  constexpr std::size_t kPerRing = 8;
  Block b(1, kPerRing);
  for (std::uint64_t i = 1; i <= 20; ++i) {
    b.rec().emit(0, Event::kFence, Op::kNone, Phase::kNone, i);
  }
  const auto recs = b.rec().decode_ring(0);
  ASSERT_EQ(recs.size(), kPerRing);
  // Exactly the newest kPerRing records, ascending.
  for (std::size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(recs[i].seq, 20 - kPerRing + 1 + i);
    EXPECT_EQ(recs[i].arg, recs[i].seq);
  }
}

TEST(FlightRecorderValue, TornTailRecordIsDroppedExactly) {
  constexpr std::size_t kRings = 1, kPerRing = 16;
  Block b(kRings, kPerRing);
  for (std::uint64_t i = 1; i <= 10; ++i) {
    b.rec().emit(0, Event::kFlush, Op::kNone, Phase::kNone, i);
  }
  // Tear the newest record mid-body: its stamp no longer validates.
  Record* tail = b.slot(0, 10, kRings, kPerRing);
  tail->data ^= 0xff;

  const auto recs = b.rec().decode_ring(0);
  ASSERT_EQ(recs.size(), 9u);  // exactly the torn suffix is dropped
  EXPECT_EQ(recs.back().seq, 9u);
  EXPECT_EQ(recs.front().seq, 1u);
}

TEST(FlightRecorderValue, ForwardProbeRecoversUncountedRecord) {
  constexpr std::size_t kRings = 1, kPerRing = 16;
  Block b(kRings, kPerRing);
  for (std::uint64_t i = 1; i <= 5; ++i) {
    b.rec().emit(0, Event::kFlush, Op::kNone, Phase::kNone, i);
  }
  // Simulate a crash between a record body and its count bump: write a
  // fully valid record for seq 6 without touching next_seq.
  Record* r = b.slot(0, 6, kRings, kPerRing);
  const std::uint64_t data =
      pack_data(Event::kCrashPointArmed, Op::kNone, Phase::kNone, 7);
  r->seq = 6;
  r->time_ns = 123;
  r->data = data;
  r->check = record_check(6, 123, data);

  EXPECT_EQ(b.rec().ring_seq(0), 5u);
  const auto recs = b.rec().decode_ring(0);
  ASSERT_EQ(recs.size(), 6u);  // the probe recovered the uncounted tail
  EXPECT_EQ(recs.back().seq, 6u);
  EXPECT_EQ(recs.back().event, Event::kCrashPointArmed);
  EXPECT_EQ(recs.back().arg, 7u);
}

TEST(FlightRecorderValue, FindLocatesBlockInsideLargerBuffer) {
  constexpr std::size_t kOffset = 4096;  // cache-line multiple
  const std::size_t block_bytes = FlightRecorder::bytes_for(2, 8);
  const std::size_t image_bytes = kOffset + block_bytes + 1024;
  char* image = static_cast<char*>(
      ::operator new(image_bytes, std::align_val_t{kCacheLineSize}));
  std::memset(image, 0x5a, image_bytes);
  FlightRecorder rec = FlightRecorder::format(image + kOffset, 2, 8);
  rec.emit(0, Event::kOpBegin, Op::kDequeue);

  const std::size_t off = FlightRecorder::find(image, image_bytes);
  EXPECT_EQ(off, kOffset);
  ASSERT_NE(off, SIZE_MAX);
  FlightRecorder view =
      FlightRecorder::attach(image + off, image_bytes - off);
  ASSERT_TRUE(view.valid());
  const auto recs = view.decode_ring(0);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].op, Op::kDequeue);
  ::operator delete(image, std::align_val_t{kCacheLineSize});

  // No block → no find.
  std::vector<char> empty(8192, '\0');
  EXPECT_EQ(FlightRecorder::find(empty.data(), empty.size()), SIZE_MAX);
}

TEST(FlightRecorderValue, LabelInterningSurvivesReattach) {
  Block b(1, 8);
  const std::uint32_t h1 = b.rec().intern_label("tail-link");
  const std::uint32_t h2 = b.rec().intern_label("tail-link");
  EXPECT_EQ(h1, h2);
  const std::uint32_t h3 = b.rec().intern_label("head-swing");
  EXPECT_NE(h1, h3);

  // A fresh view over the same bytes resolves the names (forensic reader).
  const FlightRecorder view = FlightRecorder::attach(b.mem(), b.bytes());
  ASSERT_TRUE(view.valid());
  EXPECT_STREQ(view.label(h1), "tail-link");
  EXPECT_STREQ(view.label(h3), "head-swing");
  EXPECT_EQ(view.label(0xdeadbeefu), nullptr);
}

// ---- process-global glue ----------------------------------------------------

class Glue : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!kEnabled) GTEST_SKIP() << "flight recorder compiled out";
  }
  void TearDown() override { uninstall(); }
};

TEST_F(Glue, InstallBindEmitDecode) {
  Block b(3, 32);
  install(b.rec());
  {
    ThreadRing ring(1);
    op_begin(Op::kEnqueue, Phase::kExec);
    op_end(Op::kEnqueue, Phase::kExec);
  }
  uninstall();
  emit(Event::kFlush);  // after uninstall: must be a silent no-op

  const auto recs = b.rec().decode_ring(1);
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].event, Event::kOpBegin);
  EXPECT_EQ(recs[1].event, Event::kOpEnd);
  EXPECT_EQ(b.rec().decode_ring(0).size(), 0u);
  EXPECT_EQ(b.rec().decode_ring(2).size(), 0u);
}

TEST_F(Glue, AnonymousLeaseIsRecycledAtThreadExit) {
  Block b(4, 32);
  install(b.rec());
  // Two sequential unbound threads: the second must reuse the lease the
  // first released at exit (leases scan from the top ring down).
  std::thread([] { emit(Event::kCasRetry); }).join();
  std::thread([] { emit(Event::kFence); }).join();
  uninstall();

  const auto recs = b.rec().decode_ring(3);
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].event, Event::kCasRetry);
  EXPECT_EQ(recs[1].event, Event::kFence);
}

TEST_F(Glue, EmissionsAreDroppedAndCountedWhenRingsExhaust) {
  Block b(1, 8);
  install(b.rec());
  const std::uint64_t before = dropped();
  std::thread([] { emit(Event::kFlush); }).join();  // leases the only ring
  // A bound main thread claims ring 0 of a fresh install, so a second
  // emitter finds every ring taken.
  Block b2(1, 8);
  install(b2.rec());
  bind_ring(0);
  emit(Event::kFence);
  std::thread([] { emit(Event::kFlush); }).join();
  unbind_ring();
  uninstall();
  EXPECT_EQ(dropped(), before + 1);
  ASSERT_EQ(b2.rec().decode_ring(0).size(), 1u);
}

TEST_F(Glue, CrashPointLabelIsReadableAfterwards) {
  Block b(1, 8);
  install(b.rec());
  bind_ring(0);
  crash_point_armed("exec-enq/after-link");
  unbind_ring();
  uninstall();

  const auto recs = b.rec().decode_ring(0);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].event, Event::kCrashPointArmed);
  EXPECT_STREQ(b.rec().label(recs[0].arg), "exec-enq/after-link");
}

TEST_F(Glue, InstalledGateFollowsInstallUninstallReinstall) {
  Block b(1, 16);
  bind_ring(0);
  emit(Event::kFlush);  // never installed: the gate drops it
  install(b.rec());
  bind_ring(0);         // install() starts a new binding epoch
  emit(Event::kFence);
  uninstall();
  emit(Event::kFlush);  // detached again
  emit(Event::kCasRetry);
  install(b.rec());
  bind_ring(0);
  emit(Event::kFenceElided);
  unbind_ring();
  uninstall();

  const auto recs = b.rec().decode_ring(0);
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].event, Event::kFence);
  EXPECT_EQ(recs[1].event, Event::kFenceElided);
  EXPECT_FALSE(active().valid());
}

}  // namespace
}  // namespace dssq::trace
