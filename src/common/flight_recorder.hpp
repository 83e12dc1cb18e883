// Flight recorder — a crash-surviving black box for the DSS algorithms.
//
// PR 1's counters say *how many* flushes and CAS retries a run paid; this
// layer says *what each thread was doing, in order, right up to the
// instant it died*.  Each thread owns a cache-line-padded, fixed-size ring
// of 32-byte trace records (operation begin/end with the DSS phase, CAS
// retries, persistence primitives, Figure-6 recovery steps, and the crash
// point at which a KillSwitch fired).  The ring block is plain POD with no
// internal pointers, so it can live INSIDE a PersistentHeap: after a
// SIGKILL the next incarnation re-maps the heap and reads the dead
// process's last N events per thread — the forensic raw material behind
// tools/traceview and crashrun's post-crash Perfetto export.
//
// Design rules (the metrics.hpp discipline, applied to traces):
//   * recording must never perturb what it measures: one writer per ring,
//     plain stores on the writer's own cache lines, one relaxed-release
//     counter bump — and NO persist/flush/fence on the hot path.  The
//     recorder is best-effort-durable by design: whatever the kernel kept
//     is what recovery reads (enforced by pmem_lint's trace-hot-path rule);
//   * because nothing is persisted, the tail record may be torn.  Every
//     record carries a validity stamp (a mix of its sequence number,
//     timestamp and payload), and readers accept a ring's records oldest to
//     newest only while stamps and sequence numbers agree — a torn or
//     garbled record ends the timeline and drops exactly the torn suffix;
//   * live reads (repl `stats`, bench export) require quiescence; forensic
//     reads (a dead process's heap) are always safe — the writer is gone;
//   * the whole hot path compiles to no-ops when the CMake option
//     DSSQ_TRACE is OFF (DSSQ_TRACE_ENABLED=0), mirroring DSSQ_METRICS.
//
// Record layout, the torn-tail protocol and the Perfetto export are
// documented in docs/observability.md.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/cacheline.hpp"

#ifndef DSSQ_TRACE_ENABLED
#define DSSQ_TRACE_ENABLED 1
#endif

namespace dssq::trace {

// ---- event vocabulary -------------------------------------------------------

enum class Event : std::uint8_t {
  kNone = 0,
  kOpBegin,          // op/phase fields say which operation entered
  kOpEnd,            // ... and which returned
  kCasRetry,         // one failed-CAS / stale-snapshot loop repetition
  kFlush,            // backend flush() (CLWB batch / msync)
  kFence,            // backend fence() (SFENCE / fdatasync)
  kFenceElided,      // combined fence satisfied by another thread's fence
  kCombinerFallback, // combiner spin bound expired; the thread self-fenced
  kRecoveryStep,     // arg = (RecoveryStep << 40) | count
  kCrashPointArmed,  // arg = interned label hash; the KillSwitch fired here
  kOpCombined,       // a combiner applied a batch; arg = batch size
  kLaneScan,         // a sharded dequeue scanned every lane; arg = lanes
  kLeaseAcquired,    // a client leased a detectability slot; arg = slot
  kLeaseReclaimed,   // a dead client's lease was taken over; arg = slot
};

enum class Op : std::uint8_t { kNone = 0, kEnqueue, kDequeue };

enum class Phase : std::uint8_t { kNone = 0, kPrep, kExec, kResolve };

/// What a Figure-6 recovery pass is doing (one kRecoveryStep event each).
enum class RecoveryStep : std::uint8_t {
  kScan = 0,     // count = nodes reachable from the persisted head
  kTailRepair,   // count = 1 iff tail moved
  kHeadRepair,   // count = 1 iff head moved
  kTagRepair,    // count = completion tags repaired
  kReclaim,      // count = nodes returned to free lists
};

const char* name(Event e) noexcept;
const char* name(Op o) noexcept;
const char* name(Phase p) noexcept;
const char* name(RecoveryStep s) noexcept;

// ---- persistent record format ----------------------------------------------

/// One 32-byte trace record.  8-byte fields only (single-store failure
/// atomicity for each field); `check` is the validity stamp that detects a
/// torn tail — see record_check().
struct Record {
  std::uint64_t seq = 0;      // 1-based, monotone per ring
  std::uint64_t time_ns = 0;  // CLOCK_MONOTONIC, shared across processes
  std::uint64_t data = 0;     // event | op<<8 | phase<<12 | arg<<16
  std::uint64_t check = 0;    // mix of the three fields above
};
static_assert(sizeof(Record) == 32);

/// splitmix64 finalizer: every input bit avalanches into the output, so a
/// single torn byte in a record flips the stamp with overwhelming
/// probability.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

constexpr std::uint64_t record_check(std::uint64_t seq, std::uint64_t time_ns,
                                     std::uint64_t data) noexcept {
  // The salt keeps an all-zero record (fresh ring memory) invalid.
  return mix64(seq ^ mix64(time_ns ^ mix64(data ^ 0x9e3779b97f4a7c15ULL)));
}

constexpr std::uint64_t pack_data(Event e, Op o, Phase p,
                                  std::uint64_t arg) noexcept {
  return static_cast<std::uint64_t>(e) |
         (static_cast<std::uint64_t>(o) << 8) |
         (static_cast<std::uint64_t>(p) << 12) | (arg << 16);
}

/// FNV-1a over a label string, folded to 32 bits (collisions among the
/// handful of crash-point labels are negligible; 32 bits leave the arg
/// field room to spare).
constexpr std::uint32_t label_hash(const char* s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (; *s != '\0'; ++s) {
    h ^= static_cast<unsigned char>(*s);
    h *= 0x100000001b3ULL;
  }
  const std::uint32_t folded =
      static_cast<std::uint32_t>(h) ^ static_cast<std::uint32_t>(h >> 32);
  return folded == 0 ? 1 : folded;  // 0 means "empty label slot"
}

// ---- the recorder block -----------------------------------------------------

/// Per-ring control line.  `next_seq` counts records written (the next
/// record gets next_seq+1); it is bumped with a release store AFTER the
/// record body, so a quiescent reader that acquires it sees complete
/// records — and a crash between body and bump at worst hides one record,
/// which the reader's forward probe recovers (see decode_ring).
struct alignas(kCacheLineSize) RingControl {
  std::atomic<std::uint64_t> next_seq{0};
  std::uint8_t pad_[kCacheLineSize - sizeof(std::atomic<std::uint64_t>)]{};
};
static_assert(sizeof(RingControl) == kCacheLineSize);

/// One interned label (crash-point names).  The hash doubles as the claim
/// word: slots are taken with a CAS from 0, then the text is filled in, so
/// forensic readers can map a record's label hash back to its string
/// without access to the dead process's binary.
struct Label {
  std::atomic<std::uint64_t> hash{0};
  char name[kCacheLineSize - sizeof(std::atomic<std::uint64_t>)]{};
};
static_assert(sizeof(Label) == kCacheLineSize);

/// Block header (one cache line).  Validated by attach()/find() before any
/// geometry is trusted.
struct alignas(kCacheLineSize) RecorderHeader {
  std::uint64_t magic = 0;
  std::uint64_t version = 0;
  std::uint64_t ring_count = 0;
  std::uint64_t records_per_ring = 0;
  std::uint64_t label_capacity = 0;
  std::uint64_t reserved[3] = {0, 0, 0};
};
static_assert(sizeof(RecorderHeader) == kCacheLineSize);

/// A decoded (validated) record.
struct DecodedRecord {
  std::uint64_t seq = 0;
  std::uint64_t time_ns = 0;
  std::uint64_t arg = 0;
  Event event = Event::kNone;
  Op op = Op::kNone;
  Phase phase = Phase::kNone;
};

/// Non-owning view over a recorder block (header + labels + rings) living
/// in any memory — a PersistentHeap, a malloc'd buffer, or a byte-for-byte
/// copy of a crashed heap file.  The block holds no pointers, so views at
/// different addresses (or in different processes) read the same state.
class FlightRecorder {
 public:
  static constexpr std::uint64_t kMagic = 0x44535351'54524143ULL;  // DSSQTRAC
  static constexpr std::uint64_t kVersion = 1;
  static constexpr std::size_t kLabelCapacity = 64;
  static constexpr std::size_t kMaxRings = 1024;
  static constexpr std::size_t kMaxRecordsPerRing = 1u << 20;

  FlightRecorder() = default;

  /// Bytes a block with this geometry occupies (header + labels + rings).
  static std::size_t bytes_for(std::size_t rings,
                               std::size_t records_per_ring) noexcept;

  /// Initialize a fresh block in `mem` (cache-line aligned, at least
  /// bytes_for() bytes).  Zeroes everything and writes the header.
  static FlightRecorder format(void* mem, std::size_t rings,
                               std::size_t records_per_ring) noexcept;

  /// View an existing block.  Returns an invalid view (valid() == false)
  /// when the header or geometry does not validate within `bytes`.
  static FlightRecorder attach(void* mem, std::size_t bytes) noexcept;

  /// Scan `bytes` for a recorder block at cache-line granularity (forensic
  /// discovery inside a heap image).  Returns the byte offset of the
  /// header, or SIZE_MAX when none validates.
  static std::size_t find(const void* bytes, std::size_t n) noexcept;

  bool valid() const noexcept { return hdr_ != nullptr; }
  std::size_t ring_count() const noexcept { return rings_; }
  std::size_t records_per_ring() const noexcept { return per_ring_; }
  const void* block() const noexcept { return hdr_; }

  // ---- hot path (single writer per ring; no persistence by design) --------

  void emit(std::size_t ring, Event e, Op o = Op::kNone,
            Phase p = Phase::kNone, std::uint64_t arg = 0) noexcept {
    RingControl& ctl = controls()[ring];
    const std::uint64_t seq =
        ctl.next_seq.load(std::memory_order_relaxed) + 1;
    Record& r = records(ring)[(seq - 1) % per_ring_];
    const std::uint64_t t = now_ns();
    const std::uint64_t data = pack_data(e, o, p, arg);
    r.seq = seq;
    r.time_ns = t;
    r.data = data;
    r.check = record_check(seq, t, data);
    ctl.next_seq.store(seq, std::memory_order_release);
  }

  /// CLOCK_MONOTONIC nanoseconds — system-wide, so records written by a
  /// crashed process and its recovering successor share one timebase.
  static std::uint64_t now_ns() noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  /// Records written to `ring` so far (its tail sequence number).
  std::uint64_t ring_seq(std::size_t ring) const noexcept {
    return controls()[ring].next_seq.load(std::memory_order_acquire);
  }

  /// Intern `label` into the block's table; returns its 32-bit hash (valid
  /// even when the table is full — the export then shows the bare hash).
  std::uint32_t intern_label(const char* label) noexcept;

  /// The interned text for `hash`, or nullptr when unknown.
  const char* label(std::uint64_t hash) const noexcept;

  // ---- read side ----------------------------------------------------------

  /// Validated decode of one ring, oldest to newest.  Trust protocol:
  /// start from the control line's count, probe FORWARD for records whose
  /// stamp and sequence already validate (a crash between a record body
  /// and its count bump hides at most one — this recovers it), then accept
  /// ascending records while stamps and sequence numbers agree.  The first
  /// invalid record — a torn tail, garbled bytes, or fresh zero memory —
  /// ends the timeline: exactly the untrustworthy suffix is dropped.
  /// Requires quiescence for live rings; always safe forensically.
  std::vector<DecodedRecord> decode_ring(std::size_t ring) const;

 private:
  FlightRecorder(RecorderHeader* hdr, std::size_t rings,
                 std::size_t per_ring) noexcept
      : hdr_(hdr), rings_(rings), per_ring_(per_ring) {}

  Label* labels() const noexcept {
    return reinterpret_cast<Label*>(reinterpret_cast<char*>(hdr_) +
                                    sizeof(RecorderHeader));
  }
  RingControl* controls() const noexcept {
    return reinterpret_cast<RingControl*>(
        reinterpret_cast<char*>(labels()) + sizeof(Label) * kLabelCapacity);
  }
  Record* records(std::size_t ring) const noexcept {
    return reinterpret_cast<Record*>(reinterpret_cast<char*>(controls()) +
                                     sizeof(RingControl) * rings_) +
           ring * per_ring_;
  }

  RecorderHeader* hdr_ = nullptr;
  std::size_t rings_ = 0;
  std::size_t per_ring_ = 0;
};

// ---- process-global recorder glue (mirrors metrics.hpp) ---------------------
//
// Algorithms do not hold a FlightRecorder; they call the free functions
// below, which route to the process's installed recorder (if any) and the
// calling thread's ring.  Threads that model a paper process bind their
// tid as the ring explicitly (crashrun workers, the workload driver);
// unbound threads lease a free ring cooperatively and are dropped — with a
// count — when every ring is taken.

#if DSSQ_TRACE_ENABLED

inline constexpr bool kEnabled = true;

namespace detail {
/// Set by install() after it publishes the recorder, cleared by
/// uninstall() before it detaches: the inline gate of every emit.
extern std::atomic<bool> g_installed;
/// Slow path of emit(): resolve the ring and write the record.
void emit_installed(Event e, Op o, Phase p, std::uint64_t arg) noexcept;
}  // namespace detail

/// Install `r` as the process-wide recorder (r.valid() required) and reset
/// ring leases.  uninstall() detaches; emission while detached costs one
/// relaxed load.
void install(const FlightRecorder& r) noexcept;
void uninstall() noexcept;
/// The installed recorder (invalid view when none).
FlightRecorder active() noexcept;

/// Pin the calling thread to `ring` until unbind_ring() (cooperative: the
/// caller owns that ring's single-writer role while bound).
void bind_ring(std::size_t ring) noexcept;
void unbind_ring() noexcept;

/// Events dropped because no ring could be leased (diagnostic).
std::uint64_t dropped() noexcept;

/// Timestamp for latency measurement; pairs with hist::record().
inline std::uint64_t now_ns() noexcept { return FlightRecorder::now_ns(); }

/// Emit into the installed recorder on the calling thread's ring.
inline void emit(Event e, Op o = Op::kNone, Phase p = Phase::kNone,
                 std::uint64_t arg = 0) noexcept {
  if (detail::g_installed.load(std::memory_order_relaxed)) [[unlikely]] {
    detail::emit_installed(e, o, p, arg);
  }
}

inline void op_begin(Op o, Phase p = Phase::kNone) noexcept {
  emit(Event::kOpBegin, o, p);
}
inline void op_end(Op o, Phase p = Phase::kNone) noexcept {
  emit(Event::kOpEnd, o, p);
}
inline void cas_retry() noexcept { emit(Event::kCasRetry); }
inline void flush_event() noexcept { emit(Event::kFlush); }
inline void fence_event() noexcept { emit(Event::kFence); }
inline void fence_elided_event() noexcept { emit(Event::kFenceElided); }
inline void combiner_fallback_event() noexcept {
  emit(Event::kCombinerFallback);
}
inline void op_combined_event(std::uint64_t batch) noexcept {
  emit(Event::kOpCombined, Op::kNone, Phase::kNone, batch);
}
inline void lane_scan_event(std::uint64_t lanes) noexcept {
  emit(Event::kLaneScan, Op::kNone, Phase::kNone, lanes);
}
inline void lease_acquired_event(std::uint64_t slot) noexcept {
  emit(Event::kLeaseAcquired, Op::kNone, Phase::kNone, slot);
}
inline void lease_reclaimed_event(std::uint64_t slot) noexcept {
  emit(Event::kLeaseReclaimed, Op::kNone, Phase::kNone, slot);
}
inline void recovery_step(RecoveryStep s, std::uint64_t count) noexcept {
  emit(Event::kRecoveryStep, Op::kNone, Phase::kNone,
       (static_cast<std::uint64_t>(s) << 40) | (count & ((1ULL << 40) - 1)));
}
/// The KillSwitch is about to SIGKILL this process at `label`: intern the
/// label and leave the armed-crash-point marker as the (likely) final
/// record of this incarnation.
void crash_point_armed(const char* label) noexcept;

/// RAII ring binding for worker threads (ring = the paper tid).
class ThreadRing {
 public:
  explicit ThreadRing(std::size_t ring) noexcept { bind_ring(ring); }
  ~ThreadRing() { unbind_ring(); }
  ThreadRing(const ThreadRing&) = delete;
  ThreadRing& operator=(const ThreadRing&) = delete;
};

/// RAII op-begin/op-end pair (robust across early returns).
class OpScope {
 public:
  explicit OpScope(Op o, Phase p = Phase::kNone) noexcept : o_(o), p_(p) {
    op_begin(o_, p_);
  }
  ~OpScope() { op_end(o_, p_); }
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

 private:
  Op o_;
  Phase p_;
};

#else  // !DSSQ_TRACE_ENABLED — every hot-path entry point folds to nothing.

inline constexpr bool kEnabled = false;

inline void install(const FlightRecorder&) noexcept {}
inline void uninstall() noexcept {}
inline FlightRecorder active() noexcept { return {}; }
inline void bind_ring(std::size_t) noexcept {}
inline void unbind_ring() noexcept {}
inline std::uint64_t dropped() noexcept { return 0; }
inline std::uint64_t now_ns() noexcept { return 0; }
inline void emit(Event, Op = Op::kNone, Phase = Phase::kNone,
                 std::uint64_t = 0) noexcept {}
inline void op_begin(Op, Phase = Phase::kNone) noexcept {}
inline void op_end(Op, Phase = Phase::kNone) noexcept {}
inline void cas_retry() noexcept {}
inline void flush_event() noexcept {}
inline void fence_event() noexcept {}
inline void fence_elided_event() noexcept {}
inline void combiner_fallback_event() noexcept {}
inline void op_combined_event(std::uint64_t) noexcept {}
inline void lane_scan_event(std::uint64_t) noexcept {}
inline void lease_acquired_event(std::uint64_t) noexcept {}
inline void lease_reclaimed_event(std::uint64_t) noexcept {}
inline void recovery_step(RecoveryStep, std::uint64_t) noexcept {}
inline void crash_point_armed(const char*) noexcept {}

class ThreadRing {
 public:
  explicit ThreadRing(std::size_t) noexcept {}
  ~ThreadRing() {}
  ThreadRing(const ThreadRing&) = delete;
  ThreadRing& operator=(const ThreadRing&) = delete;
};

class OpScope {
 public:
  explicit OpScope(Op, Phase = Phase::kNone) noexcept {}
  ~OpScope() {}
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;
};

#endif  // DSSQ_TRACE_ENABLED

}  // namespace dssq::trace
