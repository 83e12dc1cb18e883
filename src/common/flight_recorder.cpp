#include "common/flight_recorder.hpp"

#include <algorithm>

namespace dssq::trace {

const char* name(Event e) noexcept {
  switch (e) {
    case Event::kNone: return "none";
    case Event::kOpBegin: return "op-begin";
    case Event::kOpEnd: return "op-end";
    case Event::kCasRetry: return "cas-retry";
    case Event::kFlush: return "flush";
    case Event::kFence: return "fence";
    case Event::kFenceElided: return "fence-elided";
    case Event::kCombinerFallback: return "combiner-fallback";
    case Event::kRecoveryStep: return "recovery-step";
    case Event::kCrashPointArmed: return "crash-point-armed";
    case Event::kOpCombined: return "op-combined";
    case Event::kLaneScan: return "lane-scan";
    case Event::kLeaseAcquired: return "lease-acquired";
    case Event::kLeaseReclaimed: return "lease-reclaimed";
  }
  return "?";
}

const char* name(Op o) noexcept {
  switch (o) {
    case Op::kNone: return "op";
    case Op::kEnqueue: return "enqueue";
    case Op::kDequeue: return "dequeue";
  }
  return "?";
}

const char* name(Phase p) noexcept {
  switch (p) {
    case Phase::kNone: return "";
    case Phase::kPrep: return "prep";
    case Phase::kExec: return "exec";
    case Phase::kResolve: return "resolve";
  }
  return "?";
}

const char* name(RecoveryStep s) noexcept {
  switch (s) {
    case RecoveryStep::kScan: return "scan";
    case RecoveryStep::kTailRepair: return "tail-repair";
    case RecoveryStep::kHeadRepair: return "head-repair";
    case RecoveryStep::kTagRepair: return "tag-repair";
    case RecoveryStep::kReclaim: return "reclaim";
  }
  return "?";
}

std::size_t FlightRecorder::bytes_for(std::size_t rings,
                                      std::size_t records_per_ring) noexcept {
  return sizeof(RecorderHeader) + sizeof(Label) * kLabelCapacity +
         sizeof(RingControl) * rings + sizeof(Record) * rings *
                                           records_per_ring;
}

FlightRecorder FlightRecorder::format(void* mem, std::size_t rings,
                                      std::size_t records_per_ring) noexcept {
  std::memset(mem, 0, bytes_for(rings, records_per_ring));
  auto* hdr = new (mem) RecorderHeader;
  // dssq-lint: allow(header-persist) this is the RECORDER header, not the
  // heap's segment header: the block is volatile-by-design (its durability
  // comes from retired stores reaching MAP_SHARED pages, validated by
  // per-record stamps), and a persist here would trip trace-hot-path.
  hdr->version = kVersion;
  // dssq-lint: allow(header-persist) see above — recorder header, no
  // persist by design.
  hdr->ring_count = rings;
  // dssq-lint: allow(header-persist) see above — recorder header, no
  // persist by design.
  hdr->records_per_ring = records_per_ring;
  // dssq-lint: allow(header-persist) see above — recorder header, no
  // persist by design.
  hdr->label_capacity = kLabelCapacity;
  // Magic goes in last: a block is discoverable only once its geometry is
  // in place (matters when the block lives in a shared mapping).
  // dssq-lint: allow(header-persist) see above — recorder header, no
  // persist by design.
  hdr->magic = kMagic;
  return FlightRecorder(hdr, rings, records_per_ring);
}

FlightRecorder FlightRecorder::attach(void* mem, std::size_t bytes) noexcept {
  if (mem == nullptr || bytes < sizeof(RecorderHeader)) return {};
  auto* hdr = static_cast<RecorderHeader*>(mem);
  if (hdr->magic != kMagic || hdr->version != kVersion) return {};
  const std::uint64_t rings = hdr->ring_count;
  const std::uint64_t per_ring = hdr->records_per_ring;
  if (rings == 0 || rings > kMaxRings) return {};
  if (per_ring == 0 || per_ring > kMaxRecordsPerRing) return {};
  if (hdr->label_capacity != kLabelCapacity) return {};
  if (bytes_for(rings, per_ring) > bytes) return {};
  return FlightRecorder(hdr, rings, per_ring);
}

std::size_t FlightRecorder::find(const void* bytes, std::size_t n) noexcept {
  const char* base = static_cast<const char*>(bytes);
  if (n < sizeof(RecorderHeader)) return SIZE_MAX;
  for (std::size_t off = 0; off + sizeof(RecorderHeader) <= n;
       off += kCacheLineSize) {
    std::uint64_t magic;
    std::memcpy(&magic, base + off, sizeof(magic));
    if (magic != kMagic) continue;
    // attach() re-validates geometry; const_cast is fine because an
    // invalid candidate is never written through.
    if (FlightRecorder::attach(const_cast<char*>(base) + off, n - off)
            .valid()) {
      return off;
    }
  }
  return SIZE_MAX;
}

std::uint32_t FlightRecorder::intern_label(const char* text) noexcept {
  const std::uint32_t h = label_hash(text);
  Label* tab = labels();
  for (std::size_t i = 0; i < kLabelCapacity; ++i) {
    std::uint64_t cur = tab[i].hash.load(std::memory_order_acquire);
    if (cur == h) return h;  // already interned (by us or a peer)
    if (cur != 0) continue;
    std::uint64_t expected = 0;
    if (tab[i].hash.compare_exchange_strong(expected, h,
                                            std::memory_order_acq_rel)) {
      std::strncpy(tab[i].name, text, sizeof(tab[i].name) - 1);
      return h;
    }
    if (expected == h) return h;  // peer raced us to the same label
  }
  return h;  // table full: exports fall back to the bare hash
}

const char* FlightRecorder::label(std::uint64_t hash) const noexcept {
  if (hash == 0) return nullptr;
  const Label* tab = labels();
  for (std::size_t i = 0; i < kLabelCapacity; ++i) {
    if (tab[i].hash.load(std::memory_order_acquire) == hash) {
      return tab[i].name;
    }
  }
  return nullptr;
}

std::vector<DecodedRecord> FlightRecorder::decode_ring(
    std::size_t ring) const {
  std::vector<DecodedRecord> out;
  if (!valid() || ring >= rings_) return out;
  const Record* ring_base = records(ring);
  const auto validates = [&](std::uint64_t seq) {
    const Record& r = ring_base[(seq - 1) % per_ring_];
    return r.seq == seq && r.check == record_check(seq, r.time_ns, r.data);
  };
  // A crash between a record body and its count bump leaves the counter
  // one short of the newest complete record: probe forward past the
  // counter for records that already validate.
  std::uint64_t tail = controls()[ring].next_seq.load(std::memory_order_acquire);
  for (std::size_t probes = 0; probes < per_ring_ && validates(tail + 1);
       ++probes) {
    ++tail;
  }
  if (tail == 0) return out;
  const std::uint64_t first =
      tail >= per_ring_ ? tail - per_ring_ + 1 : 1;
  // Ascending scan.  Two kinds of damage can appear, both at the window's
  // edges: the OLDEST slot may be mid-overwrite by a record one lap ahead
  // (skip the invalid prefix), and the NEWEST may be torn (stop at the
  // first invalid record once the valid run has started, dropping exactly
  // the untrustworthy suffix).
  bool started = false;
  for (std::uint64_t seq = first; seq <= tail; ++seq) {
    if (!validates(seq)) {
      if (started) break;
      continue;
    }
    started = true;
    const Record& r = ring_base[(seq - 1) % per_ring_];
    DecodedRecord d;
    d.seq = seq;
    d.time_ns = r.time_ns;
    d.arg = r.data >> 16;
    d.event = static_cast<Event>(r.data & 0xff);
    d.op = static_cast<Op>((r.data >> 8) & 0xf);
    d.phase = static_cast<Phase>((r.data >> 12) & 0xf);
    out.push_back(d);
  }
  return out;
}

#if DSSQ_TRACE_ENABLED

namespace {

// The installed recorder, published as its header pointer (release) with
// the geometry written first — emitters acquire the pointer and may then
// read the geometry.  Only emitters past the detail::g_installed gate get
// here, so a detached process pays one relaxed load per event.
// install()/uninstall() require emitter quiescence for ring-lease hygiene,
// but a late emitter never sees a half-published view.
std::atomic<RecorderHeader*> g_hdr{nullptr};
std::size_t g_rings = 0;
std::size_t g_per_ring = 0;
FlightRecorder g_rec;  // pre-attached view, published via g_hdr

// Epoch bumped by every install(), so stale thread-local bindings from a
// previous recorder are never carried into the next one.
std::atomic<std::uint64_t> g_epoch{1};

// Ring leases for threads that emit without an explicit bind_ring().
// Explicit binds (paper tids, low indices) also mark their claim so a
// leasing thread never shares a writer's ring; leases scan from the TOP to
// keep clear of not-yet-bound tids.
std::atomic<std::uint8_t> g_claims[FlightRecorder::kMaxRings];

std::atomic<std::uint64_t> g_dropped{0};

struct Binding {
  std::uint64_t epoch = 0;
  std::size_t ring = 0;
  bool bound = false;    // explicit bind_ring()
  bool leased = false;   // cooperative lease (released at thread exit)

  void release_lease() noexcept {
    if (leased && epoch == g_epoch.load(std::memory_order_acquire)) {
      g_claims[ring].store(0, std::memory_order_release);
    }
    leased = false;
  }
  ~Binding() { release_lease(); }
};

Binding& local_binding() noexcept {
  thread_local Binding b;
  return b;
}

/// The calling thread's ring under the current epoch, leasing one if
/// needed.  Returns SIZE_MAX when every ring is claimed.
std::size_t resolve_ring(std::size_t rings) noexcept {
  Binding& b = local_binding();
  const std::uint64_t epoch = g_epoch.load(std::memory_order_acquire);
  if (b.epoch == epoch && (b.bound || b.leased) && b.ring < rings) {
    return b.ring;
  }
  b.bound = false;
  b.leased = false;
  for (std::size_t i = rings; i-- > 0;) {
    std::uint8_t expected = 0;
    if (g_claims[i].compare_exchange_strong(expected, 1,
                                            std::memory_order_acq_rel)) {
      b.epoch = epoch;
      b.ring = i;
      b.leased = true;
      return i;
    }
  }
  return SIZE_MAX;
}

}  // namespace

namespace detail {
std::atomic<bool> g_installed{false};

void emit_installed(Event e, Op o, Phase p, std::uint64_t arg) noexcept {
  if (g_hdr.load(std::memory_order_acquire) == nullptr) return;
  const std::size_t ring = resolve_ring(g_rings);
  if (ring == SIZE_MAX) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  g_rec.emit(ring, e, o, p, arg);
}
}  // namespace detail

void install(const FlightRecorder& r) noexcept {
  if (!r.valid()) return;
  g_rings = r.ring_count();
  g_per_ring = r.records_per_ring();
  g_rec = r;
  for (auto& c : g_claims) c.store(0, std::memory_order_relaxed);
  g_epoch.fetch_add(1, std::memory_order_acq_rel);
  g_hdr.store(const_cast<RecorderHeader*>(
                  static_cast<const RecorderHeader*>(r.block())),
              std::memory_order_release);
  detail::g_installed.store(true, std::memory_order_release);
}

void uninstall() noexcept {
  detail::g_installed.store(false, std::memory_order_release);
  g_hdr.store(nullptr, std::memory_order_release);
  g_epoch.fetch_add(1, std::memory_order_acq_rel);
}

FlightRecorder active() noexcept {
  if (g_hdr.load(std::memory_order_acquire) == nullptr) return {};
  return g_rec;
}

void bind_ring(std::size_t ring) noexcept {
  Binding& b = local_binding();
  b.release_lease();
  b.epoch = g_epoch.load(std::memory_order_acquire);
  b.ring = ring;
  b.bound = true;
  if (ring < FlightRecorder::kMaxRings) {
    g_claims[ring].store(1, std::memory_order_release);
  }
}

void unbind_ring() noexcept {
  Binding& b = local_binding();
  if (b.bound && b.epoch == g_epoch.load(std::memory_order_acquire) &&
      b.ring < FlightRecorder::kMaxRings) {
    g_claims[b.ring].store(0, std::memory_order_release);
  }
  b.bound = false;
  b.leased = false;
}

std::uint64_t dropped() noexcept {
  return g_dropped.load(std::memory_order_relaxed);
}

void crash_point_armed(const char* label) noexcept {
  if (g_hdr.load(std::memory_order_acquire) == nullptr) return;
  const std::uint32_t h = g_rec.intern_label(label);
  emit(Event::kCrashPointArmed, Op::kNone, Phase::kNone, h);
}

#endif  // DSSQ_TRACE_ENABLED

}  // namespace dssq::trace
