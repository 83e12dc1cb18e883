// Shared configuration for the figure-regeneration benches.
//
// The paper measures 1..20 threads, 30-second runs, 10 repetitions, on a
// 20-core machine.  In a container those defaults are impractical, so each
// knob is environment-tunable; the defaults keep a full figure under ~10 s
// while preserving the comparison structure.  To approximate the paper's
// methodology on real hardware:
//   DSSQ_BENCH_MS=30000 DSSQ_BENCH_REPS=10 DSSQ_BENCH_THREADS=1,2,...,20
//
// Besides the human-readable table + CSV, each figure bench writes a
// machine-readable BENCH_<name>.json (schema in docs/observability.md):
// the full config, and per series × thread count the throughput statistics
// plus the metrics-counter attribution (flushes, fences, CAS retries, EBR
// traffic) for the whole run, absolute and per operation.  Output directory
// is DSSQ_BENCH_JSON_DIR (default: current directory).
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/flight_recorder.hpp"
#include "common/histogram.hpp"
#include "common/json_writer.hpp"
#include "common/metrics.hpp"
#include "common/trace_export.hpp"
#include "harness/workload.hpp"
#include "pmem/backend.hpp"

namespace dssq::bench {

inline std::uint64_t env_u64(const char* var, std::uint64_t fallback) {
  const char* s = std::getenv(var);
  if (s == nullptr || *s == '\0') return fallback;
  char* end = nullptr;
  const auto v = std::strtoull(s, &end, 10);
  return end == s ? fallback : v;
}

/// Thread counts to sweep: DSSQ_BENCH_THREADS="1,2,4" or default.
inline std::vector<std::size_t> thread_points() {
  const char* s = std::getenv("DSSQ_BENCH_THREADS");
  std::vector<std::size_t> out;
  if (s != nullptr && *s != '\0') {
    std::string cur;
    for (const char* p = s;; ++p) {
      if (*p == ',' || *p == '\0') {
        if (!cur.empty()) out.push_back(std::stoul(cur));
        cur.clear();
        if (*p == '\0') break;
      } else {
        cur.push_back(*p);
      }
    }
    if (!out.empty()) return out;
  }
  return {1, 2, 4, 8, 12, 16, 20};  // the paper sweeps 1..20
}

inline harness::WorkloadConfig workload_config(std::size_t threads) {
  harness::WorkloadConfig cfg;
  cfg.threads = threads;
  cfg.duration = std::chrono::milliseconds(env_u64("DSSQ_BENCH_MS", 120));
  cfg.warmup = std::chrono::milliseconds(env_u64("DSSQ_BENCH_WARMUP_MS", 15));
  cfg.repetitions = env_u64("DSSQ_BENCH_REPS", 2);
  cfg.initial_items = 16;  // paper: "initialized with 16 queue nodes"
  return cfg;
}

inline constexpr std::size_t kMaxThreads = 32;
inline constexpr std::size_t kNodesPerThread = 4096;
inline constexpr std::size_t kArenaBytes = std::size_t{64} << 20;

// ---- JSON report ----------------------------------------------------------

/// One measured (series, thread count) cell: throughput stats plus the
/// metrics-counter delta accumulated over the run (warmup included — the
/// counters attribute the whole process activity of the cell, and the
/// per-op ratios divide by the ops counted over the same window).
struct SeriesPoint {
  std::size_t threads = 0;
  harness::WorkloadResult result;
  metrics::Snapshot counters;
  LatencyHistogram latency;  // per-op latency over the cell (ns)
};

struct Series {
  std::string name;
  std::vector<SeriesPoint> points;
  std::string tier = {};  // heap series: MmapBackend::mode_name(); else ""
};

/// Run one cell under counter attribution: snapshot the global counters
/// around `run` and record the delta.
template <class Fn>
SeriesPoint measure_point(std::size_t threads, Fn&& run) {
  SeriesPoint pt;
  pt.threads = threads;
  const metrics::Snapshot before = metrics::snapshot();
  hist::reset();  // histograms have no snapshot-delta; zero between cells
  pt.result = std::forward<Fn>(run)();
  pt.counters = metrics::snapshot() - before;
  pt.latency = hist::merged();
  return pt;
}

/// BENCH_<name>.json path, honoring DSSQ_BENCH_JSON_DIR.
inline std::string json_output_path(const std::string& name) {
  const char* dir = std::getenv("DSSQ_BENCH_JSON_DIR");
  std::string path;
  if (dir != nullptr && *dir != '\0') {
    path = dir;
    if (path.back() != '/') path.push_back('/');
  }
  path += "BENCH_" + name + ".json";
  return path;
}

/// Write the figure-bench report (schema documented in
/// docs/observability.md).  Returns the path written, or "" on I/O failure.
inline std::string write_report(const std::string& bench_name,
                                const std::vector<Series>& series) {
  const harness::WorkloadConfig cfg = workload_config(1);
  const pmem::EmulationParams emu = pmem::emulation_params_from_env();

  json::Writer w;
  w.begin_object();
  w.kv("bench", bench_name);
  w.kv("schema_version", std::uint64_t{2});
  w.key("config");
  w.begin_object();
  w.kv("duration_ms",
       static_cast<std::uint64_t>(cfg.duration.count()));
  w.kv("warmup_ms", static_cast<std::uint64_t>(cfg.warmup.count()));
  w.kv("repetitions", static_cast<std::uint64_t>(cfg.repetitions));
  w.kv("initial_items", static_cast<std::uint64_t>(cfg.initial_items));
  w.kv("flush_ns_per_line", emu.flush_ns_per_line);
  w.kv("fence_ns", emu.fence_ns);
  w.kv("metrics_enabled", metrics::kEnabled);
  w.kv("trace_enabled", trace::kEnabled);
  w.key("threads");
  w.begin_array();
  for (const std::size_t t : thread_points()) {
    w.value(static_cast<std::uint64_t>(t));
  }
  w.end_array();
  w.end_object();

  w.key("series");
  w.begin_array();
  for (const Series& s : series) {
    w.begin_object();
    w.kv("name", s.name);
    if (!s.tier.empty()) w.kv("tier", s.tier);
    w.key("points");
    w.begin_array();
    for (const SeriesPoint& pt : s.points) {
      const Stats& st = pt.result.samples;
      w.begin_object();
      w.kv("threads", static_cast<std::uint64_t>(pt.threads));
      w.kv("mean_mops", pt.result.mean_mops);
      w.kv("stddev_mops", st.stddev());
      w.kv("cov", pt.result.cov);
      w.kv("p50_mops", st.count() > 0 ? st.percentile(50) : 0.0);
      w.kv("p99_mops", st.count() > 0 ? st.percentile(99) : 0.0);
      // Per-operation latency distribution over the cell (all zero when
      // the build has tracing off).
      w.key("latency_ns");
      w.begin_object();
      w.kv("count", pt.latency.count());
      w.kv("p50", pt.latency.percentile(50));
      w.kv("p95", pt.latency.percentile(95));
      w.kv("p99", pt.latency.percentile(99));
      w.kv("p999", pt.latency.percentile(99.9));
      w.kv("max", pt.latency.max());
      w.end_object();
      w.key("counters");
      w.begin_object();
      for (std::size_t c = 0; c < metrics::kCounterCount; ++c) {
        const auto counter = static_cast<metrics::Counter>(c);
        w.kv(metrics::name(counter), pt.counters[counter]);
      }
      w.end_object();
      // Per-operation attribution over the same window (0 when the build
      // has metrics off, or nothing ran).
      const std::uint64_t ops = pt.counters[metrics::Counter::kOps];
      w.key("per_op");
      w.begin_object();
      for (const auto counter :
           {metrics::Counter::kFlushCalls, metrics::Counter::kFlushLines,
            metrics::Counter::kFences, metrics::Counter::kFencesElided,
            metrics::Counter::kFencesCombined, metrics::Counter::kCasRetries,
            metrics::Counter::kEbrRetired, metrics::Counter::kEbrReclaimed}) {
        const double per =
            ops > 0 ? static_cast<double>(pt.counters[counter]) /
                          static_cast<double>(ops)
                    : 0.0;
        w.kv(metrics::name(counter), per);
      }
      w.end_object();
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();

  const std::string path = json_output_path(bench_name);
  if (!w.write_file(path)) {
    std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
    return {};
  }
  return path;
}

// ---- optional live trace export -------------------------------------------

/// RAII flight-recorder session for a figure bench: when DSSQ_TRACE_DIR is
/// set (and the build has tracing on), installs a recorder sized for
/// kMaxThreads worker rings plus one for the main thread, and on
/// destruction exports TRACE_<name>.perfetto.json into that directory.
class TraceSession {
 public:
  explicit TraceSession(const std::string& name) : name_(name) {
    const char* dir = std::getenv("DSSQ_TRACE_DIR");
    if (!trace::kEnabled || dir == nullptr || *dir == '\0') return;
    dir_ = dir;
    rings_ = kMaxThreads + 1;
    const std::size_t bytes =
        trace::FlightRecorder::bytes_for(rings_, kRecordsPerRing);
    mem_ = ::operator new(bytes, std::align_val_t{kCacheLineSize});
    rec_ = trace::FlightRecorder::format(mem_, rings_, kRecordsPerRing);
    trace::install(rec_);
    trace::bind_ring(rings_ - 1);  // main thread takes the extra ring
  }

  ~TraceSession() {
    if (mem_ == nullptr) return;
    trace::unbind_ring();
    trace::uninstall();
    std::string path = dir_;
    if (path.back() != '/') path.push_back('/');
    path += "TRACE_" + name_ + ".perfetto.json";
    json_dump(path);
    ::operator delete(mem_, std::align_val_t{kCacheLineSize});
  }

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

 private:
  void json_dump(const std::string& path) const {
    trace::ExportMeta meta;
    meta.process_name = "bench " + name_;
    const std::string doc = trace::export_chrome_json(rec_, meta);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
      return;
    }
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("trace: %s\n", path.c_str());
  }

  static constexpr std::size_t kRecordsPerRing = 4096;
  std::string name_;
  std::string dir_;
  std::size_t rings_ = 0;
  void* mem_ = nullptr;
  trace::FlightRecorder rec_;
};

}  // namespace dssq::bench
