// Figure 5a — "Different levels of detectability and persistence".
//
// Reproduces the paper's scalability experiment: the queue is seeded with
// 16 nodes; each thread runs alternating enqueue/dequeue pairs; mean
// throughput (Mops/s) is reported per thread count for
//   * MS queue                  (volatile: flushes removed),
//   * DSS queue non-detectable  (persistent, no X accesses),
//   * DSS queue detectable      (prep/exec on every operation).
//
// Expected shape (paper): MS > non-detectable > detectable, with the
// detectability gap largest at low thread counts (≈3× at 1–2 threads) and
// all three curves converging as contention on head/tail dominates.
// Absolute numbers differ (emulated NVM latency, container CPU); the
// ordering and the direction of convergence are the reproduction targets.
//
// Besides the table + CSV, writes BENCH_fig5a.json with per-point
// throughput statistics and counter attribution; the detectable series
// must show strictly more flushes per operation than the non-detectable
// one (the X[p] persists of Figure 3) — that invariant is what the JSON
// lets CI assert.

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <mutex>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "bench_common.hpp"
#include "common/spin.hpp"
#include "harness/adapters.hpp"
#include "harness/table.hpp"
#include "harness/workload.hpp"
#include "pmem/context.hpp"
#include "pmem/dss_uring.hpp"
#include "pmem/persistent_heap.hpp"
#include "queues/dss_queue.hpp"
#include "queues/ms_queue.hpp"
#include "queues/sharded_queue.hpp"

namespace dssq {
namespace {

using bench::kArenaBytes;
using bench::kNodesPerThread;

harness::WorkloadResult run_ms_queue(std::size_t threads) {
  pmem::VolatileContext ctx(kArenaBytes);
  queues::MsQueue<pmem::VolatileContext> q(ctx, threads, kNodesPerThread);
  harness::DirectAdapter<decltype(q)> adapter{q};
  harness::seed_queue(adapter, 16);
  return harness::run_throughput(adapter, bench::workload_config(threads));
}

harness::WorkloadResult run_dss(std::size_t threads, bool detectable,
                                bool force_combining_off = false) {
  // The main series run under the process-wide knob (env
  // DSSQ_FENCE_COMBINING), so an all-OFF sweep for bench_diff.py stays
  // possible; only the nocomb series forces the knob, scoped to the cell.
  const bool saved = pmem::fence_combining_enabled();
  if (force_combining_off) pmem::set_fence_combining_enabled(false);
  pmem::EmulatedNvmContext ctx(kArenaBytes);
  queues::DssQueue<pmem::EmulatedNvmContext> q(ctx, threads,
                                               kNodesPerThread);
  harness::WorkloadResult result;
  if (detectable) {
    harness::DetectableAdapter<decltype(q)> adapter{q};
    harness::seed_queue(adapter, 16);
    result = harness::run_throughput(adapter, bench::workload_config(threads));
  } else {
    harness::DirectAdapter<decltype(q)> adapter{q};
    harness::seed_queue(adapter, 16);
    result = harness::run_throughput(adapter, bench::workload_config(threads));
  }
  pmem::set_fence_combining_enabled(saved);
  return result;
}

// The detectable workload against the N-lane sharded queue (operation
// combining per lane, global-ticket FIFO).  The lane count comes from
// DSSQ_LANES (default min(hw threads, 8)), so CI sweeps lane counts by
// re-running the binary: DSSQ_LANES=1 prices the combiner alone,
// DSSQ_LANES=8 adds the contention split.
harness::WorkloadResult run_dss_sharded(std::size_t threads) {
  pmem::EmulatedNvmContext ctx(kArenaBytes);
  queues::ShardedDssQueue<pmem::EmulatedNvmContext> q(ctx, threads,
                                                      kNodesPerThread);
  harness::DetectableAdapter<decltype(q)> adapter{q};
  harness::seed_queue(adapter, 16);
  return harness::run_throughput(adapter, bench::workload_config(threads));
}

// Same detectable workload against the file-backed mmap heap instead of
// the emulated-NVM DRAM arena: persists become msync/fdatasync (or CLWB
// on a MAP_SYNC mount, or compiler barriers on tmpfs), so the series
// prices the heap tier's durability.  Heap file goes to DSSQ_HEAP_DIR
// (default /tmp; point it at tmpfs or a DAX mount to change the tier) and
// is recreated per cell; `tier` receives the tier's name.
std::string heap_path() {
  const char* dir = std::getenv("DSSQ_HEAP_DIR");
  std::string path = (dir != nullptr && *dir != '\0') ? dir : "/tmp";
  if (path.back() != '/') path.push_back('/');
  path += "dssq-fig5a-" + std::to_string(::getpid()) + ".heap";
  return path;
}

harness::WorkloadResult run_dss_mmap(std::size_t threads,
                                     std::string& tier) {
  const std::string path = heap_path();
  ::unlink(path.c_str());
  pmem::PersistentHeap::Options opt;
  opt.bytes = kArenaBytes;
  pmem::PersistentHeap heap(path, pmem::PersistentHeap::OpenMode::kCreate,
                            opt);
  pmem::MmapContext ctx(heap);
  tier = ctx.backend_name();
  harness::WorkloadResult result;
  {
    queues::DssQueue<pmem::MmapContext> q(ctx, threads, kNodesPerThread);
    harness::DetectableAdapter<decltype(q)> adapter{q};
    harness::seed_queue(adapter, 16);
    result = harness::run_throughput(adapter, bench::workload_config(threads));
  }
  ::unlink(path.c_str());
  return result;
}

// The async submission-ring front end over the same mmap heap as
// dss_detectable_mmap: each workload thread owns one bounded ring
// (capacity 16) and keeps up to 8 operations in flight.  Who drains is
// DSSQ_RING_EXECUTORS:
//   0 (default) — clients drain their own ring after filling the window
//     (the Handle Drain::kSelf mode crashrun clients use): the win
//     measured is batching, one journal fence per drained batch instead
//     of one fence per op.
//   N — a pool of N executor threads owns the rings (executor j drains
//     slots i with i % N == j) and clients only submit/poll.  This is
//     the true async pipeline, but every op then needs a cross-thread
//     handoff: on a single-CPU cgroup each handoff costs a scheduler
//     quantum, so the pool only makes sense with real parallelism —
//     hence opt-in.
// Throughput counts polled completions, so the series is directly
// comparable with the synchronous ones (each completion is one enqueue
// or dequeue).  The three pipeline stages are measured from the
// CompEntry timestamps —
//   submit: submit→drain   (time queued in the submission ring)
//   exec:   drain→exec     (execution inside the batch)
//   complete: exec→poll    (completion delivery back to the client)
// — into explicit histograms reported as the latency-only series
// dss_ring/{submit,exec,complete}.  trace::now_ns() is 0 in trace-off
// builds, so the stages degrade to zeros there (same caveat as the
// per-op latency_ns block every series already carries).
/// CPU time consumed by the calling thread (ns).  The submission-path rate
/// divides staged ops by time spent staging; wall clocks would absorb
/// preemptions (many client threads share few CPUs), charging scheduler
/// quanta to a code path that never ran.
std::uint64_t thread_cpu_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000u +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

struct RingBenchResult {
  harness::WorkloadResult result;
  // Submission-path throughput: operations staged+published per second of
  // time spent inside the submission path alone (the client's cost per op
  // — what the async front end decouples from execution).  This is the
  // acceptance metric "submission throughput vs direct enq()": a direct
  // enqueue charges the caller the full persist protocol; a ring client
  // pays one entry flush plus 1/window of a fence + tail persist.
  harness::WorkloadResult submit_path;
  LatencyHistogram stage_submit;
  LatencyHistogram stage_exec;
  LatencyHistogram stage_complete;
};

RingBenchResult run_dss_ring(std::size_t threads, std::string& tier) {
  constexpr std::size_t kRingCapacity = 16;
  constexpr std::uint64_t kWindow = 8;
  const std::size_t executors =
      static_cast<std::size_t>(bench::env_u64("DSSQ_RING_EXECUTORS", 0));
  const std::string path = heap_path();
  ::unlink(path.c_str());
  pmem::PersistentHeap::Options opt;
  opt.bytes = kArenaBytes;
  RingBenchResult out;
  {
    pmem::PersistentHeap heap(path, pmem::PersistentHeap::OpenMode::kCreate,
                              opt);
    pmem::MmapContext ctx(heap);
    tier = ctx.backend_name();
    queues::DssQueue<pmem::MmapContext> q(ctx, threads, kNodesPerThread);
    void* ubase = heap.raw_alloc(
        pmem::UringTable::bytes_for(threads, kRingCapacity), kCacheLineSize);
    pmem::UringTable::format(ubase, threads, kRingCapacity, heap.backend());
    pmem::UringTable rings(static_cast<pmem::UringTable::Header*>(ubase));
    for (std::size_t i = 0; i < 16; ++i) {
      q.enqueue(0, static_cast<queues::Value>(i) + 1);
    }

    const harness::WorkloadConfig cfg = bench::workload_config(threads);
    std::mutex lat_mu;
    for (std::size_t rep = 0; rep < cfg.repetitions; ++rep) {
      // Phase control: 0 = warmup, 1 = measure, 2 = stop (as
      // run_throughput); executors outlive the clients so every client
      // can retire its in-flight window before exiting.
      std::atomic<int> phase{0};
      std::atomic<bool> exec_stop{false};
      std::atomic<std::uint64_t> total_ops{0};
      std::atomic<std::uint64_t> submit_ops{0};
      std::atomic<std::uint64_t> submit_ns{0};

      auto client = [&](std::size_t tid) {
        trace::ThreadRing ring(tid);
        LatencyHistogram sub_h, exe_h, cmp_h;
        queues::Value v = static_cast<queues::Value>(tid) * 1'000'000;
        std::uint64_t cursor = rings.comp_tail(tid);
        std::uint64_t submitted = rings.sub_tail(tid);
        std::uint64_t completed = cursor;
        bool next_enq = true;
        std::uint64_t ops = 0;
        std::uint64_t my_submit_ops = 0;
        std::uint64_t my_submit_ns = 0;
        int seen = 0;
        while (seen < 2) {
          // Stage a window of entries, then one publish pays the fence +
          // tail persist for the whole batch.
          const std::uint64_t t0 = thread_cpu_ns();
          std::uint64_t staged = 0;
          while (submitted + staged - completed < kWindow) {
            const bool ok =
                next_enq
                    ? rings.stage(ctx, tid, staged,
                                  pmem::UringTable::kOpEnqueue, v++)
                    : rings.stage(ctx, tid, staged,
                                  pmem::UringTable::kOpDequeue, 0);
            if (!ok) break;  // ring full: wait for the drainer
            next_enq = !next_enq;
            ++staged;
          }
          rings.publish_staged(ctx, tid, staged);
          submitted += staged;
          if (staged > 0) {
            my_submit_ops += staged;
            my_submit_ns += thread_cpu_ns() - t0;
          }
          // Self-drain mode: this client is its ring's only drainer, so
          // the whole published window executes under one batch fence.
          if (executors == 0) (void)rings.drain(ctx, q, tid);
          bool progressed = false;
          while (auto c = rings.poll(tid, cursor)) {
            // Per-op attribution counts every completion, as the harness
            // adapters count every op.
            metrics::add(metrics::Counter::kOps);
            ++cursor;
            ++completed;
            ++ops;
            progressed = true;
            const std::uint64_t now = trace::now_ns();
            if (c->t_drain >= c->t_submit)
              sub_h.add(c->t_drain - c->t_submit);
            if (c->t_exec >= c->t_drain) exe_h.add(c->t_exec - c->t_drain);
            if (now >= c->t_exec) cmp_h.add(now - c->t_exec);
            if (now >= c->t_submit) hist::record(now - c->t_submit);
          }
          if (!progressed) cpu_pause();
          const int p = phase.load(std::memory_order_relaxed);
          if (p != seen) {
            if (p == 1) ops = 0;  // measurement starts now
            seen = p;
          }
        }
        // Retire the in-flight window so the next rep starts with empty
        // rings (and the heap closes quiescent).
        while (completed < submitted) {
          if (executors == 0) (void)rings.drain(ctx, q, tid);
          if (auto c = rings.poll(tid, cursor)) {
            metrics::add(metrics::Counter::kOps);
            ++cursor;
            ++completed;
          } else {
            cpu_pause();
          }
        }
        total_ops.fetch_add(ops, std::memory_order_relaxed);
        submit_ops.fetch_add(my_submit_ops, std::memory_order_relaxed);
        submit_ns.fetch_add(my_submit_ns, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lk(lat_mu);
        out.stage_submit.merge(sub_h);
        out.stage_exec.merge(exe_h);
        out.stage_complete.merge(cmp_h);
      };

      // Pool mode: executor j owns slots i with i % executors == j —
      // exactly one drainer per ring, batches amortise the journal fence.
      auto executor = [&](std::size_t j) {
        while (!exec_stop.load(std::memory_order_relaxed)) {
          std::size_t drained = 0;
          for (std::size_t i = j; i < threads; i += executors) {
            drained += rings.drain(ctx, q, i, /*budget=*/128);
          }
          if (drained == 0) cpu_pause();
        }
      };

      std::vector<std::thread> execs;
      execs.reserve(executors);
      for (std::size_t j = 0; j < executors; ++j) {
        execs.emplace_back(executor, j);
      }
      std::vector<std::thread> clients;
      clients.reserve(threads);
      for (std::size_t t = 0; t < threads; ++t) {
        clients.emplace_back(client, t);
      }
      std::this_thread::sleep_for(cfg.warmup);
      phase.store(1, std::memory_order_relaxed);
      const auto start = std::chrono::steady_clock::now();
      std::this_thread::sleep_for(cfg.duration);
      phase.store(2, std::memory_order_relaxed);
      for (auto& c : clients) c.join();
      exec_stop.store(true, std::memory_order_relaxed);
      for (auto& e : execs) e.join();
      const auto elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
      out.result.samples.add(static_cast<double>(total_ops.load()) /
                             elapsed / 1e6);
      // Submission-path rate: staged ops per second spent staging (the
      // window covers the whole rep — warmup skew is negligible and the
      // quantity is a rate, not a count).
      const std::uint64_t sns = submit_ns.load();
      if (sns > 0) {
        out.submit_path.samples.add(
            static_cast<double>(submit_ops.load()) * 1e3 /
            static_cast<double>(sns));
      }
    }
    out.result.mean_mops = out.result.samples.mean();
    out.result.cov = out.result.samples.coeff_of_variation();
    out.submit_path.mean_mops = out.submit_path.samples.mean();
    out.submit_path.cov = out.submit_path.samples.coeff_of_variation();
  }
  ::unlink(path.c_str());
  return out;
}

/// A latency-only point for the per-stage pseudo-series (mops stays 0, so
/// bench_diff.py gates these on p99 alone).
bench::SeriesPoint stage_point(std::size_t threads,
                               const LatencyHistogram& h) {
  bench::SeriesPoint p;
  p.threads = threads;
  p.latency = h;
  return p;
}

}  // namespace
}  // namespace dssq

int main() {
  using namespace dssq;
  std::printf(
      "Figure 5a: scalability — levels of detectability and persistence\n"
      "workload: 16 seed nodes, alternating enqueue/dequeue pairs\n"
      "(Mops/s; paper shape: MS > DSS non-detectable > DSS detectable,\n"
      " gap ≈3x at low threads, curves converge at high threads)\n\n");

  // Optional flight-recorder export (DSSQ_TRACE_DIR): the last cell's
  // events per worker ring, viewable in ui.perfetto.dev.
  bench::TraceSession trace_session("fig5a");

  bench::Series ms{"ms_queue", {}};
  bench::Series nd{"dss_nondetectable", {}};
  bench::Series det{"dss_detectable", {}};
  bench::Series nocomb{"dss_detectable_nocomb", {}};
  bench::Series sharded{"dss_sharded", {}};
  bench::Series mm{"dss_detectable_mmap", {}};
  // The async ring front end plus its three latency-only pipeline-stage
  // series (mops stays 0; bench_diff.py gates them on p99 alone).
  bench::Series ring{"dss_ring", {}};
  bench::Series ring_subm{"dss_ring/submission", {}};
  bench::Series ring_sub{"dss_ring/submit", {}};
  bench::Series ring_exe{"dss_ring/exec", {}};
  bench::Series ring_cmp{"dss_ring/complete", {}};
  std::printf("dss_sharded lanes: %zu (DSSQ_LANES)\n\n",
              queues::default_lane_count());

  harness::Table table({"threads", "ms_queue", "dss_nondetectable",
                        "dss_detectable", "dss_detectable_nocomb",
                        "dss_sharded", "dss_detectable_mmap", "dss_ring",
                        "nd/det", "det/nocomb", "shard/det", "ring/mmap"});
  for (const std::size_t threads : bench::thread_points()) {
    ms.points.push_back(
        bench::measure_point(threads, [&] { return run_ms_queue(threads); }));
    nd.points.push_back(bench::measure_point(
        threads, [&] { return run_dss(threads, /*detectable=*/false); }));
    det.points.push_back(bench::measure_point(
        threads, [&] { return run_dss(threads, /*detectable=*/true); }));
    // The same detectable workload with fence combining disabled: the
    // det/nocomb ratio prices the coalescer on the hot path.
    nocomb.points.push_back(bench::measure_point(threads, [&] {
      return run_dss(threads, /*detectable=*/true,
                     /*force_combining_off=*/true);
    }));
    sharded.points.push_back(bench::measure_point(
        threads, [&] { return run_dss_sharded(threads); }));
    mm.points.push_back(bench::measure_point(
        threads, [&] { return run_dss_mmap(threads, mm.tier); }));
    RingBenchResult rb;
    ring.points.push_back(bench::measure_point(threads, [&] {
      return (rb = run_dss_ring(threads, ring.tier)).result;
    }));
    bench::SeriesPoint subm;
    subm.threads = threads;
    subm.result = rb.submit_path;
    ring_subm.points.push_back(subm);
    ring_sub.points.push_back(stage_point(threads, rb.stage_submit));
    ring_exe.points.push_back(stage_point(threads, rb.stage_exec));
    ring_cmp.points.push_back(stage_point(threads, rb.stage_complete));
    const double m = ms.points.back().result.mean_mops;
    const double n = nd.points.back().result.mean_mops;
    const double d = det.points.back().result.mean_mops;
    const double nc = nocomb.points.back().result.mean_mops;
    const double sh = sharded.points.back().result.mean_mops;
    const double f = mm.points.back().result.mean_mops;
    const double rg = ring.points.back().result.mean_mops;
    table.add_row({std::to_string(threads), harness::fmt(m),
                   harness::fmt(n), harness::fmt(d), harness::fmt(nc),
                   harness::fmt(sh), harness::fmt(f), harness::fmt(rg),
                   harness::fmt(d > 0 ? n / d : 0, 2),
                   harness::fmt(nc > 0 ? d / nc : 0, 2),
                   harness::fmt(d > 0 ? sh / d : 0, 2),
                   harness::fmt(f > 0 ? rg / f : 0, 2)});
  }
  table.print();
  std::printf("\nheap tier (DSSQ_HEAP_DIR): %s\n", mm.tier.c_str());
  std::printf("\nCSV:\n%s", table.to_csv().c_str());

  // Per-stage pipeline latencies for the ring series (submit→drain,
  // drain→exec, exec→poll); all zeros when the build has tracing off
  // (trace::now_ns() returns 0 there).
  harness::Table stages({"threads", "subm Mops", "submit p50", "submit p99",
                         "exec p50", "exec p99", "complete p50",
                         "complete p99"});
  for (std::size_t i = 0; i < ring.points.size(); ++i) {
    stages.add_row(
        {std::to_string(ring.points[i].threads),
         harness::fmt(ring_subm.points[i].result.mean_mops),
         std::to_string(ring_sub.points[i].latency.percentile(50)),
         std::to_string(ring_sub.points[i].latency.percentile(99)),
         std::to_string(ring_exe.points[i].latency.percentile(50)),
         std::to_string(ring_exe.points[i].latency.percentile(99)),
         std::to_string(ring_cmp.points[i].latency.percentile(50)),
         std::to_string(ring_cmp.points[i].latency.percentile(99))});
  }
  std::printf(
      "\ndss_ring pipeline stages (subm Mops = submission-path rate;\n"
      "latencies in ns from the CompEntry stamps, zeros with tracing "
      "off):\n");
  stages.print();

  for (bench::Series* s : {&ring_subm, &ring_sub, &ring_exe, &ring_cmp}) {
    s->tier = ring.tier;
  }
  const std::string path = bench::write_report(
      "fig5a", {ms, nd, det, nocomb, sharded, mm, ring, ring_subm, ring_sub,
                ring_exe, ring_cmp});
  if (!path.empty()) std::printf("\nJSON report: %s\n", path.c_str());
  return 0;
}
