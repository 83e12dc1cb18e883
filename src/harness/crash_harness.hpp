// Crash-storm harness: drive a detectable queue from several threads,
// crash the world mid-flight, recover, resolve, and hand the pieces to a
// verifier.
//
// The harness realizes the paper's failure model end to end:
//   1. worker threads run random detectable operations against a queue
//      living in a ShadowPool, each recording the operations it *knows*
//      completed (its volatile knowledge);
//   2. at a random instant the injector fires: every thread dies at its
//      next crash point (throws SimulatedCrash, caught at thread top
//      level — the thread loses everything volatile since its last
//      completed op);
//   3. the pool's crash() reconstructs memory as the persistence domain
//      would see it under a chosen survival adversary;
//   4. the queue's recovery procedure runs (centralized, as in Figure 6);
//   5. each thread's interrupted operation is resolved, and the verifier
//      checks exactly-once semantics against the combined knowledge.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "pmem/crash.hpp"
#include "queues/types.hpp"

namespace dssq::harness {

/// What one worker thread knows at the moment of the crash.
struct ThreadOutcome {
  /// Values whose enqueue completed (exec-enqueue returned) pre-crash.
  std::vector<queues::Value> enqueued;
  /// Values whose dequeue completed and returned them pre-crash.
  std::vector<queues::Value> dequeued;
  /// The operation in flight when the crash hit, if any.
  enum class Pending : std::uint8_t { kNone, kEnqueue, kDequeue };
  Pending pending = Pending::kNone;
  queues::Value pending_arg = 0;
  bool crashed = false;  // thread was killed by the injector
};

/// Run `threads` workers against `queue` (prep/exec detectable interface),
/// arming the countdown injector at `crash_after_points`.  Returns each
/// thread's knowledge.  On return all workers have stopped (crashed or
/// completed `ops_per_thread`); the caller then crashes the pool, recovers,
/// and verifies.  Thread t enqueues value_base + (t+1)·10⁶, +1, ...; a
/// caller running several storms on one queue passes each its own base so
/// that values stay unique across storms.
template <class Q>
std::vector<ThreadOutcome> run_crash_storm(Q& queue, std::size_t threads,
                                           std::size_t ops_per_thread,
                                           pmem::CrashPoints& points,
                                           std::int64_t crash_after_points,
                                           std::uint64_t seed,
                                           queues::Value value_base = 0) {
  std::vector<ThreadOutcome> outcomes(threads);
  points.arm_countdown(crash_after_points);
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      ThreadOutcome& out = outcomes[t];
      Xoshiro256 rng(hash_combine(seed, t));
      queues::Value next_value =
          value_base + static_cast<queues::Value>(t + 1) * 1'000'000;
      try {
        for (std::size_t i = 0; i < ops_per_thread; ++i) {
          if (rng.next_bool(0.5)) {
            const queues::Value v = next_value++;
            out.pending = ThreadOutcome::Pending::kEnqueue;
            out.pending_arg = v;
            queue.prep_enqueue(t, v);
            queue.exec_enqueue(t);
            out.enqueued.push_back(v);
          } else {
            out.pending = ThreadOutcome::Pending::kDequeue;
            queue.prep_dequeue(t);
            const queues::Value v = queue.exec_dequeue(t);
            if (v != queues::kEmpty) out.dequeued.push_back(v);
          }
          out.pending = ThreadOutcome::Pending::kNone;
        }
      } catch (const pmem::SimulatedCrash&) {
        out.crashed = true;  // volatile state of the op in flight is lost
      }
    });
  }
  for (auto& w : workers) w.join();
  points.disarm();
  return outcomes;
}

}  // namespace dssq::harness
