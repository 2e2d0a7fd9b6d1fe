// The fork/join team behind every parallel loop in the repository
// (functional kernels, the TCA-BME encoder, pruning scorers, bench sweeps)
// and its ParallelFor primitive.
//
// Determinism contract: ParallelFor runs the body exactly once per index, in
// an unspecified order on unspecified threads. Callers keep results
// bit-identical for any thread count by (a) writing only to disjoint,
// index-addressed state inside the body and (b) performing any
// order-sensitive reduction (FP32 sums, PerfCounters merges) sequentially
// afterwards, in a fixed index order. Every parallel loop in src/ follows
// this pattern, and tests/parallel_determinism_test.cc enforces it.
//
// Team: a pool of width N is N-1 worker threads plus the thread that calls
// ParallelFor. A distributed call puts one loop descriptor (an atomic
// cursor, the end, the grain and a non-owning body) on the caller's stack
// and publishes it by bumping a generation counter. The caller and the
// workers then claim chunks of `grain` consecutive indices from the cursor,
// so a straggler index cannot serialize the loop, and the caller returns
// once the cursor is exhausted and every worker has left the loop. Idle
// workers spin for a short window, then park on a condition variable. No
// call allocates.
//
// Inline when busy: the team runs one loop at a time. A ParallelFor issued
// while it is busy, from inside a body (a nested loop) or from another
// thread, runs inline on its caller: it never waits for the team, so nested
// loops cannot deadlock.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "src/util/function_ref.h"

namespace spinfer {

namespace obs {
class MetricsRegistry;
}  // namespace obs

class ThreadPool {
 public:
  // Scheduling statistics, accumulated since construction on relaxed
  // atomics (zero cross-thread ordering cost; totals are exact once the
  // pool is quiescent). Used by benches and asserted in
  // tests/parallel_determinism_test.cc. tasks_inline and tasks_stolen
  // always read 0; they stay because the serving benchmark reads every
  // field.
  struct Stats {
    uint64_t tasks_submitted = 0;  // worker joins: N-1 per distributed loop
    uint64_t tasks_inline = 0;     // always 0
    uint64_t tasks_popped = 0;     // worker joins that ran at least one chunk
    uint64_t tasks_stolen = 0;     // always 0
    uint64_t parallel_fors = 0;    // ParallelFor invocations
    uint64_t parallel_fors_inline = 0;  // of which ran wholly on the caller
  };
  // A team of width `num_threads` (>= 0): num_threads - 1 workers plus the
  // caller. 0 picks std::thread::hardware_concurrency. A pool of 1 runs
  // everything inline on the calling thread.
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Total execution width: worker threads, counting the caller that
  // participates in ParallelFor. Always >= 1.
  int num_threads() const { return num_threads_; }

  // Runs fn(i) exactly once for every i in [begin, end), distributing chunks
  // over the team and the calling thread; returns when all indices are done.
  // `grain` is the minimum number of consecutive indices per chunk (0 picks
  // a balanced default of ~8 chunks per thread). Runs inline on the caller,
  // with no synchronization at all, on a width-1 pool, for a range that fits
  // in a single chunk, and while the team is busy. Bodies must not throw;
  // the library's error path is SPINFER_CHECK/abort.
  void ParallelFor(int64_t begin, int64_t end, FunctionRef<void(int64_t)> fn,
                   int64_t grain = 0);

  // Snapshot of the scheduling counters. Exact when no work is in flight.
  Stats stats() const;

  // Publishes stats() as `threadpool.*` gauges (plus threadpool.num_threads)
  // into `registry` (nullptr = the global registry). Gauges, not counters:
  // the pool owns the running totals, so repeated publishes must overwrite
  // rather than re-add.
  void PublishMetrics(obs::MetricsRegistry* registry = nullptr) const;

  // The process-wide pool used by the free ParallelFor below. Created
  // lazily with hardware_concurrency workers.
  static ThreadPool& Global();

  // Rebuilds the global pool with `num_threads` workers (0 = hardware
  // concurrency). Benches wire --threads here; tests use it to replay the
  // same work at 1/2/8 threads. Must not be called while parallel work is
  // in flight.
  static void SetGlobalThreads(int num_threads);

 private:
  struct Loop;

  void WorkerLoop();

  int num_threads_ = 1;

  // Parking: a worker waits on wake_cv_ for generation_ to move, so every
  // bump happens under mutex_.
  std::mutex mutex_;
  std::condition_variable wake_cv_;
  std::atomic<bool> stopping_{false};

  // The published loop.
  std::atomic<uint64_t> generation_{0};  // bumped once per published loop
  std::atomic<Loop*> loop_{nullptr};     // null between loops
  std::atomic<bool> busy_{false};        // a caller holds the team
  // Workers inside a loop (or checking for one); the caller waits for 0.
  std::atomic<int> active_{0};

  // Stats counters; relaxed increments only, never part of synchronization.
  std::atomic<uint64_t> tasks_submitted_{0};
  std::atomic<uint64_t> tasks_popped_{0};
  std::atomic<uint64_t> parallel_fors_{0};
  std::atomic<uint64_t> parallel_fors_inline_{0};

  std::vector<std::thread> workers_;  // last: they use every member above
};

// ParallelFor over the global pool; the workhorse entry point.
void ParallelFor(int64_t begin, int64_t end, FunctionRef<void(int64_t)> fn,
                 int64_t grain = 0);

}  // namespace spinfer
