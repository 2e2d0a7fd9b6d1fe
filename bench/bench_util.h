// Shared helpers for the figure/table bench binaries.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "src/baselines/kernel_registry.h"
#include "src/core/spmm.h"
#include "src/gpusim/device_spec.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/check.h"
#include "src/util/cli.h"
#include "src/util/table.h"
#include "src/util/thread_pool.h"

namespace spinfer {

// `--threads` (default `def`); exits with an error naming the flag when it
// is negative, since a negative width would read as "hardware concurrency".
inline int ThreadsFlag(const CliFlags& flags, int def) {
  const int64_t threads = flags.GetInt("threads", def);
  if (threads < 0) {
    std::fprintf(stderr,
                 "error: --threads must be >= 0 (got %ld); 0 selects hardware "
                 "concurrency\n",
                 static_cast<long>(threads));
    std::exit(1);
  }
  return static_cast<int>(threads);
}

// Parses the flags shared by every bench binary and configures the global
// thread pool. `--threads=N` sets the sweep/kernel execution width (default:
// hardware concurrency). Determinism guarantee: every parallel loop in the
// library reduces in a fixed order, so all modeled numbers and functional
// outputs are bit-identical for any N — --threads only changes wall-clock.
//
// `--trace=FILE` turns tracing on for the whole run and writes a Chrome
// trace-event JSON (Perfetto / chrome://tracing) at exit. Note traced runs
// pay the recording overhead inside timed regions; perf_regression instead
// keeps its timing loop untraced and records a separate traced pass.
inline CliFlags BenchInit(int argc, char** argv) {
  CliFlags flags(argc, argv);
  flags.RestrictTo({"threads", "trace"});
  ThreadPool::SetGlobalThreads(ThreadsFlag(flags, 0));
  const std::string trace_path = flags.GetString("trace", "");
  if (!trace_path.empty()) {
    obs::EnableTracingToFileAtExit(trace_path);
  }
  return flags;
}

inline SpmmProblem MakeProblem(int64_t m, int64_t k, int64_t n, double sparsity) {
  SpmmProblem p;
  p.m = m;
  p.k = k;
  p.n = n;
  p.sparsity = sparsity;
  return p;
}

// Modeled kernel time in microseconds.
inline double ModeledTimeUs(const std::string& kernel, const SpmmProblem& p,
                            const DeviceSpec& dev) {
  return MakeKernel(kernel)->Estimate(p, dev).time.total_us;
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

// --- Wall-clock perf-smoke helpers (bench/perf_regression.cc) ---------------

// One timed bench point: best-of-`repetitions` wall time at `threads` width.
struct BenchRecord {
  std::string name;
  double wall_ms = 0.0;
  int repetitions = 0;
  int threads = 0;
};

// Runs `fn` once untimed (warm-up) and then `reps` timed repetitions,
// returning the minimum wall time in milliseconds. Minimum — not mean — so a
// background hiccup on a shared runner cannot masquerade as a regression.
inline double MinWallMs(int reps, const std::function<void()>& fn) {
  SPINFER_CHECK(reps >= 1);
  fn();  // warm-up: first-touch page faults, lazy statics
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    const double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (r == 0 || ms < best) {
      best = ms;
    }
  }
  return best;
}

// As above, additionally recording every timed repetition (not the warm-up)
// into `hist` so a metrics dump carries the per-rep distribution (p50/p95)
// next to the best-of summary. Timing behaviour is identical.
inline double MinWallMs(int reps, const std::function<void()>& fn,
                        obs::Histogram* hist) {
  SPINFER_CHECK(reps >= 1);
  fn();
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    const double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (hist != nullptr) {
      hist->Record(ms);
    }
    if (r == 0 || ms < best) {
      best = ms;
    }
  }
  return best;
}

// Buckets for per-bench wall-time histograms: 1µs .. ~16s, x2 per bucket.
inline std::vector<double> BenchWallMsBuckets() {
  return obs::Histogram::ExponentialBuckets(0.001, 2.0, 24);
}

// Runs `fn` once with tracing enabled, the whole run wrapped in a span named
// `bench.<name>`. Used by perf_regression's --trace mode so the timed
// repetitions stay untraced while the trace still covers every bench.
inline void RunTracedOnce(const std::string& name,
                          const std::function<void()>& fn) {
  obs::Tracer& tracer = obs::Tracer::Global();
  const char* span = tracer.InternName("bench." + name);
  tracer.Start();
  {
    obs::TraceScope scope(span);
    fn();
  }
  tracer.Stop();
}

// Writes the records as a JSON object keyed by bench name, e.g.
//   {"spinfer_functional": {"wall_ms": 12.3, "repetitions": 5, "threads": 1}}
// The flat name->metrics shape is the contract future PRs diff against; add
// keys freely, never repurpose existing ones.
inline void WriteBenchJson(const std::string& path,
                           const std::vector<BenchRecord>& records) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  SPINFER_CHECK_MSG(f != nullptr, "cannot open bench output file");
  std::fprintf(f, "{\n");
  for (size_t i = 0; i < records.size(); ++i) {
    const BenchRecord& r = records[i];
    std::fprintf(f,
                 "  \"%s\": {\"wall_ms\": %.6f, \"repetitions\": %d, "
                 "\"threads\": %d}%s\n",
                 r.name.c_str(), r.wall_ms, r.repetitions, r.threads,
                 i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "}\n");
  SPINFER_CHECK_MSG(std::fclose(f) == 0, "cannot write bench output file");
}

}  // namespace spinfer
