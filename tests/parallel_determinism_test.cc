// Determinism of every parallel loop in the library: the same inputs must
// produce bit-identical outputs and identical PerfCounters no matter how many
// threads the global pool runs (--threads in the benches). This is the
// enforcement half of the ParallelFor determinism contract documented in
// src/util/thread_pool.h.
#include "src/util/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "src/baselines/kernel_registry.h"
#include "src/core/spinfer_kernel.h"
#include "src/format/tca_bme.h"
#include "src/obs/metrics.h"
#include "src/pruning/magnitude.h"
#include "src/pruning/sparsegpt.h"
#include "src/pruning/wanda.h"
#include "src/util/random.h"

namespace spinfer {
namespace {

const std::vector<int>& ThreadWidths() {
  static const std::vector<int> kWidths = {1, 2, 8};
  return kWidths;
}

bool BitIdentical(const FloatMatrix& a, const FloatMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), sizeof(float) * static_cast<size_t>(a.size())) ==
             0;
}

bool BitIdentical(const HalfMatrix& a, const HalfMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), sizeof(Half) * static_cast<size_t>(a.size())) ==
             0;
}

// --- ThreadPool / ParallelFor unit behaviour -------------------------------

TEST(ThreadPoolTest, EveryIndexRunsExactlyOnce) {
  ThreadPool pool(8);
  constexpr int64_t kCount = 10000;
  std::vector<int> hits(kCount, 0);  // disjoint writes, safe without atomics
  pool.ParallelFor(0, kCount, [&](int64_t i) { hits[static_cast<size_t>(i)] += 1; });
  for (int64_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(hits[static_cast<size_t>(i)], 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, EmptyAndSingletonRanges) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.ParallelFor(5, 5, [&](int64_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
  pool.ParallelFor(7, 8, [&](int64_t i) {
    EXPECT_EQ(i, 7);
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ThreadPoolTest, NestedParallelForCompletes) {
  ThreadPool pool(4);
  constexpr int64_t kOuter = 16;
  constexpr int64_t kInner = 64;
  std::vector<int> hits(kOuter * kInner, 0);
  pool.ParallelFor(0, kOuter, [&](int64_t o) {
    pool.ParallelFor(0, kInner,
                     [&](int64_t i) { hits[static_cast<size_t>(o * kInner + i)] += 1; });
  });
  for (size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i], 1) << "slot " << i;
  }
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  pool.ParallelFor(0, 32, [&](int64_t) { EXPECT_EQ(std::this_thread::get_id(), caller); });
}

TEST(ThreadPoolTest, LargeGrainStillCoversRange) {
  ThreadPool pool(4);
  std::vector<int> hits(100, 0);
  pool.ParallelFor(0, 100, [&](int64_t i) { hits[static_cast<size_t>(i)] += 1; },
                   /*grain=*/1000);
  for (size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i], 1);
  }
}

// The team runs one loop at a time; a caller that finds it busy runs its
// loop inline. Four callers contending for one team must each still see
// every index of every call run exactly once.
TEST(ThreadPoolTest, ConcurrentCallersEachRunEveryIndexOnce) {
  ThreadPool pool(4);
  constexpr int kCallers = 4;
  constexpr int kCalls = 200;
  constexpr int64_t kRange = 256;
  std::vector<int> bad_calls(kCallers, 0);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      const int64_t base = c * kRange;  // each caller's own index range
      std::vector<int> hits(kRange);
      for (int call = 0; call < kCalls; ++call) {
        std::fill(hits.begin(), hits.end(), 0);
        pool.ParallelFor(base, base + kRange,
                         [&](int64_t i) { hits[static_cast<size_t>(i - base)] += 1; });
        if (std::count(hits.begin(), hits.end(), 1) != kRange) {
          bad_calls[static_cast<size_t>(c)] += 1;
        }
      }
    });
  }
  for (std::thread& t : callers) {
    t.join();
  }
  for (int c = 0; c < kCallers; ++c) {
    EXPECT_EQ(bad_calls[static_cast<size_t>(c)], 0) << "caller " << c;
  }
}

TEST(ThreadPoolTest, NestedParallelForRunsOnItsIssuingThread) {
  ThreadPool pool(4);
  constexpr int64_t kOuter = 16;
  constexpr int64_t kInner = 64;
  std::vector<std::thread::id> outer(kOuter);
  std::vector<std::thread::id> inner(kOuter * kInner);
  pool.ParallelFor(
      0, kOuter,
      [&](int64_t o) {
        outer[static_cast<size_t>(o)] = std::this_thread::get_id();
        pool.ParallelFor(0, kInner, [&](int64_t i) {
          inner[static_cast<size_t>(o * kInner + i)] = std::this_thread::get_id();
        });
      },
      /*grain=*/1);
  for (int64_t o = 0; o < kOuter; ++o) {
    for (int64_t i = 0; i < kInner; ++i) {
      ASSERT_EQ(inner[static_cast<size_t>(o * kInner + i)],
                outer[static_cast<size_t>(o)])
          << "outer " << o << ", inner " << i;
    }
  }
}

// Start-up and shutdown race the workers' first and last looks at the
// team; one distributed loop per pool puts a loop between them.
TEST(ThreadPoolTest, BuildAndDestroyRepeatedly) {
  for (int round = 0; round < 200; ++round) {
    ThreadPool pool(4);
    std::vector<int> hits(64, 0);
    pool.ParallelFor(0, 64, [&](int64_t i) { hits[static_cast<size_t>(i)] += 1; },
                     /*grain=*/1);
    ASSERT_EQ(std::count(hits.begin(), hits.end(), 1), 64) << "round " << round;
  }
}

TEST(ThreadPoolDeathTest, NegativeWidthIsCheckFailure) {
  EXPECT_DEATH(ThreadPool(-4), "num_threads >= 0");
}

// --- Scheduling statistics (src/util/thread_pool.h Stats) ------------------

TEST(ThreadPoolStatsTest, InlinePathsAreCountedExactly) {
  ThreadPool pool(1);
  const ThreadPool::Stats zero = pool.stats();
  EXPECT_EQ(zero.parallel_fors, 0u);
  EXPECT_EQ(zero.tasks_inline, 0u);

  std::atomic<int> calls{0};
  pool.ParallelFor(0, 100, [&](int64_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 100);

  // Width 1 is fully inline: no task ever reaches a queue.
  const ThreadPool::Stats s = pool.stats();
  EXPECT_EQ(s.parallel_fors, 1u);
  EXPECT_EQ(s.parallel_fors_inline, 1u);
  EXPECT_EQ(s.tasks_submitted, 0u);
  EXPECT_EQ(s.tasks_popped, 0u);
  EXPECT_EQ(s.tasks_stolen, 0u);
}

TEST(ThreadPoolStatsTest, DistributedParallelForAccountsHelperTasks) {
  ThreadPool pool(4);
  std::vector<int> hits(4096, 0);
  pool.ParallelFor(0, 4096, [&](int64_t i) { hits[static_cast<size_t>(i)] += 1; },
                   /*grain=*/16);
  for (size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i], 1) << "index " << i;
  }

  ThreadPool::Stats s = pool.stats();
  EXPECT_EQ(s.parallel_fors, 1u);
  EXPECT_EQ(s.parallel_fors_inline, 0u);
  // One helper task per worker (the caller is the fourth lane), all queued.
  EXPECT_EQ(s.tasks_submitted, 3u);
  EXPECT_EQ(s.tasks_inline, 0u);
  // Workers may still be draining the last helper tasks; what has been
  // consumed so far was either popped or stolen, never more than submitted.
  EXPECT_LE(s.tasks_popped + s.tasks_stolen, s.tasks_submitted);

  // A range that fits in one chunk takes the inline fast path even on a
  // wide pool; the counters are cumulative.
  std::atomic<int> calls{0};
  pool.ParallelFor(0, 10, [&](int64_t) { calls.fetch_add(1); }, /*grain=*/100);
  EXPECT_EQ(calls.load(), 10);
  s = pool.stats();
  EXPECT_EQ(s.parallel_fors, 2u);
  EXPECT_EQ(s.parallel_fors_inline, 1u);
  EXPECT_EQ(s.tasks_submitted, 3u);
}

TEST(ThreadPoolStatsTest, PublishMetricsExportsGaugesToRegistry) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  reg.ResetForTest();

  // Width 1 so every counter is quiescent and exact at publish time.
  ThreadPool pool(1);
  std::atomic<int> calls{0};
  pool.ParallelFor(0, 64, [&](int64_t) { calls.fetch_add(1); });
  pool.PublishMetrics();  // nullptr = the global registry

  EXPECT_EQ(reg.GetGauge("threadpool.num_threads")->Value(), 1.0);
  EXPECT_EQ(reg.GetGauge("threadpool.parallel_fors")->Value(), 1.0);
  EXPECT_EQ(reg.GetGauge("threadpool.parallel_fors_inline")->Value(), 1.0);
  EXPECT_EQ(reg.GetGauge("threadpool.tasks_submitted")->Value(), 0.0);
  EXPECT_EQ(reg.GetGauge("threadpool.tasks_popped")->Value(), 0.0);
  EXPECT_EQ(reg.GetGauge("threadpool.tasks_stolen")->Value(), 0.0);

  // Re-publishing overwrites (gauges, not counters): totals must not double.
  pool.PublishMetrics();
  EXPECT_EQ(reg.GetGauge("threadpool.parallel_fors")->Value(), 1.0);
  reg.ResetForTest();
}

// --- Functional kernels ----------------------------------------------------

// Runs `name` on the same (w, x) at every thread width and requires the
// output matrix and counters to match the width-1 run exactly.
void ExpectKernelDeterministic(const std::string& name, const HalfMatrix& w,
                               const HalfMatrix& x) {
  FloatMatrix base_out;
  PerfCounters base_counters;
  for (int threads : ThreadWidths()) {
    ThreadPool::SetGlobalThreads(threads);
    PerfCounters counters;
    const FloatMatrix out = MakeKernel(name)->Run(w, x, &counters);
    if (threads == ThreadWidths().front()) {
      base_out = out;
      base_counters = counters;
      continue;
    }
    EXPECT_TRUE(BitIdentical(out, base_out)) << name << " at " << threads << " threads";
    EXPECT_TRUE(counters == base_counters)
        << name << " counters at " << threads << " threads:\n got "
        << counters.ToString() << "\nwant " << base_counters.ToString();
  }
  ThreadPool::SetGlobalThreads(1);
}

TEST(ParallelDeterminismTest, BaselineKernels) {
  Rng rng(2024);
  const HalfMatrix w = HalfMatrix::RandomSparse(192, 256, 0.6, rng);
  const HalfMatrix x = HalfMatrix::Random(256, 24, rng, 0.5f);
  for (const char* name : {"flash_llm", "smat", "sparta", "sputnik", "cusparse"}) {
    ExpectKernelDeterministic(name, w, x);
  }
}

TEST(ParallelDeterminismTest, SpInferKernelIncludingSplitK) {
  Rng rng(2025);
  const HalfMatrix w = HalfMatrix::RandomSparse(192, 384, 0.6, rng);
  const HalfMatrix x = HalfMatrix::Random(384, 16, rng, 0.5f);
  for (int split_k : {1, 3}) {
    SpInferKernelConfig cfg;
    cfg.split_k = split_k;
    const SpInferSpmmKernel kernel(cfg);
    FloatMatrix base_out;
    PerfCounters base_counters;
    for (int threads : ThreadWidths()) {
      ThreadPool::SetGlobalThreads(threads);
      PerfCounters counters;
      const FloatMatrix out = kernel.Run(w, x, &counters);
      if (threads == ThreadWidths().front()) {
        base_out = out;
        base_counters = counters;
        continue;
      }
      EXPECT_TRUE(BitIdentical(out, base_out))
          << "split_k=" << split_k << " at " << threads << " threads";
      EXPECT_TRUE(counters == base_counters)
          << "split_k=" << split_k << " counters at " << threads << " threads:\n got "
          << counters.ToString() << "\nwant " << base_counters.ToString();
    }
  }
  ThreadPool::SetGlobalThreads(1);
}

TEST(ParallelDeterminismTest, ReferenceGemm) {
  Rng rng(2026);
  const HalfMatrix w = HalfMatrix::RandomSparse(150, 130, 0.5, rng);
  const HalfMatrix x = HalfMatrix::Random(130, 9, rng, 0.5f);
  FloatMatrix base;
  for (int threads : ThreadWidths()) {
    ThreadPool::SetGlobalThreads(threads);
    const FloatMatrix out = ReferenceGemm(w, x);
    if (threads == ThreadWidths().front()) {
      base = out;
      continue;
    }
    EXPECT_TRUE(BitIdentical(out, base)) << threads << " threads";
  }
  ThreadPool::SetGlobalThreads(1);
}

// --- TCA-BME encoder -------------------------------------------------------

TEST(ParallelDeterminismTest, EncoderArraysIdentical) {
  Rng rng(2027);
  // Ragged shape on purpose: padding rows/cols exercise the per-row
  // alignment bookkeeping in the two-phase encoder.
  const HalfMatrix w = HalfMatrix::RandomSparse(200, 170, 0.65, rng);
  ThreadPool::SetGlobalThreads(1);
  const TcaBmeMatrix base = TcaBmeMatrix::Encode(w);
  for (int threads : ThreadWidths()) {
    ThreadPool::SetGlobalThreads(threads);
    const TcaBmeMatrix enc = TcaBmeMatrix::Encode(w);
    EXPECT_EQ(enc.nnz(), base.nnz()) << threads << " threads";
    EXPECT_EQ(enc.gtile_offsets(), base.gtile_offsets()) << threads << " threads";
    EXPECT_EQ(enc.bitmaps(), base.bitmaps()) << threads << " threads";
    ASSERT_EQ(enc.values().size(), base.values().size()) << threads << " threads";
    for (size_t i = 0; i < enc.values().size(); ++i) {
      ASSERT_EQ(enc.values()[i].bits(), base.values()[i].bits())
          << "value " << i << " at " << threads << " threads";
    }
  }
  ThreadPool::SetGlobalThreads(1);
}

// --- Pruners ---------------------------------------------------------------

TEST(ParallelDeterminismTest, PrunersIdentical) {
  Rng rng(2028);
  const int64_t rows = 96;
  const int64_t cols = 64;
  const HalfMatrix w = HalfMatrix::Random(rows, cols, rng, 1.0f);

  std::vector<float> norms(static_cast<size_t>(cols));
  for (size_t i = 0; i < norms.size(); ++i) {
    norms[i] = 0.5f + 0.01f * static_cast<float>(i);
  }
  const int64_t samples = 32;
  std::vector<float> calib(static_cast<size_t>(samples * cols));
  Rng crng(7);
  for (float& v : calib) {
    v = static_cast<float>(crng.Gaussian());
  }

  const MagnitudePruner magnitude;
  const WandaPruner wanda(norms);
  const SparseGptPruner sparsegpt(calib, samples, cols, 0.01);
  const Pruner* pruners[] = {&magnitude, &wanda, &sparsegpt};
  const char* names[] = {"magnitude", "wanda", "sparsegpt"};

  for (size_t pi = 0; pi < 3; ++pi) {
    HalfMatrix base;
    for (int threads : ThreadWidths()) {
      ThreadPool::SetGlobalThreads(threads);
      const HalfMatrix pruned = pruners[pi]->Prune(w, 0.6);
      if (threads == ThreadWidths().front()) {
        base = pruned;
        continue;
      }
      EXPECT_TRUE(BitIdentical(pruned, base))
          << names[pi] << " at " << threads << " threads";
    }
  }
  ThreadPool::SetGlobalThreads(1);
}

}  // namespace
}  // namespace spinfer
