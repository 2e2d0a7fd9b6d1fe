// Differential and property tests for the executing serving engine.
//
// The load-bearing claims, each enforced here:
//   * Batched continuous decode is bit-identical, per sequence, to running
//     the same sequences alone — for ragged contexts, any batch size, and
//     any thread count (the SpMM backend's per-column determinism composed
//     with per-sequence paged attention).
//   * The paged KV decode path reproduces full-recompute Generate bitwise.
//   * The engine's report is byte-stable across reruns and thread counts.
//   * The scheduler conserves requests, admits strict-FIFO, respects the KV
//     commitment cap, and matches the analytic simulator on its common
//     domain to floating-point accuracy at 1, 2 and 4 GPUs; the GPU count
//     moves the clock and no token.
#include "src/llm/serving_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "src/gpusim/device_spec.h"
#include "src/llm/serving.h"
#include "src/llm/tiny_transformer.h"
#include "src/pruning/magnitude.h"
#include "src/util/random.h"
#include "src/util/thread_pool.h"

namespace spinfer {
namespace {

TinyConfig TestModelConfig() {
  TinyConfig cfg;  // vocab 256, hidden 64, layers 2, heads 4, ffn 256, seq 64
  return cfg;
}

TinyTransformer MakePrunedModel(uint64_t seed = 7) {
  TinyTransformer model(TestModelConfig(), seed);
  model.PruneWeights(MagnitudePruner(), 0.6);
  return model;
}

std::vector<int32_t> RandomPrompt(Rng& rng, int64_t len, int64_t vocab) {
  std::vector<int32_t> p(static_cast<size_t>(len));
  for (int32_t& t : p) {
    t = static_cast<int32_t>(rng.Below(static_cast<uint64_t>(vocab)));
  }
  return p;
}

struct DecodeTrace {
  std::vector<int32_t> tokens;             // generated tokens, prefill first
  std::vector<std::vector<float>> logits;  // per decode step, vocab floats
};

// Runs `prompt` alone: prefill then `steps` batch-1 decode iterations against
// a private cache.
DecodeTrace RunSingle(const TinyTransformer& model,
                      const std::vector<int32_t>& prompt, int steps,
                      MatmulBackend backend) {
  PagedKvCache cache(model.KvCacheConfig(/*block_tokens=*/8, /*num_blocks=*/32));
  EXPECT_TRUE(cache.AddSequence(0, static_cast<int64_t>(prompt.size())));
  DecodeTrace trace;
  trace.tokens.push_back(model.Prefill(prompt, backend, &cache, 0));
  std::vector<int32_t> next;
  FloatMatrix logits;
  for (int s = 0; s < steps; ++s) {
    model.MixedStep({0}, {trace.tokens.back()}, {}, backend, &cache, &next,
                    nullptr, &logits);
    trace.tokens.push_back(next[0]);
    trace.logits.emplace_back(logits.data(), logits.data() + logits.size());
  }
  return trace;
}

// Runs all prompts together through one cache: prefills in order, then
// `steps` batched decode iterations.
std::vector<DecodeTrace> RunBatched(const TinyTransformer& model,
                                    const std::vector<std::vector<int32_t>>& prompts,
                                    int steps, MatmulBackend backend) {
  const int64_t n = static_cast<int64_t>(prompts.size());
  PagedKvCache cache(model.KvCacheConfig(/*block_tokens=*/8,
                                         /*num_blocks=*/16 * n));
  std::vector<DecodeTrace> traces(static_cast<size_t>(n));
  std::vector<int64_t> ids;
  std::vector<int32_t> last;
  for (int64_t i = 0; i < n; ++i) {
    EXPECT_TRUE(
        cache.AddSequence(i, static_cast<int64_t>(prompts[i].size())));
    traces[i].tokens.push_back(model.Prefill(prompts[i], backend, &cache, i));
    ids.push_back(i);
    last.push_back(traces[i].tokens.back());
  }
  std::vector<int32_t> next;
  FloatMatrix logits;
  for (int s = 0; s < steps; ++s) {
    model.MixedStep(ids, last, {}, backend, &cache, &next, nullptr, &logits);
    for (int64_t i = 0; i < n; ++i) {
      traces[i].tokens.push_back(next[i]);
      traces[i].logits.emplace_back(logits.data() + i * logits.cols(),
                                    logits.data() + (i + 1) * logits.cols());
      last[i] = next[i];
    }
  }
  return traces;
}

bool BitIdentical(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// The tentpole differential test: a sequence's token stream AND its logits
// are bit-identical whether it decodes alone or inside any ragged batch, at
// any thread count.
TEST(ServingEngineTest, BatchedDecodeBitIdenticalToSingleSequence) {
  const TinyTransformer model = MakePrunedModel();
  Rng rng(11);
  const std::vector<int64_t> prompt_lens = {3, 9, 16, 5, 12, 7, 20, 4};
  std::vector<std::vector<int32_t>> prompts;
  for (int64_t len : prompt_lens) {
    prompts.push_back(RandomPrompt(rng, len, model.config().vocab));
  }
  const int kSteps = 10;

  // Reference: every sequence alone, single-threaded.
  ThreadPool::SetGlobalThreads(1);
  std::vector<DecodeTrace> singles;
  for (const auto& p : prompts) {
    singles.push_back(RunSingle(model, p, kSteps, MatmulBackend::kTcaBmeCpu));
  }

  for (int threads : {1, 2, 8}) {
    ThreadPool::SetGlobalThreads(threads);
    for (size_t batch : {size_t(2), size_t(3), prompts.size()}) {
      const std::vector<std::vector<int32_t>> subset(prompts.begin(),
                                                     prompts.begin() + batch);
      const std::vector<DecodeTrace> batched =
          RunBatched(model, subset, kSteps, MatmulBackend::kTcaBmeCpu);
      for (size_t i = 0; i < batch; ++i) {
        EXPECT_EQ(batched[i].tokens, singles[i].tokens)
            << "threads=" << threads << " batch=" << batch << " seq=" << i;
        ASSERT_EQ(batched[i].logits.size(), singles[i].logits.size());
        for (size_t s = 0; s < batched[i].logits.size(); ++s) {
          EXPECT_TRUE(BitIdentical(batched[i].logits[s], singles[i].logits[s]))
              << "threads=" << threads << " batch=" << batch << " seq=" << i
              << " step=" << s;
        }
      }
    }
  }
  ThreadPool::SetGlobalThreads(0);
}

// The paged KV decode path is exactly the full-recompute path: causal
// attention means position t's activations never depend on later positions,
// and the cache stores each K/V column's FP16 rounding, which Forward's
// attention applies too.
TEST(ServingEngineTest, KvDecodeMatchesFullRecomputeGenerate) {
  const TinyTransformer model = MakePrunedModel();
  Rng rng(23);
  for (MatmulBackend backend :
       {MatmulBackend::kTcaBmeCpu, MatmulBackend::kDense}) {
    const std::vector<int32_t> prompt =
        RandomPrompt(rng, 10, model.config().vocab);
    const int kSteps = 12;
    const std::vector<int32_t> reference =
        model.Generate(prompt, kSteps + 1, backend);
    const DecodeTrace paged = RunSingle(model, prompt, kSteps, backend);
    const std::vector<int32_t> generated(reference.begin() + prompt.size(),
                                         reference.end());
    EXPECT_EQ(paged.tokens, generated);
  }
}

// GQA single-instance serving reproduces full-recompute Generate — the
// grouped-kv read indexing in both Forward and the paged decode agree.
TEST(ServingEngineTest, GqaServingMatchesGenerate) {
  TinyConfig gqa = TestModelConfig();
  gqa.kv_heads = 2;  // grouped-query: 4 query heads share 2 kv heads
  TinyTransformer model(gqa, 7);
  model.PruneWeights(MagnitudePruner(), 0.6);
  Rng rng(13);
  std::vector<int32_t> prompt(9);
  for (int32_t& t : prompt) {
    t = static_cast<int32_t>(rng.Below(256));
  }
  const int kSteps = 8;
  const std::vector<int32_t> full =
      model.Generate(prompt, kSteps, MatmulBackend::kTcaBmeCpu);

  PagedKvCache cache(model.KvCacheConfig(8, 32));
  ASSERT_TRUE(cache.AddSequence(0, static_cast<int64_t>(prompt.size())));
  std::vector<int32_t> stream = {
      model.Prefill(prompt, MatmulBackend::kTcaBmeCpu, &cache, 0)};
  std::vector<int32_t> next;
  for (int s = 1; s < kSteps; ++s) {
    model.MixedStep({0}, {stream.back()}, {}, MatmulBackend::kTcaBmeCpu,
                    &cache, &next, nullptr);
    stream.push_back(next[0]);
  }
  const std::vector<int32_t> tail(full.begin() + prompt.size(), full.end());
  EXPECT_EQ(stream, tail);
}

// Forward (the oracle) and the step body share one unembedding: a decode
// step's logits rows are bitwise Forward's last-row logits over the same
// context, on both backends, alone and in a batch of 8.
TEST(ServingEngineTest, StepLogitsEqualForwardBitwise) {
  const TinyTransformer model = MakePrunedModel();
  Rng rng(41);
  std::vector<std::vector<int32_t>> prompts;
  for (int64_t len : {5, 11, 3, 8, 14, 6, 9, 4}) {
    prompts.push_back(RandomPrompt(rng, len, model.config().vocab));
  }
  const int kSteps = 3;
  for (MatmulBackend backend :
       {MatmulBackend::kTcaBmeCpu, MatmulBackend::kDense}) {
    for (size_t batch : {size_t(1), prompts.size()}) {
      const std::vector<std::vector<int32_t>> subset(prompts.begin(),
                                                     prompts.begin() + batch);
      const std::vector<DecodeTrace> traces =
          RunBatched(model, subset, kSteps, backend);
      for (size_t i = 0; i < batch; ++i) {
        for (int s = 0; s < kSteps; ++s) {
          std::vector<int32_t> context = subset[i];
          context.insert(context.end(), traces[i].tokens.begin(),
                         traces[i].tokens.begin() + s + 1);
          const FloatMatrix full = model.Forward(context, backend);
          const std::vector<float> last(
              full.data() + (full.rows() - 1) * full.cols(),
              full.data() + full.size());
          EXPECT_TRUE(BitIdentical(traces[i].logits[static_cast<size_t>(s)],
                                   last))
              << "batch=" << batch << " seq=" << i << " step=" << s;
        }
      }
    }
  }
}

// After one warmup pass at the serving shapes, further decode steps perform
// zero heap allocations in the matmul path.
TEST(ServingEngineTest, DecodeStepAllocationFreeAfterWarmup) {
  const TinyTransformer model = MakePrunedModel();
  Rng rng(5);
  std::vector<std::vector<int32_t>> prompts;
  for (int i = 0; i < 8; ++i) {
    prompts.push_back(RandomPrompt(rng, 8, model.config().vocab));
  }
  PagedKvCache cache(model.KvCacheConfig(8, 64));
  std::vector<int64_t> ids;
  std::vector<int32_t> last;
  for (int64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(cache.AddSequence(i, 8));
    ids.push_back(i);
    last.push_back(model.Prefill(prompts[static_cast<size_t>(i)],
                                 MatmulBackend::kTcaBmeCpu, &cache, i));
  }
  const std::vector<int32_t> first = last;
  auto run_steps = [&](int n, std::vector<int32_t> cur) {
    std::vector<std::vector<int32_t>> streams(8);
    std::vector<int32_t> next;
    for (int s = 0; s < n; ++s) {
      model.MixedStep(ids, cur, {}, MatmulBackend::kTcaBmeCpu, &cache, &next,
                      nullptr);
      for (size_t i = 0; i < 8; ++i) {
        streams[i].push_back(next[i]);
      }
      cur = next;
    }
    return streams;
  };
  // Warmup pass: grows scratch to the batch-8 shapes, including the scores
  // buffer at the deepest context reached.
  const auto warm = run_steps(8, first);
  // Rewind the cache to the post-prefill state (the bench harness does the
  // same between reps) and replay: every shape has been seen, so the matmul
  // path must not allocate at all.
  for (int64_t i = 0; i < 8; ++i) {
    cache.TruncateSequence(i, 8);
  }
  const int64_t grow_before = model.MatmulScratchGrowCount();
  const uint64_t capacity_before = model.MatmulScratchCapacityBytes();
  const auto again = run_steps(8, first);
  EXPECT_EQ(model.MatmulScratchGrowCount(), grow_before);
  EXPECT_EQ(model.MatmulScratchCapacityBytes(), capacity_before);
  // Rewind + replay reproduces the streams exactly.
  EXPECT_EQ(again, warm);
}

ServingEngineConfig TestEngineConfig(const TinyConfig& model_cfg) {
  ServingEngineConfig cfg;
  cfg.max_batch = 4;
  cfg.kv_block_tokens = 8;
  cfg.kv_num_blocks = 32;
  cfg.cost.model = ModelConfigFor(model_cfg);
  cfg.cost.framework = Framework::kSpInfer;
  cfg.cost.device = Rtx4090();
  cfg.cost.sparsity = 0.6;
  return cfg;
}

PoissonTraffic RaggedTraffic(uint64_t seed) {
  PoissonTraffic t;
  t.arrival_rate_rps = 40.0;
  t.horizon_s = 1.0;
  t.seed = seed;
  t.prompt_len_min = 4;
  t.prompt_len_max = 12;
  t.max_new_min = 4;
  t.max_new_max = 10;
  return t;
}

// Identical per-request token streams and a byte-identical report for a
// fixed seed, across reruns and across thread counts.
TEST(ServingEngineTest, ReportByteStableAcrossRerunsAndThreads) {
  const TinyTransformer model = MakePrunedModel();
  auto run = [&]() {
    ServingEngine engine(&model, TestEngineConfig(model.config()));
    engine.InjectPoissonArrivals(RaggedTraffic(42));
    const ExecServingReport report = engine.Run();
    return std::make_pair(report.ToString(), engine.results());
  };

  ThreadPool::SetGlobalThreads(1);
  const auto baseline = run();
  EXPECT_GT(baseline.second.size(), 10u);

  for (int threads : {1, 2, 8}) {
    ThreadPool::SetGlobalThreads(threads);
    const auto other = run();
    EXPECT_EQ(other.first, baseline.first) << "threads=" << threads;
    ASSERT_EQ(other.second.size(), baseline.second.size());
    for (size_t i = 0; i < baseline.second.size(); ++i) {
      EXPECT_EQ(other.second[i].generated, baseline.second[i].generated)
          << "threads=" << threads << " id=" << i;
      EXPECT_EQ(other.second[i].reason, baseline.second[i].reason);
      EXPECT_DOUBLE_EQ(other.second[i].latency_ms,
                       baseline.second[i].latency_ms);
    }
  }
  ThreadPool::SetGlobalThreads(0);
}

// The serving step runs in the model's grow-only step scratch: once one
// serving run has warmed it, a second run over the same traffic allocates
// nothing there.
TEST(ServingEngineTest, WarmRunLeavesStepScratchUnchanged) {
  const TinyTransformer model = MakePrunedModel();
  const ServingEngineConfig cfg = TestEngineConfig(model.config());
  ThreadPool::SetGlobalThreads(1);
  const auto run = [&] {
    ServingEngine engine(&model, cfg);
    engine.InjectPoissonArrivals(RaggedTraffic(42));
    engine.Run();
  };
  run();
  const int64_t grows = model.MatmulScratchGrowCount();
  const uint64_t bytes = model.MatmulScratchCapacityBytes();
  run();
  EXPECT_EQ(model.MatmulScratchGrowCount(), grows);
  EXPECT_EQ(model.MatmulScratchCapacityBytes(), bytes);
  ThreadPool::SetGlobalThreads(0);
}

// EOS eviction frees the slot early and — because token streams are
// batch-composition-independent — every request's stream in the EOS run is
// exactly its baseline stream truncated at the first EOS occurrence.
TEST(ServingEngineTest, EosEvictsEarlyWithPrefixStreams) {
  const TinyTransformer model = MakePrunedModel();
  ServingEngineConfig cfg = TestEngineConfig(model.config());
  ServingEngine baseline(&model, cfg);
  baseline.InjectPoissonArrivals(RaggedTraffic(9));
  baseline.Run();

  // Pick an EOS token that actually occurs mid-stream somewhere.
  int32_t eos = -1;
  for (const RequestRecord& r : baseline.results()) {
    if (r.reason == FinishReason::kMaxTokens && r.generated.size() >= 3) {
      eos = r.generated[1];
      break;
    }
  }
  ASSERT_GE(eos, 0);

  cfg.eos_token = eos;
  ServingEngine engine(&model, cfg);
  engine.InjectPoissonArrivals(RaggedTraffic(9));
  const ExecServingReport report = engine.Run();

  int64_t eos_finishes = 0;
  ASSERT_EQ(engine.results().size(), baseline.results().size());
  for (size_t i = 0; i < engine.results().size(); ++i) {
    const RequestRecord& b = baseline.results()[i];
    const RequestRecord& r = engine.results()[i];
    std::vector<int32_t> expect = b.generated;
    const auto it = std::find(expect.begin(), expect.end(), eos);
    if (it != expect.end()) {
      expect.erase(it + 1, expect.end());
    }
    EXPECT_EQ(r.generated, expect) << "id=" << i;
    if (r.reason == FinishReason::kEos) {
      ++eos_finishes;
      EXPECT_EQ(r.generated.back(), eos);
      EXPECT_LE(r.generated.size(), b.generated.size());
    }
  }
  EXPECT_GT(eos_finishes, 0);
  EXPECT_EQ(report.completed + report.rejected, report.arrived);
}

// Scheduler properties over several seeds, under a deliberately tight KV
// pool so the commitment cap (not max_batch) gates admission.
TEST(ServingEngineTest, SchedulerPropertiesUnderKvPressure) {
  const TinyTransformer model = MakePrunedModel();
  for (uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    ServingEngineConfig cfg = TestEngineConfig(model.config());
    cfg.max_batch = 8;
    cfg.kv_num_blocks = 4;  // 32 token slots: 1-2 requests at a time
    ServingEngine engine(&model, cfg);
    engine.InjectPoissonArrivals(RaggedTraffic(seed));
    // A request whose footprint exceeds the whole pool must be rejected
    // without wedging the queue behind it.
    Rng poison_rng(seed + 77);
    engine.Submit(RandomPrompt(poison_rng, 20, model.config().vocab), 20, 0.25);
    const ExecServingReport report = engine.Run();

    // Conservation: every request finished one way or the other.
    EXPECT_EQ(report.completed + report.rejected, report.arrived);
    EXPECT_GE(report.rejected, 1);
    int64_t finished = 0;
    for (const RequestRecord& r : engine.results()) {
      EXPECT_NE(r.reason, FinishReason::kNone) << "id=" << r.id;
      if (r.reason == FinishReason::kMaxTokens) {
        EXPECT_EQ(static_cast<int64_t>(r.generated.size()), r.max_new_tokens);
      }
      ++finished;
    }
    EXPECT_EQ(finished, report.arrived);

    // Caps respected; pool fully reclaimed after drain.
    EXPECT_LE(report.peak_batch, cfg.max_batch);
    EXPECT_LE(report.peak_kv_blocks, cfg.kv_num_blocks);
    EXPECT_EQ(engine.kv_cache().free_blocks(), cfg.kv_num_blocks);
    EXPECT_EQ(engine.kv_cache().WastedTokenSlots(), 0);

    // Strict FIFO: admissions happen in (arrival, id) order — no starvation,
    // no skip-ahead.
    const std::vector<int64_t>& order = engine.admission_order();
    for (size_t i = 1; i < order.size(); ++i) {
      const RequestRecord& prev = engine.results()[order[i - 1]];
      const RequestRecord& cur = engine.results()[order[i]];
      EXPECT_TRUE(prev.arrival_s < cur.arrival_s ||
                  (prev.arrival_s == cur.arrival_s && prev.id < cur.id))
          << "admission out of FIFO order at position " << i;
    }
    EXPECT_EQ(static_cast<int64_t>(order.size()), report.completed);
  }
}

// The virtual clock mirrors SimulateServing's arithmetic expression for
// expression, so on the common domain (uniform shapes, no EOS, ample KV)
// the two reports agree to floating-point accuracy — including the
// p99 latency satellite — at 1, 2 and 4 GPUs. cost.num_gpus is the one
// tensor-parallel setting: it moves the clock (sharded linears and the
// per-layer all-reduces) and leaves every token stream the 1-GPU run's.
TEST(ServingEngineTest, MatchesAnalyticSimulatorOnCommonDomain) {
  const TinyTransformer model = MakePrunedModel();

  double one_gpu_sim_time_s = 0.0;
  std::vector<RequestRecord> one_gpu_results;
  for (const int gpus : {1, 2, 4}) {
    SCOPED_TRACE("num_gpus=" + std::to_string(gpus));
    ServingConfig sim;
    sim.engine.model = ModelConfigFor(model.config());
    sim.engine.framework = Framework::kSpInfer;
    sim.engine.device = Rtx4090();
    sim.engine.sparsity = 0.6;
    sim.engine.num_gpus = gpus;
    sim.arrival_rate_rps = 6.0;
    sim.input_len = 8;
    sim.output_len = 8;
    sim.sim_seconds = 4.0;
    sim.seed = 31;
    sim.max_batch = 4;
    const ServingReport analytic = SimulateServing(sim);
    // Guard the comparison's preconditions: the tiny model fits at the full
    // batch and the analytic run drains completely.
    ASSERT_EQ(analytic.feasible_batch, sim.max_batch);
    ASSERT_EQ(analytic.completed, analytic.arrived);
    ASSERT_GT(analytic.completed, 10);

    ServingEngineConfig cfg = TestEngineConfig(model.config());
    cfg.max_batch = sim.max_batch;
    cfg.kv_num_blocks = 64;  // ample: KV never gates admission
    cfg.cost = sim.engine;
    PoissonTraffic t;
    t.arrival_rate_rps = sim.arrival_rate_rps;
    t.horizon_s = sim.sim_seconds;
    t.seed = sim.seed;
    t.prompt_len_min = t.prompt_len_max = sim.input_len;
    t.max_new_min = t.max_new_max = sim.output_len;
    ServingEngine engine(&model, cfg);
    engine.InjectPoissonArrivals(t);
    const ExecServingReport exec = engine.Run();

    EXPECT_EQ(exec.arrived, analytic.arrived);
    EXPECT_EQ(exec.completed, analytic.completed);
    EXPECT_EQ(exec.rejected, 0);
    const double kRel = 1e-9;
    EXPECT_NEAR(exec.throughput_tps, analytic.throughput_tps,
                kRel * analytic.throughput_tps);
    EXPECT_NEAR(exec.mean_batch, analytic.mean_batch,
                kRel * analytic.mean_batch);
    EXPECT_NEAR(exec.latency.mean_ms, analytic.mean_latency_ms,
                kRel * analytic.mean_latency_ms);
    EXPECT_NEAR(exec.latency.p50_ms, analytic.p50_latency_ms,
                kRel * analytic.p50_latency_ms);
    EXPECT_NEAR(exec.latency.p95_ms, analytic.p95_latency_ms,
                kRel * analytic.p95_latency_ms);
    EXPECT_NEAR(exec.latency.p99_ms, analytic.p99_latency_ms,
                kRel * analytic.p99_latency_ms);

    if (gpus == 1) {
      one_gpu_sim_time_s = exec.sim_time_s;
      one_gpu_results = engine.results();
      continue;
    }
    EXPECT_NE(exec.sim_time_s, one_gpu_sim_time_s);
    ASSERT_EQ(engine.results().size(), one_gpu_results.size());
    for (size_t i = 0; i < one_gpu_results.size(); ++i) {
      EXPECT_EQ(engine.results()[i].generated, one_gpu_results[i].generated)
          << "id=" << i;
    }
  }
}

// A prompt token outside [0, vocab) is a request that can never run: it is
// rejected at admission instead of aborting the step that would embed it,
// and every other request still decodes its Generate stream. So is a budget
// whose sum with the prompt length would overflow.
TEST(ServingEngineTest, OutOfRangeTokenOrBudgetRejected) {
  const TinyTransformer model = MakePrunedModel();
  const int32_t vocab = static_cast<int32_t>(model.config().vocab);
  ServingEngine engine(&model, TestEngineConfig(model.config()));
  Rng rng(53);
  std::vector<std::vector<int32_t>> good;
  for (int i = 0; i < 3; ++i) {
    good.push_back(RandomPrompt(rng, 6 + i, vocab));
    engine.Submit(good.back(), 5, 0.0);
  }
  const int64_t past_end = engine.Submit({1, vocab, 3}, 5, 0.0);
  const int64_t negative = engine.Submit({-1, 2}, 5, 0.0);
  const int64_t huge_budget =
      engine.Submit(good[0], std::numeric_limits<int64_t>::max(), 0.0);
  const ExecServingReport report = engine.Run();
  EXPECT_EQ(report.rejected, 3);
  EXPECT_EQ(report.completed, 3);
  for (const int64_t id : {past_end, negative, huge_budget}) {
    EXPECT_EQ(engine.results()[static_cast<size_t>(id)].reason,
              FinishReason::kRejected);
  }
  for (size_t i = 0; i < good.size(); ++i) {
    const std::vector<int32_t> full =
        model.Generate(good[i], 5, MatmulBackend::kTcaBmeCpu);
    EXPECT_EQ(engine.results()[i].generated,
              std::vector<int32_t>(full.begin() + good[i].size(), full.end()))
        << "id=" << i;
  }
}

// An engine without a cost model would divide by its zero head count on the
// first priced step; it fails at construction with a named message instead.
TEST(ServingEngineDeathTest, UnsetCostModelFailsAtConstruction) {
  const TinyTransformer model = MakePrunedModel();
  ServingEngineConfig cfg = TestEngineConfig(model.config());
  cfg.cost.model = ModelConfig{};
  EXPECT_DEATH(ServingEngine(&model, cfg), "cost.model is unset");
  // A GPU count below 1 would divide by zero there too.
  cfg = TestEngineConfig(model.config());
  cfg.cost.num_gpus = 0;
  EXPECT_DEATH(ServingEngine(&model, cfg), "cost.num_gpus must be >= 1");
}

// Submit is thread-safe: concurrent producers, then one Run, loses nothing.
TEST(ServingEngineTest, ConcurrentSubmitLosesNoRequests) {
  const TinyTransformer model = MakePrunedModel();
  ServingEngineConfig cfg = TestEngineConfig(model.config());
  cfg.max_batch = 8;
  ServingEngine engine(&model, cfg);
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&engine, &model, w]() {
      Rng rng(100 + static_cast<uint64_t>(w));
      for (int i = 0; i < 8; ++i) {
        engine.Submit(RandomPrompt(rng, 6, model.config().vocab), 5, 0.0);
      }
    });
  }
  for (std::thread& t : workers) {
    t.join();
  }
  const ExecServingReport report = engine.Run();
  EXPECT_EQ(report.arrived, 32);
  EXPECT_EQ(report.completed, 32);
  EXPECT_EQ(report.rejected, 0);
  for (const RequestRecord& r : engine.results()) {
    EXPECT_EQ(r.reason, FinishReason::kMaxTokens);
    EXPECT_EQ(r.generated.size(), 5u);
  }
}

}  // namespace
}  // namespace spinfer
