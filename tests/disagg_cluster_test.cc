// Differential and edge tests for the executing disaggregated cluster.
//
// The load-bearing claims, each enforced here:
//   * On the lockstep domain (uniform shapes, simultaneous arrivals, an idle
//     prefill pool, one decode instance) the executing cluster reproduces
//     the analytic PlanDisaggregation report to <= 1e-9 relative: TTFT
//     (prefill + KV transfer), steady-state tpot at the planner's
//     mid-context, and decode throughput at the feasible batch.
//   * Execution is real: every request's token stream equals full-recompute
//     Generate bitwise, across the prefill -> migrate -> decode pipeline.
//   * Reports are byte-stable across reruns and thread counts, and pinned as
//     golden strings on multi-instance topologies beyond the lockstep domain.
//   * Degenerate topologies (no prefill pool, no decode pool) and unservable
//     requests reject gracefully — no UB, no CHECK crash.
#include "src/llm/disagg_cluster.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "src/gpusim/device_spec.h"
#include "src/llm/disaggregation.h"
#include "src/llm/tiny_transformer.h"
#include "src/pruning/magnitude.h"
#include "src/util/random.h"
#include "src/util/thread_pool.h"

namespace spinfer {
namespace {

constexpr int64_t kInputLen = 16;
constexpr int64_t kOutputLen = 8;
constexpr int64_t kBatch = 8;

TinyTransformer MakePrunedModel(uint64_t seed = 7) {
  TinyTransformer model(TinyConfig{}, seed);
  model.PruneWeights(MagnitudePruner(), 0.6);
  return model;
}

// The analytic plan whose numbers the executing cluster must reproduce.
DisaggConfig PlanConfig() {
  DisaggConfig cfg;
  cfg.model = Opt13B();
  cfg.framework = Framework::kSpInfer;
  cfg.sparsity = 0.6;
  cfg.prefill_device = Rtx4090();
  cfg.prefill_gpus = 1;
  cfg.decode_device = Rtx4090();
  cfg.decode_gpus = 1;
  cfg.request_rate_rps = 1.0;
  cfg.input_len = kInputLen;
  cfg.output_len = kOutputLen;
  cfg.max_decode_batch = kBatch;
  cfg.transfer_bw_gbs = 25.0;
  return cfg;
}

DisaggClusterConfig ClusterConfig() {
  const DisaggConfig plan = PlanConfig();
  DisaggClusterConfig cfg;
  // One idle prefill instance per request: all arrivals at t=0 prefill in
  // parallel, finish together, and get batch-admitted to decode in lockstep.
  cfg.prefill_instances = kBatch;
  cfg.decode_instances = 1;
  cfg.max_decode_batch = kBatch;
  cfg.kv_block_tokens = 8;
  cfg.kv_num_blocks = 64;
  cfg.prefill_cost.model = plan.model;
  cfg.prefill_cost.framework = plan.framework;
  cfg.prefill_cost.device = plan.prefill_device;
  cfg.prefill_cost.num_gpus = plan.prefill_gpus;
  cfg.prefill_cost.sparsity = plan.sparsity;
  cfg.decode_cost = cfg.prefill_cost;
  cfg.decode_cost.device = plan.decode_device;
  cfg.decode_cost.num_gpus = plan.decode_gpus;
  cfg.transfer_bw_gbs = plan.transfer_bw_gbs;
  return cfg;
}

std::vector<int32_t> RandomPrompt(Rng& rng, int64_t len, int64_t vocab) {
  std::vector<int32_t> p(static_cast<size_t>(len));
  for (int32_t& t : p) {
    t = static_cast<int32_t>(rng.Below(static_cast<uint64_t>(vocab)));
  }
  return p;
}

std::vector<std::vector<int32_t>> LockstepPrompts(const TinyTransformer& model) {
  Rng rng(23);
  std::vector<std::vector<int32_t>> prompts;
  for (int64_t i = 0; i < kBatch; ++i) {
    prompts.push_back(RandomPrompt(rng, kInputLen, model.config().vocab));
  }
  return prompts;
}

// The tentpole cross-check: executing TTFT, steady-state tpot, and decode
// throughput reproduce PlanDisaggregation to <= 1e-9 relative on the
// lockstep domain.
TEST(DisaggClusterTest, MatchesAnalyticPlannerOnLockstepDomain) {
  const TinyTransformer model = MakePrunedModel();
  const DisaggReport plan = PlanDisaggregation(PlanConfig());
  ASSERT_TRUE(plan.prefill_fits);
  ASSERT_TRUE(plan.decode_fits);
  // The comparison needs the executing batch to BE the planner's feasible
  // batch; the tiny pools and the scheduler cap both sit at kBatch.
  ASSERT_EQ(plan.decode_batch, kBatch);

  ThreadPool::SetGlobalThreads(1);
  DisaggCluster cluster(&model, ClusterConfig());
  for (const auto& p : LockstepPrompts(model)) {
    cluster.Submit(p, kOutputLen, /*arrival_s=*/0.0);
  }
  const DisaggClusterReport report = cluster.Run();
  ThreadPool::SetGlobalThreads(0);

  EXPECT_EQ(report.arrived, kBatch);
  EXPECT_EQ(report.completed, kBatch);
  EXPECT_EQ(report.rejected, 0);
  EXPECT_EQ(report.prefills, kBatch);
  EXPECT_EQ(report.migrations, kBatch);
  EXPECT_EQ(report.peak_decode_batch, kBatch);

  const double kRel = 1e-9;
  // TTFT: with an idle prefill instance per request, queueing is zero and
  // the executing TTFT is exactly prefill_ms + kv_transfer_ms.
  for (const RequestRecord& r : cluster.results()) {
    EXPECT_NEAR(r.ttft_ms, plan.ttft_ms, kRel * plan.ttft_ms) << "id=" << r.id;
  }
  EXPECT_NEAR(report.ttft.mean_ms, plan.ttft_ms, kRel * plan.ttft_ms);

  // Steady state: the decode iteration whose mean context equals the
  // planner's mid-context (input + output/2) must price exactly the
  // planner's tpot, and its throughput is the planner's tokens/s.
  const int64_t mid_context = kInputLen + kOutputLen / 2;
  bool found = false;
  for (const DisaggIterationSample& s : cluster.decode_samples(0)) {
    EXPECT_EQ(s.batch, kBatch);  // lockstep: full batch every iteration
    if (s.mean_context == mid_context) {
      found = true;
      EXPECT_NEAR(s.cost_us / 1e3, plan.tpot_ms, kRel * plan.tpot_ms);
      const double tokens_per_s =
          static_cast<double>(s.batch) * 1e6 / s.cost_us;
      EXPECT_NEAR(tokens_per_s, plan.decode_tokens_per_s,
                  kRel * plan.decode_tokens_per_s);
    }
  }
  EXPECT_TRUE(found) << "no decode iteration hit the planner's mid-context "
                     << mid_context;
}

// Execution through the prefill -> migrate -> decode pipeline is real: every
// request's stream equals full-recompute Generate bitwise (the KV handoff
// moved the exact cached bits).
TEST(DisaggClusterTest, TokenStreamsMatchGenerateAcrossMigration) {
  const TinyTransformer model = MakePrunedModel();
  const auto prompts = LockstepPrompts(model);

  ThreadPool::SetGlobalThreads(1);
  DisaggCluster cluster(&model, ClusterConfig());
  for (const auto& p : prompts) {
    cluster.Submit(p, kOutputLen, 0.0);
  }
  cluster.Run();
  ThreadPool::SetGlobalThreads(0);

  for (size_t i = 0; i < prompts.size(); ++i) {
    const std::vector<int32_t> full = model.Generate(
        prompts[i], static_cast<int>(kOutputLen), MatmulBackend::kTcaBmeCpu);
    const std::vector<int32_t> tail(full.begin() + prompts[i].size(),
                                    full.end());
    EXPECT_EQ(cluster.results()[i].generated, tail) << "id=" << i;
  }
}

// Byte-identical reports and trajectories for a fixed workload, across
// reruns and thread counts.
TEST(DisaggClusterTest, ReportByteStableAcrossRerunsAndThreads) {
  const TinyTransformer model = MakePrunedModel();
  const auto prompts = LockstepPrompts(model);
  auto run = [&]() {
    DisaggCluster cluster(&model, ClusterConfig());
    for (size_t i = 0; i < prompts.size(); ++i) {
      // Staggered arrivals exercise the queueing paths too.
      cluster.Submit(prompts[i], kOutputLen, 0.001 * static_cast<double>(i));
    }
    const DisaggClusterReport report = cluster.Run();
    return std::make_pair(report.ToString(), cluster.results());
  };

  ThreadPool::SetGlobalThreads(1);
  const auto baseline = run();

  for (int threads : {1, 2, 8}) {
    ThreadPool::SetGlobalThreads(threads);
    const auto other = run();
    EXPECT_EQ(other.first, baseline.first) << "threads=" << threads;
    ASSERT_EQ(other.second.size(), baseline.second.size());
    for (size_t i = 0; i < baseline.second.size(); ++i) {
      EXPECT_EQ(other.second[i].generated, baseline.second[i].generated)
          << "threads=" << threads << " id=" << i;
      EXPECT_DOUBLE_EQ(other.second[i].ttft_ms, baseline.second[i].ttft_ms);
      EXPECT_DOUBLE_EQ(other.second[i].latency_ms,
                       baseline.second[i].latency_ms);
    }
  }
  ThreadPool::SetGlobalThreads(0);
}

// A topology with an empty pool on either side rejects every request
// gracefully instead of crashing or hanging.
TEST(DisaggClusterTest, EmptyPoolsRejectGracefully) {
  const TinyTransformer model = MakePrunedModel();
  Rng rng(5);
  for (const bool empty_prefill : {true, false}) {
    DisaggClusterConfig cfg = ClusterConfig();
    (empty_prefill ? cfg.prefill_instances : cfg.decode_instances) = 0;
    DisaggCluster cluster(&model, cfg);
    cluster.Submit(RandomPrompt(rng, 8, model.config().vocab), 4);
    cluster.Submit(RandomPrompt(rng, 8, model.config().vocab), 4);
    const DisaggClusterReport report = cluster.Run();
    EXPECT_EQ(report.arrived, 2);
    EXPECT_EQ(report.rejected, 2);
    EXPECT_EQ(report.completed, 0);
    EXPECT_EQ(report.migrations, 0);
    for (const RequestRecord& r : cluster.results()) {
      EXPECT_EQ(r.reason, FinishReason::kRejected);
    }
  }
}

// Unservable requests — empty prompts, context-window overflows, prompts no
// pool could ever hold — reject while servable neighbors still complete.
TEST(DisaggClusterTest, UnservableRequestsRejectServableOnesComplete) {
  const TinyTransformer model = MakePrunedModel();
  Rng rng(9);
  DisaggClusterConfig cfg = ClusterConfig();
  DisaggCluster cluster(&model, cfg);

  const int64_t ok = cluster.Submit(RandomPrompt(rng, 8, 256), 4);
  const int64_t empty = cluster.Submit({}, 4);
  // 60 + 8 > max_seq 64: overflows the context window.
  const int64_t overflow = cluster.Submit(RandomPrompt(rng, 60, 256), 8);
  const int64_t zero_budget = cluster.Submit(RandomPrompt(rng, 8, 256), 0);

  const DisaggClusterReport report = cluster.Run();
  EXPECT_EQ(report.arrived, 4);
  EXPECT_EQ(report.completed, 1);
  EXPECT_EQ(report.rejected, 3);
  EXPECT_EQ(cluster.results()[static_cast<size_t>(ok)].reason,
            FinishReason::kMaxTokens);
  for (const int64_t id : {empty, overflow, zero_budget}) {
    EXPECT_EQ(cluster.results()[static_cast<size_t>(id)].reason,
              FinishReason::kRejected);
  }
}

// A prompt token outside [0, vocab) rejects at the prefill side instead of
// aborting the prefill that would embed it, and so does a budget whose sum
// with the prompt length would overflow; the neighbors still decode their
// Generate streams.
TEST(DisaggClusterTest, OutOfRangeTokenOrBudgetRejected) {
  const TinyTransformer model = MakePrunedModel();
  const int32_t vocab = static_cast<int32_t>(model.config().vocab);
  DisaggCluster cluster(&model, ClusterConfig());
  Rng rng(57);
  std::vector<std::vector<int32_t>> good;
  for (int i = 0; i < 3; ++i) {
    good.push_back(RandomPrompt(rng, 6 + i, vocab));
    cluster.Submit(good.back(), 4);
  }
  const int64_t past_end = cluster.Submit({1, vocab, 3}, 4);
  const int64_t negative = cluster.Submit({-1, 2}, 4);
  const int64_t huge_budget =
      cluster.Submit(good[0], std::numeric_limits<int64_t>::max());
  const DisaggClusterReport report = cluster.Run();
  EXPECT_EQ(report.rejected, 3);
  EXPECT_EQ(report.completed, 3);
  for (const int64_t id : {past_end, negative, huge_budget}) {
    EXPECT_EQ(cluster.results()[static_cast<size_t>(id)].reason,
              FinishReason::kRejected);
  }
  for (size_t i = 0; i < good.size(); ++i) {
    const std::vector<int32_t> full =
        model.Generate(good[i], 4, MatmulBackend::kTcaBmeCpu);
    EXPECT_EQ(cluster.results()[i].generated,
              std::vector<int32_t>(full.begin() + good[i].size(), full.end()))
        << "id=" << i;
  }
}

// A cluster without a cost model on either side would divide by its zero
// head count on the first priced step; it fails at construction instead.
TEST(DisaggClusterDeathTest, UnsetCostModelFailsAtConstruction) {
  const TinyTransformer model = MakePrunedModel();
  DisaggClusterConfig prefill_unset = ClusterConfig();
  prefill_unset.prefill_cost.model = ModelConfig{};
  EXPECT_DEATH(DisaggCluster(&model, prefill_unset),
               "prefill_cost.model is unset");
  DisaggClusterConfig decode_unset = ClusterConfig();
  decode_unset.decode_cost.model = ModelConfig{};
  EXPECT_DEATH(DisaggCluster(&model, decode_unset),
               "decode_cost.model is unset");
  // So does a GPU count below 1 on either side.
  DisaggClusterConfig prefill_no_gpus = ClusterConfig();
  prefill_no_gpus.prefill_cost.num_gpus = 0;
  EXPECT_DEATH(DisaggCluster(&model, prefill_no_gpus),
               "prefill_cost.num_gpus must be >= 1");
  DisaggClusterConfig decode_no_gpus = ClusterConfig();
  decode_no_gpus.decode_cost.num_gpus = 0;
  EXPECT_DEATH(DisaggCluster(&model, decode_no_gpus),
               "decode_cost.num_gpus must be >= 1");
}

// A max_new_tokens of 1 is satisfied by the prefill token alone: the request
// completes at transfer time without ever touching the decode pool.
TEST(DisaggClusterTest, SingleTokenBudgetSkipsDecode) {
  const TinyTransformer model = MakePrunedModel();
  Rng rng(17);
  DisaggCluster cluster(&model, ClusterConfig());
  cluster.Submit(RandomPrompt(rng, 8, 256), 1);
  const DisaggClusterReport report = cluster.Run();
  EXPECT_EQ(report.completed, 1);
  EXPECT_EQ(report.migrations, 0);
  EXPECT_EQ(report.decode_iterations, 0);
  const RequestRecord& r = cluster.results()[0];
  EXPECT_EQ(static_cast<int64_t>(r.generated.size()), 1);
  EXPECT_DOUBLE_EQ(r.ttft_ms, r.latency_ms);
}

// Beyond the lockstep domain: several decode instances whose batch cap is
// below the offered load, non-monotone staggered arrivals, single-token
// budgets that never reach decode, and (second topology) a 12-block pool
// where growth-reserve admission holds handoffs back while the prefill pools
// fill up and reject. Each report and a per-instance digest of its decode
// samples are pinned as golden strings (captured from the cluster's earlier
// hand-written decode loop); every completed stream equals full-recompute
// Generate, and the samples account for every decode iteration and token.
TEST(DisaggClusterTest, MultiInstanceTopologiesMatchGoldenReports) {
  const TinyTransformer model = MakePrunedModel();
  struct Topology {
    int64_t prefill_instances;
    int64_t decode_instances;
    int64_t max_decode_batch;
    int64_t kv_num_blocks;
    const char* golden;
    const char* samples_golden;
  };
  const Topology topologies[] = {
      {2, 3, 3, 64,
       "arrived=24 rejected=0 completed=24 prefills=24 migrations=19 "
       "decode_iters=61 peak_decode_batch=3 sim_s=0.336402 "
       "ttft_ms{mean=92.187078 p50=89.851563 p95=166.756739 p99=169.760350} "
       "lat_ms{mean=180.388144 p50=189.476575 p95=295.794984 "
       "p99=302.560441}",
       "20/41/376 20/50/489 21/38/345 "},
      {3, 2, kBatch, 12,
       "arrived=24 rejected=7 completed=17 prefills=17 migrations=13 "
       "decode_iters=41 peak_decode_batch=4 sim_s=0.347869 "
       "ttft_ms{mean=43.551112 p50=45.358272 p95=72.579580 p99=77.564097} "
       "lat_ms{mean=152.675447 p50=175.852106 p95=262.865581 "
       "p99=308.468149}",
       "23/51/482 18/43/324 "},
  };
  for (const Topology& t : topologies) {
    DisaggClusterConfig cfg = ClusterConfig();
    cfg.prefill_instances = t.prefill_instances;
    cfg.decode_instances = t.decode_instances;
    cfg.max_decode_batch = t.max_decode_batch;
    cfg.kv_num_blocks = t.kv_num_blocks;
    DisaggCluster cluster(&model, cfg);
    Rng rng(31);
    for (int64_t i = 0; i < 24; ++i) {
      const int64_t len = 4 + static_cast<int64_t>(rng.Below(21));
      const int64_t max_new =
          i % 5 == 0 ? 1 : 2 + static_cast<int64_t>(rng.Below(11));
      // A sawtooth: arrivals go back in time every few submissions.
      const double arrival_s = 0.004 * static_cast<double>((i * 7) % 11);
      cluster.Submit(RandomPrompt(rng, len, model.config().vocab), max_new,
                     arrival_s);
    }
    const DisaggClusterReport report = cluster.Run();
    EXPECT_EQ(report.ToString(), t.golden)
        << "prefill=" << t.prefill_instances
        << " decode=" << t.decode_instances;

    // Per instance: samples, summed batch and summed mean context (each
    // sample's cost is DecodeStepTimeUs of its batch and mean context).
    std::string samples;
    int64_t sampled = 0;
    int64_t sampled_tokens = 0;
    for (int64_t d = 0; d < t.decode_instances; ++d) {
      int64_t batch_sum = 0;
      int64_t context_sum = 0;
      for (const DisaggIterationSample& s : cluster.decode_samples(d)) {
        batch_sum += s.batch;
        context_sum += s.mean_context;
      }
      const size_t n = cluster.decode_samples(d).size();
      samples += std::to_string(n) + "/" + std::to_string(batch_sum) + "/" +
                 std::to_string(context_sum) + " ";
      sampled += static_cast<int64_t>(n);
      sampled_tokens += batch_sum;
    }
    EXPECT_EQ(samples, t.samples_golden);
    EXPECT_EQ(sampled, report.decode_iterations);

    int64_t decoded_tokens = 0;  // every token after the prefill's
    for (const RequestRecord& r : cluster.results()) {
      if (r.reason != FinishReason::kMaxTokens) {
        continue;
      }
      decoded_tokens += static_cast<int64_t>(r.generated.size()) - 1;
      const std::vector<int32_t> full =
          model.Generate(r.prompt, static_cast<int>(r.max_new_tokens),
                         MatmulBackend::kTcaBmeCpu);
      const std::vector<int32_t> tail(full.begin() + r.prompt.size(),
                                      full.end());
      EXPECT_EQ(r.generated, tail) << "id=" << r.id;
    }
    EXPECT_EQ(sampled_tokens, decoded_tokens);
  }
}

}  // namespace
}  // namespace spinfer
