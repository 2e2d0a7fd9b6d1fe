// Differential tests for the tensor-parallel ShardedEngine substrate.
//
// The load-bearing claims, each enforced here:
//   * Running the model's own step and only pricing the partition makes the
//     sharded engine bit-identical to the single-instance engine — token
//     streams, per-request trajectories, and the byte-rendered report all
//     match for shards in {1, 2, 4}, ragged Poisson traffic, GQA configs,
//     shard rows off GroupTile boundaries, and every thread count. The
//     sharded serving path therefore also reproduces full-recompute Generate
//     bitwise (by composition with the single-instance equivalence).
//   * The partition the ring prices is checked at construction: heads, kv
//     heads and FFN rows must divide by the shard count.
//   * The virtual interconnect reproduces the analytic tensor-parallel comm
//     model expression for expression: comm_us() equals the sum over
//     executed steps of layers * LayerCommTimeUs(panel, hidden, shards, dev),
//     exactly (EXPECT_DOUBLE_EQ), and one shard prices zero comm.
//   * One KV pool: the sharded engine is a single-instance substrate whose
//     pool holds every kv row of every sequence, byte for byte the rows the
//     single-instance step writes, and drains after a serving run.
#include "src/llm/sharded_engine.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "src/gpusim/device_spec.h"
#include "src/llm/parallel.h"
#include "src/llm/serving_engine.h"
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

TinyConfig GqaModelConfig() {
  TinyConfig cfg;
  cfg.kv_heads = 2;  // grouped-query: 4 query heads share 2 kv heads
  return cfg;
}

TinyTransformer MakePrunedModel(const TinyConfig& cfg, uint64_t seed = 7) {
  TinyTransformer model(cfg, seed);
  model.PruneWeights(MagnitudePruner(), 0.6);
  return model;
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

ShardedEngineConfig TestShardConfig(int shards) {
  ShardedEngineConfig cfg;
  cfg.shards = shards;
  cfg.kv_block_tokens = 8;   // must mirror TestEngineConfig's pool geometry
  cfg.kv_num_blocks = 32;
  cfg.device = Rtx4090();
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

struct RunResult {
  std::string report;
  std::vector<RequestRecord> records;
};

RunResult RunSingleInstance(const TinyTransformer& model,
                            const ServingEngineConfig& cfg, uint64_t seed) {
  ServingEngine engine(&model, cfg);
  engine.InjectPoissonArrivals(RaggedTraffic(seed));
  const ExecServingReport report = engine.Run();
  return RunResult{report.ToString(), engine.results()};
}

// One serving run over a caller-owned sharded substrate (fresh per run: the
// scheduler is single-shot and reuses sequence ids).
RunResult RunSharded(ShardedEngine* substrate, const ServingEngineConfig& cfg,
                     uint64_t seed) {
  ServingEngine engine(substrate, cfg);
  engine.InjectPoissonArrivals(RaggedTraffic(seed));
  const ExecServingReport report = engine.Run();
  return RunResult{report.ToString(), engine.results()};
}

void ExpectSameRun(const RunResult& a, const RunResult& b,
                   const std::string& label) {
  EXPECT_EQ(a.report, b.report) << label;
  ASSERT_EQ(a.records.size(), b.records.size()) << label;
  for (size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].generated, b.records[i].generated)
        << label << " id=" << i;
    EXPECT_EQ(a.records[i].reason, b.records[i].reason) << label << " id=" << i;
    EXPECT_DOUBLE_EQ(a.records[i].latency_ms, b.records[i].latency_ms)
        << label << " id=" << i;
    EXPECT_DOUBLE_EQ(a.records[i].ttft_ms, b.records[i].ttft_ms)
        << label << " id=" << i;
  }
}

// The tentpole differential: for shards in {1, 2, 4}, the sharded substrate
// under the same scheduler reproduces the single-instance engine byte for
// byte — token streams, trajectories, and the rendered report.
TEST(ShardedEngineTest, BitIdenticalToSingleInstanceAtAnyShardCount) {
  const TinyTransformer model = MakePrunedModel(TestModelConfig());
  const ServingEngineConfig cfg = TestEngineConfig(model.config());

  ThreadPool::SetGlobalThreads(1);
  const RunResult baseline = RunSingleInstance(model, cfg, 42);
  EXPECT_GT(baseline.records.size(), 10u);

  for (int shards : {1, 2, 4}) {
    ShardedEngine substrate(&model, TestShardConfig(shards));
    const RunResult sharded = RunSharded(&substrate, cfg, 42);
    ExpectSameRun(baseline, sharded, "shards=" + std::to_string(shards));
  }
  ThreadPool::SetGlobalThreads(0);
}

// The dense reference backend shards the same way: ReferenceGemm accumulates
// each output row independently, so row bands are bit-identical too.
TEST(ShardedEngineTest, DenseBackendBitIdenticalToSingleInstance) {
  const TinyTransformer model = MakePrunedModel(TestModelConfig());
  ServingEngineConfig cfg = TestEngineConfig(model.config());
  cfg.backend = MatmulBackend::kDense;

  ThreadPool::SetGlobalThreads(1);
  const RunResult baseline = RunSingleInstance(model, cfg, 42);
  EXPECT_GT(baseline.records.size(), 10u);
  for (int shards : {2, 4}) {
    ShardedEngine substrate(&model, TestShardConfig(shards));
    const RunResult sharded = RunSharded(&substrate, cfg, 42);
    ExpectSameRun(baseline, sharded, "dense shards=" + std::to_string(shards));
  }
  ThreadPool::SetGlobalThreads(0);
}

// A partition whose shard slices are not whole 16-row GroupTiles is served:
// hidden 80 at 2 shards gives each shard 40 rows of wq/wk/wv/wo and fc2.
TEST(ShardedEngineTest, ServesPartitionsOffGroupTileRows) {
  TinyConfig model_cfg = TestModelConfig();
  model_cfg.hidden = 80;
  model_cfg.ffn = 160;
  const TinyTransformer model = MakePrunedModel(model_cfg);
  const ServingEngineConfig cfg = TestEngineConfig(model.config());

  ThreadPool::SetGlobalThreads(1);
  const RunResult baseline = RunSingleInstance(model, cfg, 42);
  EXPECT_GT(baseline.records.size(), 10u);
  ShardedEngine substrate(&model, TestShardConfig(2));
  const RunResult sharded = RunSharded(&substrate, cfg, 42);
  ExpectSameRun(baseline, sharded, "hidden=80 shards=2");
  ThreadPool::SetGlobalThreads(0);
}

// A shard count that splits a query head, a kv group or the FFN rows
// unevenly has no Megatron partition to price; each is a CHECK failure
// naming its check.
TEST(ShardedEngineDeathTest, RejectsPartitionsOffHeadBoundaries) {
  struct Case {
    TinyConfig model;
    int shards;
    const char* message;
  };
  TinyConfig odd_ffn = TestModelConfig();
  odd_ffn.ffn = 250;
  for (const Case& c :
       {Case{TestModelConfig(), 3, "query heads must divide by shard count"},
        Case{GqaModelConfig(), 4, "kv heads must divide by shard count"},
        Case{odd_ffn, 4, "ffn must divide by shard count"}}) {
    const TinyTransformer model(c.model, 7);
    EXPECT_DEATH({ ShardedEngine engine(&model, TestShardConfig(c.shards)); },
                 c.message)
        << "shards=" << c.shards;
  }
}

// Same equivalence under grouped-query attention: kv groups shard cleanly
// (kv_heads % shards == 0), so no shard's query heads read another shard's
// kv heads.
TEST(ShardedEngineTest, BitIdenticalToSingleInstanceUnderGqa) {
  const TinyTransformer model = MakePrunedModel(GqaModelConfig());
  const ServingEngineConfig cfg = TestEngineConfig(model.config());

  ThreadPool::SetGlobalThreads(1);
  const RunResult baseline = RunSingleInstance(model, cfg, 57);
  EXPECT_GT(baseline.records.size(), 10u);
  ShardedEngine substrate(&model, TestShardConfig(2));
  const RunResult sharded = RunSharded(&substrate, cfg, 57);
  ExpectSameRun(baseline, sharded, "gqa shards=2");
  ThreadPool::SetGlobalThreads(0);
}

// GQA single-instance serving reproduces full-recompute Generate — the
// grouped-kv read indexing in both Forward and the paged decode agree.
TEST(ShardedEngineTest, GqaServingMatchesGenerate) {
  const TinyTransformer model = MakePrunedModel(GqaModelConfig());
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

// Sharded reports and token streams are byte-stable across thread counts —
// the kernels' thread-count determinism composed across every shard.
TEST(ShardedEngineTest, ByteStableAcrossThreadCounts) {
  const TinyTransformer model = MakePrunedModel(TestModelConfig());
  const ServingEngineConfig cfg = TestEngineConfig(model.config());

  ThreadPool::SetGlobalThreads(1);
  ShardedEngine base_sub(&model, TestShardConfig(2));
  const RunResult baseline = RunSharded(&base_sub, cfg, 42);
  const std::string base_stats = base_sub.StatsToString();
  EXPECT_GT(baseline.records.size(), 10u);

  for (int threads : {1, 2, 8}) {
    ThreadPool::SetGlobalThreads(threads);
    ShardedEngine sub(&model, TestShardConfig(2));
    const RunResult other = RunSharded(&sub, cfg, 42);
    ExpectSameRun(baseline, other, "threads=" + std::to_string(threads));
    EXPECT_EQ(sub.StatsToString(), base_stats) << "threads=" << threads;
  }
  ThreadPool::SetGlobalThreads(0);
}

// The virtual interconnect is the analytic model, expression for expression:
// comm_us() equals layers * LayerCommTimeUs(panel, hidden, shards, device)
// summed over the executed steps in order — to the last bit — and a single
// shard prices zero communication.
TEST(ShardedEngineTest, CommMatchesAnalyticLayerCommExactly) {
  const TinyTransformer model = MakePrunedModel(TestModelConfig());
  const ServingEngineConfig cfg = TestEngineConfig(model.config());
  ThreadPool::SetGlobalThreads(1);

  for (int shards : {1, 2, 4}) {
    ShardedEngine sub(&model, TestShardConfig(shards));
    RunSharded(&sub, cfg, 42);
    ASSERT_GT(sub.steps(), 0);
    ASSERT_EQ(static_cast<int64_t>(sub.step_panel_cols().size()), sub.steps());
    double expected = 0.0;
    const int64_t layers = model.config().layers;
    for (const int64_t n : sub.step_panel_cols()) {
      for (int64_t l = 0; l < layers; ++l) {
        expected +=
            LayerCommTimeUs(n, model.config().hidden, shards, Rtx4090());
      }
    }
    EXPECT_DOUBLE_EQ(sub.comm_us(), expected) << "shards=" << shards;
    if (shards == 1) {
      EXPECT_EQ(sub.comm_us(), 0.0);
    } else {
      EXPECT_GT(sub.comm_us(), 0.0);
    }
  }
  ThreadPool::SetGlobalThreads(0);
}

// The sharded step runs in the model's grow-only step scratch: once one
// serving run has warmed it, a second run over the same traffic allocates
// nothing there.
TEST(ShardedEngineTest, WarmRunLeavesStepScratchUnchanged) {
  const TinyTransformer model = MakePrunedModel(TestModelConfig());
  const ServingEngineConfig cfg = TestEngineConfig(model.config());
  ThreadPool::SetGlobalThreads(1);
  ShardedEngine warm(&model, TestShardConfig(2));
  RunSharded(&warm, cfg, 42);
  const int64_t grows = model.MatmulScratchGrowCount();
  const uint64_t bytes = model.MatmulScratchCapacityBytes();
  ShardedEngine again(&model, TestShardConfig(2));
  RunSharded(&again, cfg, 42);
  EXPECT_EQ(model.MatmulScratchGrowCount(), grows);
  EXPECT_EQ(model.MatmulScratchCapacityBytes(), bytes);
  ThreadPool::SetGlobalThreads(0);
}

// After a full serving run the engine's one pool has drained to empty.
TEST(ShardedEngineTest, PoolDrainsAfterShardedRun) {
  const TinyTransformer model = MakePrunedModel(TestModelConfig());
  const ServingEngineConfig cfg = TestEngineConfig(model.config());
  ThreadPool::SetGlobalThreads(1);
  ShardedEngine substrate(&model, TestShardConfig(2));
  {
    ServingEngine engine(&substrate, cfg);
    engine.InjectPoissonArrivals(RaggedTraffic(42));
    const ExecServingReport report = engine.Run();
    EXPECT_GT(report.completed, 10);
  }
  EXPECT_EQ(substrate.cache().used_blocks(), 0);
  EXPECT_EQ(substrate.cache().WastedTokenSlots(), 0);
  ThreadPool::SetGlobalThreads(0);
}

// The sharded engine's pool is the single-instance pool: the same prompts,
// prefilled as one whole-prompt chunk each and then decoded 3 steps, leave
// full-width kv rows (kv_dim, not a shard's slice) holding the
// single-instance engine's bytes at every layer, sequence and slot.
TEST(ShardedEngineTest, PoolHoldsTheSingleInstanceKvRows) {
  struct Case {
    TinyConfig model;
    int shards;
  };
  for (const Case& c : {Case{TestModelConfig(), 2}, Case{TestModelConfig(), 4},
                        Case{GqaModelConfig(), 2}}) {
    const std::string label = "kv_heads=" +
                              std::to_string(c.model.kv_head_count()) +
                              " shards=" + std::to_string(c.shards);
    const TinyTransformer model = MakePrunedModel(c.model);
    const ShardedEngineConfig scfg = TestShardConfig(c.shards);
    SingleInstanceSubstrate single(&model, scfg.kv_block_tokens,
                                   scfg.kv_num_blocks);
    ShardedEngine sharded(&model, scfg);
    const int64_t kv_dim = model.config().kv_dim();
    EXPECT_EQ(sharded.cache().config().kv_dim, kv_dim) << label;

    Rng rng(29);
    std::vector<std::vector<int32_t>> prompts;
    for (const int64_t len : {5, 9, 12}) {
      std::vector<int32_t> p(static_cast<size_t>(len));
      for (int32_t& t : p) {
        t = static_cast<int32_t>(rng.Below(256));
      }
      prompts.push_back(std::move(p));
    }
    std::vector<int64_t> ids;
    for (ServingSubstrate* sub : {static_cast<ServingSubstrate*>(&single),
                                  static_cast<ServingSubstrate*>(&sharded)}) {
      ids.clear();
      std::vector<PrefillChunk> chunks;
      for (size_t i = 0; i < prompts.size(); ++i) {
        const int64_t id = static_cast<int64_t>(i);
        const int64_t len = static_cast<int64_t>(prompts[i].size());
        ASSERT_TRUE(sub->AddSequenceSharing(id, prompts[i], len, {})) << label;
        chunks.push_back({id, &prompts[i], 0, len});
        ids.push_back(id);
      }
      std::vector<int32_t> last;
      std::vector<int32_t> next;
      sub->MixedStep({}, {}, chunks, MatmulBackend::kTcaBmeCpu, nullptr, &last);
      for (int step = 0; step < 3; ++step) {
        sub->MixedStep(ids, last, {}, MatmulBackend::kTcaBmeCpu, &next,
                       nullptr);
        last = next;
      }
    }

    std::vector<float> k1(static_cast<size_t>(kv_dim));
    std::vector<float> v1(k1.size());
    std::vector<float> k2(k1.size());
    std::vector<float> v2(k1.size());
    const size_t bytes = k1.size() * sizeof(float);
    for (int64_t layer = 0; layer < model.config().layers; ++layer) {
      for (const int64_t id : ids) {
        const int64_t slots = single.cache().SequenceTokens(id);
        ASSERT_EQ(sharded.cache().SequenceTokens(id), slots) << label;
        for (int64_t t = 0; t < slots; ++t) {
          single.cache().ReadSlot(layer, id, t, k1.data(), v1.data());
          sharded.cache().ReadSlot(layer, id, t, k2.data(), v2.data());
          EXPECT_EQ(std::memcmp(k1.data(), k2.data(), bytes), 0)
              << label << " layer=" << layer << " seq=" << id << " slot=" << t;
          EXPECT_EQ(std::memcmp(v1.data(), v2.data(), bytes), 0)
              << label << " layer=" << layer << " seq=" << id << " slot=" << t;
        }
      }
    }
  }
}

}  // namespace
}  // namespace spinfer
