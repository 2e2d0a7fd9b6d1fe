#include "src/llm/sharded_engine.h"

#include <cstdio>

#include "src/llm/parallel.h"
#include "src/obs/metrics.h"
#include "src/util/check.h"

namespace spinfer {
namespace {

// Cached global instruments for the virtual interconnect (same find-or-create
// discipline as ServingMetrics in serving_engine.cc). Recording never feeds
// back into results: token streams and comm_us do not read the counters.
struct TpMetrics {
  obs::Counter* steps;
  obs::Counter* comm_us;

  static TpMetrics& Get() {
    static TpMetrics m = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
      TpMetrics t;
      t.steps = reg.GetCounter("srv.tp.steps");
      t.comm_us = reg.GetCounter("srv.tp.comm_us");
      return t;
    }();
    return m;
  }
};

}  // namespace

ShardedEngine::ShardedEngine(const TinyTransformer* model,
                             const ShardedEngineConfig& cfg)
    : model_(model), cfg_(cfg) {
  SPINFER_CHECK(model != nullptr);
  const int64_t g = cfg.shards;
  SPINFER_CHECK(g >= 1);
  PagedKvCacheConfig kv =
      model->KvCacheConfig(cfg.kv_block_tokens, cfg.kv_num_blocks);
  kv.kv_dim /= g;
  shards_.reserve(static_cast<size_t>(g));
  for (int64_t s = 0; s < g; ++s) {
    // SliceRowBand CHECKs the head- and GroupTile-aligned cuts first.
    shards_.push_back(Shard{model->SliceRowBand(s, g), PagedKvCache(kv)});
  }
  for (Shard& shard : shards_) {
    bands_.push_back({&shard.layers, &shard.cache});
  }
}

PagedKvCache::PrefixMatch ShardedEngine::MatchPrefix(
    const std::vector<int32_t>& prompt) const {
  return shards_[0].cache.MatchPrefix(prompt);
}

bool ShardedEngine::AddSequenceSharing(int64_t seq_id,
                                       const std::vector<int32_t>& prompt,
                                       int64_t tokens,
                                       const PagedKvCache::PrefixMatch& match) {
  // Shard 0 adopts the scheduler's match; the others re-derive their own
  // against their own prefix index. Lockstep allocation makes the matches
  // congruent (same token coverage, each shard's own block ids), and
  // identical free lists make the outcomes agree — shard 0's verdict is
  // final, the rest are CHECKed.
  if (!shards_[0].cache.AddSequenceSharing(seq_id, tokens, match)) {
    return false;
  }
  for (size_t s = 1; s < shards_.size(); ++s) {
    const PagedKvCache::PrefixMatch m = shards_[s].cache.MatchPrefix(prompt);
    SPINFER_CHECK_EQ(m.tokens, match.tokens);
    SPINFER_CHECK(shards_[s].cache.AddSequenceSharing(seq_id, tokens, m));
  }
  return true;
}

void ShardedEngine::RemoveSequence(int64_t seq_id) {
  for (Shard& s : shards_) {
    s.cache.RemoveSequence(seq_id);
  }
}

void ShardedEngine::IndexPrefix(int64_t seq_id,
                                const std::vector<int32_t>& prompt,
                                int64_t filled) {
  for (Shard& s : shards_) {
    s.cache.IndexPrefix(seq_id, prompt, filled);
  }
}

void ShardedEngine::MixedStep(const std::vector<int64_t>& dec_ids,
                              const std::vector<int32_t>& dec_last,
                              const std::vector<PrefillChunk>& chunks,
                              MatmulBackend backend,
                              std::vector<int32_t>* dec_next,
                              std::vector<int32_t>* chunk_next) {
  const int64_t n = model_->MixedStepBands(bands_, dec_ids, dec_last, chunks,
                                           backend, dec_next, chunk_next);
  // Virtual interconnect: price the canonical Megatron schedule — two ring
  // all-reduces of the (hidden x n) FP16 activation panel per layer — even
  // though the executed collectives are arithmetic-free row copies.
  const TinyConfig& c = model_->config();
  const double layer_us = LayerCommTimeUs(n, c.hidden, cfg_.shards, cfg_.device);
  // One add per layer, not one multiply: comm_us() is the per-layer sum the
  // analytic cross-check recomputes, to the last bit.
  for (int64_t layer = 0; layer < c.layers; ++layer) {
    comm_us_ += layer_us;
  }
  ++steps_;
  step_cols_.push_back(n);
  TpMetrics& m = TpMetrics::Get();
  m.steps->Add(1);
  m.comm_us->Add(static_cast<uint64_t>(layer_us * static_cast<double>(c.layers)));
}

std::string ShardedEngine::StatsToString() const {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "shards=%d steps=%lld comm_us=%.6f",
                cfg_.shards, static_cast<long long>(steps_), comm_us_);
  return std::string(buf);
}

}  // namespace spinfer
