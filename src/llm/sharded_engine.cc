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
    : SingleInstanceSubstrate(model, cfg.kv_block_tokens, cfg.kv_num_blocks),
      cfg_(cfg) {
  // The Megatron partition the ring prices: each shard owns whole query
  // heads, whole kv groups and an equal run of FFN rows.
  const TinyConfig& c = model->config();
  SPINFER_CHECK(cfg.shards >= 1);
  SPINFER_CHECK_MSG(c.heads % cfg.shards == 0,
                    "query heads must divide by shard count");
  SPINFER_CHECK_MSG(c.kv_head_count() % cfg.shards == 0,
                    "kv heads must divide by shard count");
  SPINFER_CHECK_MSG(c.ffn % cfg.shards == 0, "ffn must divide by shard count");
}

void ShardedEngine::MixedStep(const std::vector<int64_t>& dec_ids,
                              const std::vector<int32_t>& dec_last,
                              const std::vector<PrefillChunk>& chunks,
                              MatmulBackend backend,
                              std::vector<int32_t>* dec_next,
                              std::vector<int32_t>* chunk_next) {
  SingleInstanceSubstrate::MixedStep(dec_ids, dec_last, chunks, backend,
                                     dec_next, chunk_next);
  // Virtual interconnect: price the canonical Megatron schedule — two ring
  // all-reduces of the (hidden x n) FP16 activation panel per layer — on the
  // step's panel width n.
  int64_t n = static_cast<int64_t>(dec_ids.size());
  for (const PrefillChunk& chunk : chunks) {
    n += chunk.count;
  }
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
