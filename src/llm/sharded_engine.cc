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
  const int64_t g = cfg.shards;
  SPINFER_CHECK(g >= 1);
  bands_.reserve(static_cast<size_t>(g));
  for (int64_t s = 0; s < g; ++s) {
    // SliceRowBand CHECKs the head- and GroupTile-aligned cuts.
    bands_.push_back(model->SliceRowBand(s, g));
  }
}

void ShardedEngine::MixedStep(const std::vector<int64_t>& dec_ids,
                              const std::vector<int32_t>& dec_last,
                              const std::vector<PrefillChunk>& chunks,
                              MatmulBackend backend,
                              std::vector<int32_t>* dec_next,
                              std::vector<int32_t>* chunk_next) {
  const int64_t n =
      model_->MixedStepBands(bands_, &cache_, dec_ids, dec_last, chunks,
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
