// Executing tensor-parallel serving substrate: N virtual shards of one
// TinyTransformer behind the ServingSubstrate seam, bit-identical to the
// single-instance engine at any shard count.
//
// Partitioning. Megatron splits each layer column/row-wise and joins the
// K-dim partial sums with a floating-point all-reduce — which reassociates
// additions and cannot be bit-identical to the unsharded model. This engine
// prices that partition and executes none of it: a step is the model's own
// step, TinyTransformer::MixedStep, on the whole encoded weights and the
// one KV pool. Splitting each matmul into per-shard output-row runs would
// give the same bits (every output row is one accumulation chain either
// way) and no parallelism the whole-matrix kernel lacks: it already splits
// its rows across the thread team. Consequences:
//   * Token streams, logits, and KV bytes are TinyTransformer::MixedStep's
//     for any shard count, batch mix, backend and thread count.
//   * The partition the ring prices is checked at construction: query heads
//     (heads % shards == 0), whole kv groups under GQA (kv_heads % shards
//     == 0) and the FFN rows (ffn % shards == 0) divide evenly.
//
// Time model ("execution real, clock virtual", like ServingEngine): the
// virtual interconnect prices the canonical Megatron schedule — two ring
// all-reduces of the (hidden x panel) FP16 activations per layer, via
// LayerCommTimeUs on the configured DeviceSpec — accumulated in comm_us().
// The analytic cross-check tests recompute that expression per step from
// step_panel_cols() and match it exactly.
//
// KV: the one pool of the SingleInstanceSubstrate this engine is, holding
// every kv row of every sequence. Nothing in the process reads one shard's
// slice of the KV on its own; the scheduler's view (cache()) is that pool.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/gpusim/device_spec.h"
#include "src/llm/serving_substrate.h"

namespace spinfer {

struct ShardedEngineConfig {
  int shards = 2;
  int64_t kv_block_tokens = 16;
  int64_t kv_num_blocks = 64;
  // Interconnect pricing the virtual ring all-reduces (link_bw_gbs /
  // link_latency_us are the fields that matter).
  DeviceSpec device;
};

class ShardedEngine : public SingleInstanceSubstrate {
 public:
  // `model` is borrowed and must outlive the engine. Requires (CHECKed):
  // shards >= 1, and heads, kv_head_count and ffn all divisible by shards
  // (the Megatron partition the ring prices; see file comment).
  ShardedEngine(const TinyTransformer* model, const ShardedEngineConfig& cfg);

  // The single-instance step, plus its comm pricing.
  void MixedStep(const std::vector<int64_t>& dec_ids,
                 const std::vector<int32_t>& dec_last,
                 const std::vector<PrefillChunk>& chunks, MatmulBackend backend,
                 std::vector<int32_t>* dec_next,
                 std::vector<int32_t>* chunk_next) override;

  // --- Introspection ---------------------------------------------------------
  int shards() const { return cfg_.shards; }
  // MixedStep iterations executed.
  int64_t steps() const { return steps_; }
  // Accumulated virtual interconnect time: for each step with panel width n,
  // layers * LayerCommTimeUs(n, hidden, shards, device).
  double comm_us() const { return comm_us_; }
  // Panel width (decode columns + chunk tokens) of each executed step, in
  // order — the cross-check tests re-price the comm from these.
  const std::vector<int64_t>& step_panel_cols() const { return step_cols_; }
  // Byte-stable rendering ("shards=%d steps=%lld comm_us=%.6f"); the
  // determinism tests compare it across thread counts.
  std::string StatsToString() const;

 private:
  ShardedEngineConfig cfg_;

  int64_t steps_ = 0;
  double comm_us_ = 0.0;
  std::vector<int64_t> step_cols_;
};

}  // namespace spinfer
