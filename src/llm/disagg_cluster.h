// Executing disaggregated prefill/decode serving cluster — the running
// counterpart of the analytic PlanDisaggregation sizing tool (paper §6;
// Splitwise / DistServe / Mooncake architecture).
//
// Topology: a pool of prefill instances (each a full-model runner with its
// own PagedKvCache) and a pool of decode instances, each a ServingEngine —
// the one continuous-batching scheduler — over its own PagedKvCache. They
// are joined by per-request KV-block handoff: when a prompt finishes
// prefilling, its cache pages cross the virtual fabric (priced at
// transfer_bw_gbs over the cost model's KvCacheBytes) and the request
// arrives at a decode engine with its first token (SubmitPrefilled); the
// engine's admission migrates the pages — refcount-correct, bit-exact — out
// of the prefill pool via MigrateKvSequence.
//
// Time model, as everywhere in this repo's serving stack: execution is real
// (real tokens through TinyTransformer::Prefill / MixedStep, real paged KV
// pools), the clock is virtual, priced expression-for-expression like the
// planner:
//   * one prompt at a time per prefill instance, PrefillTimeUs(prefill_cost,
//     1, len); router = earliest-free instance, ties to the lowest index.
//     Prefill instances are not engines: the planner prices TTFT as prefill
//     + transfer with no decode term, and a whole-prompt loop is exactly
//     that;
//   * handoff delay KvCacheBytes(model, 1, len, 1) / (transfer_bw_gbs * 1e6)
//     milliseconds; router = least-loaded decode instance, ties to the
//     lowest index;
//   * decode admission, batching and pricing are the engine's, at
//     DecodeStepTimeUs(decode_cost, batch, mean_context).
// The first token comes from the prefill logits, so TTFT = queueing +
// prefill + transfer — with an idle prefill pool, exactly the planner's
// prefill_ms + kv_transfer_ms. The cross-check tests match TTFT, tpot, and
// decode throughput against PlanDisaggregation to <= 1e-9 relative.
//
// Degenerate configs reject gracefully: zero instances, empty prompts, or
// prompts that could never fit a pool finish as kRejected — no UB, no CHECK.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/llm/engine.h"
#include "src/llm/serving_engine.h"
#include "src/llm/tiny_transformer.h"

namespace spinfer {

struct DisaggClusterConfig {
  int64_t prefill_instances = 1;
  int64_t decode_instances = 1;
  // Continuous-batching cap per decode instance.
  int64_t max_decode_batch = 8;
  // Per-instance KV pool geometry (both pools).
  int64_t kv_block_tokens = 16;
  int64_t kv_num_blocks = 64;
  // Virtual-clock pricing for each pool (PlanDisaggregation's prefill_cfg /
  // decode_cfg; .model also prices the KV handoff bytes). .num_gpus is each
  // instance's tensor-parallel degree and must be >= 1.
  EngineConfig prefill_cost;
  EngineConfig decode_cost;
  // Prefill->decode fabric, GB/s.
  double transfer_bw_gbs = 25.0;
};

// One priced decode iteration of one instance; the analytic cross-check
// matches the sample whose mean_context equals the planner's steady-state
// mid-context (input_len + output_len / 2).
struct DisaggIterationSample {
  int64_t batch = 0;
  int64_t mean_context = 0;
  double cost_us = 0.0;
};

struct DisaggClusterReport {
  int64_t arrived = 0;
  int64_t rejected = 0;
  int64_t completed = 0;
  int64_t prefills = 0;
  int64_t migrations = 0;
  int64_t decode_iterations = 0;
  int64_t peak_decode_batch = 0;
  double sim_time_s = 0.0;
  LatencySummary ttft;     // over completed requests
  LatencySummary latency;

  // Deterministic rendering; byte-stable across reruns and thread counts.
  std::string ToString() const;
};

class DisaggCluster {
 public:
  // `model` is borrowed and must outlive the cluster. Every instance's pool
  // is allocated here.
  DisaggCluster(const TinyTransformer* model, const DisaggClusterConfig& cfg);

  // Enqueues a request; returns its dense id. `arrival_s` is virtual.
  int64_t Submit(std::vector<int32_t> prompt, int64_t max_new_tokens,
                 double arrival_s = 0.0);

  // Runs prefill scheduling, KV handoff, and every decode instance's engine
  // to completion. Single-shot.
  DisaggClusterReport Run();

  // Post-Run inspection; results() is indexed by request id. A record's
  // latency runs from its client arrival and its TTFT ends at handoff.
  const std::vector<RequestRecord>& results() const { return records_; }
  const std::vector<DisaggIterationSample>& decode_samples(
      int64_t instance) const;

 private:
  const TinyTransformer* model_;
  DisaggClusterConfig cfg_;
  std::vector<RequestRecord> records_;
  std::vector<std::vector<DisaggIterationSample>> samples_;  // per decode inst
  bool ran_ = false;
};

}  // namespace spinfer
