// The benchmark's model, workloads and request generation.
//
// Every workload serves one model, M: the serving_engine_b8 shape (hidden
// 256, ffn 1024, 4 layers, 8 heads, vocab 256) with max_seq 576,
// magnitude-pruned to 60% sparsity. Each workload is an offline batch: all
// requests are submitted before Run() at virtual arrival 0, and at most
// max_batch run at once, so the next request is admitted only as one
// retires. The virtual clock is priced as OPT-13B on an RTX 4090 at 0.6
// sparsity.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/llm/disagg_cluster.h"
#include "src/llm/serving_engine.h"
#include "src/llm/tiny_transformer.h"

namespace servebench {

inline constexpr uint64_t kModelSeed = 1013;
inline constexpr double kSparsity = 0.6;
inline constexpr int64_t kKvBlockTokens = 16;

spinfer::TinyConfig ModelShape();

struct WorkloadSpec {
  const char* name;
  int64_t requests;        // per round
  int64_t shared_prompts;  // distinct shared system prompts; 0 = unshared
  int64_t shared_len;      // tokens per shared system prompt
  int64_t prompt_min;      // unique prompt tokens (the tail when shared)
  int64_t prompt_max;
  int64_t out_min;
  int64_t out_max;
  int64_t max_batch;
  int64_t chunk_tokens;  // 0 = whole-prompt prefill
  bool prefix_cache;
  // The traced pass also serves the same requests through a DisaggCluster
  // (2 prefill instances, 1 decode instance).
  bool disagg;
};

const std::vector<WorkloadSpec>& Workloads();
// nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);

struct Request {
  std::vector<int32_t> prompt;
  int64_t max_new = 0;
};

// The workload's requests for `seed`. Prompt, tail and output lengths are
// stratified over their ranges within every max_batch consecutive requests
// (one jittered draw per equal-width stratum, then shuffled), so every seed
// serves nearly the same work in every window of the queue while token ids,
// pairings and order change with the seed. Shared system prompts are
// assigned round-robin.
std::vector<Request> MakeRequests(const WorkloadSpec& w, uint64_t seed,
                                  int64_t vocab);

// KV pool that holds max_batch of the workload's longest requests.
int64_t KvBlocksFor(const WorkloadSpec& w);
spinfer::ServingEngineConfig EngineConfigFor(const WorkloadSpec& w);
spinfer::DisaggClusterConfig DisaggConfigFor(const WorkloadSpec& w);

}  // namespace servebench
