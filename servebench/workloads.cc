#include "workloads.h"

#include <algorithm>
#include <utility>

#include "src/gpusim/device_spec.h"
#include "src/llm/model_config.h"
#include "src/util/random.h"

namespace servebench {

using spinfer::Rng;

spinfer::TinyConfig ModelShape() {
  spinfer::TinyConfig c;
  c.vocab = 256;
  c.hidden = 256;
  c.ffn = 1024;
  c.layers = 4;
  c.heads = 8;
  c.max_seq = 576;
  return c;
}

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      // Unshared chat turns: decode at N=8 on the fused Row8 SpMM walk,
      // short-context attention; prefix index and N<8 path barely touched.
      {"chat_b8", /*requests=*/32, /*shared_prompts=*/0, /*shared_len=*/0,
       /*prompt=*/32, 96, /*out=*/32, 96, /*max_batch=*/8,
       /*chunk_tokens=*/0, /*prefix_cache=*/false, /*disagg=*/true},
      // 4 shared 448-token system prompts: prefill-heavy wide-N steps,
      // long-context causal attention, prefix-index reads and writes.
      {"rag_prefix", /*requests=*/52, /*shared_prompts=*/4, /*shared_len=*/448,
       /*prompt=*/16, 64, /*out=*/24, 56, /*max_batch=*/8,
       /*chunk_tokens=*/128, /*prefix_cache=*/true, /*disagg=*/false},
      // Long outputs at max_batch 4: decode at N=4 and a drain tail at
      // N=1-3, the generic RowTerm SpMM and SpMV paths of the narrow cliff.
      {"narrow_b4", /*requests=*/20, /*shared_prompts=*/0, /*shared_len=*/0,
       /*prompt=*/8, 24, /*out=*/64, 128, /*max_batch=*/4,
       /*chunk_tokens=*/0, /*prefix_cache=*/false, /*disagg=*/false},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

namespace {

// n values in [lo, hi], stratified per block of `block` consecutive values:
// within a block of m values, value j is drawn uniformly from the j-th of m
// equal-width strata, then the block is shuffled. Every max_batch-sized
// window of the queue, the first wave included, then spans the whole range.
std::vector<int64_t> Stratified(Rng* rng, int64_t n, int64_t block, int64_t lo,
                                int64_t hi) {
  std::vector<int64_t> v(static_cast<size_t>(n));
  for (int64_t b0 = 0; b0 < n; b0 += block) {
    const int64_t m = std::min(block, n - b0);
    const double width = static_cast<double>(hi - lo + 1) / static_cast<double>(m);
    for (int64_t j = 0; j < m; ++j) {
      const double x = (static_cast<double>(j) + rng->Uniform()) * width;
      v[static_cast<size_t>(b0 + j)] = std::min(hi, lo + static_cast<int64_t>(x));
    }
    for (int64_t j = m - 1; j > 0; --j) {
      std::swap(v[static_cast<size_t>(b0 + j)],
                v[static_cast<size_t>(b0) + rng->Below(static_cast<uint64_t>(j + 1))]);
    }
  }
  return v;
}

std::vector<int32_t> RandomTokens(Rng* rng, int64_t n, int64_t vocab) {
  std::vector<int32_t> t(static_cast<size_t>(n));
  for (int32_t& tok : t) {
    tok = static_cast<int32_t>(rng->Below(static_cast<uint64_t>(vocab)));
  }
  return t;
}

}  // namespace

std::vector<Request> MakeRequests(const WorkloadSpec& w, uint64_t seed,
                                  int64_t vocab) {
  Rng rng(seed);
  std::vector<std::vector<int32_t>> system;
  for (int64_t s = 0; s < w.shared_prompts; ++s) {
    system.push_back(RandomTokens(&rng, w.shared_len, vocab));
  }
  const std::vector<int64_t> unique =
      Stratified(&rng, w.requests, w.max_batch, w.prompt_min, w.prompt_max);
  const std::vector<int64_t> out =
      Stratified(&rng, w.requests, w.max_batch, w.out_min, w.out_max);
  std::vector<Request> reqs(static_cast<size_t>(w.requests));
  for (size_t i = 0; i < reqs.size(); ++i) {
    Request& r = reqs[i];
    if (w.shared_prompts > 0) {
      // Requests cycle through the system prompts, so a prompt's blocks are
      // still held (and indexed) when its next user is admitted.
      r.prompt = system[i % system.size()];
    }
    const std::vector<int32_t> tail = RandomTokens(&rng, unique[i], vocab);
    r.prompt.insert(r.prompt.end(), tail.begin(), tail.end());
    r.max_new = out[i];
  }
  return reqs;
}

int64_t KvBlocksFor(const WorkloadSpec& w) {
  const int64_t longest = w.shared_len + w.prompt_max + w.out_max;
  return w.max_batch * ((longest + kKvBlockTokens - 1) / kKvBlockTokens);
}

namespace {

spinfer::EngineConfig CostModel() {
  spinfer::EngineConfig c;
  c.model = spinfer::Opt13B();
  c.framework = spinfer::Framework::kSpInfer;
  c.device = spinfer::Rtx4090();
  c.sparsity = kSparsity;
  return c;
}

}  // namespace

spinfer::ServingEngineConfig EngineConfigFor(const WorkloadSpec& w) {
  spinfer::ServingEngineConfig c;
  c.max_batch = w.max_batch;
  c.kv_block_tokens = kKvBlockTokens;
  c.kv_num_blocks = KvBlocksFor(w);
  c.prefill_chunk_tokens = w.chunk_tokens;
  c.enable_prefix_cache = w.prefix_cache;
  c.cost = CostModel();
  return c;
}

spinfer::DisaggClusterConfig DisaggConfigFor(const WorkloadSpec& w) {
  spinfer::DisaggClusterConfig c;
  c.prefill_instances = 2;
  c.decode_instances = 1;
  c.max_decode_batch = w.max_batch;
  c.kv_block_tokens = kKvBlockTokens;
  c.kv_num_blocks = KvBlocksFor(w);
  c.prefill_cost = CostModel();
  c.decode_cost = c.prefill_cost;
  return c;
}

}  // namespace servebench
