// Multi-head attention + KV-cache cost model.
//
// Decode-phase attention is KV-cache-bandwidth bound: each step streams the
// full cache (2 * layers * kv_dim * context * batch FP16 values). Prefill
// attention is compute-heavy (seq^2). Both are modeled per the roofline on
// the target device; weights do not participate (the projections are the
// engine's linear ops).
#pragma once

#include <cstdint>

#include "src/gpusim/device_spec.h"
#include "src/llm/model_config.h"

namespace spinfer {

struct AttentionCost {
  double time_us = 0.0;
  uint64_t kv_bytes_read = 0;
  uint64_t flops = 0;
};

// One decode step over all layers, with `context` cached tokens, sharded
// across `num_gpus` (heads split evenly).
AttentionCost DecodeAttentionCost(const ModelConfig& model, int64_t batch,
                                  int64_t context, int num_gpus, const DeviceSpec& dev);

// Full prefill of `seq_len` tokens over all layers (causal attention).
AttentionCost PrefillAttentionCost(const ModelConfig& model, int64_t batch,
                                   int64_t seq_len, int num_gpus, const DeviceSpec& dev);

// Bytes of KV cache held per GPU for `context` tokens.
uint64_t KvCacheBytes(const ModelConfig& model, int64_t batch, int64_t context,
                      int num_gpus);

// The executing paged-attention kernels (the CPU serving path this cost
// model prices) live in src/llm/paged_attention.h.

}  // namespace spinfer
