// Kernel replay for the traced pass.
//
// After each serving step, the probe re-runs that step's kernels through
// their public entry points and times them: the six weight matmuls of every
// layer (CpuSpmmQuantInto at the step's panel width N, on the model's own
// pruned weights re-encoded with TinyTransformer::EncodeFormat()) and the
// batched paged-attention call of every layer (PagedAttentionDecodeBatch
// over the live cache, read-only, at the step's per-column contexts).
// Activations are synthetic: the kernels' cost depends on the weights'
// bitmaps, N and the contexts, not on activation values.
//
// Bytes and FLOPs are computed, not measured: 2 * nnz * N FLOPs per matmul,
// StorageBytes * ceil(N / kCpuSpmmNBlock) weight bytes per matmul (one pass
// over the compressed stream per N block), and context * kv_dim * 4 B for
// K plus the same for V per attention item and layer.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "src/core/cpu_backend.h"
#include "src/format/tca_bme.h"
#include "src/llm/paged_attention.h"
#include "src/llm/tiny_transformer.h"

namespace servebench {

// Panel-width classes: N = 1 runs SpMV, 2..7 the generic RowTerm SpMM walk,
// 8 the fused Row8 walk, wider panels the blocked SpMM.
enum NClass { kN1 = 0, kN2to7 = 1, kN8 = 2, kNWide = 3, kNumNClasses = 4 };
NClass ClassOf(int64_t n);
const char* NClassName(NClass c);

class KernelProbe {
 public:
  // Re-encodes `model`'s weights (timed: encode_ms()).
  explicit KernelProbe(const spinfer::TinyTransformer& model);

  // Replays one step's kernels: decode columns attend their full cached
  // context, chunk columns the causal horizon start + j + 1.
  void Replay(const spinfer::PagedKvCache& cache,
              const std::vector<int64_t>& dec_ids,
              const std::vector<spinfer::PrefillChunk>& chunks);

  struct MatmulTotals {
    int64_t cols = 0;
    double ms = 0.0;
  };
  const MatmulTotals& matmul(NClass c) const { return matmul_[c]; }
  double matmul_ms() const;
  double attention_ms() const;
  // Per-step attention time (all layers), one entry per replayed step.
  const std::vector<double>& attention_step_ms() const { return attn_step_ms_; }
  double flops() const { return flops_; }
  double weight_bytes() const { return weight_bytes_; }
  double kv_bytes() const { return kv_bytes_; }
  double ContextMean() const;
  double encode_ms() const { return encode_ms_; }
  double compression_ratio() const { return compression_ratio_; }

 private:
  spinfer::TinyConfig cfg_;
  // Per layer: wq, wk, wv, wo, fc1, fc2 (the order MixedStep runs them).
  std::vector<std::array<spinfer::TcaBmeMatrix, 6>> enc_;
  double encode_ms_ = 0.0;
  double compression_ratio_ = 0.0;
  int64_t nnz_ = 0;             // over every encoded matrix
  uint64_t storage_bytes_ = 0;  // over every encoded matrix

  spinfer::SpmmWorkspace ws_;
  spinfer::FloatMatrix x_hidden_, x_ffn_, out_, q_, attn_out_;
  spinfer::PagedAttentionScratch attn_scratch_;
  std::vector<spinfer::PagedAttentionItem> items_;

  std::array<MatmulTotals, kNumNClasses> matmul_{};
  std::vector<double> attn_step_ms_;
  double flops_ = 0.0;
  double weight_bytes_ = 0.0;
  double kv_bytes_ = 0.0;
  int64_t attn_items_ = 0;
  int64_t context_sum_ = 0;
};

}  // namespace servebench
