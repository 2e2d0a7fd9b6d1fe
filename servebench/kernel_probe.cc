#include "kernel_probe.h"

#include <algorithm>
#include <chrono>

#include "src/util/random.h"

namespace servebench {

using spinfer::FloatMatrix;
using spinfer::PagedKvCache;
using spinfer::PrefillChunk;
using spinfer::TcaBmeMatrix;

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// Finite synthetic activations in [-1, 1).
void FillPanel(int64_t rows, int64_t cols, spinfer::Rng* rng, FloatMatrix* m) {
  m->Reshape(rows, cols);
  for (int64_t i = 0; i < m->size(); ++i) {
    m->data()[i] = static_cast<float>(rng->Uniform(-1.0, 1.0));
  }
}

}  // namespace

NClass ClassOf(int64_t n) {
  if (n <= 1) {
    return kN1;
  }
  if (n < 8) {
    return kN2to7;
  }
  return n == 8 ? kN8 : kNWide;
}

const char* NClassName(NClass c) {
  static const char* const kNames[kNumNClasses] = {"n1", "n2_7", "n8", "wide"};
  return kNames[c];
}

KernelProbe::KernelProbe(const spinfer::TinyTransformer& model)
    : cfg_(model.config()) {
  const spinfer::TcaBmeConfig fmt = spinfer::TinyTransformer::EncodeFormat();
  uint64_t dense_bytes = 0;
  const Clock::time_point t0 = Clock::now();
  for (int64_t l = 0; l < cfg_.layers; ++l) {
    const spinfer::TinyTransformer::LayerWeights w = model.layer_weights(l);
    enc_.push_back({TcaBmeMatrix::Encode(*w.wq, fmt),
                    TcaBmeMatrix::Encode(*w.wk, fmt),
                    TcaBmeMatrix::Encode(*w.wv, fmt),
                    TcaBmeMatrix::Encode(*w.wo, fmt),
                    TcaBmeMatrix::Encode(*w.fc1, fmt),
                    TcaBmeMatrix::Encode(*w.fc2, fmt)});
  }
  encode_ms_ = MsSince(t0);
  for (const auto& layer : enc_) {
    for (const TcaBmeMatrix& m : layer) {
      nnz_ += m.nnz();
      storage_bytes_ += m.StorageBytes();
      dense_bytes += static_cast<uint64_t>(m.rows() * m.cols()) * 2;
    }
  }
  compression_ratio_ = static_cast<double>(dense_bytes) /
                       static_cast<double>(storage_bytes_);

  // Panels sized for the widest step any workload schedules; a wider step
  // grows them (zero-filled, still finite).
  spinfer::Rng rng(0x5e7ebe7c);
  const int64_t max_cols = 1024;
  FillPanel(cfg_.hidden, max_cols, &rng, &x_hidden_);
  FillPanel(cfg_.ffn, max_cols, &rng, &x_ffn_);
  FillPanel(cfg_.hidden, max_cols, &rng, &q_);
}

void KernelProbe::Replay(const PagedKvCache& cache,
                         const std::vector<int64_t>& dec_ids,
                         const std::vector<PrefillChunk>& chunks) {
  items_.clear();
  for (size_t i = 0; i < dec_ids.size(); ++i) {
    items_.push_back({dec_ids[i], static_cast<int64_t>(i), -1});
  }
  for (const PrefillChunk& c : chunks) {
    for (int64_t j = 0; j < c.count; ++j) {
      items_.push_back(
          {c.seq_id, static_cast<int64_t>(items_.size()), c.start + j + 1});
    }
  }
  const int64_t n = static_cast<int64_t>(items_.size());
  x_hidden_.Reshape(cfg_.hidden, n);
  x_ffn_.Reshape(cfg_.ffn, n);
  q_.Reshape(cfg_.hidden, n);
  attn_out_.Reshape(cfg_.hidden, n);

  // --- Weight matmuls: six per layer, MixedStep's order and shapes. -------
  Clock::time_point t0 = Clock::now();
  for (const auto& layer : enc_) {
    for (size_t m = 0; m < layer.size(); ++m) {
      const FloatMatrix& x = (m == 5) ? x_ffn_ : x_hidden_;  // fc2 reads ffn
      spinfer::CpuSpmmQuantInto(layer[m], x, &ws_, &out_);
    }
  }
  MatmulTotals& mt = matmul_[ClassOf(n)];
  mt.cols += n;
  mt.ms += MsSince(t0);
  const int64_t n_blocks =
      (n + spinfer::kCpuSpmmNBlock - 1) / spinfer::kCpuSpmmNBlock;
  flops_ += 2.0 * static_cast<double>(nnz_) * static_cast<double>(n);
  weight_bytes_ += static_cast<double>(storage_bytes_) *
                   static_cast<double>(n_blocks);

  // --- Paged attention, every layer, against the live cache. --------------
  int64_t context_sum = 0;
  for (const spinfer::PagedAttentionItem& it : items_) {
    context_sum +=
        it.context >= 0 ? it.context : cache.SequenceTokens(it.seq_id);
  }
  t0 = Clock::now();
  for (int64_t l = 0; l < cfg_.layers; ++l) {
    spinfer::PagedAttentionDecodeBatch(cache, l, cfg_.heads,
                                       cfg_.kv_head_count(), q_, items_,
                                       &attn_out_, &attn_scratch_);
  }
  attn_step_ms_.push_back(MsSince(t0));
  attn_items_ += n;
  context_sum_ += context_sum;
  kv_bytes_ += 2.0 * static_cast<double>(context_sum) *
               static_cast<double>(cfg_.kv_dim()) * sizeof(float) *
               static_cast<double>(cfg_.layers);
}

double KernelProbe::matmul_ms() const {
  double ms = 0.0;
  for (const MatmulTotals& t : matmul_) {
    ms += t.ms;
  }
  return ms;
}

double KernelProbe::attention_ms() const {
  double ms = 0.0;
  for (const double s : attn_step_ms_) {
    ms += s;
  }
  return ms;
}

double KernelProbe::ContextMean() const {
  return attn_items_ == 0 ? 0.0
                          : static_cast<double>(context_sum_) /
                                static_cast<double>(attn_items_);
}

}  // namespace servebench
