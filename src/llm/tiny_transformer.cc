#include "src/llm/tiny_transformer.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/core/cpu_backend.h"
#include "src/llm/paged_attention.h"
#include "src/obs/trace.h"
#include "src/util/check.h"
#include "src/util/random.h"

namespace spinfer {
namespace {

// Encoding geometry for the tiny weights: GroupTile = one TCTile keeps the
// padding overhead negligible at hidden sizes of 64.
TcaBmeConfig TinyFormat() {
  TcaBmeConfig cfg;
  cfg.gt_rows = 16;
  cfg.gt_cols = 16;
  return cfg;
}

// Converts a float activation (rows x cols) to FP16 into reusable storage.
void ToHalfInto(const FloatMatrix& f, HalfMatrix* h) {
  h->Reshape(f.rows(), f.cols());
  for (int64_t i = 0; i < f.size(); ++i) {
    h->data()[i] = Half(f.data()[i]);
  }
}

// Copy into reusable storage (grow-only Reshape, so warmed scratch matrices
// stop allocating; plain operator= could reallocate on every call).
void CopyInto(const FloatMatrix& src, FloatMatrix* dst) {
  dst->Reshape(src.rows(), src.cols());
  std::copy(src.data(), src.data() + src.size(), dst->data());
}

// Rounds every element to FP16 and back (the paged KV cache's page format).
void RoundThroughHalf(FloatMatrix* m) {
  for (int64_t i = 0; i < m->size(); ++i) {
    m->data()[i] = Half(m->data()[i]).ToFloat();
  }
}

// LayerNorm over the hidden dimension. Activations are (hidden x seq):
// normalize each column.
void LayerNormColumns(FloatMatrix* a) {
  SPINFER_TRACE_SCOPE("tt.layernorm");
  const int64_t h = a->rows();
  for (int64_t c = 0; c < a->cols(); ++c) {
    double mean = 0.0;
    for (int64_t r = 0; r < h; ++r) {
      mean += a->at(r, c);
    }
    mean /= static_cast<double>(h);
    double var = 0.0;
    for (int64_t r = 0; r < h; ++r) {
      const double d = a->at(r, c) - mean;
      var += d * d;
    }
    var /= static_cast<double>(h);
    const double inv = 1.0 / std::sqrt(var + 1e-5);
    for (int64_t r = 0; r < h; ++r) {
      a->at(r, c) = static_cast<float>((a->at(r, c) - mean) * inv);
    }
  }
}

// A layer's six weights, in the model's draw order.
constexpr TcaBmeMatrix TinyTransformer::Layer::*kLayerWeights[] = {
    &TinyTransformer::Layer::wq, &TinyTransformer::Layer::wk,
    &TinyTransformer::Layer::wv, &TinyTransformer::Layer::wo,
    &TinyTransformer::Layer::fc1, &TinyTransformer::Layer::fc2};

}  // namespace

float RationalTanh(float a) {
  // Eigen's generic_fast_tanh_float: an odd 13/6 rational minimax whose p/q
  // rounds to exactly +-1 at the clamp. std::min/std::max return their first
  // argument when the comparison is false, so NaN passes the clamps.
  const float x = std::max(std::min(a, 7.90531110763549805f),
                           -7.90531110763549805f);
  const float x2 = x * x;
  float p = x2 * -2.76076847742355e-16f + 2.00018790482477e-13f;
  p = p * x2 + -8.60467152213735e-11f;
  p = p * x2 + 5.12229709037114e-08f;
  p = p * x2 + 1.48572235717979e-05f;
  p = p * x2 + 6.37261928875436e-04f;
  p = p * x2 + 4.89352455891786e-03f;
  p = p * x;
  float q = x2 * 1.19825839466702e-06f + 1.18534705686654e-04f;
  q = q * x2 + 2.26843463243900e-03f;
  q = q * x2 + 4.89352518554385e-03f;
  return std::fabs(a) < 0.0004f ? a : p / q;
}

void GeluInPlace(std::span<float> x) {
  const float c = 0.7978845608f;  // sqrt(2/pi)
  for (float& v : x) {
    v = 0.5f * v * (1.0f + RationalTanh(c * (v + 0.044715f * v * v * v)));
  }
}

void UnembedInto(const FloatMatrix& emb, const FloatMatrix& act,
                 std::span<const int64_t> cols, FloatMatrix* logits) {
  SPINFER_CHECK_EQ(act.rows(), emb.rows());
  const int64_t vocab = emb.cols();
  logits->Reshape(static_cast<int64_t>(cols.size()), vocab);
  logits->Fill(0.0f);
  // r outer, vocabulary innermost: the lanes run across neighbouring logits,
  // each still one chain over r ascending.
  for (int64_t r = 0; r < emb.rows(); ++r) {
    const float* e = emb.data() + r * vocab;
    for (size_t i = 0; i < cols.size(); ++i) {
      const float a = act.at(r, cols[i]);
      float* out = logits->data() + static_cast<int64_t>(i) * vocab;
      for (int64_t v = 0; v < vocab; ++v) {
        out[v] += e[v] * a;
      }
    }
  }
}

int32_t GreedyToken(const FloatMatrix& logits, int64_t row) {
  int32_t best = 0;
  float best_score = logits.at(row, 0);
  for (int64_t vtok = 1; vtok < logits.cols(); ++vtok) {
    if (logits.at(row, vtok) > best_score) {
      best_score = logits.at(row, vtok);
      best = static_cast<int32_t>(vtok);
    }
  }
  return best;
}

TinyTransformer::TinyTransformer(const TinyConfig& config, uint64_t seed)
    : config_(config) {
  SPINFER_CHECK(config.hidden % config.heads == 0);
  SPINFER_CHECK(config.heads % config.kv_head_count() == 0);
  Rng rng(seed);
  const float scale = 1.0f / std::sqrt(static_cast<float>(config.hidden));
  const HalfMatrix embedding =
      HalfMatrix::Random(config.vocab, config.hidden, rng, scale);
  embedding_ = FloatMatrix(config.hidden, config.vocab);
  for (int64_t v = 0; v < config.vocab; ++v) {
    for (int64_t r = 0; r < config.hidden; ++r) {
      embedding_.at(r, v) = embedding.at(v, r).ToFloat();
    }
  }
  pos_signal_ = FloatMatrix(config.max_seq, config.hidden);
  for (int64_t r = 0; r < config.hidden; ++r) {
    const double divisor =
        std::pow(10000.0, static_cast<double>(2 * (r / 2)) / config.hidden);
    for (int64_t pos = 0; pos < config.max_seq; ++pos) {
      const double p = static_cast<double>(pos) / divisor;
      pos_signal_.at(pos, r) =
          0.1f * static_cast<float>((r % 2 == 0) ? std::sin(p) : std::cos(p));
    }
  }
  // Each weight is drawn, encoded and dropped before the next draw, so the
  // dense form of the model never exists as a whole.
  const auto draw = [&](int64_t rows, int64_t cols, float stddev) {
    return TcaBmeMatrix::Encode(HalfMatrix::Random(rows, cols, rng, stddev),
                                TinyFormat());
  };
  layers_.resize(static_cast<size_t>(config.layers));
  for (Layer& l : layers_) {
    l.wq = draw(config.hidden, config.hidden, scale);
    l.wk = draw(config.kv_dim(), config.hidden, scale);
    l.wv = draw(config.kv_dim(), config.hidden, scale);
    l.wo = draw(config.hidden, config.hidden, scale);
    l.fc1 = draw(config.ffn, config.hidden, scale);
    l.fc2 = draw(config.hidden, config.ffn,
                 1.0f / std::sqrt(static_cast<float>(config.ffn)));
  }
}

void TinyTransformer::PruneWeights(const Pruner& pruner, double sparsity) {
  for (Layer& l : layers_) {
    for (TcaBmeMatrix Layer::*w : kLayerWeights) {
      l.*w = TcaBmeMatrix::Encode(pruner.Prune((l.*w).Decode(), sparsity),
                                  TinyFormat());
    }
  }
}

void TinyTransformer::MatmulInto(const TcaBmeMatrix& w, const FloatMatrix& x,
                                 MatmulBackend backend, const char* label,
                                 FloatMatrix* out) const {
  SPINFER_TRACE_SCOPE(label);
  if (backend == MatmulBackend::kDense) {
    // The test oracle: an exact decode per call, then the dense GEMM.
    ToHalfInto(x, &scratch_.xh);
    *out = ReferenceGemm(w.Decode(), scratch_.xh);
    return;
  }
  // The sparse path quantizes to FP16 on panel fill — bit-identical to the
  // explicit ToHalfInto staging above, one conversion pass cheaper.
  CpuSpmmQuantInto(w, x, &scratch_.ws, out);
}

int64_t TinyTransformer::MatmulScratchGrowCount() const {
  return scratch_.ws.grow_count() + scratch_.attn.grow_count();
}

uint64_t TinyTransformer::MatmulScratchCapacityBytes() const {
  const MatmulScratch& s = scratch_;
  uint64_t bytes = s.ws.capacity_bytes() + s.xh.capacity() * sizeof(Half) +
                   s.scores.capacity() * sizeof(float) + s.attn.capacity_bytes() +
                   s.attn_items.capacity() * sizeof(PagedAttentionItem) +
                   (s.positions.capacity() + s.producer_cols.capacity()) *
                       sizeof(int64_t);
  for (const FloatMatrix* m :
       {&s.normed, &s.q, &s.kk, &s.v, &s.attn_out, &s.proj, &s.ffn_in,
        &s.hidden_act, &s.ffn_out, &s.act, &s.logits}) {
    bytes += m->capacity() * sizeof(float);
  }
  return bytes;
}

void TinyTransformer::EmbedInto(int32_t token, int64_t pos, int64_t col,
                                FloatMatrix* act) const {
  SPINFER_CHECK(token >= 0 && token < config_.vocab);
  SPINFER_CHECK(pos >= 0 && pos < config_.max_seq);
  const float* signal = pos_signal_.data() + pos * config_.hidden;
  for (int64_t r = 0; r < config_.hidden; ++r) {
    act->at(r, col) = embedding_.at(r, token) + signal[r];
  }
}

TinyTransformer::LayerWeights TinyTransformer::layer_weights(int64_t layer) const {
  const Layer& l = layers_[static_cast<size_t>(layer)];
  const auto decoded = [](const TcaBmeMatrix& w) {
    return std::make_unique<const HalfMatrix>(w.Decode());
  };
  return LayerWeights{decoded(l.wq), decoded(l.wk),  decoded(l.wv),
                      decoded(l.wo), decoded(l.fc1), decoded(l.fc2)};
}

TcaBmeConfig TinyTransformer::EncodeFormat() { return TinyFormat(); }

PagedKvCacheConfig TinyTransformer::KvCacheConfig(int64_t block_tokens,
                                                  int64_t num_blocks) const {
  PagedKvCacheConfig cfg;
  cfg.layers = config_.layers;
  cfg.kv_dim = config_.kv_dim();
  cfg.block_tokens = block_tokens;
  cfg.num_blocks = num_blocks;
  return cfg;
}

int32_t TinyTransformer::Prefill(const std::vector<int32_t>& tokens,
                                 MatmulBackend backend, PagedKvCache* cache,
                                 int64_t seq_id) const {
  SPINFER_CHECK(cache != nullptr);
  const int64_t len = static_cast<int64_t>(tokens.size());
  SPINFER_CHECK_EQ(cache->SequenceTokens(seq_id), len);
  std::vector<int32_t> first;
  MixedStep({}, {}, {PrefillChunk{seq_id, &tokens, 0, len}}, backend, cache,
            /*dec_next=*/nullptr, &first);
  return first[0];
}

FloatMatrix TinyTransformer::Forward(const std::vector<int32_t>& tokens,
                                     MatmulBackend backend) const {
  const int64_t seq = static_cast<int64_t>(tokens.size());
  SPINFER_CHECK(seq > 0 && seq <= config_.max_seq);
  const int64_t h = config_.hidden;
  const int64_t hd = config_.head_dim();
  // Grouped-query attention: query head `head` reads kv head `head / group`.
  const int64_t group = config_.heads / config_.kv_head_count();

  SPINFER_TRACE_SCOPE_ARG("tt.forward", "seq", seq);

  // Activations are (hidden x seq): one column per token, matching the
  // W(MxK) * X(KxN) convention of the kernels.
  FloatMatrix act(h, seq);
  {
    SPINFER_TRACE_SCOPE("tt.embed");
    for (int64_t t = 0; t < seq; ++t) {
      EmbedInto(tokens[t], /*pos=*/t, /*col=*/t, &act);
    }
  }

  MatmulScratch& s = scratch_;
  for (size_t layer_idx = 0; layer_idx < layers_.size(); ++layer_idx) {
    const Layer& l = layers_[layer_idx];
    SPINFER_TRACE_SCOPE_ARG("tt.layer", "layer",
                            static_cast<int64_t>(layer_idx));
    // --- Attention block (pre-LN). ---
    CopyInto(act, &s.normed);
    LayerNormColumns(&s.normed);
    MatmulInto(l.wq, s.normed, backend, "tt.matmul.wq", &s.q);
    MatmulInto(l.wk, s.normed, backend, "tt.matmul.wk", &s.kk);
    MatmulInto(l.wv, s.normed, backend, "tt.matmul.wv", &s.v);
    // K and V through FP16 once, as the paged cache stores them.
    RoundThroughHalf(&s.kk);
    RoundThroughHalf(&s.v);
    const FloatMatrix& q = s.q;
    const FloatMatrix& kk = s.kk;
    const FloatMatrix& v = s.v;

    s.attn_out.Reshape(h, seq);
    FloatMatrix& attn_out = s.attn_out;
    const float inv_sqrt_d = 1.0f / std::sqrt(static_cast<float>(hd));
    s.scores.resize(static_cast<size_t>(seq));
    std::vector<float>& scores = s.scores;
    {
      SPINFER_TRACE_SCOPE("tt.attention");
      for (int64_t head = 0; head < config_.heads; ++head) {
        const int64_t r0 = head * hd;
        const int64_t kv0 = (head / group) * hd;  // kv-head row base
        for (int64_t t = 0; t < seq; ++t) {
          // Causal scores for query t against keys 0..t.
          float max_score = -1e30f;
          for (int64_t s = 0; s <= t; ++s) {
            float dot = 0.0f;
            for (int64_t r = 0; r < hd; ++r) {
              dot += q.at(r0 + r, t) * kk.at(kv0 + r, s);
            }
            scores[s] = dot * inv_sqrt_d;
            max_score = std::max(max_score, scores[s]);
          }
          float denom = 0.0f;
          for (int64_t s = 0; s <= t; ++s) {
            scores[s] = SoftmaxExp(scores[s] - max_score);
            denom += scores[s];
          }
          for (int64_t r = 0; r < hd; ++r) {
            float acc = 0.0f;
            for (int64_t s = 0; s <= t; ++s) {
              acc += scores[s] * v.at(kv0 + r, s);
            }
            attn_out.at(r0 + r, t) = acc / denom;
          }
        }
      }
    }
    MatmulInto(l.wo, attn_out, backend, "tt.matmul.wo", &s.proj);
    for (int64_t i = 0; i < act.size(); ++i) {
      act.data()[i] += s.proj.data()[i];  // residual
    }

    // --- FFN block (pre-LN, GELU). ---
    CopyInto(act, &s.ffn_in);
    LayerNormColumns(&s.ffn_in);
    MatmulInto(l.fc1, s.ffn_in, backend, "tt.matmul.fc1", &s.hidden_act);
    GeluInPlace({s.hidden_act.data(), static_cast<size_t>(s.hidden_act.size())});
    MatmulInto(l.fc2, s.hidden_act, backend, "tt.matmul.fc2", &s.ffn_out);
    for (int64_t i = 0; i < act.size(); ++i) {
      act.data()[i] += s.ffn_out.data()[i];
    }
  }

  // Final LN + tied unembedding of every position.
  LayerNormColumns(&act);
  SPINFER_TRACE_SCOPE("tt.unembed");
  std::vector<int64_t> cols(static_cast<size_t>(seq));
  std::iota(cols.begin(), cols.end(), 0);
  FloatMatrix logits;
  UnembedInto(embedding_, act, cols, &logits);
  return logits;
}

void TinyTransformer::MixedStep(const std::vector<int64_t>& dec_ids,
                                const std::vector<int32_t>& dec_last,
                                const std::vector<PrefillChunk>& chunks,
                                MatmulBackend backend, PagedKvCache* cache,
                                std::vector<int32_t>* dec_next,
                                std::vector<int32_t>* chunk_next,
                                FloatMatrix* dec_logits_out) const {
  SPINFER_CHECK(cache != nullptr);
  SPINFER_CHECK_EQ(cache->config().kv_dim, config_.kv_dim());
  const int64_t dec = static_cast<int64_t>(dec_ids.size());
  SPINFER_CHECK_EQ(static_cast<int64_t>(dec_last.size()), dec);
  SPINFER_CHECK(dec_next != nullptr || dec == 0);
  SPINFER_CHECK(chunk_next != nullptr || chunks.empty());
  const int64_t h = config_.hidden;

  // Panel width: one column per decode sequence plus one per chunk token.
  int64_t n = dec;
  for (const PrefillChunk& c : chunks) {
    SPINFER_CHECK(c.prompt != nullptr && c.count > 0 && c.start >= 0);
    const int64_t len = static_cast<int64_t>(c.prompt->size());
    SPINFER_CHECK(c.start + c.count <= len && len <= config_.max_seq);
    SPINFER_CHECK_MSG(cache->SequenceTokens(c.seq_id) >= c.start + c.count,
                      "chunk past the registered slots of sequence " << c.seq_id);
    n += c.count;
  }
  SPINFER_CHECK(n > 0);

  SPINFER_TRACE_SCOPE_ARG("tt.decode", "batch", n);

  MatmulScratch& s = scratch_;
  // Per column: its sequence, absolute position and attention horizon. Each
  // decode sequence first appends its new slot and embeds its last token
  // there; admission reserved the blocks, so exhaustion here is a scheduler
  // bug, not a runtime condition. Chunk columns embed prompt tokens at their
  // absolute positions — the bits a full-sequence Forward would give those
  // positions — and attend the causal horizon [0, pos] even though later
  // slots of their chunk are written in the same layer.
  s.act.Reshape(h, n);
  s.positions.resize(static_cast<size_t>(n));
  s.attn_items.clear();
  s.producer_cols.clear();
  {
    SPINFER_TRACE_SCOPE("tt.embed");
    for (int64_t i = 0; i < dec; ++i) {
      SPINFER_CHECK_MSG(cache->AppendToken(dec_ids[i]),
                        "KV pool exhausted mid-decode; admission must "
                        "reserve blocks for a sequence's full max length");
      const int64_t pos = cache->SequenceTokens(dec_ids[i]) - 1;
      SPINFER_CHECK(pos < config_.max_seq);
      EmbedInto(dec_last[i], pos, /*col=*/i, &s.act);
      s.positions[static_cast<size_t>(i)] = pos;
      s.attn_items.push_back({dec_ids[i], /*col=*/i, /*context=*/-1});
      s.producer_cols.push_back(i);
    }
    int64_t col = dec;
    for (const PrefillChunk& c : chunks) {
      for (int64_t pos = c.start; pos < c.start + c.count; ++pos, ++col) {
        EmbedInto((*c.prompt)[static_cast<size_t>(pos)], pos, col, &s.act);
        s.positions[static_cast<size_t>(col)] = pos;
        s.attn_items.push_back({c.seq_id, col, /*context=*/pos + 1});
      }
      // The final column of a chunk that completes its prompt seeds
      // generation; mid-prompt columns exist to deposit K/V.
      if (c.start + c.count == static_cast<int64_t>(c.prompt->size())) {
        s.producer_cols.push_back(col - 1);
      }
    }
  }

  for (int64_t layer = 0; layer < config_.layers; ++layer) {
    const Layer& l = layers_[static_cast<size_t>(layer)];
    SPINFER_TRACE_SCOPE_ARG("tt.layer", "layer", layer);
    // --- Attention block (pre-LN). One SpMM per weight with N columns. ---
    CopyInto(s.act, &s.normed);
    LayerNormColumns(&s.normed);
    MatmulInto(l.wq, s.normed, backend, "tt.matmul.wq", &s.q);
    MatmulInto(l.wk, s.normed, backend, "tt.matmul.wk", &s.kk);
    MatmulInto(l.wv, s.normed, backend, "tt.matmul.wv", &s.v);
    for (const PagedAttentionItem& it : s.attn_items) {
      cache->WriteSlot(layer, it.seq_id,
                       s.positions[static_cast<size_t>(it.col)],
                       &s.kk.at(0, it.col), &s.v.at(0, it.col), n);
    }
    s.attn_out.Reshape(h, n);
    {
      SPINFER_TRACE_SCOPE("tt.attention");
      PagedAttentionDecodeBatch(*cache, layer, config_.heads,
                                config_.kv_head_count(), s.q, s.attn_items,
                                &s.attn_out, &s.attn);
    }
    MatmulInto(l.wo, s.attn_out, backend, "tt.matmul.wo", &s.proj);
    for (int64_t i = 0; i < s.act.size(); ++i) {
      s.act.data()[i] += s.proj.data()[i];  // residual
    }

    // --- FFN block (pre-LN, GELU). ---
    CopyInto(s.act, &s.ffn_in);
    LayerNormColumns(&s.ffn_in);
    MatmulInto(l.fc1, s.ffn_in, backend, "tt.matmul.fc1", &s.hidden_act);
    {
      SPINFER_TRACE_SCOPE("tt.gelu");
      GeluInPlace(
          {s.hidden_act.data(), static_cast<size_t>(s.hidden_act.size())});
    }
    MatmulInto(l.fc2, s.hidden_act, backend, "tt.matmul.fc2", &s.ffn_out);
    for (int64_t i = 0; i < s.act.size(); ++i) {
      s.act.data()[i] += s.ffn_out.data()[i];
    }
  }

  // Final LN + tied unembedding — but only for producer columns: every
  // decode column, then each completing chunk's final column.
  LayerNormColumns(&s.act);
  SPINFER_TRACE_SCOPE("tt.unembed");
  UnembedInto(embedding_, s.act, s.producer_cols, &s.logits);
  if (dec_next != nullptr) {
    dec_next->resize(static_cast<size_t>(dec));
    for (int64_t i = 0; i < dec; ++i) {
      (*dec_next)[static_cast<size_t>(i)] = GreedyToken(s.logits, i);
    }
  }
  if (chunk_next != nullptr) {
    chunk_next->assign(chunks.size(), -1);
    int64_t row = dec;  // completing chunks' rows follow the decode rows
    for (size_t c = 0; c < chunks.size(); ++c) {
      const PrefillChunk& chunk = chunks[c];
      if (chunk.start + chunk.count ==
          static_cast<int64_t>(chunk.prompt->size())) {
        (*chunk_next)[c] = GreedyToken(s.logits, row++);
      }
    }
  }
  if (dec_logits_out != nullptr) {
    // Decode rows lead the logits panel, so rows [0, dec) are contiguous.
    dec_logits_out->Reshape(dec, config_.vocab);
    std::copy(s.logits.data(), s.logits.data() + dec * config_.vocab,
              dec_logits_out->data());
  }
}

std::vector<int32_t> TinyTransformer::Generate(const std::vector<int32_t>& prompt,
                                               int steps, MatmulBackend backend) const {
  std::vector<int32_t> tokens = prompt;
  for (int i = 0; i < steps && static_cast<int64_t>(tokens.size()) < config_.max_seq;
       ++i) {
    SPINFER_TRACE_SCOPE_ARG("tt.decode_step", "step", i);
    const FloatMatrix logits = Forward(tokens, backend);
    tokens.push_back(GreedyToken(logits, logits.rows() - 1));
  }
  return tokens;
}

uint64_t TinyTransformer::DenseWeightBytes() const {
  uint64_t total = 0;
  for (const Layer& l : layers_) {
    for (TcaBmeMatrix Layer::*w : kLayerWeights) {
      total += 2ull * static_cast<uint64_t>((l.*w).rows() * (l.*w).cols());
    }
  }
  return total;
}

uint64_t TinyTransformer::EncodedWeightBytes() const {
  uint64_t total = 0;
  for (const Layer& l : layers_) {
    for (TcaBmeMatrix Layer::*w : kLayerWeights) {
      total += (l.*w).StorageBytes();
    }
  }
  return total;
}

double TinyTransformer::WeightSparsity() const {
  int64_t nnz = 0;
  int64_t total = 0;
  for (const Layer& l : layers_) {
    for (TcaBmeMatrix Layer::*w : kLayerWeights) {
      nnz += (l.*w).nnz();
      total += (l.*w).rows() * (l.*w).cols();
    }
  }
  return 1.0 - static_cast<double>(nnz) / static_cast<double>(total);
}

}  // namespace spinfer
