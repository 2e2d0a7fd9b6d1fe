// A complete, functional decoder-only transformer whose weight matmuls run
// through this library's sparse stack — the integration proof that pruning +
// TCA-BME + the bitmap SpMM backend compose into a working model, mirroring
// the paper's FasterTransformer integration at a CPU-executable scale.
//
// Numerics are exact enough to test: with the same pruned weights, the dense
// and TCA-BME backends produce matching logits and identical greedy decodes.
//
// Two execution modes:
//   * Forward/Generate — full-sequence recompute every step, with no KV cache:
//     the independent oracle every serving path is checked against.
//   * MixedStep — the ONE executing step body. It embeds a panel of decode
//     columns and prompt-chunk columns, runs each weight matmul with N =
//     panel columns, writes each column's per-layer K/V into a
//     PagedKvCache, attends per sequence over the paged context, and samples
//     greedily. Prefill is one whole-prompt chunk through it, and every
//     serving substrate runs it. Every stage is per-column/per-sequence, so
//     a sequence's tokens and logits are bit-identical for any batch
//     composition, chunking and thread count, and also match the
//     full-recompute Generate path bit for bit.
//
// Both modes share one epilogue (DESIGN.md §5): GELU is GeluInPlace over the
// repository's own RationalTanh, so its bits come from a fixed sequence of
// IEEE single-precision operations rather than the host's libm, and the
// tied unembedding is UnembedInto over the FP32-widened embedding, whose
// lanes run across the vocabulary while every logit keeps one serial r-
// ascending chain. Both loops vectorize on the baseline ISA with a single
// implementation, so the SIMD variants cannot differ there. Both modes'
// attention softmax takes its exponential from SoftmaxExp
// (paged_attention.h), the same function as the batched kernel's.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/core/cpu_backend.h"
#include "src/format/tca_bme.h"
#include "src/llm/kv_allocator.h"
#include "src/llm/paged_attention.h"
#include "src/numeric/matrix.h"
#include "src/pruning/pruner.h"

namespace spinfer {

struct TinyConfig {
  int64_t vocab = 256;
  int64_t hidden = 64;
  int64_t layers = 2;
  int64_t heads = 4;
  int64_t ffn = 256;
  int64_t max_seq = 64;
  // Key/value heads for grouped-query attention; 0 means == heads (classic
  // MHA, the default — and bit-for-bit the pre-GQA model, including its Rng
  // weight-draw order, since wk/wv keep their hidden x hidden shape).
  int64_t kv_heads = 0;

  int64_t head_dim() const { return hidden / heads; }
  int64_t kv_head_count() const { return kv_heads > 0 ? kv_heads : heads; }
  // Rows of wk/wv and of one K (or V) cache row: kv heads x head_dim.
  int64_t kv_dim() const { return kv_head_count() * head_dim(); }
};

// Which engine executes the weight matmuls.
enum class MatmulBackend {
  kDense,     // test oracle: ReferenceGemm on each weight, decoded per call
  kTcaBmeCpu  // CpuSpmm on the TCA-BME-encoded weights
};

// Greedy sampling: the max-logit column of `logits` row `row` (ties break to
// the lowest token id, matching Generate).
int32_t GreedyToken(const FloatMatrix& logits, int64_t row);

// The tanh inside GELU: a fixed sequence of separately rounded IEEE
// single-precision operations, so its bits depend on no host math library.
// Exactly odd; max abs error 4e-7 on [-12, 12]; exactly +-1 for |a| >=
// 7.9053111; NaN stays NaN.
float RationalTanh(float a);

// GELU (tanh form) of every element, in place: the one GELU loop of Forward
// and the step body. It vectorizes, and each element's result is bitwise the
// result of a one-element call.
void GeluInPlace(std::span<float> x);

// The tied unembedding: logits(i, v) = sum_r emb(r, v) * act(r, cols[i]) for
// a hidden x vocab `emb`, into `logits` (cols.size() x vocab). Each logit is
// one chain from +0.0f over r ascending, a separately rounded multiply then
// add per term.
void UnembedInto(const FloatMatrix& emb, const FloatMatrix& act,
                 std::span<const int64_t> cols, FloatMatrix* logits);

// One scheduled slice of a prompt for MixedStep: positions
// [start, start + count) of `*prompt` for `seq_id`, whose cache slots
// [0, start) must already hold real K/V (earlier chunks or an adopted shared
// prefix). The sequence must already be registered with >= start + count
// slots. A chunk with start + count == prompt->size() completes the prompt
// and produces the sequence's first generated token.
struct PrefillChunk {
  int64_t seq_id = 0;
  const std::vector<int32_t>* prompt = nullptr;
  int64_t start = 0;
  int64_t count = 0;
};

class TinyTransformer {
 public:
  // One layer's six weight matrices, TCA-BME-encoded. The encoding is the
  // only weight storage; a dense FP16 matrix exists only while one weight is
  // drawn, pruned or multiplied by the kDense oracle.
  struct Layer {
    TcaBmeMatrix wq, wo;  // hidden x hidden
    TcaBmeMatrix wk, wv;  // kv_dim x hidden (== hidden x hidden for MHA)
    TcaBmeMatrix fc1;     // ffn x hidden
    TcaBmeMatrix fc2;     // hidden x ffn
  };

  // Deterministic random initialization (scaled Gaussian). Each weight is
  // drawn, encoded and dropped before the next is drawn.
  TinyTransformer(const TinyConfig& config, uint64_t seed);

  // Prunes every transformer weight matrix (attention + FFN; embeddings stay
  // dense, as in the paper's end-to-end setup): one at a time, each is
  // decoded (exact), pruned and re-encoded.
  void PruneWeights(const Pruner& pruner, double sparsity);

  // Forward pass over `tokens`; returns logits (seq x vocab).
  FloatMatrix Forward(const std::vector<int32_t>& tokens, MatmulBackend backend) const;

  // Greedy decoding: extends `prompt` by `steps` tokens.
  std::vector<int32_t> Generate(const std::vector<int32_t>& prompt, int steps,
                                MatmulBackend backend) const;

  // --- Serving path (paged KV cache) ---------------------------------------

  // KV geometry for a PagedKvCache serving this model.
  PagedKvCacheConfig KvCacheConfig(int64_t block_tokens, int64_t num_blocks) const;

  // Whole-prompt prefill: one MixedStep whose only work is a single chunk
  // covering all of `tokens`. Writes every position's per-layer K/V into
  // `cache` slots [0, tokens.size()) of `seq_id` — which must already be
  // registered with exactly tokens.size() slots — and returns the first
  // generated token.
  int32_t Prefill(const std::vector<int32_t>& tokens, MatmulBackend backend,
                  PagedKvCache* cache, int64_t seq_id) const;

  // One mixed continuous-batching iteration: a decode batch plus any number
  // of prompt chunks, all through ONE matmul per weight with N =
  // dec_ids.size() + sum(chunk counts) columns — prefill work rides the
  // decode batch at the wide-N operating point instead of stalling it. For
  // decode sequence i (ragged contexts are fine), `dec_last[i]` is its most
  // recently produced token: the step appends that token's slot to the cache
  // (exhaustion is a CHECK failure — the scheduler reserves capacity at
  // admission), attends over the sequence's full cached context, and writes
  // its greedy next token to `dec_next[i]`. Chunk columns write their
  // position's per-layer K/V into the cache and attend causally over slots
  // [0, pos]. Per-column kernels make every sequence's results independent
  // of the batch mix and of where chunk boundaries fall. `chunk_next[c]`
  // receives the first generated token of chunk c if it completes its
  // prompt, else -1 (may be null when `chunks` is empty). `dec_logits_out`,
  // when non-null, receives the decode rows' logits (dec x vocab).
  void MixedStep(const std::vector<int64_t>& dec_ids,
                 const std::vector<int32_t>& dec_last,
                 const std::vector<PrefillChunk>& chunks, MatmulBackend backend,
                 PagedKvCache* cache, std::vector<int32_t>* dec_next,
                 std::vector<int32_t>* chunk_next,
                 FloatMatrix* dec_logits_out = nullptr) const;

  const TinyConfig& config() const { return config_; }
  // The resident weights: every layer's encodings, the ones both backends
  // multiply.
  const std::vector<Layer>& layers() const { return layers_; }

  // One layer's weights decoded to dense FP16: copies the caller owns, built
  // per call (the model keeps no dense weights).
  struct LayerWeights {
    std::unique_ptr<const HalfMatrix> wq, wk, wv, wo, fc1, fc2;
  };
  LayerWeights layer_weights(int64_t layer) const;
  // The TCA-BME geometry the model's own matmuls encode with.
  static TcaBmeConfig EncodeFormat();
  // Observability for the zero-allocation serving contract (tests, benches).
  // Grow count / capacity of the reusable step scratch: once a step at the
  // serving shapes has warmed it, further steps at those (or smaller) shapes
  // leave both unchanged — i.e. the step performs zero heap allocations.
  int64_t MatmulScratchGrowCount() const;
  uint64_t MatmulScratchCapacityBytes() const;
  // Weight footprints: what dense FP16 would take (from the shapes) vs the
  // encoded TCA-BME bytes, which are the resident ones.
  uint64_t DenseWeightBytes() const;
  uint64_t EncodedWeightBytes() const;
  // Average sparsity across transformer weights (from the encoded nnz).
  double WeightSparsity() const;

  // Embeds `token` at absolute position `pos` into column `col` of `act`:
  // embedding(r, token) + 0.1f * float(f(pos / 10000^(2*(r/2)/hidden))),
  // f = sin on even r and cos on odd r, the signal read from a table built
  // once per model. A decode step therefore embeds exactly the bits a
  // full-sequence Forward gives that position.
  void EmbedInto(int32_t token, int64_t pos, int64_t col, FloatMatrix* act) const;
  // hidden x vocab: the FP16 embedding draws widened exactly (tied LM head).
  const FloatMatrix& embedding() const { return embedding_; }

 private:
  // Reusable buffers for one Forward or step pass. Shapes depend only on
  // (panel width, hidden, ffn), so every layer — and every subsequent
  // call at seen shapes — reuses the same storage; nothing here is shrunk.
  // `xh` stages the FP16 conversion feeding the dense oracle backend (the
  // sparse backend quantizes on panel fill and never touches it). `scores`
  // grows to the longest context Forward attends.
  struct MatmulScratch {
    SpmmWorkspace ws;
    HalfMatrix xh;
    FloatMatrix normed, q, kk, v, attn_out, proj, ffn_in, hidden_act, ffn_out;
    FloatMatrix act, logits;  // step activation panel and logits
    std::vector<float> scores;
    // Batched paged-attention scratch and the step's per-column work list
    // (decode columns, then chunk columns), rebuilt in place each step, with
    // each column's absolute position and the columns that get logits.
    PagedAttentionScratch attn;
    std::vector<PagedAttentionItem> attn_items;
    std::vector<int64_t> positions;
    std::vector<int64_t> producer_cols;
  };

  // out = W*X on the selected backend, from FP32 activations: the sparse
  // path quantizes to FP16 while filling the SpMM panel (CpuSpmmQuantInto),
  // the dense oracle decodes `w` and stages an explicit FP16 copy of X —
  // both see the same FP16 weight and activation bits. `label` is a static
  // string literal naming the matmul's trace span (e.g. "tt.matmul.wq").
  void MatmulInto(const TcaBmeMatrix& w, const FloatMatrix& x,
                  MatmulBackend backend, const char* label,
                  FloatMatrix* out) const;

  TinyConfig config_;
  // hidden x vocab: the FP16 draws widened exactly (tied LM head).
  FloatMatrix embedding_;
  // max_seq x hidden: the positional signal, built once per model.
  FloatMatrix pos_signal_;
  std::vector<Layer> layers_;
  // `mutable`: Forward is logically const. A single TinyTransformer must not
  // run concurrent Forward calls (matching the SpmmWorkspace contract).
  mutable MatmulScratch scratch_;
};

}  // namespace spinfer
