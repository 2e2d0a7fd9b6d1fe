// Internal: the kernel table every SIMD variant of the batched
// paged-attention kernel fills, and the exponential's constants.
//
// The batch code (paged_attention.cc) owns the work grid, the KV block
// walks, query staging, the denominators of lone queries and the writeback.
// A variant supplies only the kernels below, so it can disagree about
// *scheduling* identical per-element mul-then-add chains, never about which
// products to form or in what order a given output element accumulates them.
// That is the bit-identity contract tests/paged_attention_test.cc enforces
// against PagedAttentionDecodeReference.
//
// Per-element accumulation-order contract (the reference's chains):
//   * score[t] = (sum over r ascending of q[r] * k_t[r]) * inv_sqrt_d —
//     one scalar chain per (query, key), separate mul/add roundings, the sum
//     starting from +0.0f.
//   * max = the t-ascending fold m = (m < s) ? s : m from -1e30f; a max is
//     exact, so it may be taken in any order (only the sign of a zero maximum
//     can differ, and s - (+0) and s - (-0) feed SoftmaxExp the same value up
//     to the sign of a zero, whose exp is 1 either way).
//   * e[t] = SoftmaxExp(score[t] - max); denom = t-ascending sum from 0.0f.
//   * out[r] = (sum over t ascending of e[t] * v_t[r]) / denom — one scalar
//     chain per output row, from 0.0f.
//
// Do not include outside src/llm/paged_attention*.cc and tests.
#pragma once

#include <cstdint>

namespace spinfer {
namespace paged_attention_detail {

// A query tile holds at most this many queries, one per SIMD lane.
inline constexpr int kTileLanes = 8;

// Runs of at least this many consecutive items of one sequence are cut into
// tiles; shorter runs are lone queries. A tile costs about the same for 1 or
// 8 queries, a lone query a fixed amount each. Measured at context 448, 8
// heads x 32, one thread, AVX2 (EXPERIMENTS.md, "One K/V pass per query
// tile"), median microseconds per query, tile vs lone: 82-94 vs 42-48 at 2
// queries, 57-61 vs 45-50 at 3, 42-48 vs 47-50 at 4, 20-24 vs 40-107 at 8.
inline constexpr int64_t kTileMinQueries = 4;

// Per-task phase counters for the traced path, split at the kernel's three
// stages. Now() is out-of-line (paged_attention.cc) so this header does not
// pull in the tracer.
struct AttnPhaseRecorder {
  uint64_t qk_ns = 0;
  uint64_t softmax_ns = 0;
  uint64_t pv_ns = 0;
  uint64_t Now() const;
};

// SoftmaxExp's constants (see its declaration in paged_attention.h), shared
// by the scalar definition and the AVX2 mirror.
inline constexpr float kExpLo = -87.3365447505531f;  // ln(FLT_MIN)
inline constexpr float kExpLog2e = 1.44269504088896341f;
// 1.5 * 2^23: adding it rounds a float of magnitude < 2^22 to an integer,
// which lands in the low mantissa bits.
inline constexpr float kExpRoundMagic = 12582912.0f;
inline constexpr float kExpLn2Hi = 0.693359375f;  // exact in 9 bits
inline constexpr float kExpLn2Lo = -2.12194440e-4f;
inline constexpr float kExpP0 = 1.9875691500e-4f;
inline constexpr float kExpP1 = 1.3981999507e-3f;
inline constexpr float kExpP2 = 8.3334519073e-3f;
inline constexpr float kExpP3 = 4.1665795894e-2f;
inline constexpr float kExpP4 = 1.6666665459e-1f;
inline constexpr float kExpP5 = 5.0000001201e-1f;

// One variant's kernels. Block kernels see one KV block of one kv head:
// `kbase`/`vbase` point at the block's first row with the head's offset
// applied, row t is base + t * stride, and `rows` <= block_tokens.
struct AttnKernels {
  // Lone queries, one head:
  //   qk_block: scores[t] = dot(qh, k_t) * inv_sqrt_d for t in [0, rows).
  //   pv_block: acc[r] += probs[t] * v_t[r], t ascending (outer).
  //   row_max:  the max of scores[0, n) from -1e30f.
  //   row_exp:  scores[t] = SoftmaxExp(scores[t] - max) for t in [0, n).
  void (*qk_block)(const float* qh, const float* kbase, int64_t rows,
                   int64_t stride, int64_t hd, float inv_sqrt_d,
                   float* scores);
  void (*pv_block)(const float* probs, const float* vbase, int64_t rows,
                   int64_t stride, int64_t hd, float* acc);
  float (*row_max)(const float* scores, int64_t n);
  void (*row_exp)(float* scores, int64_t n, float max);
  // Query tiles, one head. Lane j of the tile is query j; `qt` is the
  // tile's query head transposed (qt[r * 8 + j]), scores and accumulators
  // are lane-interleaved (scores[t * 8 + j], acc[r * 8 + j]). Lane j attends
  // keys [0, lane_ctx[j]); every lane attends the first `full` keys.
  //   tile_qk_block: scores[t * 8 + j] = dot(q_j, k_t) * inv_sqrt_d for
  //     every lane and t in [0, rows) — horizons are applied later.
  //   tile_softmax: over keys [0, keys), per lane, the masked max, then
  //     scores = SoftmaxExp(score - max) and denom[j] = the t-ascending sum
  //     of lane j's unmasked exps (masked lanes' scores are left unspecified).
  //   tile_pv_block: acc[r * 8 + j] += probs[t * 8 + j] * v_t[r] for the
  //     block's keys t0 + t inside lane j's horizon, t ascending; `full`
  //     counts the block's leading rows inside every horizon.
  void (*tile_qk_block)(const float* qt, const float* kbase, int64_t rows,
                        int64_t stride, int64_t hd, float inv_sqrt_d,
                        float* scores);
  void (*tile_softmax)(float* scores, int64_t keys, int64_t full,
                       const int32_t* lane_ctx, float* denom);
  void (*tile_pv_block)(const float* probs, const float* vbase, int64_t rows,
                        int64_t stride, int64_t hd, int64_t t0, int64_t full,
                        const int32_t* lane_ctx, float* acc);
};

// The portable kernels (paged_attention.cc): the scalar chains written as
// plain loops, the tile kernels as plain 8-lane loops.
const AttnKernels& PortableAttnKernels();
// The AVX2 kernels (paged_attention_avx2.cc, built with -mavx2 -mfma when
// available; a CHECK-failing stub otherwise). Gate:
// PagedAttentionVariantAvailable(kAvx2) — compiled-in AND runtime avx2+fma.
// Explicit separate mul/add intrinsics, never FMA.
const AttnKernels& Avx2AttnKernels();
// Whether the AVX2 unit was built with its ISA flags (false on non-x86 or
// pre-AVX2 toolchains; the stub then CHECK-fails if ever reached).
bool PagedAttentionAvx2Compiled();

}  // namespace paged_attention_detail
}  // namespace spinfer
