// Internal: the kernel table every SIMD variant of the batched
// paged-attention kernel fills, and the exponential's constants.
//
// The batch code (paged_attention.cc) owns the work grid, the KV block
// walks, query staging, the softmax denominators and the writeback.
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

#include "src/numeric/fp16.h"

namespace spinfer {
namespace paged_attention_detail {

// A query tile holds at most this many queries; the AVX2 tile kernels keep
// one register per query.
inline constexpr int kTileLanes = 8;

// Runs of at least this many consecutive items of one sequence are cut into
// tiles; shorter runs are lone queries. A tile costs about the same for 1 or
// 8 queries, a lone query a fixed amount each. Measured on the FP16 pages
// at context 448, 8 heads x 32, one thread, AVX2 (EXPERIMENTS.md, "FP16 KV
// pages"), median microseconds per query in three rounds, tile vs lone:
// 24.7-39.0 vs 21.2-22.9 at 4 queries, 20.4-31.4 vs 21.2-23.0 at 5 (the
// tile ahead in two rounds, and by minimum 20.4 vs 21.2-22.0 in all three),
// 15.4-16.1 vs 21.2-22.9 at 7, 13.9-21.3 vs 22.0-23.6 at 8.
inline constexpr int64_t kTileMinQueries = 5;

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

// One variant's kernels. Block kernels see one KV block of one kv head, in
// the cache's FP16 page format (kv_allocator.h), and widen what they read:
// `khead` is the head's dims-major K slice (key t's dimension r at
// khead[r * bt + t]), `vhead` the head's first V element (key t's row at
// vhead + t * stride), and `rows` <= bt keys are live.
struct AttnKernels {
  // Lone queries, one head:
  //   qk_block: scores[t] = dot(qh, k_t) * inv_sqrt_d for t in [0, rows),
  //     the keys in the SIMD lanes.
  //   pv_block: acc[r] += probs[t] * v_t[r], t ascending (outer), the head
  //     dimensions in the SIMD lanes.
  void (*qk_block)(const float* qh, const Half* khead, int64_t rows,
                   int64_t bt, int64_t hd, float inv_sqrt_d, float* scores);
  void (*pv_block)(const float* probs, const Half* vhead, int64_t rows,
                   int64_t stride, int64_t hd, float* acc);
  // row_exp: scores[t] = SoftmaxExp(scores[t] - max) for t in [0, n) (the
  // softmax's exponential, elementwise; the tests compare the AVX2 mirror
  // with SoftmaxExp through it).
  void (*row_exp)(float* scores, int64_t n, float max);
  // The softmax of n <= 8 score rows (a lone query's heads or a tile's
  // queries): row i at scores + i * ld, over its first len[i] keys. Each
  // row's max from -1e30f, then scores = SoftmaxExp(score - max) in place,
  // and denom[i] = the t-ascending sum of row i's exps from 0.0f. Slots of
  // a row past len[i], up to the next multiple of 8, may be overwritten
  // (ld leaves room for them).
  void (*softmax_rows)(float* scores, int64_t ld, int64_t n,
                       const int64_t* len, float* denom);
  // Query tiles, one head: the same schemes with the tile's 8 queries
  // sharing each widening load. `qt` is the tile's query head transposed
  // (qt[r * 8 + j]); query j's scores are row j of `scores` (row stride
  // `ld`, key t at column t) and its PV accumulators acc[j * hd + r]. Query
  // j attends keys [0, lane_ctx[j]); every query attends the first `full`
  // keys.
  //   tile_qk_block: scores[j * ld + t] = dot(q_j, k_t) * inv_sqrt_d for
  //     every j < 8 and t in [0, rows) — horizons apply later, so a score
  //     past its query's horizon is computed but never read.
  //   tile_pv_block: acc[j * hd + r] += probs[j * ld + t] * v_t[r] for the
  //     block's keys t0 + t inside query j's horizon, t ascending (a key
  //     past it is skipped, never multiplied by zero); `full` counts the
  //     block's leading rows inside every horizon.
  void (*tile_qk_block)(const float* qt, const Half* khead, int64_t rows,
                        int64_t bt, int64_t hd, float inv_sqrt_d,
                        float* scores, int64_t ld);
  void (*tile_pv_block)(const float* probs, int64_t ld, const Half* vhead,
                        int64_t rows, int64_t stride, int64_t hd, int64_t t0,
                        int64_t full, const int32_t* lane_ctx, float* acc);
};

// The portable kernels (paged_attention.cc): the scalar chains written as
// plain loops.
const AttnKernels& PortableAttnKernels();
// The AVX2 kernels (paged_attention_avx2.cc, built with -mavx2 -mfma
// -mf16c when available; a CHECK-failing stub otherwise). Gate:
// PagedAttentionVariantAvailable(kAvx2) — compiled-in AND runtime
// avx2+fma+f16c. Explicit separate mul/add intrinsics, never FMA.
const AttnKernels& Avx2AttnKernels();
// Whether the AVX2 unit was built with its ISA flags (false on non-x86 or
// pre-AVX2 toolchains; the stub then CHECK-fails if ever reached).
bool PagedAttentionAvx2Compiled();

}  // namespace paged_attention_detail
}  // namespace spinfer
