// AVX2 unit of the batched paged-attention kernel. Built with -mavx2 -mfma
// when the compiler supports them (see src/llm/CMakeLists.txt); kernels run
// only after runtime feature detection, so the rest of the binary stays
// executable on baseline x86-64 and non-x86 hosts. No F16C here — the paged
// KV pools hold FP32 rows.
//
// Vectorization scheme, per the chain contract in paged_attention_inner.h:
//   * Query tiles put the tile's queries in the lanes. QK broadcasts each K
//     element against the transposed query head, with one accumulator per
//     key and four keys in flight; PV broadcasts each V element against the
//     keys' probabilities, eight output rows' accumulators at a time. Each
//     lane is exactly one query's scalar chain, with no transpose. A key
//     past a lane's horizon is blended out of that lane, never multiplied
//     by zero.
//   * Lone queries vectorize QK *across keys*: eight K rows of a block are
//     8x8-transposed (the same unpack/shuffle/permute2f128 kernel as the
//     block tile in cpu_backend_avx2.cc) so each lane holds one key's
//     ascending-r chain. PV vectorizes *across the head dimension*: output
//     rows are independent chains, held in registers across a block's keys.
//   * Exp8 mirrors SoftmaxExp operation for operation; the max is exact in
//     any order, so it is taken eight lanes at a time.
// No FMA anywhere; the TU is also built with -ffp-contract=off so the
// compiler cannot re-fuse the scalar tails.
//
// Lone heads whose dimension is not a multiple of 8 take the portable QK
// block kernel (speed-only fallback — identical bits by the shared-chain
// contract); key-count tails past the last group of 8 fall back per key the
// same way.
#include "src/llm/paged_attention.h"
#include "src/llm/paged_attention_inner.h"
#include "src/util/check.h"

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#define SPINFER_PAGED_ATTN_AVX2 1
#endif

namespace spinfer {
namespace paged_attention_detail {

#if defined(SPINFER_PAGED_ATTN_AVX2)

namespace {

// SoftmaxExp, eight lanes: the same operations in the same order. The
// min/max operand order reproduces the scalar selections, NaN included.
inline __m256 Exp8(__m256 x) {
  const __m256 magic = _mm256_set1_ps(kExpRoundMagic);
  __m256 v = _mm256_min_ps(_mm256_setzero_ps(), x);
  v = _mm256_max_ps(_mm256_set1_ps(kExpLo), v);
  const __m256 kr =
      _mm256_add_ps(_mm256_mul_ps(v, _mm256_set1_ps(kExpLog2e)), magic);
  const __m256 n = _mm256_sub_ps(kr, magic);
  __m256 r = _mm256_sub_ps(v, _mm256_mul_ps(n, _mm256_set1_ps(kExpLn2Hi)));
  r = _mm256_sub_ps(r, _mm256_mul_ps(n, _mm256_set1_ps(kExpLn2Lo)));
  const __m256 z = _mm256_mul_ps(r, r);
  __m256 y = _mm256_set1_ps(kExpP0);
  y = _mm256_add_ps(_mm256_mul_ps(y, r), _mm256_set1_ps(kExpP1));
  y = _mm256_add_ps(_mm256_mul_ps(y, r), _mm256_set1_ps(kExpP2));
  y = _mm256_add_ps(_mm256_mul_ps(y, r), _mm256_set1_ps(kExpP3));
  y = _mm256_add_ps(_mm256_mul_ps(y, r), _mm256_set1_ps(kExpP4));
  y = _mm256_add_ps(_mm256_mul_ps(y, r), _mm256_set1_ps(kExpP5));
  y = _mm256_mul_ps(y, z);
  y = _mm256_add_ps(y, r);
  y = _mm256_add_ps(y, _mm256_set1_ps(1.0f));
  const __m256i pow2n = _mm256_slli_epi32(
      _mm256_add_epi32(_mm256_castps_si256(kr), _mm256_set1_epi32(127)), 23);
  const __m256 e = _mm256_mul_ps(y, _mm256_castsi256_ps(pow2n));
  return _mm256_andnot_ps(
      _mm256_cmp_ps(x, _mm256_set1_ps(kExpLo), _CMP_LT_OQ), e);
}

// Lanes whose horizon lies past key t: lane_ctx[j] > t.
inline __m256 LiveLanes(__m256i lane_ctx, int64_t t) {
  return _mm256_castsi256_ps(
      _mm256_cmpgt_epi32(lane_ctx, _mm256_set1_epi32(static_cast<int>(t))));
}

// Classic 8x8 float transpose: in[tt] lane rr -> out[rr] lane tt.
inline void Transpose8x8(const __m256 in[8], __m256 out[8]) {
  const __m256 t0 = _mm256_unpacklo_ps(in[0], in[1]);
  const __m256 t1 = _mm256_unpackhi_ps(in[0], in[1]);
  const __m256 t2 = _mm256_unpacklo_ps(in[2], in[3]);
  const __m256 t3 = _mm256_unpackhi_ps(in[2], in[3]);
  const __m256 t4 = _mm256_unpacklo_ps(in[4], in[5]);
  const __m256 t5 = _mm256_unpackhi_ps(in[4], in[5]);
  const __m256 t6 = _mm256_unpacklo_ps(in[6], in[7]);
  const __m256 t7 = _mm256_unpackhi_ps(in[6], in[7]);
  const __m256 u0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 u2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 u4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 u6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
  out[0] = _mm256_permute2f128_ps(u0, u4, 0x20);
  out[1] = _mm256_permute2f128_ps(u1, u5, 0x20);
  out[2] = _mm256_permute2f128_ps(u2, u6, 0x20);
  out[3] = _mm256_permute2f128_ps(u3, u7, 0x20);
  out[4] = _mm256_permute2f128_ps(u0, u4, 0x31);
  out[5] = _mm256_permute2f128_ps(u1, u5, 0x31);
  out[6] = _mm256_permute2f128_ps(u2, u6, 0x31);
  out[7] = _mm256_permute2f128_ps(u3, u7, 0x31);
}

void QkBlock(const float* qh, const float* kbase, int64_t rows, int64_t stride,
             int64_t hd, float inv_sqrt_d, float* scores) {
  if (hd % 8 != 0) {
    PortableAttnKernels().qk_block(qh, kbase, rows, stride, hd, inv_sqrt_d,
                                   scores);
    return;
  }
  const __m256 inv = _mm256_set1_ps(inv_sqrt_d);
  int64_t t = 0;
  for (; t + 8 <= rows; t += 8) {
    const float* kblk = kbase + t * stride;
    __m256 acc = _mm256_setzero_ps();
    for (int64_t r0 = 0; r0 < hd; r0 += 8) {
      __m256 krows[8];
      for (int tt = 0; tt < 8; ++tt) {
        krows[tt] = _mm256_loadu_ps(kblk + tt * stride + r0);
      }
      __m256 kcols[8];
      Transpose8x8(krows, kcols);
      for (int rr = 0; rr < 8; ++rr) {
        const __m256 qb = _mm256_broadcast_ss(qh + r0 + rr);
        acc = _mm256_add_ps(acc, _mm256_mul_ps(qb, kcols[rr]));
      }
    }
    _mm256_storeu_ps(scores + t, _mm256_mul_ps(acc, inv));
  }
  if (t < rows) {
    PortableAttnKernels().qk_block(qh, kbase + t * stride, rows - t, stride,
                                   hd, inv_sqrt_d, scores + t);
  }
}

// Holds `kRegs` registers of output rows across all the block's keys before
// storing them.
template <int kRegs>
inline void PvRows(const float* probs, const float* vbase, int64_t rows,
                   int64_t stride, float* acc) {
  __m256 a[kRegs];
  for (int i = 0; i < kRegs; ++i) {
    a[i] = _mm256_loadu_ps(acc + 8 * i);
  }
  for (int64_t t = 0; t < rows; ++t) {
    const __m256 p = _mm256_broadcast_ss(probs + t);
    const float* v = vbase + t * stride;
    for (int i = 0; i < kRegs; ++i) {
      a[i] = _mm256_add_ps(a[i], _mm256_mul_ps(p, _mm256_loadu_ps(v + 8 * i)));
    }
  }
  for (int i = 0; i < kRegs; ++i) {
    _mm256_storeu_ps(acc + 8 * i, a[i]);
  }
}

void PvBlock(const float* probs, const float* vbase, int64_t rows,
             int64_t stride, int64_t hd, float* acc) {
  int64_t r = 0;
  for (; r + 32 <= hd; r += 32) {
    PvRows<4>(probs, vbase + r, rows, stride, acc + r);
  }
  for (; r + 8 <= hd; r += 8) {
    PvRows<1>(probs, vbase + r, rows, stride, acc + r);
  }
  for (; r < hd; ++r) {
    float a = acc[r];
    for (int64_t t = 0; t < rows; ++t) {
      a += probs[t] * vbase[t * stride + r];
    }
    acc[r] = a;
  }
}

float RowMax(const float* scores, int64_t n) {
  __m256 m8 = _mm256_set1_ps(-1e30f);
  int64_t t = 0;
  for (; t + 8 <= n; t += 8) {
    m8 = _mm256_max_ps(_mm256_loadu_ps(scores + t), m8);
  }
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, m8);
  // std::max's selection, spelled out: an out-of-line std::max<float> would
  // be a weak symbol in this AVX2 object (DESIGN.md section 5, pillar 2).
  float m = -1e30f;
  for (const float l : lanes) {
    m = (m < l) ? l : m;
  }
  for (; t < n; ++t) {
    m = (m < scores[t]) ? scores[t] : m;
  }
  return m;
}

void RowExp(float* scores, int64_t n, float max) {
  const __m256 m = _mm256_set1_ps(max);
  int64_t t = 0;
  for (; t + 8 <= n; t += 8) {
    _mm256_storeu_ps(scores + t,
                     Exp8(_mm256_sub_ps(_mm256_loadu_ps(scores + t), m)));
  }
  for (; t < n; ++t) {
    scores[t] = SoftmaxExp(scores[t] - max);
  }
}

// One key against the tile: the loop tail of TileQkBlock.
inline __m256 TileDot(const float* qt, const float* krow, int64_t hd) {
  __m256 acc = _mm256_setzero_ps();
  for (int64_t r = 0; r < hd; ++r) {
    acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_loadu_ps(qt + 8 * r),
                                           _mm256_broadcast_ss(krow + r)));
  }
  return acc;
}

void TileQkBlock(const float* qt, const float* kbase, int64_t rows,
                 int64_t stride, int64_t hd, float inv_sqrt_d,
                 float* scores) {
  const __m256 inv = _mm256_set1_ps(inv_sqrt_d);
  int64_t t = 0;
  for (; t + 4 <= rows; t += 4) {
    const float* k0 = kbase + t * stride;
    const float* k1 = k0 + stride;
    const float* k2 = k1 + stride;
    const float* k3 = k2 + stride;
    __m256 a0 = _mm256_setzero_ps();
    __m256 a1 = _mm256_setzero_ps();
    __m256 a2 = _mm256_setzero_ps();
    __m256 a3 = _mm256_setzero_ps();
    for (int64_t r = 0; r < hd; ++r) {
      const __m256 q = _mm256_loadu_ps(qt + 8 * r);
      a0 = _mm256_add_ps(a0, _mm256_mul_ps(q, _mm256_broadcast_ss(k0 + r)));
      a1 = _mm256_add_ps(a1, _mm256_mul_ps(q, _mm256_broadcast_ss(k1 + r)));
      a2 = _mm256_add_ps(a2, _mm256_mul_ps(q, _mm256_broadcast_ss(k2 + r)));
      a3 = _mm256_add_ps(a3, _mm256_mul_ps(q, _mm256_broadcast_ss(k3 + r)));
    }
    _mm256_storeu_ps(scores + 8 * t, _mm256_mul_ps(a0, inv));
    _mm256_storeu_ps(scores + 8 * (t + 1), _mm256_mul_ps(a1, inv));
    _mm256_storeu_ps(scores + 8 * (t + 2), _mm256_mul_ps(a2, inv));
    _mm256_storeu_ps(scores + 8 * (t + 3), _mm256_mul_ps(a3, inv));
  }
  for (; t < rows; ++t) {
    _mm256_storeu_ps(scores + 8 * t,
                     _mm256_mul_ps(TileDot(qt, kbase + t * stride, hd), inv));
  }
}

void TileSoftmax(float* scores, int64_t keys, int64_t full,
                 const int32_t* lane_ctx, float* denom) {
  const __m256i ctx =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(lane_ctx));
  __m256 m = _mm256_set1_ps(-1e30f);
  int64_t t = 0;
  for (; t < full; ++t) {
    m = _mm256_max_ps(_mm256_loadu_ps(scores + 8 * t), m);
  }
  for (; t < keys; ++t) {
    const __m256 s = _mm256_loadu_ps(scores + 8 * t);
    m = _mm256_blendv_ps(m, _mm256_max_ps(s, m), LiveLanes(ctx, t));
  }
  __m256 d = _mm256_setzero_ps();
  for (t = 0; t < full; ++t) {
    const __m256 e = Exp8(_mm256_sub_ps(_mm256_loadu_ps(scores + 8 * t), m));
    _mm256_storeu_ps(scores + 8 * t, e);
    d = _mm256_add_ps(d, e);
  }
  for (; t < keys; ++t) {
    const __m256 e = Exp8(_mm256_sub_ps(_mm256_loadu_ps(scores + 8 * t), m));
    _mm256_storeu_ps(scores + 8 * t, e);
    d = _mm256_blendv_ps(d, _mm256_add_ps(d, e), LiveLanes(ctx, t));
  }
  _mm256_storeu_ps(denom, d);
}

// `kRows` output rows (one register each) across the block's keys: the
// first `full` keys in every lane, the rest blended per lane.
template <int kRows>
inline void TilePvRows(const float* probs, const float* vbase, int64_t rows,
                       int64_t stride, int64_t t0, int64_t full, __m256i ctx,
                       float* acc) {
  __m256 a[kRows];
  for (int i = 0; i < kRows; ++i) {
    a[i] = _mm256_loadu_ps(acc + 8 * i);
  }
  int64_t t = 0;
  for (; t < full; ++t) {
    const __m256 p = _mm256_loadu_ps(probs + 8 * t);
    const float* v = vbase + t * stride;
    for (int i = 0; i < kRows; ++i) {
      a[i] = _mm256_add_ps(a[i], _mm256_mul_ps(p, _mm256_broadcast_ss(v + i)));
    }
  }
  for (; t < rows; ++t) {
    const __m256 p = _mm256_loadu_ps(probs + 8 * t);
    const __m256 live = LiveLanes(ctx, t0 + t);
    const float* v = vbase + t * stride;
    for (int i = 0; i < kRows; ++i) {
      const __m256 sum =
          _mm256_add_ps(a[i], _mm256_mul_ps(p, _mm256_broadcast_ss(v + i)));
      a[i] = _mm256_blendv_ps(a[i], sum, live);
    }
  }
  for (int i = 0; i < kRows; ++i) {
    _mm256_storeu_ps(acc + 8 * i, a[i]);
  }
}

void TilePvBlock(const float* probs, const float* vbase, int64_t rows,
                 int64_t stride, int64_t hd, int64_t t0, int64_t full,
                 const int32_t* lane_ctx, float* acc) {
  const __m256i ctx =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(lane_ctx));
  int64_t r = 0;
  for (; r + 8 <= hd; r += 8) {
    TilePvRows<8>(probs, vbase + r, rows, stride, t0, full, ctx, acc + 8 * r);
  }
  for (; r < hd; ++r) {
    TilePvRows<1>(probs, vbase + r, rows, stride, t0, full, ctx, acc + 8 * r);
  }
}

const AttnKernels kAvx2Kernels = {&QkBlock,     &PvBlock,
                                  &RowMax,      &RowExp,
                                  &TileQkBlock, &TileSoftmax,
                                  &TilePvBlock};

}  // namespace

const AttnKernels& Avx2AttnKernels() { return kAvx2Kernels; }

bool PagedAttentionAvx2Compiled() { return true; }

#else  // !SPINFER_PAGED_ATTN_AVX2

const AttnKernels& Avx2AttnKernels() {
  SPINFER_CHECK_MSG(false, "paged-attention AVX2 unit not compiled in");
  return PortableAttnKernels();
}

bool PagedAttentionAvx2Compiled() { return false; }

#endif  // SPINFER_PAGED_ATTN_AVX2

}  // namespace paged_attention_detail
}  // namespace spinfer
