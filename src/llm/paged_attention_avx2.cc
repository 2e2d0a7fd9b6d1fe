// AVX2 unit of the batched paged-attention kernel. Built with -mavx2 -mfma
// when the compiler supports them (see src/llm/CMakeLists.txt); kernels run
// only after runtime feature detection, so the rest of the binary stays
// executable on baseline x86-64 and non-x86 hosts. No F16C here — the paged
// KV pools hold FP32 rows.
//
// Vectorization scheme, per the chain contract in paged_attention_inner.h:
//   * QK vectorizes *across keys*: eight K rows of a block are 8x8-transposed
//     (the same unpack/shuffle/permute2f128 kernel as the block tile in
//     cpu_backend_avx2.cc) so one ymm register holds eight keys' partial
//     dots, and the head dimension is swept in ascending order with one
//     vmulps + one vaddps per element — each lane is exactly the scalar
//     ascending-r chain of one key. The final scale is one vmulps, matching
//     the scalar dot * inv_sqrt_d.
//   * PV vectorizes *across the head dimension*: output-row chains are
//     mutually independent, so acc[r..r+7] += broadcast(score[t]) * v[r..r+7]
//     with explicit mul/add keeps every row's ascending-t chain intact.
// No FMA anywhere; the TU is also built with -ffp-contract=off so the
// compiler cannot re-fuse the scalar tails.
//
// Heads whose dimension is not a multiple of 8 take the scalar block kernels
// (speed-only fallback — identical bits by the shared-chain contract);
// key-count tails past the last group of 8 fall back per key the same way.
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

// One key's dot, the scalar chain — the tail path past the last group of 8.
inline float ScalarDot(const float* qh, const float* krow, int64_t hd) {
  float dot = 0.0f;
  for (int64_t r = 0; r < hd; ++r) {
    dot += qh[r] * krow[r];
  }
  return dot;
}

}  // namespace

void QkBlockAvx2(const float* qh, const float* kbase, int64_t rows,
                 int64_t stride, int64_t hd, float inv_sqrt_d, float* scores) {
  if (hd % 8 != 0) {
    ScalarQkBlock(qh, kbase, rows, stride, hd, inv_sqrt_d, scores);
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
  for (; t < rows; ++t) {
    scores[t] = ScalarDot(qh, kbase + t * stride, hd) * inv_sqrt_d;
  }
}

void PvBlockAvx2(const float* scores, const float* vbase, int64_t rows,
                 int64_t stride, int64_t hd, float* acc) {
  for (int64_t t = 0; t < rows; ++t) {
    const float* vrow = vbase + t * stride;
    const __m256 s = _mm256_broadcast_ss(scores + t);
    int64_t r = 0;
    for (; r + 8 <= hd; r += 8) {
      const __m256 prod = _mm256_mul_ps(s, _mm256_loadu_ps(vrow + r));
      _mm256_storeu_ps(acc + r, _mm256_add_ps(_mm256_loadu_ps(acc + r), prod));
    }
    for (; r < hd; ++r) {
      acc[r] += scores[t] * vrow[r];
    }
  }
}

bool PagedAttentionAvx2Compiled() { return true; }

#else  // !SPINFER_PAGED_ATTN_AVX2

void QkBlockAvx2(const float*, const float*, int64_t, int64_t, int64_t, float,
                 float*) {
  SPINFER_CHECK_MSG(false, "paged-attention AVX2 unit not compiled in");
}

void PvBlockAvx2(const float*, const float*, int64_t, int64_t, int64_t,
                 float*) {
  SPINFER_CHECK_MSG(false, "paged-attention AVX2 unit not compiled in");
}

bool PagedAttentionAvx2Compiled() { return false; }

#endif  // SPINFER_PAGED_ATTN_AVX2

}  // namespace paged_attention_detail
}  // namespace spinfer
