// AVX2 unit of the batched paged-attention kernel. Built with -mavx2 -mfma
// -mf16c when the compiler supports them (see src/llm/CMakeLists.txt);
// kernels run only after runtime feature detection, so the rest of the
// binary stays executable on baseline x86-64 and non-x86 hosts. F16C widens
// the FP16 KV pages (vcvtph2ps, exact).
//
// Vectorization scheme, per the chain contract in paged_attention_inner.h:
//   * QK puts a block's keys in the lanes: K is dims-major, so one dimension
//     of eight consecutive keys is one widening load, and each lane holds
//     one key's ascending-r chain. A lone query runs two groups of eight
//     keys in flight; a query tile runs eight queries' accumulators against
//     each load, each query's q[r] broadcast from the transposed query head.
//   * PV puts the head dimensions in the lanes: one V row widens eight
//     dimensions at a time, and the output rows are independent chains held
//     in registers across a block's keys. A tile holds one register per
//     query for each eight output rows, each query's probability broadcast
//     against the shared load; a key past a query's horizon skips that
//     query's register, never multiplied by zero.
//   * The softmax runs up to eight rows (a lone query's heads, or a tile's
//     queries) at once: Exp8 mirrors SoftmaxExp operation for operation,
//     the max is exact in any order, so it is taken eight lanes at a time,
//     and an 8x8 transpose puts the rows' denominators in one register's
//     lanes, each adding its row's exps in ascending key order.
// No FMA anywhere; the TU is also built with -ffp-contract=off so the
// compiler cannot re-fuse the scalar tails. No Half member function is
// called here (an out-of-line copy would be a weak symbol in this object):
// halves are read as their bit patterns.
#include "src/llm/paged_attention.h"
#include "src/llm/paged_attention_inner.h"
#include "src/util/check.h"

#if defined(__AVX2__) && defined(__FMA__) && defined(__F16C__)
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

// Lanes [0, n) set: the live keys of a partial group.
inline __m256i LaneMask(int64_t n) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(n)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

// Lanes whose row is longer than key t: len[i] > t.
inline __m256 LiveLanes(__m256i len, int64_t t) {
  return _mm256_castsi256_ps(
      _mm256_cmpgt_epi32(len, _mm256_set1_epi32(static_cast<int>(t))));
}

// Classic 8x8 float transpose: in[i] lane k -> out[k] lane i.
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

// Eight consecutive halves widened to float (exact).
inline __m256 Load8(const Half* p) {
  return _mm256_cvtph_ps(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}

// One half widened to float (exact).
inline float Load1(const Half* p) {
  return _cvtsh_ss(*reinterpret_cast<const uint16_t*>(p));
}

// The keys in the lanes: for each dimension r, q[r] broadcast against one
// widening load of eight keys, two groups of eight in flight. A group with
// fewer live keys still reads inside the block's row for that dimension
// (its later slots are allocated, merely unused) and stores only its live
// lanes; a group that would read past that row — only when block_tokens is
// not a multiple of 8 — takes the portable kernel.
void QkBlock(const float* qh, const Half* khead, int64_t rows, int64_t bt,
             int64_t hd, float inv_sqrt_d, float* scores) {
  const __m256 inv = _mm256_set1_ps(inv_sqrt_d);
  int64_t t = 0;
  for (; t + 16 <= rows; t += 16) {
    __m256 a0 = _mm256_setzero_ps();
    __m256 a1 = _mm256_setzero_ps();
    for (int64_t r = 0; r < hd; ++r) {
      const __m256 q = _mm256_broadcast_ss(qh + r);
      const Half* k = khead + r * bt + t;
      a0 = _mm256_add_ps(a0, _mm256_mul_ps(q, Load8(k)));
      a1 = _mm256_add_ps(a1, _mm256_mul_ps(q, Load8(k + 8)));
    }
    _mm256_storeu_ps(scores + t, _mm256_mul_ps(a0, inv));
    _mm256_storeu_ps(scores + t + 8, _mm256_mul_ps(a1, inv));
  }
  for (; t < rows && t + 8 <= bt; t += 8) {
    __m256 a = _mm256_setzero_ps();
    for (int64_t r = 0; r < hd; ++r) {
      a = _mm256_add_ps(a, _mm256_mul_ps(_mm256_broadcast_ss(qh + r),
                                         Load8(khead + r * bt + t)));
    }
    a = _mm256_mul_ps(a, inv);
    if (rows - t >= 8) {
      _mm256_storeu_ps(scores + t, a);
    } else {
      _mm256_maskstore_ps(scores + t, LaneMask(rows - t), a);
    }
  }
  if (t < rows) {
    PortableAttnKernels().qk_block(qh, khead + t, rows - t, bt, hd,
                                   inv_sqrt_d, scores + t);
  }
}

// Holds `kRegs` registers of output rows across all the block's keys before
// storing them.
template <int kRegs>
inline void PvRows(const float* probs, const Half* vhead, int64_t rows,
                   int64_t stride, float* acc) {
  __m256 a[kRegs];
  for (int i = 0; i < kRegs; ++i) {
    a[i] = _mm256_loadu_ps(acc + 8 * i);
  }
  for (int64_t t = 0; t < rows; ++t) {
    const __m256 p = _mm256_broadcast_ss(probs + t);
    const Half* v = vhead + t * stride;
    for (int i = 0; i < kRegs; ++i) {
      a[i] = _mm256_add_ps(a[i], _mm256_mul_ps(p, Load8(v + 8 * i)));
    }
  }
  for (int i = 0; i < kRegs; ++i) {
    _mm256_storeu_ps(acc + 8 * i, a[i]);
  }
}

void PvBlock(const float* probs, const Half* vhead, int64_t rows,
             int64_t stride, int64_t hd, float* acc) {
  int64_t r = 0;
  for (; r + 32 <= hd; r += 32) {
    PvRows<4>(probs, vhead + r, rows, stride, acc + r);
  }
  for (; r + 8 <= hd; r += 8) {
    PvRows<1>(probs, vhead + r, rows, stride, acc + r);
  }
  for (; r < hd; ++r) {
    float a = acc[r];
    for (int64_t t = 0; t < rows; ++t) {
      a += probs[t] * Load1(vhead + t * stride + r);
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

// Each row's max first; then eight keys of every row per step go through
// Exp8 and back into the rows, and an 8x8 transpose of those slots turns
// them into eight per-key vectors whose lane i is row i, so the rows'
// denominators share one register with each lane adding its own row's exps
// in ascending key order (the adds overlap the next step's exponentials).
// A key past a row's length is blended out of its lane, never added as
// zero; lanes past n read a zero line.
void SoftmaxRows(float* scores, int64_t ld, int64_t n, const int64_t* len,
                 float* denom) {
  alignas(32) const float zeros[kTileLanes] = {};
  alignas(32) int32_t len32[kTileLanes] = {};
  const float* src[kTileLanes];
  int64_t step[kTileLanes];
  float mx[kTileLanes];
  int64_t shortest = INT64_MAX;
  int64_t longest = 0;
  for (int64_t i = 0; i < kTileLanes; ++i) {
    src[i] = zeros;
    step[i] = 0;
    if (i < n) {
      src[i] = scores + i * ld;
      step[i] = 1;
      mx[i] = RowMax(src[i], len[i]);
      len32[i] = static_cast<int32_t>(len[i]);
      shortest = len[i] < shortest ? len[i] : shortest;
      longest = len[i] > longest ? len[i] : longest;
    }
  }
  const __m256i lens =
      _mm256_load_si256(reinterpret_cast<const __m256i*>(len32));
  __m256 d = _mm256_setzero_ps();
  for (int64_t t = 0; t < longest; t += 8) {
    for (int64_t i = 0; i < n; ++i) {
      float* p = scores + i * ld + t;
      _mm256_storeu_ps(
          p, Exp8(_mm256_sub_ps(_mm256_loadu_ps(p), _mm256_set1_ps(mx[i]))));
    }
    __m256 e[kTileLanes];
    for (int i = 0; i < kTileLanes; ++i) {
      e[i] = _mm256_loadu_ps(src[i] + step[i] * t);
    }
    __m256 et[kTileLanes];
    Transpose8x8(e, et);
    if (t + 8 <= shortest) {
      for (int k = 0; k < 8; ++k) {
        d = _mm256_add_ps(d, et[k]);
      }
      continue;
    }
    for (int k = 0; k < 8; ++k) {
      d = _mm256_blendv_ps(d, _mm256_add_ps(d, et[k]), LiveLanes(lens, t + k));
    }
  }
  alignas(32) float out[kTileLanes];
  _mm256_store_ps(out, d);
  for (int64_t i = 0; i < n; ++i) {
    denom[i] = out[i];
  }
}

// The lone QK's scheme for the tile's eight queries at once: each widening
// load of eight keys' dimension r serves all eight queries, whose q[r]
// broadcast from the transposed query head. Query j's scores go to row j.
void TileQkBlock(const float* qt, const Half* khead, int64_t rows, int64_t bt,
                 int64_t hd, float inv_sqrt_d, float* scores, int64_t ld) {
  const __m256 inv = _mm256_set1_ps(inv_sqrt_d);
  int64_t t = 0;
  for (; t < rows && t + 8 <= bt; t += 8) {
    __m256 a[kTileLanes];
    for (int j = 0; j < kTileLanes; ++j) {
      a[j] = _mm256_setzero_ps();
    }
    for (int64_t r = 0; r < hd; ++r) {
      const __m256 k = Load8(khead + r * bt + t);
      for (int j = 0; j < kTileLanes; ++j) {
        a[j] = _mm256_add_ps(
            a[j], _mm256_mul_ps(_mm256_broadcast_ss(qt + 8 * r + j), k));
      }
    }
    const __m256i live = LaneMask(rows - t);
    for (int j = 0; j < kTileLanes; ++j) {
      _mm256_maskstore_ps(scores + j * ld + t, live, _mm256_mul_ps(a[j], inv));
    }
  }
  if (t < rows) {
    PortableAttnKernels().tile_qk_block(qt, khead + t, rows - t, bt, hd,
                                        inv_sqrt_d, scores + t, ld);
  }
}

// The lone PV's scheme for the tile's eight queries at once: each widening
// load of eight dimensions of a V row serves all eight queries' output-row
// registers, with each query's probability broadcast from its row. Past the
// keys every query attends (`full`), a key outside query j's horizon skips
// that query's register.
void TilePvBlock(const float* probs, int64_t ld, const Half* vhead,
                 int64_t rows, int64_t stride, int64_t hd, int64_t t0,
                 int64_t full, const int32_t* lane_ctx, float* acc) {
  int64_t live[kTileLanes];  // each query's live keys in this block
  for (int j = 0; j < kTileLanes; ++j) {
    const int64_t n = lane_ctx[j] - t0;
    live[j] = n < 0 ? 0 : (n < rows ? n : rows);
  }
  int64_t r = 0;
  for (; r + 8 <= hd; r += 8) {
    __m256 a[kTileLanes];
    for (int j = 0; j < kTileLanes; ++j) {
      a[j] = _mm256_loadu_ps(acc + j * hd + r);
    }
    int64_t t = 0;
    for (; t < full; ++t) {
      const __m256 v = Load8(vhead + t * stride + r);
      for (int j = 0; j < kTileLanes; ++j) {
        a[j] = _mm256_add_ps(
            a[j], _mm256_mul_ps(_mm256_broadcast_ss(probs + j * ld + t), v));
      }
    }
    for (; t < rows; ++t) {
      const __m256 v = Load8(vhead + t * stride + r);
      for (int j = 0; j < kTileLanes; ++j) {
        if (t < live[j]) {
          a[j] = _mm256_add_ps(
              a[j], _mm256_mul_ps(_mm256_broadcast_ss(probs + j * ld + t), v));
        }
      }
    }
    for (int j = 0; j < kTileLanes; ++j) {
      _mm256_storeu_ps(acc + j * hd + r, a[j]);
    }
  }
  for (; r < hd; ++r) {
    for (int j = 0; j < kTileLanes; ++j) {
      float sum = acc[j * hd + r];
      for (int64_t t = 0; t < live[j]; ++t) {
        sum += probs[j * ld + t] * Load1(vhead + t * stride + r);
      }
      acc[j * hd + r] = sum;
    }
  }
}

const AttnKernels kAvx2Kernels = {&QkBlock,     &PvBlock,
                                  &RowExp,      &SoftmaxRows,
                                  &TileQkBlock, &TilePvBlock};

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
