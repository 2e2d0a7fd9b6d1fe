// AVX-512 unit of the v2 CPU backend: the half-column tile and nothing else.
// Built with -mavx2 -mfma -mf16c -mavx512f -mavx512vl -mavx512bw -mavx512dq
// (when the compiler supports them); its kernel runs only after runtime
// feature detection, and the variant's wide blocks run the AVX2 unit's
// RowTerm kernel. The AVX-512 flags stay out of cpu_backend_avx2.cc, so that
// kernel keeps the one encoding AVX2-only hosts run too.
//
// Bit-identity contract: every update is an explicit mul then a masked add
// (_mm512_mul_ps + _mm512_mask_add_ps, never an FMA) and the TU is built with
// -ffp-contract=off, so each output element sees exactly the rounding
// sequence of the portable loop.
//
// Tile (N-blocks up to kAvx512TileMaxCols wide) — one zmm accumulator holds
// the 16 rows of a TCTile half-column for one output column: lanes 0-7 are
// the upper BitmapTile's rows, lanes 8-15 the lower's. Each half-column is
// decoded once, from its two bitmaps alone, for all the block's columns:
//
//   1. Expand: register p (0-7) takes half-column rows 2p and 2p+1 with one
//      masked vexpandps keyed by those rows' 16 bitmap bits, so lane
//      8*(r % 2) + cc holds value(r, cc) where bit (r, cc) is set and 0
//      elsewhere. No LUT, no branch on the bitmap, and only the run's own
//      values are read.
//   2. Transpose 16 rows x 8 columns into 8 column vectors of 16 rows: one
//      unpack stage, one 64-bit shuffle stage and one two-source permute
//      (vpermt2ps), each exchanging one register bit with one lane bit.
//   3. For each output column j and each tile column cc:
//      acc = acc + col_cc * broadcast(x[bt_c + cc][j]) in exactly the lanes
//      whose bit (r, cc) is set (a k-masked vaddps; the mask is a vptestmb
//      of the two bitmaps' row bytes). Unset lanes keep acc bitwise — adding
//      a zero instead would already turn -0.0 into +0.0.
//
// Per lane that is exactly the scalar chain: one vmulps rounding, one vaddps
// rounding per set bit, ascending cc. GCC 12 reports -Wmaybe-uninitialized
// inside its own headers for the unmasked _mm512_cvtph_ps, _mm512_unpacklo_ps
// and _mm512_unpackhi_ps; their _mm512_maskz_* forms with a full mask compile
// to the same instructions and are used instead.
#include "src/core/cpu_backend_inner.h"
#include "src/util/check.h"

#if defined(__AVX512F__) && defined(__AVX512VL__) && defined(__AVX512BW__) && \
    defined(__AVX512DQ__) && defined(__F16C__)
#include <immintrin.h>
#define SPINFER_CPU_BACKEND_AVX512 1
#endif

namespace spinfer {
namespace cpu_backend_detail {

bool CpuSpmmAvx512Compiled() {
#if defined(SPINFER_CPU_BACKEND_AVX512)
  return true;
#else
  return false;
#endif
}

#if defined(SPINFER_CPU_BACKEND_AVX512)

namespace {

constexpr __mmask16 kAllLanes = 0xFFFF;

struct Avx512Tile {
  void operator()(uint64_t upper, uint64_t lower, const float* vals,
                  int64_t bt_r, int64_t bt_c, const float* xf, int64_t n,
                  int64_t j0, int64_t nb, float* blk, int64_t ldb) const {
    // 1. Expand: d[p] lanes 0-7 = row 2p, lanes 8-15 = row 2p+1.
    __m512 d[8];
    const float* run = vals;
    for (int p = 0; p < 8; ++p) {
      const uint64_t bitmap = p < 4 ? upper : lower;
      const uint32_t bits =
          static_cast<uint32_t>(bitmap >> (16 * (p % 4))) & 0xFFFFu;
      d[p] = _mm512_maskz_expandloadu_ps(_cvtu32_mask16(bits), run);
      run += std::popcount(bits);
    }
    // 2. Transpose. With row r = 8*r3 + 4*r2 + 2*r1 + r0 and column
    // c = 4*c2 + 2*c1 + c0, d[4*r3 + 2*r2 + r1] lane (r0 c2 c1 c0) holds
    // (r, c). The unpacks trade r1 for c1: t[4*r3 + 2*r2 + c1] lane
    // (r0 c2 c0 r1).
    __m512 t[8];
    for (int q = 0; q < 4; ++q) {
      t[2 * q] = _mm512_maskz_unpacklo_ps(kAllLanes, d[2 * q], d[2 * q + 1]);
      t[2 * q + 1] = _mm512_maskz_unpackhi_ps(kAllLanes, d[2 * q], d[2 * q + 1]);
    }
    // The 64-bit shuffles trade r2 for c0: u[4*r3 + 2*c1 + c0] lane
    // (r0 c2 r2 r1).
    __m512 u[8];
    for (int s = 0; s < 2; ++s) {
      for (int h = 0; h < 2; ++h) {
        const __m512 a = t[4 * s + h];
        const __m512 b = t[4 * s + 2 + h];
        u[4 * s + 2 * h] = _mm512_shuffle_ps(a, b, _MM_SHUFFLE(1, 0, 1, 0));
        u[4 * s + 2 * h + 1] = _mm512_shuffle_ps(a, b, _MM_SHUFFLE(3, 2, 3, 2));
      }
    }
    // The permutes trade r3 for c2 and put the lanes in row order: output
    // lane r takes lane (r0 c2 r2 r1) of u[4*r3 + 2*c1 + c0] (index bit 4
    // picks the second source).
    const __m512i perm_lo = _mm512_setr_epi32(0, 8, 1, 9, 2, 10, 3, 11, 16, 24,
                                              17, 25, 18, 26, 19, 27);
    const __m512i perm_hi = _mm512_add_epi32(perm_lo, _mm512_set1_epi32(4));
    __m512 cols[8];
    for (int c = 0; c < 8; ++c) {
      cols[c] = _mm512_permutex2var_ps(u[c % 4], c < 4 ? perm_lo : perm_hi,
                                       u[4 + c % 4]);
    }
    // 3. Lane masks: byte r of `rowbytes` is row r's bitmap byte, so testing
    // bit cc of every byte gives column cc's 16-lane mask.
    const __m128i rowbytes = _mm_set_epi64x(static_cast<long long>(lower),
                                            static_cast<long long>(upper));
    __mmask16 lanes[8];
    for (int cc = 0; cc < 8; ++cc) {
      lanes[cc] = _mm_test_epi8_mask(
          rowbytes, _mm_set1_epi8(static_cast<char>(1 << cc)));
    }
    const float* xt = xf + bt_c * n + j0;
    // Sweeps kCols output columns from j on: kCols independent chains of 8
    // masked adds, so the adds' latency overlaps.
    const auto sweep = [&]<int kCols>(int64_t j, int64_t x_stride) {
      __m512 acc[kCols];
      for (int jj = 0; jj < kCols; ++jj) {
        acc[jj] = _mm512_loadu_ps(blk + (j + jj) * ldb + bt_r);
      }
      for (int cc = 0; cc < 8; ++cc) {
        for (int jj = 0; jj < kCols; ++jj) {
          const __m512 xb = _mm512_set1_ps(xt[cc * x_stride + j + jj]);
          acc[jj] = _mm512_mask_add_ps(acc[jj], lanes[cc], acc[jj],
                                       _mm512_mul_ps(cols[cc], xb));
        }
      }
      for (int jj = 0; jj < kCols; ++jj) {
        _mm512_storeu_ps(blk + (j + jj) * ldb + bt_r, acc[jj]);
      }
    };
    // As in the AVX2 tile, a one-column panel (the N = 1 decode shape) runs
    // the body once, straight-line, with X rows one float apart.
    if (n == 1) {
      sweep.template operator()<1>(0, 1);
      return;
    }
    int64_t j = 0;
    for (; j + 4 <= nb; j += 4) {
      sweep.template operator()<4>(j, n);
    }
    for (; j < nb; ++j) {
      sweep.template operator()<1>(j, n);
    }
  }
};

// F16C batch conversion, 16 values per instruction with a masked tail. The
// tile reads only the run's own values, so the staging pad stays untouched.
// vcvtph2ps is exact, so this is bit-identical to the portable LUT
// conversion.
struct Avx512Convert {
  void operator()(const Half* src, float* dst, size_t count) const {
    static_assert(sizeof(Half) == 2, "F16C conversion assumes 2-byte Half");
    size_t i = 0;
    for (; i + 16 <= count; i += 16) {
      const __m256i h =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
      _mm512_storeu_ps(dst + i, _mm512_maskz_cvtph_ps(kAllLanes, h));
    }
    if (i < count) {
      const __mmask16 tail =
          _cvtu32_mask16((1u << static_cast<unsigned>(count - i)) - 1u);
      const __m256i h = _mm256_maskz_loadu_epi16(tail, src + i);
      _mm512_mask_storeu_ps(dst + i, tail, _mm512_maskz_cvtph_ps(tail, h));
    }
  }
};

}  // namespace

void ProcessGroupTileNarrowAvx512(const TcaBmeMatrix& w, int64_t gt,
                                  const float* xf, int64_t n, int64_t j0,
                                  int64_t nb, float* blk, int64_t ldb) {
  ProcessGroupTileNarrow(w, gt, xf, n, j0, nb, blk, ldb, Avx512Tile{},
                         Avx512Convert{});
}

#else  // !SPINFER_CPU_BACKEND_AVX512

void ProcessGroupTileNarrowAvx512(const TcaBmeMatrix&, int64_t, const float*,
                                  int64_t, int64_t, int64_t, float*, int64_t) {
  SPINFER_CHECK_MSG(false,
                    "AVX-512 CPU SpMM kernel was not compiled into this binary");
}

#endif

}  // namespace cpu_backend_detail
}  // namespace spinfer
