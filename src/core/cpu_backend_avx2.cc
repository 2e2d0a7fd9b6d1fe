// AVX2 unit of the v2 CPU backend. This is the only translation unit built
// with -mavx2 -mfma (when the compiler supports those flags), and its kernels
// run only after runtime feature detection — the rest of the binary stays
// executable on baseline x86-64 and non-x86 hosts.
//
// Bit-identity contract: the row update uses explicit mul-then-add
// (_mm256_mul_ps + _mm256_add_ps, never _mm256_fmadd_ps) and the TU is built
// with -ffp-contract=off so the compiler cannot re-fuse them. Each output
// element therefore sees exactly the same rounding sequence as the portable
// loop, making the two variants bit-identical on any input.
#include "src/core/cpu_backend_inner.h"
#include "src/util/check.h"

#if defined(__AVX2__) && defined(__FMA__) && defined(__F16C__)
#include <immintrin.h>
#define SPINFER_CPU_BACKEND_AVX2 1
#endif

namespace spinfer {
namespace cpu_backend_detail {

bool CpuSpmmAvx2Compiled() {
#if defined(SPINFER_CPU_BACKEND_AVX2)
  return true;
#else
  return false;
#endif
}

#if defined(SPINFER_CPU_BACKEND_AVX2)

namespace {

// Lanes [0, width) set, lanes [width, 8) clear, for width in [1, 8]: the
// maskload/maskstore mask of a row slice narrower than one register. Masked
// lanes are neither read nor written (and cannot fault), so a slice ending
// at the last element of a buffer stays in bounds.
__m256i LaneMask(int64_t width) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(width)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

struct Avx2RowFma {
  void Row8(float* orow, uint64_t rowmask, const float* vals,
            const float* xcol0, int64_t n, int64_t nb) const {
    const __m256i lanes = LaneMask(nb);
    __m256 a = _mm256_maskload_ps(orow, lanes);
    int t = 0;
    while (rowmask != 0) {
      const int cc = std::countr_zero(rowmask);
      rowmask &= rowmask - 1;
      const __m256 v = _mm256_set1_ps(vals[t++]);
      a = _mm256_add_ps(
          a, _mm256_mul_ps(v, _mm256_maskload_ps(xcol0 + cc * n, lanes)));
    }
    _mm256_maskstore_ps(orow, lanes, a);
  }

  void operator()(float* orow, const RowTerm* terms, int count, int64_t nb) const {
    int64_t j = 0;
    // Widest register tile first: 64 output columns in eight of the sixteen
    // ymm registers, amortizing the per-term broadcast over 8 vector FMAs.
    // Every tier processes each output element as the same t-ascending
    // mul-then-add chain, so tier choice never changes result bits.
    for (; j + 64 <= nb; j += 64) {
      __m256 a0 = _mm256_loadu_ps(orow + j);
      __m256 a1 = _mm256_loadu_ps(orow + j + 8);
      __m256 a2 = _mm256_loadu_ps(orow + j + 16);
      __m256 a3 = _mm256_loadu_ps(orow + j + 24);
      __m256 a4 = _mm256_loadu_ps(orow + j + 32);
      __m256 a5 = _mm256_loadu_ps(orow + j + 40);
      __m256 a6 = _mm256_loadu_ps(orow + j + 48);
      __m256 a7 = _mm256_loadu_ps(orow + j + 56);
      for (int t = 0; t < count; ++t) {
        const __m256 v = _mm256_set1_ps(terms[t].v);
        const float* xr = terms[t].xrow + j;
        a0 = _mm256_add_ps(a0, _mm256_mul_ps(v, _mm256_loadu_ps(xr)));
        a1 = _mm256_add_ps(a1, _mm256_mul_ps(v, _mm256_loadu_ps(xr + 8)));
        a2 = _mm256_add_ps(a2, _mm256_mul_ps(v, _mm256_loadu_ps(xr + 16)));
        a3 = _mm256_add_ps(a3, _mm256_mul_ps(v, _mm256_loadu_ps(xr + 24)));
        a4 = _mm256_add_ps(a4, _mm256_mul_ps(v, _mm256_loadu_ps(xr + 32)));
        a5 = _mm256_add_ps(a5, _mm256_mul_ps(v, _mm256_loadu_ps(xr + 40)));
        a6 = _mm256_add_ps(a6, _mm256_mul_ps(v, _mm256_loadu_ps(xr + 48)));
        a7 = _mm256_add_ps(a7, _mm256_mul_ps(v, _mm256_loadu_ps(xr + 56)));
      }
      _mm256_storeu_ps(orow + j, a0);
      _mm256_storeu_ps(orow + j + 8, a1);
      _mm256_storeu_ps(orow + j + 16, a2);
      _mm256_storeu_ps(orow + j + 24, a3);
      _mm256_storeu_ps(orow + j + 32, a4);
      _mm256_storeu_ps(orow + j + 40, a5);
      _mm256_storeu_ps(orow + j + 48, a6);
      _mm256_storeu_ps(orow + j + 56, a7);
    }
    for (; j + 32 <= nb; j += 32) {
      __m256 a0 = _mm256_loadu_ps(orow + j);
      __m256 a1 = _mm256_loadu_ps(orow + j + 8);
      __m256 a2 = _mm256_loadu_ps(orow + j + 16);
      __m256 a3 = _mm256_loadu_ps(orow + j + 24);
      for (int t = 0; t < count; ++t) {
        const __m256 v = _mm256_set1_ps(terms[t].v);
        const float* xr = terms[t].xrow + j;
        a0 = _mm256_add_ps(a0, _mm256_mul_ps(v, _mm256_loadu_ps(xr)));
        a1 = _mm256_add_ps(a1, _mm256_mul_ps(v, _mm256_loadu_ps(xr + 8)));
        a2 = _mm256_add_ps(a2, _mm256_mul_ps(v, _mm256_loadu_ps(xr + 16)));
        a3 = _mm256_add_ps(a3, _mm256_mul_ps(v, _mm256_loadu_ps(xr + 24)));
      }
      _mm256_storeu_ps(orow + j, a0);
      _mm256_storeu_ps(orow + j + 8, a1);
      _mm256_storeu_ps(orow + j + 16, a2);
      _mm256_storeu_ps(orow + j + 24, a3);
    }
    for (; j + 8 <= nb; j += 8) {
      __m256 a = _mm256_loadu_ps(orow + j);
      for (int t = 0; t < count; ++t) {
        const __m256 v = _mm256_set1_ps(terms[t].v);
        a = _mm256_add_ps(a, _mm256_mul_ps(v, _mm256_loadu_ps(terms[t].xrow + j)));
      }
      _mm256_storeu_ps(orow + j, a);
    }
    if (j < nb) {
      // The last 1-7 columns: one 8-lane tile masked like Row8's.
      const __m256i lanes = LaneMask(nb - j);
      __m256 a = _mm256_maskload_ps(orow + j, lanes);
      for (int t = 0; t < count; ++t) {
        const __m256 v = _mm256_set1_ps(terms[t].v);
        a = _mm256_add_ps(
            a, _mm256_mul_ps(v, _mm256_maskload_ps(terms[t].xrow + j, lanes)));
      }
      _mm256_maskstore_ps(orow + j, lanes, a);
    }
  }
};

struct Avx2Convert {
  void operator()(const Half* src, float* dst, size_t count) const {
    ConvertHalfToFloatAvx2(src, dst, count);
  }
};

}  // namespace

void ProcessGroupTileAvx2(const TcaBmeMatrix& w, int64_t gt, const float* xf,
                          int64_t n, int64_t j0, int64_t nb, float* out,
                          SpmmPhaseRecorder* rec) {
  if (rec != nullptr) {
    ProcessGroupTile<true>(w, gt, xf, n, j0, nb, out, Avx2RowFma{},
                           Avx2Convert{}, rec);
  } else {
    ProcessGroupTile<false>(w, gt, xf, n, j0, nb, out, Avx2RowFma{},
                            Avx2Convert{});
  }
}

void ConvertHalfToFloatAvx2(const Half* src, float* dst, size_t count) {
  static_assert(sizeof(Half) == 2, "F16C conversion assumes 2-byte Half");
  size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    const __m128i h = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    _mm256_storeu_ps(dst + i, _mm256_cvtph_ps(h));
  }
  for (; i < count; ++i) {
    dst[i] = src[i].ToFloat();  // LUT tail: exact, identical to the vector lanes
  }
}

#else  // !SPINFER_CPU_BACKEND_AVX2

void ProcessGroupTileAvx2(const TcaBmeMatrix& w, int64_t gt, const float* xf,
                          int64_t n, int64_t j0, int64_t nb, float* out,
                          SpmmPhaseRecorder* rec) {
  (void)w;
  (void)gt;
  (void)xf;
  (void)n;
  (void)j0;
  (void)nb;
  (void)out;
  (void)rec;
  SPINFER_CHECK_MSG(false, "AVX2 CPU SpMM kernel was not compiled into this binary");
}

void ConvertHalfToFloatAvx2(const Half* src, float* dst, size_t count) {
  (void)src;
  (void)dst;
  (void)count;
  SPINFER_CHECK_MSG(false, "AVX2 CPU SpMM kernel was not compiled into this binary");
}

#endif

}  // namespace cpu_backend_detail
}  // namespace spinfer
