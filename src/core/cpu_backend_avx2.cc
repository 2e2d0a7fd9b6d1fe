// AVX2 unit of the v2 CPU backend. This is the only translation unit of the
// FP16 kernels built with -mavx2 -mfma -mf16c (when the compiler supports
// those flags), and its kernels run only after runtime feature detection —
// the rest of the binary stays executable on baseline x86-64 and non-x86
// hosts.
//
// Bit-identity contract: every update uses explicit mul-then-add
// (_mm256_mul_ps + _mm256_add_ps, never _mm256_fmadd_ps) and the TU is built
// with -ffp-contract=off so the compiler cannot re-fuse them. Each output
// element therefore sees exactly the same rounding sequence as the portable
// loop, making the two variants bit-identical on any input.
//
// Tile (N-blocks at most 8 wide; the walk hands it a TCTile half-column and
// it applies this body to the upper BitmapTile, then the lower) — vectorized
// across a BitmapTile's 8 output rows, never within a row: one ymm register
// holds the 8 row accumulators of one output column, and the tile's 8
// columns are swept in order. Each tile is decoded once for all the block's
// columns:
//
//   1. Expand the row-major compressed Values run into one 8-float vector
//      per tile row with a 256-entry prefix-popcount permutation LUT
//      (vpermps) — lane cc of row rr's vector holds value(rr, cc) when bit
//      (rr, cc) is set, a don't-care otherwise. No branch on the bitmap: an
//      empty row expands don't-cares like any other unset lane.
//   2. Transpose the 8 row vectors (classic 8x8 unpack/shuffle/permute2f128)
//      to get per-column value vectors.
//   3. For each output column j and each tile column cc:
//      acc' = acc + col_cc * broadcast(x[bt_c + cc][j]), then blend acc'
//      into acc only in lanes whose bitmap bit is set (vblendvps keys on the
//      sign bit; the mask is the bitmap's row bytes shifted so bit cc lands
//      in bit 31). Unset lanes keep acc bitwise — adding a zero instead
//      would already turn -0.0 into +0.0.
//
// Per lane that is exactly the scalar chain: one vmulps rounding, one vaddps
// rounding per set bit, ascending cc.
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

// For each 8-bit row mask, lane cc holds the rank (prefix popcount) of bit
// cc: the index of value(rr, cc) within the row's packed Values run. Unset
// lanes get the running rank too — they select an in-bounds don't-care that
// the blend discards (the staging pad is zeroed, so even one-past-the-run
// stays a real float, never uninitialized garbage).
struct PermLut {
  alignas(32) int32_t idx[256][8];
};

constexpr PermLut MakePermLut() {
  PermLut lut{};
  for (int mask = 0; mask < 256; ++mask) {
    int rank = 0;
    for (int cc = 0; cc < 8; ++cc) {
      lut.idx[mask][cc] = rank;
      if ((mask >> cc) & 1) {
        ++rank;
      }
    }
  }
  return lut;
}

constexpr PermLut kPermLut = MakePermLut();

struct Avx2Tile8 {
  void operator()(uint64_t bitmap, const float* vals, int64_t bt_r,
                  int64_t bt_c, const float* xf, int64_t n, int64_t j0,
                  int64_t nb, float* blk, int64_t ldb) const {
    // 1. Expand each row's packed values into column-aligned lanes.
    __m256 rows[8];
    int off = 0;
    for (int rr = 0; rr < 8; ++rr) {
      const uint32_t rm = static_cast<uint32_t>(bitmap >> (rr * 8)) & 0xFFu;
      const __m256i perm =
          _mm256_load_si256(reinterpret_cast<const __m256i*>(kPermLut.idx[rm]));
      rows[rr] = _mm256_permutevar8x32_ps(_mm256_loadu_ps(vals + off), perm);
      off += std::popcount(rm);
    }
    // 2. 8x8 transpose: rows[rr] lane cc -> cols[cc] lane rr.
    const __m256 t0 = _mm256_unpacklo_ps(rows[0], rows[1]);
    const __m256 t1 = _mm256_unpackhi_ps(rows[0], rows[1]);
    const __m256 t2 = _mm256_unpacklo_ps(rows[2], rows[3]);
    const __m256 t3 = _mm256_unpackhi_ps(rows[2], rows[3]);
    const __m256 t4 = _mm256_unpacklo_ps(rows[4], rows[5]);
    const __m256 t5 = _mm256_unpackhi_ps(rows[4], rows[5]);
    const __m256 t6 = _mm256_unpacklo_ps(rows[6], rows[7]);
    const __m256 t7 = _mm256_unpackhi_ps(rows[6], rows[7]);
    const __m256 u0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 u1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
    const __m256 u2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 u3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
    const __m256 u4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 u5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
    const __m256 u6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 u7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
    const __m256 cols[8] = {_mm256_permute2f128_ps(u0, u4, 0x20),
                            _mm256_permute2f128_ps(u1, u5, 0x20),
                            _mm256_permute2f128_ps(u2, u6, 0x20),
                            _mm256_permute2f128_ps(u3, u7, 0x20),
                            _mm256_permute2f128_ps(u0, u4, 0x31),
                            _mm256_permute2f128_ps(u1, u5, 0x31),
                            _mm256_permute2f128_ps(u2, u6, 0x31),
                            _mm256_permute2f128_ps(u3, u7, 0x31)};
    // 3. Masked column sweep, once per output column. rowbytes lane rr = row
    // rr's 8-bit mask; shifting bit cc into bit 31 makes vblendvps select
    // the updated accumulator exactly where bit (rr, cc) is set.
    const __m256i rowbytes =
        _mm256_cvtepu8_epi32(_mm_cvtsi64_si128(static_cast<long long>(bitmap)));
    const float* xt = xf + bt_c * n + j0;
    const auto sweep = [&](int64_t j, int64_t x_stride) {
      float* acc_col = blk + j * ldb + bt_r;
      __m256 acc = _mm256_loadu_ps(acc_col);
      for (int cc = 0; cc < 8; ++cc) {
        const __m256 xb = _mm256_broadcast_ss(xt + cc * x_stride + j);
        const __m256 sum = _mm256_add_ps(acc, _mm256_mul_ps(cols[cc], xb));
        const __m256i lane_mask = _mm256_slli_epi32(rowbytes, 31 - cc);
        acc = _mm256_blendv_ps(acc, sum, _mm256_castsi256_ps(lane_mask));
      }
      _mm256_storeu_ps(acc_col, acc);
    };
    // Inside a column loop the compiler hoists the 8 lane masks and spills
    // two value columns, which pays from two columns on. A one-column panel
    // (the N = 1 decode shape) runs the same body once, straight-line, with
    // X rows one float apart; it measured 4-6% slower as a loop of one.
    if (n == 1) {
      sweep(0, 1);
    } else {
      for (int64_t j = 0; j < nb; ++j) {
        sweep(j, n);
      }
    }
  }
};

struct Avx2RowFma {
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
      // The last 1-7 columns: one masked 8-lane tile.
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

// F16C batch conversion that also zeroes the block tile's staging pad, so
// the expansion's one-past-the-run permute lanes read real (zero) floats.
// vcvtph2ps is exact, so this is bit-identical to the portable LUT
// conversion.
struct Avx2Convert {
  void operator()(const Half* src, float* dst, size_t count) const {
    static_assert(sizeof(Half) == 2, "F16C conversion assumes 2-byte Half");
    size_t i = 0;
    for (; i + 8 <= count; i += 8) {
      const __m128i h =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
      _mm256_storeu_ps(dst + i, _mm256_cvtph_ps(h));
    }
    for (; i < count; ++i) {
      dst[i] = src[i].ToFloat();  // LUT tail: exact, identical to the lanes
    }
    static_assert(kTileValsPad == 8, "pad is one ymm store");
    _mm256_storeu_ps(dst + count, _mm256_setzero_ps());
  }
};

}  // namespace

void ProcessGroupTileNarrowAvx2(const TcaBmeMatrix& w, int64_t gt,
                                const float* xf, int64_t n, int64_t j0,
                                int64_t nb, float* blk, int64_t ldb) {
  ProcessGroupTileNarrow(w, gt, xf, n, j0, nb, blk, ldb, TilePair<Avx2Tile8>{},
                         Avx2Convert{});
}

void ProcessGroupTileWideAvx2(const TcaBmeMatrix& w, int64_t gt,
                              const float* xf, int64_t n, int64_t j0,
                              int64_t nb, float* out, int64_t ldo) {
  ProcessGroupTileWide(w, gt, xf, n, j0, nb, out, ldo, Avx2RowFma{},
                       Avx2Convert{});
}

#else  // !SPINFER_CPU_BACKEND_AVX2

void ProcessGroupTileNarrowAvx2(const TcaBmeMatrix&, int64_t, const float*,
                                int64_t, int64_t, int64_t, float*, int64_t) {
  SPINFER_CHECK_MSG(false, "AVX2 CPU SpMM kernel was not compiled into this binary");
}

void ProcessGroupTileWideAvx2(const TcaBmeMatrix&, int64_t, const float*,
                              int64_t, int64_t, int64_t, float*, int64_t) {
  SPINFER_CHECK_MSG(false, "AVX2 CPU SpMM kernel was not compiled into this binary");
}

#endif

}  // namespace cpu_backend_detail
}  // namespace spinfer
