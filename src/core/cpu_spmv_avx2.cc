// AVX2 unit of the INT8 SpMV. Built with -mavx2 -mfma -mf16c when the
// compiler supports them (see src/core/CMakeLists.txt); kernels run only
// after runtime feature detection, so the rest of the binary stays executable
// on baseline x86-64 and non-x86 hosts. (The FP16 SpMV is the N = 1 case of
// the SpMM block tile in cpu_backend_avx2.cc.)
//
// The kernel expands each row's codes with a byte-shuffle LUT (pshufb, 0x80
// sentinels zero the unset lanes), widens to int16 (vpmovsxbw), and
// multiply-accumulates against the quantized activations with vpmaddwd. The
// integer dot is exact, so lane order is free; only the final
// scale * float(idot) mul-then-add touches floats, in fixed row order, and
// the TU is built with -ffp-contract=off so the compiler cannot fuse it.
#include "src/core/cpu_spmv_inner.h"
#include "src/util/check.h"

#if defined(__AVX2__) && defined(__FMA__) && defined(__F16C__)
#include <immintrin.h>
#define SPINFER_CPU_SPMV_AVX2 1
#endif

namespace spinfer {
namespace cpu_spmv_detail {

#if defined(SPINFER_CPU_SPMV_AVX2)

namespace {

// Byte-shuffle LUT for INT8 codes: set lanes select their rank (prefix
// popcount) within the row's packed run, unset lanes use the 0x80 sentinel
// (pshufb writes zero), so expanded codes are exact — no blend needed on the
// integer side.
struct ShufLut {
  alignas(16) uint8_t idx[256][16];
};

constexpr ShufLut MakeShufLut() {
  ShufLut lut{};
  for (int mask = 0; mask < 256; ++mask) {
    int rank = 0;
    for (int cc = 0; cc < 8; ++cc) {
      lut.idx[mask][cc] =
          ((mask >> cc) & 1) ? static_cast<uint8_t>(rank++) : 0x80;
    }
    for (int cc = 8; cc < 16; ++cc) {
      lut.idx[mask][cc] = 0x80;
    }
  }
  return lut;
}

constexpr ShufLut kShufLut = MakeShufLut();

inline void Avx2Int8SpmvTile(uint64_t bitmap, int pc, const int8_t* codes,
                             float scale, int64_t bt_r, int64_t bt_c,
                             const int16_t* xq, float* out) {
  (void)pc;
  const __m128i xv =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(xq + bt_c));
  int off = 0;
  for (int rr = 0; rr < 8; ++rr) {
    const uint32_t rm = static_cast<uint32_t>(bitmap >> (rr * 8)) & 0xFFu;
    if (rm == 0) {
      continue;
    }
    const __m128i shuf =
        _mm_load_si128(reinterpret_cast<const __m128i*>(kShufLut.idx[rm]));
    const __m128i packed =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(codes + off));
    off += std::popcount(rm);
    // Expanded lane cc = code of bit (rr, cc), zero where unset; widen and
    // form the exact int32 dot against the 8 activation codes.
    const __m128i expanded = _mm_shuffle_epi8(packed, shuf);
    const __m128i c16 = _mm_cvtepi8_epi16(expanded);
    const __m128i prod = _mm_madd_epi16(c16, xv);
    __m128i sum = _mm_add_epi32(prod, _mm_srli_si128(prod, 8));
    sum = _mm_add_epi32(sum, _mm_srli_si128(sum, 4));
    const int32_t idot = _mm_cvtsi128_si32(sum);
    out[bt_r + rr] += scale * static_cast<float>(idot);
  }
}

}  // namespace

void ProcessGroupTileSpmvInt8Avx2(const TcaBmeQuantMatrix& w, int64_t gt,
                                  const int16_t* xq, float x_scale, float* out,
                                  SpmmPhaseRecorder* rec) {
  const auto tile = [](uint64_t bitmap, int pc, const int8_t* codes,
                       float scale, int64_t bt_r, int64_t bt_c,
                       const int16_t* x, float* o) {
    Avx2Int8SpmvTile(bitmap, pc, codes, scale, bt_r, bt_c, x, o);
  };
  if (rec != nullptr) {
    ProcessGroupTileSpmvInt8<true>(w, gt, xq, x_scale, out, tile, rec);
  } else {
    ProcessGroupTileSpmvInt8<false>(w, gt, xq, x_scale, out, tile);
  }
}

#else  // !SPINFER_CPU_SPMV_AVX2

void ProcessGroupTileSpmvInt8Avx2(const TcaBmeQuantMatrix& w, int64_t gt,
                                  const int16_t* xq, float x_scale, float* out,
                                  SpmmPhaseRecorder* rec) {
  (void)w;
  (void)gt;
  (void)xq;
  (void)x_scale;
  (void)out;
  (void)rec;
  SPINFER_CHECK_MSG(false, "AVX2 CPU SpMV kernel was not compiled into this binary");
}

#endif

}  // namespace cpu_spmv_detail
}  // namespace spinfer
