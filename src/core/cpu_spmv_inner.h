// Internal: the per-GroupTile kernels shared by every CPU SpMV SIMD variant.
//
// The SpMV (N == 1) kernel family is a sibling of the SpMM kernel in
// cpu_backend_inner.h, specialized for a single output column: there is no
// activation panel blocking, no RowTerm staging, and each BitmapTile row
// collapses to one scalar accumulator. Both kernels walk GroupTiles with
// ForEachNonzeroTile (tca_bme.h) and run under the shared RowParallelSweep;
// the tile math and ragged-edge handling live here exactly once, so a
// variant can only disagree about *scheduling* identical per-element
// mul-then-add chains — never about which products to form. That is the
// bit-identity contract tests/cpu_spmv_test.cc enforces against CpuSpmm at
// N = 1.
//
// Do not include outside src/core/cpu_spmv*.cc and tests.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>

#include "src/core/cpu_backend_inner.h"
#include "src/format/tca_bme.h"
#include "src/format/tca_bme_quant.h"

namespace spinfer {
namespace cpu_spmv_detail {

// SpMV reuses the SpMM phase recorder (convert/decode/accumulate split) and
// its out-of-line Now(); the shared sweep emits its synthetic child slices
// under a "cpu_spmv.row_task" span.
using cpu_backend_detail::SpmmPhaseRecorder;

// Interior-tile staging is padded so the AVX2 row-expansion loads (8 floats /
// 16 codes starting at an arbitrary in-tile offset) always stay inside the
// stack array instead of overreading the heap Values stream at the last tile.
inline constexpr int kSpmvStagePadFloats = 8;
inline constexpr int kSpmvStagePadCodes = 16;

// FP16 tile contract — tile_fn(bitmap, pc, tile_vals, bt_r, bt_c, xf, out)
// performs, for every set bit (rr, cc) of `bitmap` in ascending-cc order
// within each row rr:
//     out[bt_r + rr] = out[bt_r + rr] + tile_vals[t] * xf[bt_c + cc]
// where t is the bit's rank in bit order, with one rounding for the multiply
// and one for the add (the variant TUs are compiled with -ffp-contract=off,
// and the AVX2 unit uses explicit mul/add — never FMA). Each output row's
// chain is a pure ascending-column scalar recurrence, so any vectorization
// *across rows* (the AVX2 unit's scheme) produces the same bits as the
// scalar walk. This is also exactly the chain CpuSpmm's fused Row8 walk
// forms at nb == 1, which is what makes SpMV == SpMM bitwise at N = 1.

// Shared scalar interior tile: the portable variant's tile_fn and the AVX2
// unit's low-popcount fallback. `static`, not `inline`, for the same
// COMDAT-merging reason as EdgeBitmapTile (see cpu_backend_inner.h).
static inline void ScalarSpmvTile(uint64_t bitmap, const float* tile_vals,
                                  int64_t bt_r, int64_t bt_c, const float* xf,
                                  float* out) {
  const float* xt = xf + bt_c;
  int t = 0;
  for (int rr = 0; rr < kBitmapTileDim; ++rr) {
    uint64_t rowmask = (bitmap >> (rr * kBitmapTileDim)) & 0xFFull;
    if (rowmask == 0) {
      continue;
    }
    float acc = out[bt_r + rr];
    while (rowmask != 0) {
      const int cc = std::countr_zero(rowmask);
      rowmask &= rowmask - 1;
      acc += tile_vals[t++] * xt[cc];
    }
    out[bt_r + rr] = acc;
  }
}

// Applies one GroupTile's nonzeros to the single output column, reading the
// fp32 activation vector `xf` (length w.cols()). Walks the GroupTile with
// ForEachNonzeroTile like ProcessGroupTile, so per output row, columns are
// visited in ascending order across the whole GroupTile row. Ragged edges
// reuse the SpMM edge path at n=1/j0=0/nb=1 — shared guarded code, no
// chance of edge divergence between SpMM and SpMV.
template <bool kTimed, typename TileFn, typename ConvertFn>
static void ProcessGroupTileSpmv(const TcaBmeMatrix& w, int64_t gt,
                                 const float* xf, float* out,
                                 const TileFn& tile_fn, const ConvertFn& convert,
                                 SpmmPhaseRecorder* rec = nullptr) {
  const Half* hvalues = w.values().data();
  const int64_t m = w.rows();
  const int64_t k = w.cols();
  ForEachNonzeroTile(w, gt, [&](uint64_t bitmap, int64_t /*bi*/, size_t first,
                                int64_t bt_r, int64_t bt_c) {
    const int pc = std::popcount(bitmap);
    alignas(32) float tile_vals[kBitmapTileDim * kBitmapTileDim +
                                kSpmvStagePadFloats];
    uint64_t t_phase = 0;
    if constexpr (kTimed) {
      t_phase = rec->Now();
    }
    convert(hvalues + first, tile_vals, static_cast<size_t>(pc));
    if constexpr (kTimed) {
      rec->convert_ns += rec->Now() - t_phase;
      rec->tiles += 1;
      rec->nnz += static_cast<uint64_t>(pc);
      t_phase = rec->Now();
    }
    if (bt_r + kBitmapTileDim > m || bt_c + kBitmapTileDim > k) {
      cpu_backend_detail::EdgeBitmapTile(bitmap, tile_vals, bt_r, bt_c, m, k,
                                         xf, /*n=*/1, /*j0=*/0, /*nb=*/1, out);
    } else {
      tile_fn(bitmap, pc, tile_vals, bt_r, bt_c, xf, out);
    }
    if constexpr (kTimed) {
      rec->accumulate_ns += rec->Now() - t_phase;
    }
  });
}

// INT8 tile contract — the quantized path accumulates per BitmapTile row:
//     idot      = sum over set bits (rr, cc), ascending cc:
//                   int32(code[t]) * int32(xq[bt_c + cc])
//     out[row] += scale * float(idot)
// The integer dot is exact in int32 (|code| <= 127, |xq| <= 127 * 2^8 head-
// room to spare), so its value is schedule-independent; the float side is a
// single mul and a single add per nonzero *row*, fixed order. That is the
// INT8 accumulation-order contract (DESIGN.md): SIMD variants may reorder
// the integer lanes freely and still produce identical bits.

static inline void ScalarSpmvTileInt8(uint64_t bitmap, const int8_t* codes,
                                      float scale, int64_t bt_r, int64_t bt_c,
                                      const int16_t* xq, float* out) {
  const int16_t* xt = xq + bt_c;
  int t = 0;
  for (int rr = 0; rr < kBitmapTileDim; ++rr) {
    uint64_t rowmask = (bitmap >> (rr * kBitmapTileDim)) & 0xFFull;
    if (rowmask == 0) {
      continue;
    }
    int32_t idot = 0;
    while (rowmask != 0) {
      const int cc = std::countr_zero(rowmask);
      rowmask &= rowmask - 1;
      idot += static_cast<int32_t>(codes[t++]) * static_cast<int32_t>(xt[cc]);
    }
    out[bt_r + rr] += scale * static_cast<float>(idot);
  }
}

// Ragged-edge INT8 tile: out-of-bounds rows skip their codes; out-of-bounds
// columns cannot carry set bits (the encoder only sets bits for stored
// nonzeros), but are guarded anyway so a hand-built matrix cannot corrupt
// memory. A row contributes only if at least one in-bounds bit did.
static inline void EdgeSpmvTileInt8(uint64_t bitmap, const int8_t* codes,
                                    float scale, int64_t bt_r, int64_t bt_c,
                                    int64_t m, int64_t k, const int16_t* xq,
                                    float* out) {
  int t = 0;
  for (int rr = 0; rr < kBitmapTileDim; ++rr) {
    uint64_t rowmask = (bitmap >> (rr * kBitmapTileDim)) & 0xFFull;
    if (rowmask == 0) {
      continue;
    }
    if (bt_r + rr >= m) {
      t += std::popcount(rowmask);
      continue;
    }
    int32_t idot = 0;
    bool any = false;
    while (rowmask != 0) {
      const int cc = std::countr_zero(rowmask);
      rowmask &= rowmask - 1;
      const int8_t code = codes[t++];
      if (bt_c + cc < k) {
        idot += static_cast<int32_t>(code) * static_cast<int32_t>(xq[bt_c + cc]);
        any = true;
      }
    }
    if (any) {
      out[bt_r + rr] += scale * static_cast<float>(idot);
    }
  }
}

// Quantized-weights walk: the same ForEachNonzeroTile walk as the FP16
// kernel (the two formats share their storage nesting by construction), with
// the offset running over INT8 codes and each tile carrying its own
// dequantization scale, combined with the caller's activation scale into one
// float factor per tile.
// tile_fn(bitmap, pc, tile_codes, scale, bt_r, bt_c, xq, out).
template <bool kTimed, typename TileFn>
static void ProcessGroupTileSpmvInt8(const TcaBmeQuantMatrix& w, int64_t gt,
                                     const int16_t* xq, float x_scale,
                                     float* out, const TileFn& tile_fn,
                                     SpmmPhaseRecorder* rec = nullptr) {
  const int8_t* codes = w.codes().data();
  const Half* scales = w.scales().data();
  const int64_t m = w.rows();
  const int64_t k = w.cols();
  ForEachNonzeroTile(w, gt, [&](uint64_t bitmap, int64_t bi, size_t first,
                                int64_t bt_r, int64_t bt_c) {
    const int pc = std::popcount(bitmap);
    alignas(16) int8_t tile_codes[kBitmapTileDim * kBitmapTileDim +
                                  kSpmvStagePadCodes];
    uint64_t t_phase = 0;
    if constexpr (kTimed) {
      t_phase = rec->Now();
    }
    std::memcpy(tile_codes, codes + first, static_cast<size_t>(pc));
    const float scale = scales[bi].ToFloat() * x_scale;
    if constexpr (kTimed) {
      rec->convert_ns += rec->Now() - t_phase;
      rec->tiles += 1;
      rec->nnz += static_cast<uint64_t>(pc);
      t_phase = rec->Now();
    }
    if (bt_r + kBitmapTileDim > m || bt_c + kBitmapTileDim > k) {
      EdgeSpmvTileInt8(bitmap, tile_codes, scale, bt_r, bt_c, m, k, xq, out);
    } else {
      tile_fn(bitmap, pc, tile_codes, scale, bt_r, bt_c, xq, out);
    }
    if constexpr (kTimed) {
      rec->accumulate_ns += rec->Now() - t_phase;
    }
  });
}

// The AVX2 variant's per-GroupTile kernels, defined in cpu_spmv_avx2.cc
// (built with -mavx2 -mfma -mf16c when available; CHECK-failing stubs
// otherwise). Availability is exactly CpuSpmmVariantAvailable(kAvx2) — the
// SpMV unit shares the SpMM compile/runtime gate.
void ProcessGroupTileSpmvAvx2(const TcaBmeMatrix& w, int64_t gt, const float* xf,
                              float* out, SpmmPhaseRecorder* rec);
void ProcessGroupTileSpmvInt8Avx2(const TcaBmeQuantMatrix& w, int64_t gt,
                                  const int16_t* xq, float x_scale, float* out,
                                  SpmmPhaseRecorder* rec);

}  // namespace cpu_spmv_detail
}  // namespace spinfer
