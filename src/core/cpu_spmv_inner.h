// Internal: the per-GroupTile kernels of the INT8 SpMV, shared by its SIMD
// variants. (The FP16 SpMV is the N = 1 case of the SpMM kernel in
// cpu_backend_inner.h.)
//
// The kernel walks GroupTiles with ForEachNonzeroTile (tca_bme.h) and runs
// under the shared RowParallelSweep; the tile math and ragged-edge handling
// live here exactly once, so a variant can only disagree about *scheduling*
// an exact integer dot — never about which products to form.
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

// The INT8 SpMV reuses the SpMM phase recorder (convert/accumulate split)
// and its out-of-line Now(); the shared sweep emits its synthetic child
// slices under a "cpu_spmv.row_task" span.
using cpu_backend_detail::SpmmPhaseRecorder;

// Interior-tile staging is padded so the AVX2 row-expansion loads (16 codes
// starting at an arbitrary in-tile offset) always stay inside the stack
// array instead of overreading the heap codes stream at the last tile.
inline constexpr int kSpmvStagePadCodes = 16;

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

// The AVX2 variant's per-GroupTile kernel, defined in cpu_spmv_avx2.cc
// (built with -mavx2 -mfma -mf16c when available; a CHECK-failing stub
// otherwise). Availability is exactly CpuSpmmVariantAvailable(kAvx2) — the
// SpMV unit shares the SpMM compile/runtime gate.
void ProcessGroupTileSpmvInt8Avx2(const TcaBmeQuantMatrix& w, int64_t gt,
                                  const int16_t* xq, float x_scale, float* out,
                                  SpmmPhaseRecorder* rec);

}  // namespace cpu_spmv_detail
}  // namespace spinfer
