// Internal: the per-GroupTile kernel shared by every CPU SpMM SIMD variant,
// and the row-parallel sweep every CPU SpMM and SpMV driver runs.
//
// Each variant (portable auto-vectorized, AVX2) supplies only the innermost
// updates (the narrow-block tile and the wide-block row update) and the
// half->float batch conversion; the tile walk and ragged-edge handling live
// here exactly once. The storage-order walk and its Values-cursor arithmetic
// are ForEachNonzeroTile (tca_bme.h), shared with the encoders, the decoders
// and the INT8 SpMV kernels. That is what makes the bit-identity contract
// between variants cheap to keep: a variant cannot disagree about *which*
// products to form, only about how to schedule identical per-element
// mul-then-add chains — and those are lane-independent, so any vector width
// produces the same bits.
//
// Do not include outside src/core/cpu_backend*.cc, src/core/cpu_spmv*.cc and
// tests.
#pragma once

#include <bit>
#include <cstdint>

#include "src/format/tca_bme.h"
#include "src/util/function_ref.h"

namespace spinfer {
namespace cpu_backend_detail {

// One nonzero's contribution to a row update: scalar weight value plus the
// (already j0-offset) X panel row it multiplies.
struct RowTerm {
  float v;
  const float* xrow;
};

// Per-row-task phase accounting for tracing. Timing is a compile-time
// template parameter of ProcessGroupTile (`kTimed`), so the untraced
// instantiation contains no timing code at all — bit-for-bit the
// pre-instrumentation loop; the driver selects the instantiation once per
// task on the hoisted tracing flag (see src/obs/trace.h). When active,
// decode/convert/accumulate nanoseconds accumulate here and the driver emits
// them as synthetic child slices of the row-task span.
//
// Now() is defined out-of-line in cpu_backend.cc on purpose: this header is
// compiled into TUs with different ISA flags, and an inline body could hand
// AVX-encoded code to the portable path via COMDAT merging.
struct SpmmPhaseRecorder {
  uint64_t convert_ns = 0;     // half->float staging of tile Values
  uint64_t decode_ns = 0;      // RowTerm gathering; nonzero only for nb > 8
  uint64_t accumulate_ns = 0;  // row updates, incl. the block tile's decode
  uint64_t tiles = 0;          // nonzero BitmapTiles processed
  uint64_t nnz = 0;            // nonzeros consumed

  uint64_t Now() const;  // Tracer clock (respects an injected FakeClock)
};

// Span names a RowParallelSweep records under when tracing is on. `decode`
// is null for kernels that fuse decoding into the accumulate walk (SpMV):
// their row tasks split into two phase slices, not three.
struct SweepSpans {
  const char* row_task;
  const char* convert;
  const char* decode;
  const char* accumulate;
};

// The row-parallel sweep of every CPU SpMM/SpMV driver, defined in
// cpu_backend.cc: runs row(gtr, rec) once per GroupTile grid row gtr in
// [0, grid_rows) on the global ThreadPool. Each row owns the output rows of
// one grid row, so writes are disjoint and bits are thread-count-
// independent. The tracing check is hoisted out of the loop: untraced rows
// get a null recorder (the kernels' untimed instantiation, zero
// instrumentation); traced rows get a fresh recorder and are emitted as one
// row_task span plus back-to-back synthetic child slices whose durations are
// the row's per-phase totals.
void RowParallelSweep(int64_t grid_rows, const SweepSpans& spans,
                      FunctionRef<void(int64_t, SpmmPhaseRecorder*)> row);

// Widest N-block the block tile takes: blocks at most this wide (every
// decode batch, and the last block of a panel like N = 132) run it; wider
// ones stage RowTerms.
inline constexpr int64_t kBlockTileMaxCols = kBitmapTileDim;

// Floats of readable pad past a tile's staged values (BlockTile contract).
inline constexpr int kTileValsPad = 8;

// BlockTile contract: tile(bitmap, vals, bt_r, bt_c, xf, n, j0, nb, blk, ldb)
// applies one interior BitmapTile to a block of nb <= kBlockTileMaxCols
// output columns held column-major: element (r, j) lives at blk[j*ldb + r],
// r the absolute output row. For every j in [0, nb) and every set bit
// (rr, cc) of `bitmap`, in ascending bit order:
//     blk[j*ldb + bt_r + rr] += vals[t] * xf[(bt_c + cc)*n + j0 + j]
// where t is the bit's rank, with one rounding for the multiply and one for
// the add (no fusion — the variant TUs are compiled with -ffp-contract=off).
// Each output element's chain is thus t-ascending, exactly as in the RowFma
// contract below, which is what keeps every width bit-identical to a column
// of a wider call. Only elements whose bitmap bit is set may change: an
// unset lane keeps its bits (a blend, never an added zero, which would turn
// -0.0 into +0.0). `vals` is readable for kTileValsPad floats past the
// tile's popcount, so a vector expansion may load a whole row at any in-tile
// offset.
//
// RowFma contract: fma(orow, terms, count, nb), called for blocks wider
// than kBlockTileMaxCols, performs, for every j in [0, nb) and t in
// [0, count) in ascending t order:
//     orow[j] = orow[j] + terms[t].v * terms[t].xrow[j]
// with the same mul-then-add rounding. Per-element results are then
// identical for every vector width, which is the dispatch invariant the
// tests enforce.
//
// ConvertFn contract: convert(src, dst, count) writes dst[i] =
// float(src[i]) for i in [0, count). Half->float widening is exact, so the
// LUT and F16C implementations produce identical bits; the choice never
// affects results, only speed. A variant whose block tile reads the staging
// pad zeroes it here.

// Ragged-edge BitmapTile: rows/cols may fall outside the logical matrix, so
// every element is guarded. Scalar on purpose — edges are rare, and sharing
// this exact code across variants and block layouts removes any chance of
// edge divergence. `tile_vals` holds the tile's already-converted values in
// bit order; output element (r, j), j in [0, nb), lives at
// out[r*row_stride + j*col_stride].
//
// `static`, not `inline`: the including TUs are compiled with different ISA
// flags, and a COMDAT-merged copy could hand AVX-encoded code to the
// portable path. Internal linkage keeps each TU's codegen to itself.
static inline void EdgeBitmapTile(uint64_t bitmap, const float* tile_vals,
                                  int64_t bt_r, int64_t bt_c, int64_t m, int64_t k,
                                  const float* xf, int64_t n, int64_t j0,
                                  int64_t nb, float* out, int64_t row_stride,
                                  int64_t col_stride) {
  int t = 0;
  while (bitmap != 0) {
    const int bit = std::countr_zero(bitmap);
    bitmap &= bitmap - 1;
    const float v = tile_vals[t++];
    const int64_t r = bt_r + bit / kBitmapTileDim;
    const int64_t c = bt_c + bit % kBitmapTileDim;
    if (r >= m || c >= k) {
      continue;  // padding region: the stored value is never referenced
    }
    float* o = out + r * row_stride;
    const float* xrow = xf + c * n + j0;
    for (int64_t j = 0; j < nb; ++j) {
      o[j * col_stride] += v * xrow[j];
    }
  }
}

// Applies one GroupTile's nonzeros to the output columns [j0, j0+nb), reading
// activations from the fp32 panel `xf` (row-major K x N). A block at most
// kBlockTileMaxCols wide accumulates into the column-major block `out` with
// column stride `ldo` (see the BlockTile contract); a wider one into the
// row-major M x N output `out` (ldo == n). The choice is made once per
// call, so each tile walk carries only its own path (one walk holding both
// measured ~3% slower at N = 1). Each BitmapTile's
// compressed Values run is converted half->float in one batch into an
// L1-resident staging array, so the hot updates read floats and the
// conversion vectorizes. The caller owns N-blocking, the block layout and
// row-parallelism; ForEachNonzeroTile supplies the storage-order walk and
// each tile's Values offset.
template <bool kTimed, typename BlockTile, typename RowFma, typename ConvertFn>
static void ProcessGroupTile(const TcaBmeMatrix& w, int64_t gt, const float* xf,
                             int64_t n, int64_t j0, int64_t nb, float* out,
                             int64_t ldo, const BlockTile& block_tile,
                             const RowFma& row_fma, const ConvertFn& convert,
                             SpmmPhaseRecorder* rec = nullptr) {
  const Half* hvalues = w.values().data();
  const int64_t m = w.rows();
  const int64_t k = w.cols();
  // Stages one tile's values; returns whether the tile crosses the matrix
  // edge.
  const auto stage = [&](uint64_t bitmap, size_t first, int64_t bt_r,
                         int64_t bt_c, float* tile_vals) {
    const int pc = std::popcount(bitmap);
    uint64_t t_phase = 0;
    if constexpr (kTimed) {
      t_phase = rec->Now();
    }
    convert(hvalues + first, tile_vals, static_cast<size_t>(pc));
    if constexpr (kTimed) {
      rec->convert_ns += rec->Now() - t_phase;
      rec->tiles += 1;
      rec->nnz += static_cast<uint64_t>(pc);
    }
    return bt_r + kBitmapTileDim > m || bt_c + kBitmapTileDim > k;
  };
  if (nb <= kBlockTileMaxCols) {
    // The block tile fuses its decode, so it charges wholly to accumulate.
    ForEachNonzeroTile(w, gt, [&](uint64_t bitmap, int64_t /*bi*/, size_t first,
                                  int64_t bt_r, int64_t bt_c) {
      alignas(32) float tile_vals[kBitmapTileDim * kBitmapTileDim + kTileValsPad];
      const bool edge = stage(bitmap, first, bt_r, bt_c, tile_vals);
      uint64_t t_phase = 0;
      if constexpr (kTimed) {
        t_phase = rec->Now();
      }
      if (edge) {
        EdgeBitmapTile(bitmap, tile_vals, bt_r, bt_c, m, k, xf, n, j0, nb, out,
                       /*row_stride=*/1, /*col_stride=*/ldo);
      } else {
        block_tile(bitmap, tile_vals, bt_r, bt_c, xf, n, j0, nb, out, ldo);
      }
      if constexpr (kTimed) {
        rec->accumulate_ns += rec->Now() - t_phase;
      }
    });
    return;
  }
  ForEachNonzeroTile(w, gt, [&](uint64_t bitmap, int64_t /*bi*/, size_t first,
                                int64_t bt_r, int64_t bt_c) {
    alignas(32) float tile_vals[kBitmapTileDim * kBitmapTileDim + kTileValsPad];
    const bool edge = stage(bitmap, first, bt_r, bt_c, tile_vals);
    uint64_t t_phase = 0;
    if (edge) {
      if constexpr (kTimed) {
        t_phase = rec->Now();
      }
      EdgeBitmapTile(bitmap, tile_vals, bt_r, bt_c, m, k, xf, n, j0, nb,
                     out + j0, /*row_stride=*/ldo, /*col_stride=*/1);
      if constexpr (kTimed) {
        rec->accumulate_ns += rec->Now() - t_phase;
      }
      return;
    }
    // Interior tile of a wide block: bits are row-major (bit = r*8 + c), so
    // each bitmap byte is one output row's nonzeros and its Values are
    // contiguous in the staging array. Gather the row's terms once and
    // replay them per register tile.
    int tv = 0;
    for (int rr = 0; rr < kBitmapTileDim; ++rr) {
      uint64_t rowmask = (bitmap >> (rr * kBitmapTileDim)) & 0xFFull;
      if (rowmask == 0) {
        continue;
      }
      if constexpr (kTimed) {
        t_phase = rec->Now();
      }
      RowTerm terms[kBitmapTileDim];
      int count = 0;
      while (rowmask != 0) {
        const int cc = std::countr_zero(rowmask);
        rowmask &= rowmask - 1;
        terms[count].v = tile_vals[tv + count];
        terms[count].xrow = xf + (bt_c + cc) * n + j0;
        ++count;
      }
      tv += count;
      if constexpr (kTimed) {
        const uint64_t t_mid = rec->Now();
        rec->decode_ns += t_mid - t_phase;
        t_phase = t_mid;
      }
      row_fma(out + (bt_r + rr) * ldo + j0, terms, count, nb);
      if constexpr (kTimed) {
        rec->accumulate_ns += rec->Now() - t_phase;
      }
    }
  });
}

// The AVX2 variant's kernel, defined in cpu_backend_avx2.cc (built with
// -mavx2 -mfma -mf16c when the compiler supports them). Same arguments as
// ProcessGroupTile. Call only when CpuSpmmAvx2Compiled() and the running CPU
// advertises AVX2+FMA+F16C.
bool CpuSpmmAvx2Compiled();
void ProcessGroupTileAvx2(const TcaBmeMatrix& w, int64_t gt, const float* xf,
                          int64_t n, int64_t j0, int64_t nb, float* out,
                          int64_t ldo, SpmmPhaseRecorder* rec);

}  // namespace cpu_backend_detail
}  // namespace spinfer
