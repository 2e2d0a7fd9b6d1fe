// Internal: the per-GroupTile kernels shared by every CPU SpMM SIMD variant
// (a narrow one and a wide one).
//
// Each variant (portable auto-vectorized, AVX2, AVX-512) supplies only the
// innermost updates it implements (the narrow-block half-column tile, the
// wide-block row update) and the half->float batch conversion; the tile
// walks and ragged-edge handling live here exactly once. The storage-order
// walks and their Values-cursor arithmetic are ForEachNonzeroHalfColumn and
// ForEachNonzeroTile (tca_bme.h), shared with the encoders and the decoders.
// That is what makes the bit-identity contract between variants cheap to
// keep: a variant cannot disagree about *which* products to form, only about
// how to schedule identical per-element mul-then-add chains — and those are
// lane-independent, so any vector width produces the same bits.
//
// Do not include outside src/core/cpu_backend*.cc and tests.
#pragma once

#include <bit>
#include <cstdint>

#include "src/format/tca_bme.h"

namespace spinfer {
namespace cpu_backend_detail {

// One nonzero's contribution to a row update: scalar weight value plus the
// (already j0-offset) X panel row it multiplies.
struct RowTerm {
  float v;
  const float* xrow;
};

// Widest N-block each variant's narrow kernel takes: blocks at most this
// wide run the variant's half-column tile on a column-major copy of the
// block; wider ones run its wide kernel, which stages RowTerms. The portable
// and AVX2 tiles stop at 8, as they always have (the AVX2 tile's own
// crossover is still unmeasured). The AVX-512 tile's sweep costs the same
// per column at any density while RowTerm staging gets cheaper as the
// matrix empties, so the crossover falls with density. On model M's shapes
// at one thread the tile beat RowTerm staging through N = 64 at 30-70%
// sparsity; at 90% it won through 48 (x0.73-0.88), tied at 56 and lost
// x1.2 at 64 (EXPERIMENTS.md, "An AVX-512 half-column tile"). 48 is the
// widest swept width it lost at no density.
inline constexpr int64_t kPortableTileMaxCols = 8;
inline constexpr int64_t kAvx2TileMaxCols = 8;
inline constexpr int64_t kAvx512TileMaxCols = 48;

// Floats of readable pad past a half-column's staged values
// (HalfColumnTile contract).
inline constexpr int kTileValsPad = 8;

// HalfColumnTile contract: tile(upper, lower, vals, bt_r, bt_c, xf, n, j0,
// nb, blk, ldb) applies one interior TCTile half-column — BitmapTile `upper`
// over output rows [bt_r, bt_r + 8) and `lower` over [bt_r + 8, bt_r + 16),
// both over matrix columns [bt_c, bt_c + 8) — to a block of nb output
// columns held column-major: element (r, j) lives at blk[j*ldb + r], r the
// absolute output row. `vals` holds upper's values in bit order, then
// lower's. For every j in [0, nb) and every set bit (rr, cc) of either tile,
// in ascending bit order:
//     blk[j*ldb + r] += vals[t] * xf[(bt_c + cc)*n + j0 + j]
// where r is the bit's output row and t its rank in `vals`, with one rounding
// for the multiply and one for the add (no fusion — the variant TUs are
// compiled with -ffp-contract=off). Each output element's chain is thus
// t-ascending, exactly as in the RowFma contract below, which is what keeps
// every width bit-identical to a column of a wider call. Only elements whose
// bit is set may change: an unset lane keeps its bits (a blend or a masked
// add, never an added zero, which would turn -0.0 into +0.0). Either tile
// may be empty, never both. `vals` is readable for kTileValsPad floats past
// the two runs, so a vector expansion may load a whole row at any offset.
//
// RowFma contract: fma(orow, terms, count, nb), called for blocks wider
// than the variant's tile width, performs, for every j in [0, nb) and t in
// [0, count) in ascending t order:
//     orow[j] = orow[j] + terms[t].v * terms[t].xrow[j]
// with the same mul-then-add rounding. Per-element results are then
// identical for every vector width, which is the dispatch invariant the
// tests enforce.
//
// ConvertFn contract: convert(src, dst, count) writes dst[i] =
// float(src[i]) for i in [0, count). Half->float widening is exact, so the
// LUT and F16C implementations produce identical bits; the choice never
// affects results, only speed. A variant whose tile reads the staging pad
// zeroes it here.

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

// Applies one GroupTile's nonzeros to a narrow block — output columns
// [j0, j0 + nb), nb at most the variant's tile width — held column-major in
// `blk` with column stride `ldb` (see the HalfColumnTile contract), reading
// activations from the fp32 panel `xf` (row-major K x N). The walk visits
// TCTile half-columns (ForEachNonzeroHalfColumn) and stages both tiles'
// Values in one batch into an L1-resident array, so the hot updates read
// floats and the conversion vectorizes. A half-column that crosses the
// matrix edge runs EdgeBitmapTile on each of its nonzero tiles. The caller
// owns N-blocking, the block layout and row-parallelism.
template <typename HalfColumnTile, typename ConvertFn>
static void ProcessGroupTileNarrow(const TcaBmeMatrix& w, int64_t gt,
                                   const float* xf, int64_t n, int64_t j0,
                                   int64_t nb, float* blk, int64_t ldb,
                                   const HalfColumnTile& tile,
                                   const ConvertFn& convert) {
  const Half* hvalues = w.values().data();
  const int64_t m = w.rows();
  const int64_t k = w.cols();
  ForEachNonzeroHalfColumn(w, gt, [&](uint64_t upper, uint64_t lower,
                                      size_t first, int64_t bt_r, int64_t bt_c) {
    alignas(64) float vals[2 * kBitmapTileDim * kBitmapTileDim + kTileValsPad];
    const int pc_upper = std::popcount(upper);
    convert(hvalues + first, vals,
            static_cast<size_t>(pc_upper + std::popcount(lower)));
    if (bt_r + 2 * kBitmapTileDim > m || bt_c + kBitmapTileDim > k) {
      if (upper != 0) {
        EdgeBitmapTile(upper, vals, bt_r, bt_c, m, k, xf, n, j0, nb, blk,
                       /*row_stride=*/1, /*col_stride=*/ldb);
      }
      if (lower != 0) {
        EdgeBitmapTile(lower, vals + pc_upper, bt_r + kBitmapTileDim, bt_c, m,
                       k, xf, n, j0, nb, blk, /*row_stride=*/1,
                       /*col_stride=*/ldb);
      }
    } else {
      tile(upper, lower, vals, bt_r, bt_c, xf, n, j0, nb, blk, ldb);
    }
  });
}

// Adapts an 8-row BitmapTile body — tile8(bitmap, vals, bt_r, bt_c, xf, n,
// j0, nb, blk, ldb), the HalfColumnTile contract restricted to one tile — to
// a half-column: the upper tile, then the lower, each skipped when empty.
// The portable and AVX2 tiles are such bodies.
template <typename Tile8>
struct TilePair {
  Tile8 tile8;
  void operator()(uint64_t upper, uint64_t lower, const float* vals,
                  int64_t bt_r, int64_t bt_c, const float* xf, int64_t n,
                  int64_t j0, int64_t nb, float* blk, int64_t ldb) const {
    if (upper != 0) {
      tile8(upper, vals, bt_r, bt_c, xf, n, j0, nb, blk, ldb);
    }
    if (lower != 0) {
      tile8(lower, vals + std::popcount(upper), bt_r + kBitmapTileDim, bt_c,
            xf, n, j0, nb, blk, ldb);
    }
  }
};

// Applies one GroupTile's nonzeros to a wide block — output columns
// [j0, j0 + nb) of the row-major M x N output `out` (ldo == n) — by staging
// each interior BitmapTile row's nonzeros once as RowTerms and replaying
// them through `row_fma` per register tile. ForEachNonzeroTile supplies the
// storage-order walk and each tile's Values offset.
template <typename RowFma, typename ConvertFn>
static void ProcessGroupTileWide(const TcaBmeMatrix& w, int64_t gt,
                                 const float* xf, int64_t n, int64_t j0,
                                 int64_t nb, float* out, int64_t ldo,
                                 const RowFma& row_fma, const ConvertFn& convert) {
  const Half* hvalues = w.values().data();
  const int64_t m = w.rows();
  const int64_t k = w.cols();
  ForEachNonzeroTile(w, gt, [&](uint64_t bitmap, int64_t /*bi*/, size_t first,
                                int64_t bt_r, int64_t bt_c) {
    alignas(32) float tile_vals[kBitmapTileDim * kBitmapTileDim + kTileValsPad];
    convert(hvalues + first, tile_vals,
            static_cast<size_t>(std::popcount(bitmap)));
    if (bt_r + kBitmapTileDim > m || bt_c + kBitmapTileDim > k) {
      EdgeBitmapTile(bitmap, tile_vals, bt_r, bt_c, m, k, xf, n, j0, nb,
                     out + j0, /*row_stride=*/ldo, /*col_stride=*/1);
      return;
    }
    // Interior tile: bits are row-major (bit = r*8 + c), so each bitmap byte
    // is one output row's nonzeros and its Values are contiguous in the
    // staging array. Gather the row's terms once and replay them per
    // register tile.
    int tv = 0;
    for (int rr = 0; rr < kBitmapTileDim; ++rr) {
      uint64_t rowmask = (bitmap >> (rr * kBitmapTileDim)) & 0xFFull;
      if (rowmask == 0) {
        continue;
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
      row_fma(out + (bt_r + rr) * ldo + j0, terms, count, nb);
    }
  });
}

// Per-GroupTile kernels of the SIMD units, each with the arguments of the
// templates above (the narrow ones writing the column-major block, the wide
// ones the row-major output). Call a unit's kernels only when its
// *Compiled() is true and the running CPU advertises its features
// (CpuSpmmVariantAvailable).
//
// cpu_backend_avx2.cc, built with -mavx2 -mfma -mf16c when the compiler
// supports them: the AVX2 tile and RowTerm update.
bool CpuSpmmAvx2Compiled();
void ProcessGroupTileNarrowAvx2(const TcaBmeMatrix& w, int64_t gt,
                                const float* xf, int64_t n, int64_t j0,
                                int64_t nb, float* blk, int64_t ldb);
void ProcessGroupTileWideAvx2(const TcaBmeMatrix& w, int64_t gt,
                              const float* xf, int64_t n, int64_t j0,
                              int64_t nb, float* out, int64_t ldo);
// cpu_backend_avx512.cc, additionally built with -mavx512f -mavx512vl
// -mavx512bw -mavx512dq: the AVX-512 tile only. The variant's wide blocks
// run ProcessGroupTileWideAvx2.
bool CpuSpmmAvx512Compiled();
void ProcessGroupTileNarrowAvx512(const TcaBmeMatrix& w, int64_t gt,
                                  const float* xf, int64_t n, int64_t j0,
                                  int64_t nb, float* blk, int64_t ldb);

}  // namespace cpu_backend_detail
}  // namespace spinfer
