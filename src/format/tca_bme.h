// Tensor-Core-Aware Bitmap Encoding — SpInfer's sparse format (paper §4.2).
//
// Three nested tile levels align the encoding with the GPU execution
// hierarchy:
//   * BitmapTile (8×8): the Tensor Core's minimum matrix unit. A native
//     uint64_t bitmap marks nonzero positions; bit (r*8 + c) covers element
//     (r, c), so warp lane i owns bits 2i and 2i+1 — exactly the two A-operand
//     halves lane i feeds to mma.m16n8k16 (see gpusim/tensor_core.h).
//   * TCTile (16×16): one mma.m16n8k16 A operand = 2×2 BitmapTiles in
//     column-major order (TL, BL, TR, BR), mirroring registers Ra0..Ra3.
//   * GroupTile (GT_H×GT_W): the thread-block tile. GroupTiles are stored
//     row-major over the matrix; TCTiles column-major within a GroupTile.
//
// Storage uses three arrays (paper Eq. 9):
//   GTileOffset — uint32 start offset (in FP16 elements) of every GroupTile's
//                 Values segment, +1 sentinel;
//   Values      — FP16 nonzeros in nested (GroupTile, TCTile, BitmapTile,
//                 bit-order) order, each GroupTile segment padded to an
//                 8-byte boundary so LDGSTS.128 vector copies stay aligned;
//   Bitmap      — one uint64_t per BitmapTile, same nesting.
//
// No per-element index is stored: positions are implied by the bitmap, and
// per-lane value offsets are recomputed online with PopCount/MaskedPopCount
// (SMBD, §4.3.3). That is the entire trick — indexing cost drops from 16–32
// bits per nonzero (Tiled-CSL/CSR) to one bit per *element*, keeping CR > 1
// even at 30% sparsity.
#pragma once

#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/numeric/matrix.h"
#include "src/util/check.h"

namespace spinfer {

inline constexpr int kBitmapTileDim = 8;   // BT_H == BT_W
inline constexpr int kTcTileDim = 16;      // TT_H == TT_W

struct TcaBmeConfig {
  // GroupTile shape; both must be multiples of kTcTileDim.
  int gt_rows = 64;
  int gt_cols = 64;
  // Values-segment alignment in FP16 elements (4 halves = 8 bytes, the
  // LDGSTS.128 starting-address requirement, §4.3.2).
  int value_align_halves = 4;
};

class TcaBmeMatrix {
 public:
  // Encodes `w`, padding virtually to GroupTile multiples (padding is zeros
  // and costs only bitmap space).
  static TcaBmeMatrix Encode(const HalfMatrix& w, const TcaBmeConfig& cfg = {});

  // Reassembles a matrix from raw arrays (the deserialization path).
  // Validates the structural invariants — config sanity, offset
  // monotonicity and alignment, bitmap popcounts fitting each GroupTile's
  // Values segment — and returns nullopt with a diagnostic in `error` if
  // the parts are inconsistent. Accepting inconsistent arrays would make
  // SMBD read out of bounds, so untrusted input must come through here.
  static std::optional<TcaBmeMatrix> FromParts(int64_t rows, int64_t cols,
                                               const TcaBmeConfig& cfg,
                                               std::vector<uint32_t> gtile_offsets,
                                               std::vector<uint64_t> bitmaps,
                                               std::vector<Half> values,
                                               std::string* error);

  // Reconstructs the dense matrix (exact roundtrip).
  HalfMatrix Decode() const;

  // Exact storage footprint including alignment padding.
  uint64_t StorageBytes() const;

  // CR = dense bytes / StorageBytes (paper Eq. 1).
  double CompressionRatio() const;

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t padded_rows() const { return padded_rows_; }
  int64_t padded_cols() const { return padded_cols_; }
  int64_t nnz() const { return nnz_; }
  const TcaBmeConfig& config() const { return cfg_; }

  // GroupTile grid.
  int64_t gt_grid_rows() const { return padded_rows_ / cfg_.gt_rows; }
  int64_t gt_grid_cols() const { return padded_cols_ / cfg_.gt_cols; }
  int64_t num_group_tiles() const { return gt_grid_rows() * gt_grid_cols(); }
  // TCTiles per GroupTile (column-major grid of tc_rows x tc_cols).
  int tc_rows_per_gt() const { return cfg_.gt_rows / kTcTileDim; }
  int tc_cols_per_gt() const { return cfg_.gt_cols / kTcTileDim; }
  int tcs_per_gt() const { return tc_rows_per_gt() * tc_cols_per_gt(); }
  int64_t num_bitmap_tiles() const { return static_cast<int64_t>(bitmaps_.size()); }

  // Index into the Bitmap array for (GroupTile gt — row-major grid index,
  // TCTile tc — column-major index within the GroupTile, quadrant 0..3 —
  // column-major within the TCTile: TL, BL, TR, BR).
  int64_t BitmapIndex(int64_t gt, int tc, int quadrant) const;

  const std::vector<uint64_t>& bitmaps() const { return bitmaps_; }
  const std::vector<uint32_t>& gtile_offsets() const { return gtile_offsets_; }
  const std::vector<Half>& values() const { return values_; }

 private:
  int64_t rows_ = 0;
  int64_t cols_ = 0;
  int64_t padded_rows_ = 0;
  int64_t padded_cols_ = 0;
  int64_t nnz_ = 0;
  TcaBmeConfig cfg_;
  std::vector<uint32_t> gtile_offsets_;  // num_group_tiles + 1, element offsets
  std::vector<uint64_t> bitmaps_;        // one per BitmapTile
  std::vector<Half> values_;             // padded nonzero payload
};

// --- Storage-order traversal -----------------------------------------------
//
// The one CPU implementation of the nesting above (docs/FORMAT.md §1): both
// encoders, both decoders and every CPU kernel walk GroupTiles through these
// templates, all built on ForEachHalfColumn, so the order is written down
// exactly once. The warp-level simulator (src/core/spinfer_kernel.cc) keeps
// its own walk on purpose, as the independent oracle of this order.
//
// Translation units built with extra ISA flags instantiate them only with
// lambdas defined inside internal-linkage functions. Such a closure type is
// local to its TU, and so is every instantiation it produces, so no COMDAT
// copy carrying AVX encodings can stand in for the portable one (DESIGN.md
// §5, "CPU backend v2", pillar 2).

// Calls visit(i, bt_r, bt_c) for every TCTile half-column of GroupTile
// (gr, gc) in storage order: TCTiles column-major, and within each the left
// half (TL over BL) before the right (TR over BR). A half-column is two
// BitmapTiles stacked over 16 rows and 8 columns, stored next to each other:
// `i` is the upper tile's rank in its GroupTile and i + 1 the lower one's;
// (bt_r, bt_c) is the upper tile's top-left element in the padded matrix.
// No output row takes products from both tiles, so walking a half-column as
// one unit reorders no row's chain.
template <typename Visit>
void ForEachHalfColumn(const TcaBmeConfig& cfg, int64_t gr, int64_t gc,
                       const Visit& visit) {
  const int tc_rows = cfg.gt_rows / kTcTileDim;
  const int tc_cols = cfg.gt_cols / kTcTileDim;
  int i = 0;
  for (int tcc = 0; tcc < tc_cols; ++tcc) {
    const int64_t tc_c = gc * cfg.gt_cols + static_cast<int64_t>(tcc) * kTcTileDim;
    for (int tcr = 0; tcr < tc_rows; ++tcr) {
      const int64_t tc_r = gr * cfg.gt_rows + static_cast<int64_t>(tcr) * kTcTileDim;
      for (int h = 0; h < 2; ++h, i += 2) {
        visit(i, tc_r, tc_c + h * kBitmapTileDim);
      }
    }
  }
}

// Calls visit(i, bt_r, bt_c) for every BitmapTile of GroupTile (gr, gc) in
// storage order: TCTiles column-major, quadrants TL, BL, TR, BR within each.
// `i` is the tile's rank in its GroupTile, so its Bitmap index is
// gt * 4 * tcs_per_gt + i; (bt_r, bt_c) is its top-left element in the
// padded matrix.
template <typename Visit>
void ForEachBitmapTile(const TcaBmeConfig& cfg, int64_t gr, int64_t gc,
                       const Visit& visit) {
  ForEachHalfColumn(cfg, gr, gc, [&](int i, int64_t bt_r, int64_t bt_c) {
    visit(i, bt_r, bt_c);
    visit(i + 1, bt_r + kBitmapTileDim, bt_c);
  });
}

// Walks GroupTile `gt` of an encoded TcaBmeMatrix or TcaBmeQuantMatrix in
// storage order, skipping empty BitmapTiles, and calls
// visit(bitmap, bitmap_index, first, bt_r, bt_c) for each nonzero one.
// `first` is the offset of the tile's first Values (or codes) element: the
// GroupTile's segment start plus the popcounts of the tiles before it. The
// one CHECK on `gt` bounds every index the walk forms.
template <typename Matrix, typename Visit>
void ForEachNonzeroTile(const Matrix& m, int64_t gt, const Visit& visit) {
  SPINFER_CHECK(gt >= 0 && gt < m.num_group_tiles());
  const int64_t first_index = gt * 4 * m.tcs_per_gt();
  const uint64_t* bitmaps = m.bitmaps().data() + first_index;
  size_t first = m.gtile_offsets()[gt];
  ForEachBitmapTile(m.config(), gt / m.gt_grid_cols(), gt % m.gt_grid_cols(),
                    [&](int i, int64_t bt_r, int64_t bt_c) {
                      const uint64_t bitmap = bitmaps[i];
                      if (bitmap == 0) {
                        return;
                      }
                      visit(bitmap, first_index + i, first, bt_r, bt_c);
                      first += static_cast<size_t>(std::popcount(bitmap));
                    });
}

// The same walk one TCTile half-column at a time (ForEachHalfColumn), for
// kernels that sweep 16 output rows at once: calls
// visit(upper, lower, first, bt_r, bt_c) for each half-column with at least
// one nonzero tile. `upper` covers rows [bt_r, bt_r + 8) and `lower` rows
// [bt_r + 8, bt_r + 16), both over columns [bt_c, bt_c + 8); `first` is the
// offset of the upper tile's first Values element, and the lower tile's run
// follows at first + popcount(upper).
template <typename Matrix, typename Visit>
void ForEachNonzeroHalfColumn(const Matrix& m, int64_t gt, const Visit& visit) {
  SPINFER_CHECK(gt >= 0 && gt < m.num_group_tiles());
  const uint64_t* bitmaps = m.bitmaps().data() + gt * 4 * m.tcs_per_gt();
  size_t first = m.gtile_offsets()[gt];
  ForEachHalfColumn(m.config(), gt / m.gt_grid_cols(), gt % m.gt_grid_cols(),
                    [&](int i, int64_t bt_r, int64_t bt_c) {
                      const uint64_t upper = bitmaps[i];
                      const uint64_t lower = bitmaps[i + 1];
                      if ((upper | lower) == 0) {
                        return;
                      }
                      visit(upper, lower, first, bt_r, bt_c);
                      first += static_cast<size_t>(std::popcount(upper) +
                                                   std::popcount(lower));
                    });
}

// Closed-form Eq. 9 storage (without alignment padding), used by the
// analytical CR model; tests check it matches the encoder to within padding.
uint64_t TcaBmeStorageModel(int64_t m, int64_t k, int64_t nnz, const TcaBmeConfig& cfg = {});

}  // namespace spinfer
