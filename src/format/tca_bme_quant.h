// Quantized TCA-BME: bitmap sparsity composed with 8-bit weight quantization.
//
// The paper positions SpInfer as *complementary* to quantization (§2.3);
// this extension realizes the composition. The tile structure and bitmap
// indexing are identical to TcaBmeMatrix, but the Values payload stores
// INT8 codes with one FP16 scale per BitmapTile (symmetric absmax
// quantization at 8x8 granularity — fine enough to track local weight
// ranges, coarse enough to cost only 2B per 64 elements).
//
// Storage: Eq. 9 with 1B values plus 2B per BitmapTile of scales:
//   4B*(NGT+1) + 8B*NBT + 2B*NBT + 1B*NNZ
// At 50% sparsity this compresses ~3.5x vs dense FP16 (vs 1.78x unquantized).
#pragma once

#include <cstdint>
#include <vector>

#include "src/format/tca_bme.h"
#include "src/numeric/matrix.h"

namespace spinfer {

class TcaBmeQuantMatrix {
 public:
  // Encodes with per-BitmapTile absmax scaling. Zero entries stay exactly
  // zero (they are bitmap-encoded, not quantized).
  static TcaBmeQuantMatrix Encode(const HalfMatrix& w, const TcaBmeConfig& cfg = {});

  // Reconstructs the (dequantized) dense matrix. Lossy: entries carry
  // quantization error bounded by scale/2 per tile, but the *mask* is exact.
  HalfMatrix Decode() const;

  uint64_t StorageBytes() const;
  double CompressionRatio() const;

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t padded_rows() const { return padded_rows_; }
  int64_t padded_cols() const { return padded_cols_; }
  int64_t nnz() const { return nnz_; }
  const TcaBmeConfig& config() const { return cfg_; }

  // Tile-grid geometry, mirroring TcaBmeMatrix: the storage nesting
  // (GroupTile row-major; TCTiles column-major within a GroupTile; quadrants
  // TL, BL, TR, BR) is identical, so Decode walks it with the same
  // traversal as TcaBmeMatrix (ForEachNonzeroTile, tca_bme.h). Bitmaps and
  // scales are indexed by the same running BitmapTile order the encoder
  // pushed them in.
  int64_t gt_grid_rows() const { return padded_rows_ / cfg_.gt_rows; }
  int64_t gt_grid_cols() const { return padded_cols_ / cfg_.gt_cols; }
  int64_t num_group_tiles() const { return gt_grid_rows() * gt_grid_cols(); }
  int tc_rows_per_gt() const { return cfg_.gt_rows / kTcTileDim; }
  int tc_cols_per_gt() const { return cfg_.gt_cols / kTcTileDim; }
  int tcs_per_gt() const { return tc_rows_per_gt() * tc_cols_per_gt(); }

  const std::vector<uint32_t>& gtile_offsets() const { return gtile_offsets_; }
  const std::vector<uint64_t>& bitmaps() const { return bitmaps_; }

 private:
  int64_t rows_ = 0;
  int64_t cols_ = 0;
  int64_t padded_rows_ = 0;
  int64_t padded_cols_ = 0;
  int64_t nnz_ = 0;
  TcaBmeConfig cfg_;
  std::vector<uint32_t> gtile_offsets_;  // offsets into codes_, per GroupTile
  std::vector<uint64_t> bitmaps_;
  std::vector<int8_t> codes_;
  std::vector<Half> scales_;  // one per BitmapTile
};

// Closed-form storage model for the quantized variant.
uint64_t TcaBmeQuantStorageModel(int64_t m, int64_t k, int64_t nnz,
                                 const TcaBmeConfig& cfg = {});

}  // namespace spinfer
