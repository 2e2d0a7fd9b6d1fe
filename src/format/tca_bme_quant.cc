#include "src/format/tca_bme_quant.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "src/format/sparse_util.h"
#include "src/util/check.h"

namespace spinfer {

TcaBmeQuantMatrix TcaBmeQuantMatrix::Encode(const HalfMatrix& w, const TcaBmeConfig& cfg) {
  SPINFER_CHECK(cfg.gt_rows > 0 && cfg.gt_rows % kTcTileDim == 0);
  SPINFER_CHECK(cfg.gt_cols > 0 && cfg.gt_cols % kTcTileDim == 0);

  TcaBmeQuantMatrix m;
  m.rows_ = w.rows();
  m.cols_ = w.cols();
  m.cfg_ = cfg;
  m.padded_rows_ = PadUp(w.rows(), cfg.gt_rows);
  m.padded_cols_ = PadUp(w.cols(), cfg.gt_cols);

  m.gtile_offsets_.push_back(0);
  for (int64_t gr = 0; gr < m.gt_grid_rows(); ++gr) {
    for (int64_t gc = 0; gc < m.gt_grid_cols(); ++gc) {
      ForEachBitmapTile(cfg, gr, gc, [&](int /*i*/, int64_t bt_r, int64_t bt_c) {
        // Pass 1: bitmap and per-tile absmax.
        uint64_t bitmap = 0;
        float absmax = 0.0f;
        for (int r = 0; r < kBitmapTileDim; ++r) {
          for (int c = 0; c < kBitmapTileDim; ++c) {
            const Half v = PaddedAt(w, bt_r + r, bt_c + c);
            if (!v.IsZero()) {
              bitmap |= 1ull << (r * kBitmapTileDim + c);
              absmax = std::max(absmax, std::fabs(v.ToFloat()));
            }
          }
        }
        const float scale = absmax > 0.0f ? absmax / 127.0f : 1.0f;
        m.bitmaps_.push_back(bitmap);
        m.scales_.push_back(Half(scale));
        // Pass 2: quantize nonzeros in bit order with the *stored*
        // (FP16-rounded) scale so Decode is reproducible.
        const float stored_scale = Half(scale).ToFloat();
        for (int r = 0; r < kBitmapTileDim; ++r) {
          for (int c = 0; c < kBitmapTileDim; ++c) {
            const Half v = PaddedAt(w, bt_r + r, bt_c + c);
            if (!v.IsZero()) {
              int code = static_cast<int>(std::lround(v.ToFloat() / stored_scale));
              code = std::clamp(code, -127, 127);
              // A surviving nonzero must stay nonzero so the bitmap and
              // payload agree.
              if (code == 0) {
                code = v.ToFloat() >= 0 ? 1 : -1;
              }
              m.codes_.push_back(static_cast<int8_t>(code));
              ++m.nnz_;
            }
          }
        }
      });
      // Align each GroupTile's code segment to 4B (LDGSTS-friendly).
      while (m.codes_.size() % 4 != 0) {
        m.codes_.push_back(0);
      }
      m.gtile_offsets_.push_back(static_cast<uint32_t>(m.codes_.size()));
    }
  }
  return m;
}

HalfMatrix TcaBmeQuantMatrix::Decode() const {
  HalfMatrix w(rows_, cols_);
  for (int64_t gt = 0; gt < num_group_tiles(); ++gt) {
    ForEachNonzeroTile(*this, gt, [&](uint64_t bitmap, int64_t bi, size_t first,
                                      int64_t bt_r, int64_t bt_c) {
      const float scale = scales_[bi].ToFloat();
      for (size_t ci = first; bitmap != 0; ++ci) {
        const int bit = std::countr_zero(bitmap);
        bitmap &= bitmap - 1;
        const int64_t r = bt_r + bit / kBitmapTileDim;
        const int64_t c = bt_c + bit % kBitmapTileDim;
        if (r < rows_ && c < cols_) {
          const float v = static_cast<float>(codes_[ci]) * scale;
          Half h(v);
          if (h.IsZero()) {
            h = Half(v >= 0 ? 6.0e-5f : -6.0e-5f);  // keep mask exact
          }
          w.at(r, c) = h;
        }
      }
    });
  }
  return w;
}

uint64_t TcaBmeQuantMatrix::StorageBytes() const {
  return 4ull * gtile_offsets_.size() + 8ull * bitmaps_.size() +
         2ull * scales_.size() + codes_.size();
}

double TcaBmeQuantMatrix::CompressionRatio() const {
  return 2.0 * static_cast<double>(rows_) * static_cast<double>(cols_) /
         static_cast<double>(StorageBytes());
}

uint64_t TcaBmeQuantStorageModel(int64_t m, int64_t k, int64_t nnz,
                                 const TcaBmeConfig& cfg) {
  const int64_t pm = PadUp(m, cfg.gt_rows);
  const int64_t pk = PadUp(k, cfg.gt_cols);
  const int64_t ngt = (pm / cfg.gt_rows) * (pk / cfg.gt_cols);
  const int64_t nbt = (pm / kBitmapTileDim) * (pk / kBitmapTileDim);
  return 4ull * static_cast<uint64_t>(ngt + 1) + 10ull * static_cast<uint64_t>(nbt) +
         static_cast<uint64_t>(nnz);
}

}  // namespace spinfer
