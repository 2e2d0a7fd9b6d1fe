#include "src/format/tca_bme.h"

#include <bit>
#include <utility>

#include "src/format/sparse_util.h"
#include "src/util/check.h"
#include "src/util/thread_pool.h"

namespace spinfer {

int64_t TcaBmeMatrix::BitmapIndex(int64_t gt, int tc, int quadrant) const {
  SPINFER_CHECK(gt >= 0 && gt < num_group_tiles());
  SPINFER_CHECK(tc >= 0 && tc < tcs_per_gt());
  SPINFER_CHECK(quadrant >= 0 && quadrant < 4);
  return (gt * tcs_per_gt() + tc) * 4 + quadrant;
}

TcaBmeMatrix TcaBmeMatrix::Encode(const HalfMatrix& w, const TcaBmeConfig& cfg) {
  SPINFER_CHECK(cfg.gt_rows > 0 && cfg.gt_rows % kTcTileDim == 0);
  SPINFER_CHECK(cfg.gt_cols > 0 && cfg.gt_cols % kTcTileDim == 0);
  SPINFER_CHECK(cfg.value_align_halves >= 1);

  TcaBmeMatrix m;
  m.rows_ = w.rows();
  m.cols_ = w.cols();
  m.cfg_ = cfg;
  m.padded_rows_ = PadUp(w.rows(), cfg.gt_rows);
  m.padded_cols_ = PadUp(w.cols(), cfg.gt_cols);

  const int64_t grid_r = m.gt_grid_rows();
  const int64_t grid_c = m.gt_grid_cols();

  // Phase 1 (parallel): each GroupTile row builds its bitmap and value
  // segments into private buffers. Every tile's encoding is a pure function
  // of the input, and each segment is padded to the alignment boundary
  // locally, so the per-row buffers are independent of thread count.
  struct RowSegments {
    std::vector<uint64_t> bitmaps;
    std::vector<Half> values;
    int64_t nnz = 0;
  };
  std::vector<RowSegments> row_segs(static_cast<size_t>(grid_r));
  std::vector<std::vector<uint32_t>> row_seg_sizes(static_cast<size_t>(grid_r));

  ParallelFor(0, grid_r, [&](int64_t gr) {
    RowSegments& seg = row_segs[gr];
    std::vector<uint32_t>& sizes = row_seg_sizes[gr];
    seg.bitmaps.reserve(static_cast<size_t>(grid_c) * m.tcs_per_gt() * 4);
    sizes.reserve(static_cast<size_t>(grid_c));
    for (int64_t gc = 0; gc < grid_c; ++gc) {
      ForEachBitmapTile(cfg, gr, gc, [&](int /*i*/, int64_t bt_r, int64_t bt_c) {
        uint64_t bitmap = 0;
        for (int r = 0; r < kBitmapTileDim; ++r) {
          for (int c = 0; c < kBitmapTileDim; ++c) {
            const Half v = PaddedAt(w, bt_r + r, bt_c + c);
            if (!v.IsZero()) {
              bitmap |= 1ull << (r * kBitmapTileDim + c);
              seg.values.push_back(v);
              ++seg.nnz;
            }
          }
        }
        seg.bitmaps.push_back(bitmap);
      });
      // Pad this GroupTile's Values segment so the next segment starts on an
      // LDGSTS.128-compatible boundary. Because every segment length is a
      // multiple of the alignment, local padding equals the sequential
      // encoder's padding against the absolute cursor.
      while (seg.values.size() % static_cast<size_t>(cfg.value_align_halves) != 0) {
        seg.values.push_back(Half(0.0f));
      }
      sizes.push_back(static_cast<uint32_t>(seg.values.size()));
    }
  });

  // Phase 2 (sequential): concatenate the per-row buffers in GroupTile-row
  // order, reproducing the exact arrays the sequential encoder emits. Every
  // array is reserved at its final size, so none carries spare capacity.
  size_t total_values = 0;
  for (const RowSegments& seg : row_segs) {
    total_values += seg.values.size();
  }
  m.gtile_offsets_.reserve(static_cast<size_t>(grid_r * grid_c) + 1);
  m.gtile_offsets_.push_back(0);
  m.bitmaps_.reserve(static_cast<size_t>(grid_r * grid_c) * m.tcs_per_gt() * 4);
  m.values_.reserve(total_values);
  for (int64_t gr = 0; gr < grid_r; ++gr) {
    RowSegments& seg = row_segs[gr];
    const uint32_t base = static_cast<uint32_t>(m.values_.size());
    for (const uint32_t end_within_row : row_seg_sizes[gr]) {
      m.gtile_offsets_.push_back(base + end_within_row);
    }
    m.bitmaps_.insert(m.bitmaps_.end(), seg.bitmaps.begin(), seg.bitmaps.end());
    m.values_.insert(m.values_.end(), seg.values.begin(), seg.values.end());
    m.nnz_ += seg.nnz;
    seg = RowSegments{};  // release the staging memory eagerly
  }
  return m;
}

std::optional<TcaBmeMatrix> TcaBmeMatrix::FromParts(int64_t rows, int64_t cols,
                                                    const TcaBmeConfig& cfg,
                                                    std::vector<uint32_t> gtile_offsets,
                                                    std::vector<uint64_t> bitmaps,
                                                    std::vector<Half> values,
                                                    std::string* error) {
  auto fail = [&](const std::string& msg) -> std::optional<TcaBmeMatrix> {
    if (error != nullptr) {
      *error = msg;
    }
    return std::nullopt;
  };
  if (rows <= 0 || cols <= 0) {
    return fail("non-positive dimensions");
  }
  if (cfg.gt_rows <= 0 || cfg.gt_rows % kTcTileDim != 0 || cfg.gt_cols <= 0 ||
      cfg.gt_cols % kTcTileDim != 0 || cfg.value_align_halves < 1) {
    return fail("invalid GroupTile configuration");
  }
  TcaBmeMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.cfg_ = cfg;
  m.padded_rows_ = PadUp(rows, cfg.gt_rows);
  m.padded_cols_ = PadUp(cols, cfg.gt_cols);

  const int64_t ngt = m.num_group_tiles();
  const int64_t nbt = ngt * m.tcs_per_gt() * 4;
  if (static_cast<int64_t>(gtile_offsets.size()) != ngt + 1) {
    return fail("GTileOffset array has wrong length");
  }
  if (static_cast<int64_t>(bitmaps.size()) != nbt) {
    return fail("Bitmap array has wrong length");
  }
  if (gtile_offsets.front() != 0 || gtile_offsets.back() != values.size()) {
    return fail("GTileOffset sentinel values do not delimit the Values array");
  }
  int64_t nnz = 0;
  for (int64_t gt = 0; gt < ngt; ++gt) {
    if (gtile_offsets[gt] > gtile_offsets[gt + 1]) {
      return fail("GTileOffset array is not monotone");
    }
    if (gtile_offsets[gt] % static_cast<uint32_t>(cfg.value_align_halves) != 0) {
      return fail("GroupTile segment start violates alignment");
    }
    int64_t bits = 0;
    for (int tc = 0; tc < m.tcs_per_gt(); ++tc) {
      for (int q = 0; q < 4; ++q) {
        bits += std::popcount(bitmaps[(gt * m.tcs_per_gt() + tc) * 4 + q]);
      }
    }
    const int64_t seg = gtile_offsets[gt + 1] - gtile_offsets[gt];
    if (bits > seg || seg - bits >= cfg.value_align_halves) {
      return fail("bitmap popcount inconsistent with Values segment size");
    }
    nnz += bits;
  }
  m.nnz_ = nnz;
  m.gtile_offsets_ = std::move(gtile_offsets);
  m.bitmaps_ = std::move(bitmaps);
  m.values_ = std::move(values);
  return m;
}

HalfMatrix TcaBmeMatrix::Decode() const {
  HalfMatrix w(rows_, cols_);
  for (int64_t gt = 0; gt < num_group_tiles(); ++gt) {
    size_t end = gtile_offsets_[gt];
    ForEachNonzeroTile(*this, gt, [&](uint64_t bitmap, int64_t /*bi*/, size_t first,
                                      int64_t bt_r, int64_t bt_c) {
      end = first + static_cast<size_t>(std::popcount(bitmap));
      for (size_t vi = first; bitmap != 0; ++vi) {
        const int bit = std::countr_zero(bitmap);
        bitmap &= bitmap - 1;
        const int64_t r = bt_r + bit / kBitmapTileDim;
        const int64_t c = bt_c + bit % kBitmapTileDim;
        if (r < rows_ && c < cols_) {
          w.at(r, c) = values_[vi];
        }
      }
    });
    SPINFER_CHECK(end <= gtile_offsets_[gt + 1]);
  }
  return w;
}

uint64_t TcaBmeMatrix::StorageBytes() const {
  return 4ull * gtile_offsets_.size() + 8ull * bitmaps_.size() + 2ull * values_.size();
}

double TcaBmeMatrix::CompressionRatio() const {
  const double dense = 2.0 * static_cast<double>(rows_) * static_cast<double>(cols_);
  return dense / static_cast<double>(StorageBytes());
}

uint64_t TcaBmeStorageModel(int64_t m, int64_t k, int64_t nnz, const TcaBmeConfig& cfg) {
  const int64_t pm = PadUp(m, cfg.gt_rows);
  const int64_t pk = PadUp(k, cfg.gt_cols);
  const int64_t ngt = (pm / cfg.gt_rows) * (pk / cfg.gt_cols);
  const int64_t nbt = (pm / kBitmapTileDim) * (pk / kBitmapTileDim);
  return 4ull * static_cast<uint64_t>(ngt + 1) + 8ull * static_cast<uint64_t>(nbt) +
         2ull * static_cast<uint64_t>(nnz);
}

}  // namespace spinfer
