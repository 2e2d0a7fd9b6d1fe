#include "src/format/tca_bme.h"

#include <array>
#include <bit>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/format/storage_model.h"
#include "src/format/tca_bme_quant.h"
#include "src/gpusim/tensor_core.h"
#include "src/util/random.h"

namespace spinfer {
namespace {

bool MatricesEqual(const HalfMatrix& a, const HalfMatrix& b) {
  for (int64_t r = 0; r < a.rows(); ++r) {
    for (int64_t c = 0; c < a.cols(); ++c) {
      if (!(a.at(r, c) == b.at(r, c))) {
        return false;
      }
    }
  }
  return a.rows() == b.rows() && a.cols() == b.cols();
}

class TcaBmeRoundtripTest : public ::testing::TestWithParam<double> {};

TEST_P(TcaBmeRoundtripTest, EncodeDecodeRoundtrips) {
  Rng rng(71);
  const HalfMatrix w = HalfMatrix::RandomSparse(128, 128, GetParam(), rng);
  const TcaBmeMatrix enc = TcaBmeMatrix::Encode(w);
  EXPECT_EQ(enc.nnz(), w.CountNonZeros());
  EXPECT_TRUE(MatricesEqual(enc.Decode(), w));
}

INSTANTIATE_TEST_SUITE_P(Sparsities, TcaBmeRoundtripTest,
                         ::testing::Values(0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 1.0));

TEST(TcaBmeTest, NonMultipleDimensionsPad) {
  Rng rng(72);
  const HalfMatrix w = HalfMatrix::RandomSparse(100, 75, 0.5, rng);
  const TcaBmeMatrix enc = TcaBmeMatrix::Encode(w);
  EXPECT_EQ(enc.padded_rows(), 128);
  EXPECT_EQ(enc.padded_cols(), 128);
  EXPECT_TRUE(MatricesEqual(enc.Decode(), w));
}

TEST(TcaBmeTest, AlternateGroupTileShapes) {
  Rng rng(73);
  const HalfMatrix w = HalfMatrix::RandomSparse(96, 160, 0.6, rng);
  for (const auto& [gr, gc] : {std::pair{16, 16}, {32, 64}, {64, 16}, {128, 128}}) {
    TcaBmeConfig cfg;
    cfg.gt_rows = gr;
    cfg.gt_cols = gc;
    const TcaBmeMatrix enc = TcaBmeMatrix::Encode(w, cfg);
    EXPECT_TRUE(MatricesEqual(enc.Decode(), w)) << gr << "x" << gc;
  }
}

TEST(TcaBmeTest, BitmapPopcountsSumToNnz) {
  Rng rng(74);
  const HalfMatrix w = HalfMatrix::RandomSparse(64, 64, 0.5, rng);
  const TcaBmeMatrix enc = TcaBmeMatrix::Encode(w);
  int64_t bits = 0;
  for (uint64_t b : enc.bitmaps()) {
    bits += std::popcount(b);
  }
  EXPECT_EQ(bits, enc.nnz());
}

TEST(TcaBmeTest, GtileOffsetsDelimitSegments) {
  Rng rng(75);
  const HalfMatrix w = HalfMatrix::RandomSparse(128, 192, 0.45, rng);
  const TcaBmeMatrix enc = TcaBmeMatrix::Encode(w);
  ASSERT_EQ(static_cast<int64_t>(enc.gtile_offsets().size()), enc.num_group_tiles() + 1);
  EXPECT_EQ(enc.gtile_offsets().front(), 0u);
  EXPECT_EQ(enc.gtile_offsets().back(), enc.values().size());
  for (int64_t gt = 0; gt < enc.num_group_tiles(); ++gt) {
    // Segment length >= popcount of the GroupTile's bitmaps (padding only
    // adds).
    int64_t bits = 0;
    for (int tc = 0; tc < enc.tcs_per_gt(); ++tc) {
      for (int q = 0; q < 4; ++q) {
        bits += std::popcount(enc.bitmaps()[enc.BitmapIndex(gt, tc, q)]);
      }
    }
    const int64_t seg = enc.gtile_offsets()[gt + 1] - enc.gtile_offsets()[gt];
    EXPECT_GE(seg, bits);
    EXPECT_LT(seg - bits, enc.config().value_align_halves);
    // Alignment: every segment starts on an 8-byte boundary.
    EXPECT_EQ(enc.gtile_offsets()[gt] % enc.config().value_align_halves, 0u);
  }
}

TEST(TcaBmeTest, StorageMatchesEq9UpToPadding) {
  Rng rng(76);
  const HalfMatrix w = HalfMatrix::RandomSparse(256, 256, 0.5, rng);
  const TcaBmeMatrix enc = TcaBmeMatrix::Encode(w);
  const uint64_t model = TcaBmeStorageModel(256, 256, enc.nnz());
  EXPECT_GE(enc.StorageBytes(), model);
  // Padding is at most (align-1) halves per GroupTile.
  const uint64_t max_pad =
      2ull * (enc.config().value_align_halves - 1) * enc.num_group_tiles();
  EXPECT_LE(enc.StorageBytes() - model, max_pad);
}

TEST(TcaBmeTest, CompressionRatioAboveOneAt30Percent) {
  // The paper's headline storage claim: CR > 1 even at 30% sparsity.
  Rng rng(77);
  const HalfMatrix w = HalfMatrix::RandomSparse(512, 512, 0.3, rng);
  const TcaBmeMatrix enc = TcaBmeMatrix::Encode(w);
  EXPECT_GT(enc.CompressionRatio(), 1.0);
}

TEST(TcaBmeTest, CompressionRatioBeatsAlternativesAt50Percent) {
  Rng rng(78);
  const HalfMatrix w = HalfMatrix::RandomSparse(512, 512, 0.5, rng);
  const TcaBmeMatrix enc = TcaBmeMatrix::Encode(w);
  // CR ~ 2 / (2*0.5 + 0.125) ~ 1.77.
  EXPECT_GT(enc.CompressionRatio(), 1.6);
  EXPECT_LT(enc.CompressionRatio(), OptimalCompressionRatio(0.5));
}

// Encode sizes every array exactly: GTileOffset and Bitmap lengths follow
// from the shape, and the Values total is known once every GroupTile row's
// segments are built, so no array keeps geometric-growth slack.
TEST(TcaBmeTest, EncodeLeavesNoSpareCapacity) {
  Rng rng(82);
  TcaBmeConfig narrow;
  narrow.gt_rows = 16;
  narrow.gt_cols = 16;
  TcaBmeConfig ragged;
  ragged.gt_rows = 32;
  ragged.gt_cols = 48;
  for (const auto& [rows, cols] :
       {std::pair<int64_t, int64_t>{128, 128}, {100, 75}, {40, 72}, {16, 16}}) {
    for (const double sparsity : {0.0, 0.3, 0.6, 0.9, 1.0}) {
      const HalfMatrix w = HalfMatrix::RandomSparse(rows, cols, sparsity, rng);
      for (const TcaBmeConfig& cfg : {TcaBmeConfig{}, narrow, ragged}) {
        const TcaBmeMatrix enc = TcaBmeMatrix::Encode(w, cfg);
        const std::string label = std::to_string(rows) + "x" +
                                  std::to_string(cols) + " s=" +
                                  std::to_string(sparsity) + " gt " +
                                  std::to_string(cfg.gt_rows) + "x" +
                                  std::to_string(cfg.gt_cols);
        EXPECT_EQ(enc.gtile_offsets().capacity(), enc.gtile_offsets().size())
            << label;
        EXPECT_EQ(enc.bitmaps().capacity(), enc.bitmaps().size()) << label;
        EXPECT_EQ(enc.values().capacity(), enc.values().size()) << label;
      }
    }
  }
}

// Cross-check with the Tensor Core layout: the values of a quadrant appear
// in exactly the order lanes consume them (bit 2i before 2i+1, increasing
// lane), which is what makes MaskedPopCount the correct offset.
TEST(TcaBmeTest, QuadrantValueOrderMatchesLaneBitOrder) {
  Rng rng(79);
  TcaBmeConfig cfg;
  cfg.gt_rows = 16;
  cfg.gt_cols = 16;  // one TCTile per GroupTile
  const HalfMatrix w = HalfMatrix::RandomSparse(16, 16, 0.4, rng);
  const TcaBmeMatrix enc = TcaBmeMatrix::Encode(w, cfg);
  size_t cursor = 0;
  for (int q = 0; q < 4; ++q) {
    const uint64_t bitmap = enc.bitmaps()[enc.BitmapIndex(0, 0, q)];
    for (int lane = 0; lane < kWarpSize; ++lane) {
      for (int half = 0; half < 2; ++half) {
        if ((bitmap >> (2 * lane + half)) & 1ull) {
          const auto [qr, qc] = MmaAQuadrantCoord(lane, half);
          const int64_t r = qr + (q % 2) * 8;
          const int64_t c = qc + (q / 2) * 8;
          EXPECT_EQ(enc.values()[cursor], w.at(r, c))
              << "q=" << q << " lane=" << lane << " half=" << half;
          ++cursor;
        }
      }
    }
  }
  EXPECT_EQ(cursor, static_cast<size_t>(enc.nnz()));
}

// Encoders, decoders and the CPU kernels all walk through ForEachBitmapTile,
// so a consistent permutation of its order would pass every roundtrip and
// every kernel-vs-reference test. This pins the order itself: TCTiles
// column-major within the GroupTile, quadrants TL, BL, TR, BR.
TEST(TcaBmeTest, ForEachBitmapTileVisitsStorageOrder) {
  TcaBmeConfig cfg;
  cfg.gt_rows = 32;  // 2 TCTile rows
  cfg.gt_cols = 48;  // 3 TCTile columns
  std::vector<std::array<int64_t, 3>> visits;
  ForEachBitmapTile(cfg, /*gr=*/1, /*gc=*/2, [&](int i, int64_t bt_r, int64_t bt_c) {
    visits.push_back({i, bt_r, bt_c});
  });
  ASSERT_EQ(visits.size(), 24u);
  const std::vector<std::array<int64_t, 3>> first_tc_column = {
      {0, 32, 96}, {1, 40, 96}, {2, 32, 104}, {3, 40, 104},
      {4, 48, 96}, {5, 56, 96}, {6, 48, 104}, {7, 56, 104}};
  for (size_t v = 0; v < first_tc_column.size(); ++v) {
    EXPECT_EQ(visits[v], first_tc_column[v]) << "visit " << v;
  }
  EXPECT_EQ(visits[8], (std::array<int64_t, 3>{8, 32, 112}));
  EXPECT_EQ(visits.back(), (std::array<int64_t, 3>{23, 56, 136}));
}

// Walks every GroupTile of `m` with ForEachNonzeroTile and checks each visit
// against the raw arrays: the index is the next nonzero bitmap, `first` is
// the segment start plus the popcounts before it, and the position is the
// one ForEachBitmapTile gives that rank.
template <typename Matrix>
void ExpectNonzeroTilesArePopcountPrefix(const Matrix& m) {
  const int64_t per_gt = 4 * m.tcs_per_gt();
  for (int64_t gt = 0; gt < m.num_group_tiles(); ++gt) {
    const int64_t end = (gt + 1) * per_gt;
    std::vector<std::array<int64_t, 2>> corners;
    ForEachBitmapTile(m.config(), gt / m.gt_grid_cols(), gt % m.gt_grid_cols(),
                      [&](int, int64_t bt_r, int64_t bt_c) {
                        corners.push_back({bt_r, bt_c});
                      });
    int64_t next = gt * per_gt;
    size_t offset = m.gtile_offsets()[gt];
    ForEachNonzeroTile(m, gt, [&](uint64_t bitmap, int64_t bi, size_t first,
                                  int64_t bt_r, int64_t bt_c) {
      while (next < end && m.bitmaps()[next] == 0) {
        ++next;
      }
      ASSERT_LT(next, end) << "visit past the last nonzero tile of gt " << gt;
      EXPECT_EQ(bi, next) << "gt " << gt;
      EXPECT_EQ(bitmap, m.bitmaps()[next]);
      EXPECT_EQ(first, offset) << "gt " << gt << " tile " << bi;
      EXPECT_EQ((std::array<int64_t, 2>{bt_r, bt_c}), corners[next - gt * per_gt]);
      offset += static_cast<size_t>(std::popcount(m.bitmaps()[next]));
      ++next;
    });
    // Nothing nonzero was skipped after the last visit.
    for (; next < end; ++next) {
      EXPECT_EQ(m.bitmaps()[next], 0u) << "unvisited tile " << next;
    }
  }
  EXPECT_DEATH(ForEachNonzeroTile(m, m.num_group_tiles(),
                                  [](uint64_t, int64_t, size_t, int64_t, int64_t) {}),
               "gt < m.num_group_tiles");
}

// ForEachNonzeroHalfColumn must visit exactly the nonzero tiles
// ForEachNonzeroTile visits, paired as (upper, lower) half-columns: the upper
// tile's corner, its Values offset as `first`, the lower tile 8 rows down
// with its run right after the upper one's, and no visit where both are
// empty.
template <typename Matrix>
void ExpectHalfColumnsPairTheNonzeroTiles(const Matrix& m) {
  for (int64_t gt = 0; gt < m.num_group_tiles(); ++gt) {
    std::map<std::array<int64_t, 2>, std::pair<uint64_t, size_t>> tiles;
    ForEachNonzeroTile(m, gt, [&](uint64_t bitmap, int64_t, size_t first,
                                  int64_t bt_r, int64_t bt_c) {
      tiles[{bt_r, bt_c}] = {bitmap, first};
    });
    size_t covered = 0;
    ForEachNonzeroHalfColumn(m, gt, [&](uint64_t upper, uint64_t lower,
                                        size_t first, int64_t bt_r, int64_t bt_c) {
      ASSERT_NE(upper | lower, 0u) << "gt " << gt;
      const std::pair<uint64_t, std::array<int64_t, 2>> halves[] = {
          {upper, {bt_r, bt_c}}, {lower, {bt_r + kBitmapTileDim, bt_c}}};
      size_t offset = first;
      for (const auto& [bitmap, corner] : halves) {
        const auto it = tiles.find(corner);
        if (bitmap == 0) {
          EXPECT_EQ(it, tiles.end()) << "gt " << gt;
          continue;
        }
        ASSERT_NE(it, tiles.end()) << "gt " << gt;
        EXPECT_EQ(it->second.first, bitmap);
        EXPECT_EQ(it->second.second, offset) << "gt " << gt;
        offset += static_cast<size_t>(std::popcount(bitmap));
        ++covered;
      }
    });
    EXPECT_EQ(covered, tiles.size()) << "gt " << gt;
  }
  EXPECT_DEATH(ForEachNonzeroHalfColumn(
                   m, m.num_group_tiles(),
                   [](uint64_t, uint64_t, size_t, int64_t, int64_t) {}),
               "gt < m.num_group_tiles");
}

TEST(TcaBmeDeathTest, ForEachNonzeroHalfColumnPairsTheNonzeroTiles) {
  // 98% sparsity leaves about a quarter of the BitmapTiles empty, so
  // half-columns with one empty tile, two, or none all occur.
  Rng rng(81);
  const HalfMatrix w = HalfMatrix::RandomSparse(40, 72, 0.98, rng);  // ragged
  TcaBmeConfig cfg;
  cfg.gt_rows = 32;
  cfg.gt_cols = 48;
  ExpectHalfColumnsPairTheNonzeroTiles(TcaBmeMatrix::Encode(w, cfg));
  ExpectHalfColumnsPairTheNonzeroTiles(TcaBmeQuantMatrix::Encode(w, cfg));
}

TEST(TcaBmeDeathTest, ForEachNonzeroTileOffsetsArePopcountPrefix) {
  Rng rng(80);
  const HalfMatrix w = HalfMatrix::RandomSparse(40, 72, 0.5, rng);  // ragged
  TcaBmeConfig cfg;
  cfg.gt_rows = 32;
  cfg.gt_cols = 48;
  ExpectNonzeroTilesArePopcountPrefix(TcaBmeMatrix::Encode(w, cfg));
  ExpectNonzeroTilesArePopcountPrefix(TcaBmeQuantMatrix::Encode(w, cfg));
}

}  // namespace
}  // namespace spinfer
