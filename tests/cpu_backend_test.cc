#include "src/core/cpu_backend.h"

#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "src/core/cpu_backend_inner.h"
#include "src/core/spinfer_kernel.h"
#include "src/numeric/compare.h"
#include "src/obs/trace.h"
#include "src/util/cpu_features.h"
#include "src/util/random.h"
#include "src/util/thread_pool.h"

namespace spinfer {
namespace {

// Exact comparison: the v2 backend's determinism contract is bit-identity,
// not tolerance. Any mismatch prints the first differing element.
void ExpectBitIdentical(const FloatMatrix& a, const FloatMatrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (int64_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.data()[i], b.data()[i])
        << "first mismatch at flat index " << i << " of " << a.size();
  }
}

class CpuSpmmSweep : public ::testing::TestWithParam<std::tuple<double, int64_t>> {};

TEST_P(CpuSpmmSweep, MatchesReference) {
  const auto [sparsity, n] = GetParam();
  Rng rng(191 + static_cast<uint64_t>(n) + static_cast<uint64_t>(sparsity * 100));
  const HalfMatrix w = HalfMatrix::RandomSparse(160, 224, sparsity, rng);
  const HalfMatrix x = HalfMatrix::Random(224, n, rng, 0.5f);
  const TcaBmeMatrix enc = TcaBmeMatrix::Encode(w);
  const FloatMatrix got = CpuSpmm(enc, x);
  const CompareResult cmp = CompareMatrices(got, ReferenceGemm(w, x), 2e-3, 5e-2);
  EXPECT_TRUE(cmp.ok) << cmp.ToString();
}

INSTANTIATE_TEST_SUITE_P(Sweep, CpuSpmmSweep,
                         ::testing::Combine(::testing::Values(0.0, 0.3, 0.5, 0.9, 1.0),
                                            ::testing::Values<int64_t>(1, 8, 16, 33)));

TEST(CpuBackendTest, AgreesWithWarpSimulatorExactlyStructured) {
  // The two execution paths walk the same format; results agree to FP32
  // rounding (different accumulation orders).
  Rng rng(192);
  const HalfMatrix w = HalfMatrix::RandomSparse(128, 128, 0.6, rng);
  const HalfMatrix x = HalfMatrix::Random(128, 16, rng, 0.5f);
  const TcaBmeMatrix enc = TcaBmeMatrix::Encode(w);
  const FloatMatrix cpu = CpuSpmm(enc, x);
  const FloatMatrix warp = SpInferSpmmKernel().RunEncoded(enc, x, nullptr);
  EXPECT_TRUE(CompareMatrices(cpu, warp, 1e-3, 1e-2).ok);
}

TEST(CpuBackendTest, AccumulateAddsIntoExistingOutput) {
  for (const int64_t n : {int64_t{1}, int64_t{8}}) {
    SCOPED_TRACE(::testing::Message() << "n=" << n);
    Rng rng(193);
    const HalfMatrix w = HalfMatrix::RandomSparse(64, 64, 0.5, rng);
    const HalfMatrix x = HalfMatrix::Random(64, n, rng, 0.5f);
    const TcaBmeMatrix enc = TcaBmeMatrix::Encode(w);
    FloatMatrix out(64, n);
    out.Fill(10.0f);
    SpmmWorkspace ws;
    CpuSpmmAccumulateIntoVariant(enc, x, &ws, &out, ActiveCpuSpmmVariant());
    const FloatMatrix base = CpuSpmm(enc, x);
    for (int64_t i = 0; i < out.size(); ++i) {
      EXPECT_NEAR(out.data()[i], base.data()[i] + 10.0f, 1e-4);
    }
  }
}

TEST(CpuBackendTest, NonDefaultGeometry) {
  Rng rng(194);
  TcaBmeConfig cfg;
  cfg.gt_rows = 16;
  cfg.gt_cols = 128;
  const HalfMatrix w = HalfMatrix::RandomSparse(80, 300, 0.5, rng);
  const HalfMatrix x = HalfMatrix::Random(300, 8, rng, 0.5f);
  const TcaBmeMatrix enc = TcaBmeMatrix::Encode(w, cfg);
  EXPECT_TRUE(CompareMatrices(CpuSpmm(enc, x), ReferenceGemm(w, x), 2e-3, 5e-2).ok);
}

TEST(CpuBackendTest, SimdVariantsBitIdentical) {
  if (!CpuSpmmVariantAvailable(CpuSpmmVariant::kAvx2)) {
    GTEST_SKIP() << "AVX2 variant unavailable on this build/machine ("
                 << CpuFeaturesSummary() << "); nothing to cross-check";
  }
  // Density 30%..90%: sparse enough to exercise empty bitmap rows, dense
  // enough to fill whole tiles.
  for (const double sparsity : {0.7, 0.5, 0.3, 0.1}) {
    Rng rng(491 + static_cast<uint64_t>(sparsity * 100));
    const HalfMatrix w = HalfMatrix::RandomSparse(160, 224, sparsity, rng);
    const HalfMatrix x = HalfMatrix::Random(224, 33, rng, 0.5f);
    const TcaBmeMatrix enc = TcaBmeMatrix::Encode(w);
    SpmmWorkspace ws;
    FloatMatrix portable(160, 33);
    portable.Fill(0.0f);
    CpuSpmmAccumulateIntoVariant(enc, x, &ws, &portable, CpuSpmmVariant::kPortable);
    FloatMatrix avx2(160, 33);
    avx2.Fill(0.0f);
    CpuSpmmAccumulateIntoVariant(enc, x, &ws, &avx2, CpuSpmmVariant::kAvx2);
    ExpectBitIdentical(portable, avx2);
    if (CpuSpmmVariantAvailable(CpuSpmmVariant::kAvx512)) {
      FloatMatrix avx512(160, 33);
      avx512.Fill(0.0f);
      CpuSpmmAccumulateIntoVariant(enc, x, &ws, &avx512, CpuSpmmVariant::kAvx512);
      ExpectBitIdentical(portable, avx512);
    }
  }
}

TEST(CpuBackendTest, BitIdenticalAcrossThreadCounts) {
  for (const int64_t n : {int64_t{1}, int64_t{17}}) {
    SCOPED_TRACE(::testing::Message() << "n=" << n);
    Rng rng(492);
    const HalfMatrix w = HalfMatrix::RandomSparse(256, 192, 0.6, rng);
    const HalfMatrix x = HalfMatrix::Random(192, n, rng, 0.5f);
    const TcaBmeMatrix enc = TcaBmeMatrix::Encode(w);
    ThreadPool::SetGlobalThreads(1);
    const FloatMatrix one = CpuSpmm(enc, x);
    for (const int threads : {2, 8}) {
      ThreadPool::SetGlobalThreads(threads);
      const FloatMatrix got = CpuSpmm(enc, x);
      ExpectBitIdentical(one, got);
    }
  }
  ThreadPool::SetGlobalThreads(0);  // restore the default pool
}

TEST(CpuBackendTest, RaggedShapesOffTileBoundaries) {
  // Shapes that leave partial BitmapTiles on both edges, crossed with N that
  // reaches every kernel path: the block tile in place (1) and on a
  // column-major copy (5), and the RowTerm tiers' masked remainder
  // (31 = 3x8+7, 33 = 32+1).
  const std::pair<int64_t, int64_t> shapes[] = {{70, 90}, {129, 257}, {33, 47}};
  for (const auto& [m, k] : shapes) {
    for (const int64_t n : {int64_t{1}, int64_t{5}, int64_t{31}, int64_t{33}}) {
      Rng rng(493 + static_cast<uint64_t>(m + n));
      const HalfMatrix w = HalfMatrix::RandomSparse(m, k, 0.5, rng);
      const HalfMatrix x = HalfMatrix::Random(k, n, rng, 0.5f);
      const FloatMatrix got = CpuSpmm(TcaBmeMatrix::Encode(w), x);
      const CompareResult cmp = CompareMatrices(got, ReferenceGemm(w, x), 2e-3, 5e-2);
      EXPECT_TRUE(cmp.ok) << "m=" << m << " k=" << k << " n=" << n << ": "
                          << cmp.ToString();
    }
  }
}

TEST(CpuBackendTest, WorkspaceReusedAcrossCallsAndShapes) {
  Rng rng(494);
  const HalfMatrix w = HalfMatrix::RandomSparse(96, 128, 0.5, rng);
  const TcaBmeMatrix enc = TcaBmeMatrix::Encode(w);
  SpmmWorkspace ws;
  FloatMatrix out;
  // Largest shape first: everything after must fit in the grown buffers.
  const int64_t ns[] = {40, 8, 1, 40, 24, 8};
  int64_t grows_after_first = -1;
  for (const int64_t n : ns) {
    Rng xrng(600 + static_cast<uint64_t>(n));
    const HalfMatrix x = HalfMatrix::Random(128, n, xrng, 0.5f);
    CpuSpmmInto(enc, x, &ws, &out);
    if (grows_after_first < 0) {
      grows_after_first = ws.grow_count();
    } else {
      EXPECT_EQ(ws.grow_count(), grows_after_first)
          << "workspace grew on a shape it had already seen (n=" << n << ")";
    }
    // Reused scratch must not change results: compare against a fresh call.
    ExpectBitIdentical(out, CpuSpmm(enc, x));
  }
  EXPECT_GT(ws.capacity_bytes(), 0u);
}

TEST(CpuBackendTest, QuantIntoBitIdenticalToExplicitHalfStaging) {
  // The fused FP32->FP16 quantizing entry points must produce exactly the
  // bits of the two-step pipeline (stage x into a HalfMatrix, then run the
  // half-input kernel): the batched decode path relies on this equivalence
  // to stay bit-identical to the single-sequence path.
  for (const int64_t n : {int64_t{1}, int64_t{9}}) {
    SCOPED_TRACE(::testing::Message() << "n=" << n);
    Rng rng(197);
    const HalfMatrix w = HalfMatrix::RandomSparse(96, 128, 0.6, rng);
    const TcaBmeMatrix enc = TcaBmeMatrix::Encode(w);
    FloatMatrix x(128, n);
    for (int64_t i = 0; i < x.size(); ++i) {
      x.data()[i] = static_cast<float>(rng.Gaussian() * 0.5);
    }
    HalfMatrix xh(128, n);
    for (int64_t i = 0; i < x.size(); ++i) {
      xh.data()[i] = Half(x.data()[i]);
    }

    SpmmWorkspace ws_staged;
    SpmmWorkspace ws_quant;
    FloatMatrix staged;
    FloatMatrix quant;
    CpuSpmmInto(enc, xh, &ws_staged, &staged);
    CpuSpmmQuantInto(enc, x, &ws_quant, &quant);
    ExpectBitIdentical(quant, staged);
  }
}

// Bit-pattern equality of two outputs. Unlike ExpectBitIdentical's float
// compare it tells -0.0 from +0.0, which the pre-filled outputs below seed.
void ExpectSameBits(const FloatMatrix& a, const FloatMatrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (int64_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint32_t>(a.data()[i]),
              std::bit_cast<uint32_t>(b.data()[i]))
        << "first mismatch at flat index " << i << " of " << a.size();
  }
}

// An output to accumulate into: finite values, with every third element
// -0.0. A store past an N-block's width lands on the next row's leading
// elements — in bounds on every row but the last, so invisible to ASan —
// and these values are what make it show.
FloatMatrix PrefilledOutput(int64_t rows, int64_t cols, uint64_t seed) {
  Rng rng(seed);
  FloatMatrix out(rows, cols);
  for (int64_t i = 0; i < out.size(); ++i) {
    out.data()[i] = i % 3 == 0 ? -0.0f : static_cast<float>(rng.Gaussian());
  }
  return out;
}

// Columns [first, first + count) of a HalfMatrix or FloatMatrix.
template <typename Matrix>
Matrix ColumnSlice(const Matrix& m, int64_t first, int64_t count) {
  Matrix out(m.rows(), count);
  for (int64_t r = 0; r < m.rows(); ++r) {
    for (int64_t c = 0; c < count; ++c) {
      out.at(r, c) = m.at(r, first + c);
    }
  }
  return out;
}

// Columns [0, cols) of a HalfMatrix or FloatMatrix.
template <typename Matrix>
Matrix LeadingColumns(const Matrix& m, int64_t cols) {
  return ColumnSlice(m, 0, cols);
}

TEST(CpuBackendTest, NarrowPanelColumnsMatchWidePanelBitwise) {
  // N-blocks of width <= 8 take the block tile; a 13-wide block takes
  // RowTerm staging. Both form each element's chain in the same order, so
  // column j of an N-wide call equals column j of the 13-wide call bit for
  // bit. A variant whose tile reaches 13 columns (AVX-512) is checked
  // against the portable variant's 13-wide call, which stages RowTerms.
  constexpr int64_t kWide = 13;
  std::vector<CpuSpmmVariant> variants = {CpuSpmmVariant::kPortable};
  if (CpuSpmmVariantAvailable(CpuSpmmVariant::kAvx2)) {
    variants.push_back(CpuSpmmVariant::kAvx2);
  }
  if (CpuSpmmVariantAvailable(CpuSpmmVariant::kAvx512)) {
    variants.push_back(CpuSpmmVariant::kAvx512);
  }
  const std::pair<int64_t, int64_t> shapes[] = {{70, 90}, {129, 257}};
  for (const auto& [m, k] : shapes) {
    for (const double sparsity : {0.3, 0.6, 0.9}) {
      Rng rng(701 + static_cast<uint64_t>(m + sparsity * 100));
      const HalfMatrix w = HalfMatrix::RandomSparse(m, k, sparsity, rng);
      const HalfMatrix x = HalfMatrix::Random(k, kWide, rng, 0.5f);
      const TcaBmeMatrix enc = TcaBmeMatrix::Encode(w);
      const FloatMatrix init = PrefilledOutput(m, kWide, 702 + static_cast<uint64_t>(m));
      for (const CpuSpmmVariant v : variants) {
        SpmmWorkspace ws;
        FloatMatrix wide = init;
        CpuSpmmAccumulateIntoVariant(
            enc, x, &ws, &wide,
            CpuSpmmTileMaxCols(v) < kWide ? v : CpuSpmmVariant::kPortable);
        for (int64_t n = 1; n <= 8; ++n) {
          SCOPED_TRACE(::testing::Message()
                       << CpuSpmmVariantName(v) << " m=" << m << " k=" << k
                       << " sparsity=" << sparsity << " n=" << n);
          FloatMatrix narrow = LeadingColumns(init, n);
          CpuSpmmAccumulateIntoVariant(enc, LeadingColumns(x, n), &ws, &narrow, v);
          ExpectSameBits(narrow, LeadingColumns(wide, n));
        }
      }
    }
  }
}

TEST(CpuBackendTest, SimdVariantsBitIdenticalAtEveryWidth) {
  if (!CpuSpmmVariantAvailable(CpuSpmmVariant::kAvx2)) {
    GTEST_SKIP() << "AVX2 variant unavailable on this build/machine ("
                 << CpuFeaturesSummary() << "); nothing to cross-check";
  }
  // Every decode width, RowTerm blocks with a masked remainder (12, 13, 21),
  // and a panel whose last N-block is 4 wide (132 = 128 + 4), from nearly
  // full BitmapTiles (1% sparsity) to mostly empty ones.
  const int64_t widths[] = {1, 2, 3, 4, 5, 6, 7, 8, 12, 13, 21, 132};
  for (const double sparsity : {0.01, 0.3, 0.6, 0.9}) {
    Rng rng(703 + static_cast<uint64_t>(sparsity * 100));
    const HalfMatrix w = HalfMatrix::RandomSparse(129, 257, sparsity, rng);
    const TcaBmeMatrix enc = TcaBmeMatrix::Encode(w);
    for (const int64_t n : widths) {
      SCOPED_TRACE(::testing::Message() << "sparsity=" << sparsity << " n=" << n);
      const HalfMatrix x = HalfMatrix::Random(257, n, rng, 0.5f);
      const FloatMatrix init = PrefilledOutput(129, n, 704 + static_cast<uint64_t>(n));
      SpmmWorkspace ws;
      FloatMatrix portable = init;
      CpuSpmmAccumulateIntoVariant(enc, x, &ws, &portable, CpuSpmmVariant::kPortable);
      FloatMatrix avx2 = init;
      CpuSpmmAccumulateIntoVariant(enc, x, &ws, &avx2, CpuSpmmVariant::kAvx2);
      ExpectSameBits(portable, avx2);
      if (CpuSpmmVariantAvailable(CpuSpmmVariant::kAvx512)) {
        FloatMatrix avx512 = init;
        CpuSpmmAccumulateIntoVariant(enc, x, &ws, &avx512, CpuSpmmVariant::kAvx512);
        ExpectSameBits(portable, avx512);
      }
    }
  }
}

TEST(CpuBackendTest, NarrowTailBlockMatchesNarrowCallBitwise) {
  // A panel 129..136 wide ends in a block at most 8 wide, which runs the
  // block tile on its own column-major copy of columns [128, N) while the
  // first 128 columns stage RowTerms. Each block must land exactly where a
  // call of its own width would: a wrong column offset or row stride in the
  // block copy shows up as a mismatch against the narrow call.
  constexpr int64_t kLead = kCpuSpmmNBlock;
  std::vector<CpuSpmmVariant> variants = {CpuSpmmVariant::kPortable};
  if (CpuSpmmVariantAvailable(CpuSpmmVariant::kAvx2)) {
    variants.push_back(CpuSpmmVariant::kAvx2);
  }
  if (CpuSpmmVariantAvailable(CpuSpmmVariant::kAvx512)) {
    variants.push_back(CpuSpmmVariant::kAvx512);
  }
  for (const double sparsity : {0.3, 0.6, 0.9}) {
    Rng rng(705 + static_cast<uint64_t>(sparsity * 100));
    const HalfMatrix w = HalfMatrix::RandomSparse(129, 257, sparsity, rng);
    const TcaBmeMatrix enc = TcaBmeMatrix::Encode(w);
    for (const int64_t n : {int64_t{129}, int64_t{132}, int64_t{136}}) {
      const HalfMatrix x = HalfMatrix::Random(257, n, rng, 0.5f);
      const FloatMatrix init = PrefilledOutput(129, n, 706 + static_cast<uint64_t>(n));
      for (const CpuSpmmVariant v : variants) {
        SCOPED_TRACE(::testing::Message() << CpuSpmmVariantName(v)
                                          << " sparsity=" << sparsity << " n=" << n);
        SpmmWorkspace ws;
        FloatMatrix full = init;
        CpuSpmmAccumulateIntoVariant(enc, x, &ws, &full, v);
        FloatMatrix lead = ColumnSlice(init, 0, kLead);
        CpuSpmmAccumulateIntoVariant(enc, ColumnSlice(x, 0, kLead), &ws, &lead, v);
        ExpectSameBits(ColumnSlice(full, 0, kLead), lead);
        FloatMatrix tail = ColumnSlice(init, kLead, n - kLead);
        CpuSpmmAccumulateIntoVariant(enc, ColumnSlice(x, kLead, n - kLead), &ws,
                                     &tail, v);
        ExpectSameBits(ColumnSlice(full, kLead, n - kLead), tail);
      }
    }
  }
}

// --- Tile reach and half-column walk ----------------------------------------
//
// Each variant's tile takes blocks up to CpuSpmmTileMaxCols(v) columns (8 for
// portable and AVX2, 48 for AVX-512) and walks TCTile half-columns: 16 rows,
// an upper and a lower BitmapTile. These cases pin the widths at and past a
// tile's reach, half-columns with empty halves or crossing the matrix edge,
// and everything the tile must leave alone.

std::vector<CpuSpmmVariant> AvailableVariants() {
  std::vector<CpuSpmmVariant> variants;
  for (const CpuSpmmVariant v : {CpuSpmmVariant::kPortable, CpuSpmmVariant::kAvx2,
                                 CpuSpmmVariant::kAvx512}) {
    if (CpuSpmmVariantAvailable(v)) {
      variants.push_back(v);
    }
  }
  return variants;
}

// Wider than every variant's tile, so the portable variant's call at this
// width stages RowTerms: the independent oracle of the cases below.
int64_t RowTermOracleWidth() {
  return CpuSpmmTileMaxCols(CpuSpmmVariant::kAvx512) + 9;
}

TEST(CpuBackendTest, TileWidthAndOnePastMatchRowTermCallBitwise) {
  // At W the block runs the tile, at W + 1 the wide kernel. m = 70 ends
  // inside an upper BitmapTile, m = 136 right below one (the lower tile lies
  // wholly past the edge): both end in a half-column that crosses the edge.
  const int64_t wide = RowTermOracleWidth();
  for (const int64_t m : {int64_t{70}, int64_t{136}}) {
    for (const double sparsity : {0.3, 0.6, 0.9}) {
      Rng rng(721 + static_cast<uint64_t>(m + sparsity * 100));
      const HalfMatrix w = HalfMatrix::RandomSparse(m, 90, sparsity, rng);
      const TcaBmeMatrix enc = TcaBmeMatrix::Encode(w);
      const HalfMatrix x = HalfMatrix::Random(90, wide, rng, 0.5f);
      const FloatMatrix init = PrefilledOutput(m, wide, 722 + static_cast<uint64_t>(m));
      SpmmWorkspace ws;
      FloatMatrix oracle = init;
      CpuSpmmAccumulateIntoVariant(enc, x, &ws, &oracle, CpuSpmmVariant::kPortable);
      for (const CpuSpmmVariant v : AvailableVariants()) {
        const int64_t tile_max = CpuSpmmTileMaxCols(v);
        for (const int64_t n : {tile_max, tile_max + 1}) {
          SCOPED_TRACE(::testing::Message() << CpuSpmmVariantName(v) << " m=" << m
                                            << " sparsity=" << sparsity << " n=" << n);
          FloatMatrix got = LeadingColumns(init, n);
          CpuSpmmAccumulateIntoVariant(enc, LeadingColumns(x, n), &ws, &got, v);
          ExpectSameBits(got, LeadingColumns(oracle, n));
        }
      }
    }
  }
}

TEST(CpuBackendTest, HalfColumnsWithEmptyTilesMatchPortableBitwise) {
  // Half-column (band, half) of a 128x128 matrix gets, by (band + half) % 4:
  // an empty upper tile, an empty lower tile, both empty (the walk skips
  // it), or neither.
  Rng rng(723);
  HalfMatrix w = HalfMatrix::RandomSparse(128, 128, 0.3, rng);
  for (int64_t band = 0; band < 128 / kTcTileDim; ++band) {
    for (int64_t half = 0; half < 128 / kBitmapTileDim; ++half) {
      const int64_t pattern = (band + half) % 4;
      for (int64_t rr = 0; rr < kTcTileDim; ++rr) {
        const bool upper = rr < kBitmapTileDim;
        if (pattern == 3 || (pattern == 0 && !upper) || (pattern == 1 && upper)) {
          continue;
        }
        for (int64_t cc = 0; cc < kBitmapTileDim; ++cc) {
          w.at(band * kTcTileDim + rr, half * kBitmapTileDim + cc) = Half(0.0f);
        }
      }
    }
  }
  const TcaBmeMatrix enc = TcaBmeMatrix::Encode(w);
  int64_t empty_tiles = 0;
  for (const uint64_t bitmap : enc.bitmaps()) {
    empty_tiles += bitmap == 0;
  }
  ASSERT_EQ(empty_tiles, enc.num_bitmap_tiles() / 2);
  for (const int64_t n : {int64_t{1}, int64_t{4}, int64_t{8}, int64_t{9},
                          int64_t{16}, CpuSpmmTileMaxCols(CpuSpmmVariant::kAvx512)}) {
    const HalfMatrix x = HalfMatrix::Random(128, n, rng, 0.5f);
    const FloatMatrix init = PrefilledOutput(128, n, 724 + static_cast<uint64_t>(n));
    SpmmWorkspace ws;
    FloatMatrix portable = init;
    CpuSpmmAccumulateIntoVariant(enc, x, &ws, &portable, CpuSpmmVariant::kPortable);
    for (const CpuSpmmVariant v : AvailableVariants()) {
      SCOPED_TRACE(::testing::Message() << CpuSpmmVariantName(v) << " n=" << n);
      FloatMatrix got = init;
      CpuSpmmAccumulateIntoVariant(enc, x, &ws, &got, v);
      ExpectSameBits(got, portable);
    }
  }
}

TEST(CpuBackendTest, NegativeZeroAccumulatorSurvivesRowsWithoutProducts) {
  // Every fifth weight row is zero, so its outputs take no product; their
  // -0.0 must keep its sign, which an added +0.0 product would flip.
  Rng rng(725);
  HalfMatrix w = HalfMatrix::RandomSparse(96, 128, 0.5, rng);
  for (int64_t r = 2; r < w.rows(); r += 5) {
    for (int64_t c = 0; c < w.cols(); ++c) {
      w.at(r, c) = Half(0.0f);
    }
  }
  const TcaBmeMatrix enc = TcaBmeMatrix::Encode(w);
  for (const int64_t n : {int64_t{1}, int64_t{3}, int64_t{8}, int64_t{16},
                          CpuSpmmTileMaxCols(CpuSpmmVariant::kAvx512)}) {
    const HalfMatrix x = HalfMatrix::Random(128, n, rng, 0.5f);
    for (const CpuSpmmVariant v : AvailableVariants()) {
      SCOPED_TRACE(::testing::Message() << CpuSpmmVariantName(v) << " n=" << n);
      SpmmWorkspace ws;
      FloatMatrix out(96, n);
      out.Fill(-0.0f);
      CpuSpmmAccumulateIntoVariant(enc, x, &ws, &out, v);
      for (int64_t r = 2; r < out.rows(); r += 5) {
        for (int64_t j = 0; j < n; ++j) {
          ASSERT_EQ(std::bit_cast<uint32_t>(out.at(r, j)), 0x80000000u)
              << "row " << r << " column " << j;
        }
      }
    }
  }
}

TEST(CpuBackendTest, NarrowKernelsWriteNothingOutsideTheBlock) {
  // The SIMD units' narrow kernels, driven directly over every GroupTile
  // into a column-major block whose stride leaves 10 canary rows past
  // m = 70 and which has one canary column past nb. The canaries hold a NaN
  // payload that any write would replace; the live block must equal the
  // portable variant's columns [j0, j0 + nb).
  using KernelFn = void (*)(const TcaBmeMatrix&, int64_t, const float*, int64_t,
                            int64_t, int64_t, float*, int64_t);
  struct Kernel {
    CpuSpmmVariant variant;
    KernelFn fn;
  };
  const Kernel kernels[] = {
      {CpuSpmmVariant::kAvx2, &cpu_backend_detail::ProcessGroupTileNarrowAvx2},
      {CpuSpmmVariant::kAvx512, &cpu_backend_detail::ProcessGroupTileNarrowAvx512}};
  constexpr uint32_t kCanary = 0x7fc0c0deu;
  constexpr int64_t kM = 70;
  constexpr int64_t kK = 90;
  constexpr int64_t kLdb = kM + 10;
  constexpr int64_t kJ0 = 3;
  Rng rng(726);
  const HalfMatrix w = HalfMatrix::RandomSparse(kM, kK, 0.5, rng);
  const TcaBmeMatrix enc = TcaBmeMatrix::Encode(w);
  for (const Kernel& kernel : kernels) {
    if (!CpuSpmmVariantAvailable(kernel.variant)) {
      continue;
    }
    const int64_t nb = CpuSpmmTileMaxCols(kernel.variant);
    const int64_t n = kJ0 + nb + 2;
    SCOPED_TRACE(::testing::Message() << CpuSpmmVariantName(kernel.variant));
    const HalfMatrix x = HalfMatrix::Random(kK, n, rng, 0.5f);
    const FloatMatrix init = PrefilledOutput(kM, n, 727);
    SpmmWorkspace ws;
    FloatMatrix oracle = init;
    CpuSpmmAccumulateIntoVariant(enc, x, &ws, &oracle, CpuSpmmVariant::kPortable);

    std::vector<float> xf(static_cast<size_t>(kK * n));
    for (size_t i = 0; i < xf.size(); ++i) {
      xf[i] = x.data()[i].ToFloat();
    }
    std::vector<float> blk(static_cast<size_t>(kLdb * (nb + 1)),
                           std::bit_cast<float>(kCanary));
    for (int64_t j = 0; j < nb; ++j) {
      for (int64_t r = 0; r < kM; ++r) {
        blk[static_cast<size_t>(j * kLdb + r)] = init.at(r, kJ0 + j);
      }
    }
    for (int64_t gt = 0; gt < enc.num_group_tiles(); ++gt) {
      kernel.fn(enc, gt, xf.data(), n, kJ0, nb, blk.data(), kLdb);
    }
    for (int64_t j = 0; j <= nb; ++j) {
      for (int64_t r = 0; r < kLdb; ++r) {
        const uint32_t got = std::bit_cast<uint32_t>(blk[static_cast<size_t>(j * kLdb + r)]);
        const uint32_t want = j < nb && r < kM
                                  ? std::bit_cast<uint32_t>(oracle.at(r, kJ0 + j))
                                  : kCanary;
        ASSERT_EQ(got, want) << "row " << r << " column " << j;
      }
    }
  }
}

TEST(CpuBackendTest, TileMatchesPortableAtEveryWidthDensityAndThreadCount) {
  // Every width from 1 to one past the widest tile, so every variant runs
  // both its tile and its wide kernel, at densities from 1% to 70%.
  const int64_t widest = CpuSpmmTileMaxCols(CpuSpmmVariant::kAvx512) + 1;
  for (const double sparsity : {0.3, 0.6, 0.9, 0.99}) {
    Rng rng(728 + static_cast<uint64_t>(sparsity * 100));
    const HalfMatrix w = HalfMatrix::RandomSparse(129, 257, sparsity, rng);
    const TcaBmeMatrix enc = TcaBmeMatrix::Encode(w);
    for (int64_t n = 1; n <= widest; ++n) {
      const HalfMatrix x = HalfMatrix::Random(257, n, rng, 0.5f);
      const FloatMatrix init = PrefilledOutput(129, n, 729 + static_cast<uint64_t>(n));
      SpmmWorkspace ws;
      ThreadPool::SetGlobalThreads(1);
      FloatMatrix portable = init;
      CpuSpmmAccumulateIntoVariant(enc, x, &ws, &portable, CpuSpmmVariant::kPortable);
      for (const int threads : {1, 3}) {
        ThreadPool::SetGlobalThreads(threads);
        for (const CpuSpmmVariant v : AvailableVariants()) {
          SCOPED_TRACE(::testing::Message() << CpuSpmmVariantName(v) << " sparsity="
                                            << sparsity << " n=" << n
                                            << " threads=" << threads);
          FloatMatrix got = init;
          CpuSpmmAccumulateIntoVariant(enc, x, &ws, &got, v);
          ExpectSameBits(got, portable);
        }
      }
    }
  }
  ThreadPool::SetGlobalThreads(0);  // restore the default pool
}

TEST(CpuBackendTest, TracedKernelsMatchUntracedBitwise) {
  // Traced calls must form the same bits as untraced ones, for the tile, the
  // wide kernel and a panel that runs both.
  Rng rng(730);
  const HalfMatrix w = HalfMatrix::RandomSparse(136, 200, 0.6, rng);
  const TcaBmeMatrix enc = TcaBmeMatrix::Encode(w);
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Reset();
  for (const CpuSpmmVariant v : AvailableVariants()) {
    const int64_t tile_max = CpuSpmmTileMaxCols(v);
    for (const int64_t n : {int64_t{1}, int64_t{8}, tile_max, tile_max + 1,
                            int64_t{132}}) {
      SCOPED_TRACE(::testing::Message() << CpuSpmmVariantName(v) << " n=" << n);
      const HalfMatrix x = HalfMatrix::Random(200, n, rng, 0.5f);
      const FloatMatrix init = PrefilledOutput(136, n, 731 + static_cast<uint64_t>(n));
      SpmmWorkspace ws;
      FloatMatrix untraced = init;
      CpuSpmmAccumulateIntoVariant(enc, x, &ws, &untraced, v);
      tracer.Start();
      FloatMatrix traced = init;
      CpuSpmmAccumulateIntoVariant(enc, x, &ws, &traced, v);
      tracer.Stop();
      ExpectSameBits(traced, untraced);
    }
  }
  // The traced calls must really have recorded spans, or this proves nothing.
  EXPECT_FALSE(tracer.Drain().empty());
  tracer.Reset();
}

TEST(CpuBackendTest, AllZeroMatrix) {
  HalfMatrix w(64, 64);
  for (const int64_t n : {int64_t{1}, int64_t{8}}) {
    Rng rng(195);
    const HalfMatrix x = HalfMatrix::Random(64, n, rng);
    const FloatMatrix out = CpuSpmm(TcaBmeMatrix::Encode(w), x);
    for (int64_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out.data()[i], 0.0f) << "n=" << n;
    }
  }
}

}  // namespace
}  // namespace spinfer
