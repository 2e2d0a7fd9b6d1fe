// Differential suite for the single-column SpMV entry points.
//
// The load-bearing property is bit-identity with CpuSpmm: any bit of
// divergence would make batch-1 results differ from the same sequence
// decoded inside a larger batch. The FP16 SpMV is the SpMM driver's N = 1
// case, so comparing it with a variant-pinned N = 1 SpMM call checks the
// entry points and variants against each other; the independent oracle is
// column 0 of a 13-wide call, which runs RowTerm staging instead of the
// block tile (the portable variant's call, for a variant whose tile reaches
// 13 columns).
#include "src/core/cpu_spmv.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>

#include "src/core/cpu_backend.h"
#include "src/format/tca_bme_quant.h"
#include "src/util/cpu_features.h"
#include "src/util/random.h"
#include "src/util/thread_pool.h"

namespace spinfer {
namespace {

void ExpectBitIdentical(const FloatMatrix& a, const FloatMatrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (int64_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.data()[i], b.data()[i])
        << "first mismatch at flat index " << i << " of " << a.size();
  }
}

// The variant-pinned SpMM entry on the same single-column input.
FloatMatrix SpmmReferenceN1(const TcaBmeMatrix& enc, const HalfMatrix& x) {
  SpmmWorkspace ws;
  FloatMatrix ref(enc.rows(), 1);
  ref.Fill(0.0f);
  CpuSpmmAccumulateIntoVariant(enc, x, &ws, &ref, ActiveCpuSpmmVariant());
  return ref;
}

// Densities 30%..99% (sparsity 0.7 down to 0.01): from mostly-empty bitmaps
// through every-tile-populated, the regime the decode fast path targets.
class CpuSpmvDensitySweep : public ::testing::TestWithParam<double> {};

TEST_P(CpuSpmvDensitySweep, BitIdenticalToSpmmAtN1) {
  const double sparsity = GetParam();
  Rng rng(701 + static_cast<uint64_t>(sparsity * 1000));
  const HalfMatrix w = HalfMatrix::RandomSparse(160, 224, sparsity, rng);
  const HalfMatrix x = HalfMatrix::Random(224, 1, rng, 0.5f);
  const TcaBmeMatrix enc = TcaBmeMatrix::Encode(w);
  const FloatMatrix ref = SpmmReferenceN1(enc, x);

  SpmmWorkspace ws;
  FloatMatrix direct;
  CpuSpmvInto(enc, x, &ws, &direct);
  ExpectBitIdentical(direct, ref);

  // The routed public entry must land on the same bits (it dispatches to
  // SpMV for this shape).
  FloatMatrix routed;
  CpuSpmmInto(enc, x, &ws, &routed);
  ExpectBitIdentical(routed, ref);
}

INSTANTIATE_TEST_SUITE_P(Sweep, CpuSpmvDensitySweep,
                         ::testing::Values(0.7, 0.5, 0.3, 0.1, 0.01));

TEST(CpuSpmvTest, RaggedShapesOffTileBoundaries) {
  // Partial BitmapTiles on both edges exercise the shared guarded edge walk.
  const std::pair<int64_t, int64_t> shapes[] = {{70, 90}, {129, 257}, {33, 47}};
  for (const auto& [m, k] : shapes) {
    Rng rng(702 + static_cast<uint64_t>(m));
    const HalfMatrix w = HalfMatrix::RandomSparse(m, k, 0.5, rng);
    const HalfMatrix x = HalfMatrix::Random(k, 1, rng, 0.5f);
    const TcaBmeMatrix enc = TcaBmeMatrix::Encode(w);
    SpmmWorkspace ws;
    FloatMatrix got;
    CpuSpmvInto(enc, x, &ws, &got);
    ExpectBitIdentical(got, SpmmReferenceN1(enc, x));
  }
}

TEST(CpuSpmvTest, AccumulateAddsIntoExistingOutput) {
  Rng rng(703);
  const HalfMatrix w = HalfMatrix::RandomSparse(96, 128, 0.5, rng);
  const HalfMatrix x = HalfMatrix::Random(128, 1, rng, 0.5f);
  const TcaBmeMatrix enc = TcaBmeMatrix::Encode(w);
  SpmmWorkspace ws_spmv;
  SpmmWorkspace ws_ref;
  FloatMatrix got(96, 1);
  FloatMatrix ref(96, 1);
  got.Fill(2.5f);
  ref.Fill(2.5f);
  CpuSpmvAccumulateInto(enc, x, &ws_spmv, &got);
  CpuSpmmAccumulateIntoVariant(enc, x, &ws_ref, &ref, ActiveCpuSpmmVariant());
  ExpectBitIdentical(got, ref);
}

TEST(CpuSpmvTest, SimdVariantsBitIdentical) {
  if (!CpuSpmmVariantAvailable(CpuSpmmVariant::kAvx2)) {
    GTEST_SKIP() << "AVX2 variant unavailable on this build/machine ("
                 << CpuFeaturesSummary() << "); nothing to cross-check";
  }
  for (const double sparsity : {0.7, 0.5, 0.3, 0.1, 0.01}) {
    Rng rng(704 + static_cast<uint64_t>(sparsity * 1000));
    const HalfMatrix w = HalfMatrix::RandomSparse(160, 224, sparsity, rng);
    const HalfMatrix x = HalfMatrix::Random(224, 1, rng, 0.5f);
    const TcaBmeMatrix enc = TcaBmeMatrix::Encode(w);
    SpmmWorkspace ws;
    FloatMatrix portable(160, 1);
    portable.Fill(0.0f);
    CpuSpmvAccumulateIntoVariant(enc, x, &ws, &portable,
                                 CpuSpmmVariant::kPortable);
    FloatMatrix avx2(160, 1);
    avx2.Fill(0.0f);
    CpuSpmvAccumulateIntoVariant(enc, x, &ws, &avx2, CpuSpmmVariant::kAvx2);
    ExpectBitIdentical(portable, avx2);
    if (CpuSpmmVariantAvailable(CpuSpmmVariant::kAvx512)) {
      FloatMatrix avx512(160, 1);
      avx512.Fill(0.0f);
      CpuSpmvAccumulateIntoVariant(enc, x, &ws, &avx512, CpuSpmmVariant::kAvx512);
      ExpectBitIdentical(portable, avx512);
    }
  }
}

TEST(CpuSpmvTest, BitIdenticalAcrossThreadCounts) {
  Rng rng(705);
  const HalfMatrix w = HalfMatrix::RandomSparse(256, 192, 0.6, rng);
  const HalfMatrix x = HalfMatrix::Random(192, 1, rng, 0.5f);
  const TcaBmeMatrix enc = TcaBmeMatrix::Encode(w);
  SpmmWorkspace ws;
  ThreadPool::SetGlobalThreads(1);
  FloatMatrix one;
  CpuSpmvInto(enc, x, &ws, &one);
  for (const int threads : {2, 8}) {
    ThreadPool::SetGlobalThreads(threads);
    FloatMatrix got;
    CpuSpmvInto(enc, x, &ws, &got);
    ExpectBitIdentical(one, got);
  }
  ThreadPool::SetGlobalThreads(0);  // restore the default pool
}

TEST(CpuSpmvTest, QuantIntoBitIdenticalToExplicitHalfStaging) {
  // The FP32 entry rounds activations to FP16 while filling the panel; the
  // decode path (TinyTransformer::MatmulInto) relies on this equivalence.
  Rng rng(706);
  const HalfMatrix w = HalfMatrix::RandomSparse(96, 128, 0.6, rng);
  const TcaBmeMatrix enc = TcaBmeMatrix::Encode(w);
  FloatMatrix x(128, 1);
  for (int64_t i = 0; i < x.size(); ++i) {
    x.data()[i] = static_cast<float>(rng.Gaussian() * 0.5);
  }
  HalfMatrix xh(128, 1);
  for (int64_t i = 0; i < x.size(); ++i) {
    xh.data()[i] = Half(x.data()[i]);
  }
  SpmmWorkspace ws_staged;
  SpmmWorkspace ws_quant;
  FloatMatrix staged;
  FloatMatrix quant;
  CpuSpmvInto(enc, xh, &ws_staged, &staged);
  CpuSpmvQuantInto(enc, x, &ws_quant, &quant);
  ExpectBitIdentical(quant, staged);
}

TEST(CpuSpmvTest, WarmedDecodeLoopIsAllocationFree) {
  // A decode loop repeats the same shapes forever; after the first call the
  // workspace and output must never grow again, and reuse must not change
  // bits.
  Rng rng(707);
  const HalfMatrix w = HalfMatrix::RandomSparse(96, 128, 0.6, rng);
  const TcaBmeMatrix enc = TcaBmeMatrix::Encode(w);
  const TcaBmeQuantMatrix encq =
      TcaBmeQuantMatrix::Encode(HalfMatrix::RandomSparse(96, 128, 0.6, rng));
  SpmmWorkspace ws;
  FloatMatrix out;
  FloatMatrix out_q;
  int64_t warm_grows = -1;
  for (int step = 0; step < 5; ++step) {
    Rng xrng(800 + static_cast<uint64_t>(step));
    const HalfMatrix x = HalfMatrix::Random(128, 1, xrng, 0.5f);
    FloatMatrix xf(128, 1);
    for (int64_t i = 0; i < xf.size(); ++i) {
      xf.data()[i] = x.data()[i].ToFloat();
    }
    CpuSpmvInto(enc, x, &ws, &out);
    CpuSpmvInt8Into(encq, xf, &ws, &out_q);
    if (warm_grows < 0) {
      warm_grows = ws.grow_count();
    } else {
      EXPECT_EQ(ws.grow_count(), warm_grows)
          << "workspace grew on a warmed decode step (step " << step << ")";
    }
    ExpectBitIdentical(out, SpmmReferenceN1(enc, x));
  }
  EXPECT_GT(ws.capacity_bytes(), 0u);
}

// Bit-pattern equality: unlike ExpectBitIdentical's float compare it tells
// -0.0 from +0.0.
void ExpectSameBits(const FloatMatrix& a, const FloatMatrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (int64_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint32_t>(a.data()[i]),
              std::bit_cast<uint32_t>(b.data()[i]))
        << "first mismatch at flat index " << i << " of " << a.size();
  }
}

FloatMatrix Column0(const FloatMatrix& m) {
  FloatMatrix out(m.rows(), 1);
  for (int64_t r = 0; r < m.rows(); ++r) {
    out.at(r, 0) = m.at(r, 0);
  }
  return out;
}

TEST(CpuSpmvTest, FloatSpmvMatchesColumnOfWideRowTermCall) {
  // A 13-wide block stages RowTerms, a path the single-column block tile
  // shares nothing with below the tile walk, and forms every element's chain
  // in the same order; so column 0 of that call is an oracle for all three
  // FP16 SpMV forms. Every seventh weight row is zeroed: those outputs take
  // no product at all and must keep the accumulate form's -0.0 bitwise. A
  // variant whose tile reaches 13 columns (AVX-512) takes its oracle from
  // the portable variant's 13-wide call, which stages RowTerms.
  constexpr int64_t kWide = 13;
  std::vector<CpuSpmmVariant> variants = {CpuSpmmVariant::kPortable};
  if (CpuSpmmVariantAvailable(CpuSpmmVariant::kAvx2)) {
    variants.push_back(CpuSpmmVariant::kAvx2);
  }
  if (CpuSpmmVariantAvailable(CpuSpmmVariant::kAvx512)) {
    variants.push_back(CpuSpmmVariant::kAvx512);
  }
  for (const double sparsity : {0.01, 0.3, 0.5, 0.7, 0.9}) {
    SCOPED_TRACE(::testing::Message() << "sparsity=" << sparsity);
    Rng rng(712 + static_cast<uint64_t>(sparsity * 1000));
    HalfMatrix w = HalfMatrix::RandomSparse(160, 224, sparsity, rng);
    for (int64_t r = 3; r < w.rows(); r += 7) {
      for (int64_t c = 0; c < w.cols(); ++c) {
        w.at(r, c) = Half(0.0f);
      }
    }
    const TcaBmeMatrix enc = TcaBmeMatrix::Encode(w);
    FloatMatrix xf(224, kWide);
    HalfMatrix xh(224, kWide);
    for (int64_t i = 0; i < xf.size(); ++i) {
      xf.data()[i] = static_cast<float>(rng.Gaussian() * 0.5);
      xh.data()[i] = Half(xf.data()[i]);
    }
    FloatMatrix x1f(224, 1);
    HalfMatrix x1h(224, 1);
    for (int64_t r = 0; r < 224; ++r) {
      x1f.at(r, 0) = xf.at(r, 0);
      x1h.at(r, 0) = xh.at(r, 0);
    }
    FloatMatrix neg_zero(160, 1);
    neg_zero.Fill(-0.0f);
    for (const CpuSpmmVariant v : variants) {
      SCOPED_TRACE(CpuSpmmVariantName(v));
      SpmmWorkspace ws;
      const CpuSpmmVariant wide_v =
          CpuSpmmTileMaxCols(v) < kWide ? v : CpuSpmmVariant::kPortable;
      FloatMatrix wide(160, kWide);
      wide.Fill(0.0f);
      CpuSpmmAccumulateIntoVariant(enc, xh, &ws, &wide, wide_v);
      FloatMatrix wide_acc(160, kWide);
      wide_acc.Fill(-0.0f);
      CpuSpmmAccumulateIntoVariant(enc, xh, &ws, &wide_acc, wide_v);

      FloatMatrix got;
      CpuSpmvInto(enc, x1h, &ws, &got);
      ExpectSameBits(got, Column0(wide));
      CpuSpmvQuantInto(enc, x1f, &ws, &got);
      ExpectSameBits(got, Column0(wide));
      got = neg_zero;
      CpuSpmvAccumulateInto(enc, x1h, &ws, &got);
      ExpectSameBits(got, Column0(wide_acc));
      got = neg_zero;
      CpuSpmvAccumulateIntoVariant(enc, x1h, &ws, &got, v);
      ExpectSameBits(got, Column0(wide_acc));
    }
  }
}

// --- INT8 path ------------------------------------------------------------

// Straightforward scalar model of the documented INT8 contract, written
// against the format accessors only: symmetric absmax activation
// quantization, exact int32 dot per BitmapTile row in ascending-column
// order, one scale * float(idot) mul-then-add per nonzero row in storage
// order. The kernel must match it bit for bit.
FloatMatrix Int8Reference(const TcaBmeQuantMatrix& wq, const FloatMatrix& x) {
  const int64_t k = x.rows();
  float absmax = 0.0f;
  for (int64_t i = 0; i < k; ++i) {
    absmax = std::max(absmax, std::fabs(x.data()[i]));
  }
  const float x_scale = absmax > 0.0f ? absmax / 127.0f : 1.0f;
  const float inv = absmax > 0.0f ? 127.0f / absmax : 0.0f;
  std::vector<int32_t> xq(static_cast<size_t>(k));
  for (int64_t i = 0; i < k; ++i) {
    const long q = std::lrintf(x.data()[i] * inv);
    xq[static_cast<size_t>(i)] = static_cast<int32_t>(std::clamp(q, -127L, 127L));
  }

  FloatMatrix out(wq.rows(), 1);
  out.Fill(0.0f);
  const TcaBmeConfig& cfg = wq.config();
  const int tc_rows = wq.tc_rows_per_gt();
  const int tc_cols = wq.tc_cols_per_gt();
  for (int64_t gt = 0; gt < wq.num_group_tiles(); ++gt) {
    const int64_t base_r = (gt / wq.gt_grid_cols()) * cfg.gt_rows;
    const int64_t base_c = (gt % wq.gt_grid_cols()) * cfg.gt_cols;
    size_t cursor = wq.gtile_offsets()[gt];
    for (int tcc = 0; tcc < tc_cols; ++tcc) {
      for (int tcr = 0; tcr < tc_rows; ++tcr) {
        const int tc = tcc * tc_rows + tcr;
        for (int q = 0; q < 4; ++q) {
          const int64_t bi = wq.BitmapIndex(gt, tc, q);
          const uint64_t bitmap = wq.bitmaps()[bi];
          if (bitmap == 0) {
            continue;
          }
          const float scale = wq.scales()[bi].ToFloat() * x_scale;
          const int64_t bt_r = base_r + tcr * kTcTileDim + (q % 2) * kBitmapTileDim;
          const int64_t bt_c = base_c + tcc * kTcTileDim + (q / 2) * kBitmapTileDim;
          for (int rr = 0; rr < kBitmapTileDim; ++rr) {
            int32_t idot = 0;
            bool any = false;
            for (int cc = 0; cc < kBitmapTileDim; ++cc) {
              if (((bitmap >> (rr * kBitmapTileDim + cc)) & 1ull) == 0) {
                continue;
              }
              const int8_t code = wq.codes()[cursor++];
              if (bt_r + rr < wq.rows() && bt_c + cc < wq.cols()) {
                idot += static_cast<int32_t>(code) *
                        xq[static_cast<size_t>(bt_c + cc)];
                any = true;
              }
            }
            if (any) {
              out.at(bt_r + rr, 0) += scale * static_cast<float>(idot);
            }
          }
        }
      }
    }
  }
  return out;
}

TEST(CpuSpmvInt8Test, MatchesScalarContractReference) {
  for (const auto& [m, k] : {std::pair<int64_t, int64_t>{160, 224},
                             std::pair<int64_t, int64_t>{70, 90}}) {
    for (const double sparsity : {0.7, 0.3, 0.01}) {
      Rng rng(708 + static_cast<uint64_t>(m + sparsity * 100));
      const HalfMatrix w = HalfMatrix::RandomSparse(m, k, sparsity, rng);
      const TcaBmeQuantMatrix encq = TcaBmeQuantMatrix::Encode(w);
      FloatMatrix x(k, 1);
      for (int64_t i = 0; i < x.size(); ++i) {
        x.data()[i] = static_cast<float>(rng.Gaussian() * 0.5);
      }
      SpmmWorkspace ws;
      FloatMatrix got;
      CpuSpmvInt8Into(encq, x, &ws, &got);
      ExpectBitIdentical(got, Int8Reference(encq, x));
    }
  }
}

TEST(CpuSpmvInt8Test, ApproximatesDequantizedMatmul) {
  // End-to-end sanity: INT8 output must track the dequantized-weight matmul
  // within combined weight+activation quantization error.
  Rng rng(709);
  const HalfMatrix w = HalfMatrix::RandomSparse(96, 128, 0.5, rng);
  const TcaBmeQuantMatrix encq = TcaBmeQuantMatrix::Encode(w);
  const TcaBmeMatrix deq = TcaBmeMatrix::Encode(encq.Decode());
  FloatMatrix x(128, 1);
  for (int64_t i = 0; i < x.size(); ++i) {
    x.data()[i] = static_cast<float>(rng.Gaussian() * 0.5);
  }
  SpmmWorkspace ws;
  FloatMatrix got;
  CpuSpmvInt8Into(encq, x, &ws, &got);
  FloatMatrix ref;
  CpuSpmvQuantInto(deq, x, &ws, &ref);
  double max_abs_ref = 0.0;
  for (int64_t i = 0; i < ref.size(); ++i) {
    max_abs_ref = std::max(max_abs_ref, std::fabs(static_cast<double>(ref.data()[i])));
  }
  for (int64_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got.data()[i], ref.data()[i], 0.05 * max_abs_ref + 0.05)
        << "at row " << i;
  }
}

TEST(CpuSpmvInt8Test, SimdVariantsAndThreadCountsBitIdentical) {
  Rng rng(710);
  const HalfMatrix w = HalfMatrix::RandomSparse(160, 224, 0.5, rng);
  const TcaBmeQuantMatrix encq = TcaBmeQuantMatrix::Encode(w);
  FloatMatrix x(224, 1);
  for (int64_t i = 0; i < x.size(); ++i) {
    x.data()[i] = static_cast<float>(rng.Gaussian() * 0.5);
  }
  SpmmWorkspace ws;
  FloatMatrix portable(160, 1);
  portable.Fill(0.0f);
  CpuSpmvInt8AccumulateIntoVariant(encq, x, &ws, &portable,
                                   CpuSpmmVariant::kPortable);
  if (CpuSpmmVariantAvailable(CpuSpmmVariant::kAvx2)) {
    FloatMatrix avx2(160, 1);
    avx2.Fill(0.0f);
    CpuSpmvInt8AccumulateIntoVariant(encq, x, &ws, &avx2, CpuSpmmVariant::kAvx2);
    ExpectBitIdentical(portable, avx2);
  }
  if (CpuSpmmVariantAvailable(CpuSpmmVariant::kAvx512)) {
    FloatMatrix avx512(160, 1);
    avx512.Fill(0.0f);
    CpuSpmvInt8AccumulateIntoVariant(encq, x, &ws, &avx512,
                                     CpuSpmmVariant::kAvx512);
    ExpectBitIdentical(portable, avx512);
  }
  ThreadPool::SetGlobalThreads(1);
  FloatMatrix one;
  CpuSpmvInt8Into(encq, x, &ws, &one);
  for (const int threads : {2, 8}) {
    ThreadPool::SetGlobalThreads(threads);
    FloatMatrix got;
    CpuSpmvInt8Into(encq, x, &ws, &got);
    ExpectBitIdentical(one, got);
  }
  ThreadPool::SetGlobalThreads(0);
}

TEST(CpuSpmvTest, AllZeroMatrixAndZeroActivation) {
  HalfMatrix w(64, 64);
  Rng rng(711);
  const HalfMatrix x = HalfMatrix::Random(64, 1, rng);
  SpmmWorkspace ws;
  FloatMatrix out;
  CpuSpmvInto(TcaBmeMatrix::Encode(w), x, &ws, &out);
  for (int64_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out.data()[i], 0.0f);
  }
  // All-zero activations hit the absmax == 0 guard in the INT8 quantizer.
  const TcaBmeQuantMatrix encq =
      TcaBmeQuantMatrix::Encode(HalfMatrix::RandomSparse(64, 64, 0.5, rng));
  FloatMatrix zx(64, 1);
  zx.Fill(0.0f);
  FloatMatrix out_q;
  CpuSpmvInt8Into(encq, zx, &ws, &out_q);
  for (int64_t i = 0; i < out_q.size(); ++i) {
    EXPECT_EQ(out_q.data()[i], 0.0f);
  }
}

}  // namespace
}  // namespace spinfer
