#include "src/pruning/sparsegpt.h"

#include <cmath>

#include <gtest/gtest.h>

#include "src/pruning/linalg.h"
#include "src/pruning/magnitude.h"
#include "src/util/random.h"

namespace spinfer {
namespace {

// ---- linalg ----------------------------------------------------------------

TEST(LinalgTest, CholeskyOfKnownMatrix) {
  // A = [[4,2],[2,3]] -> L = [[2,0],[1,sqrt(2)]].
  SquareMatrix a(2);
  a.at(0, 0) = 4;
  a.at(0, 1) = 2;
  a.at(1, 0) = 2;
  a.at(1, 1) = 3;
  ASSERT_TRUE(CholeskyFactor(&a));
  EXPECT_DOUBLE_EQ(a.at(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(a.at(1, 0), 1.0);
  EXPECT_NEAR(a.at(1, 1), std::sqrt(2.0), 1e-12);
  EXPECT_DOUBLE_EQ(a.at(0, 1), 0.0);
}

TEST(LinalgTest, CholeskyRejectsIndefinite) {
  SquareMatrix a(2);
  a.at(0, 0) = 1;
  a.at(0, 1) = 2;
  a.at(1, 0) = 2;
  a.at(1, 1) = 1;  // eigenvalues 3, -1
  EXPECT_FALSE(CholeskyFactor(&a));
}

TEST(LinalgTest, SpdInverseIsInverse) {
  Rng rng(201);
  const int64_t n = 24;
  // Random SPD: A = B B^T + n*I.
  SquareMatrix b(n);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      b.at(i, j) = rng.Gaussian();
    }
  }
  SquareMatrix a(n);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double v = (i == j) ? static_cast<double>(n) : 0.0;
      for (int64_t k = 0; k < n; ++k) {
        v += b.at(i, k) * b.at(j, k);
      }
      a.at(i, j) = v;
    }
  }
  SquareMatrix inv(n);
  ASSERT_TRUE(SpdInverse(a, &inv));
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double v = 0.0;
      for (int64_t k = 0; k < n; ++k) {
        v += a.at(i, k) * inv.at(k, j);
      }
      EXPECT_NEAR(v, i == j ? 1.0 : 0.0, 1e-9) << i << "," << j;
    }
  }
}

// ---- SparseGPT --------------------------------------------------------------

std::vector<float> MakeCalibration(int64_t samples, int64_t features, Rng& rng) {
  std::vector<float> x(static_cast<size_t>(samples * features));
  for (auto& v : x) {
    v = static_cast<float>(rng.Gaussian());
  }
  return x;
}

TEST(SparseGptTest, HitsTargetSparsityPerRow) {
  Rng rng(202);
  const int64_t k = 64;
  const SparseGptPruner pruner(MakeCalibration(32, k, rng), 32, k);
  const HalfMatrix w = HalfMatrix::Random(8, k, rng, 0.1f);
  const HalfMatrix pruned = pruner.Prune(w, 0.5);
  for (int64_t r = 0; r < 8; ++r) {
    int64_t nnz = 0;
    for (int64_t c = 0; c < k; ++c) {
      nnz += !pruned.at(r, c).IsZero();
    }
    EXPECT_EQ(nnz, k / 2) << "row " << r;
  }
}

// The whole point of OBS compensation: lower output reconstruction error
// than magnitude pruning at the same sparsity, measured on the calibration
// distribution.
TEST(SparseGptTest, CompensationBeatsMagnitudeOnOutputError) {
  Rng rng(203);
  const int64_t k = 64;
  const int64_t samples = 128;
  const auto calib = MakeCalibration(samples, k, rng);
  const SparseGptPruner sgpt(calib, samples, k);
  const HalfMatrix w = HalfMatrix::Random(16, k, rng, 0.1f);

  auto recon_error = [&](const HalfMatrix& pruned) {
    // || (W - Wp) X ||^2 over the calibration set.
    double err = 0.0;
    for (int64_t s = 0; s < samples; ++s) {
      for (int64_t r = 0; r < w.rows(); ++r) {
        double d = 0.0;
        for (int64_t c = 0; c < k; ++c) {
          d += (w.at(r, c).ToFloat() - pruned.at(r, c).ToFloat()) *
               calib[s * k + c];
        }
        err += d * d;
      }
    }
    return err;
  };

  const double sgpt_err = recon_error(sgpt.Prune(w, 0.5));
  const double mag_err = recon_error(MagnitudePruner().Prune(w, 0.5));
  EXPECT_LT(sgpt_err, mag_err);
}

TEST(SparseGptTest, ZeroSparsityKeepsWeightsIntact) {
  Rng rng(204);
  const int64_t k = 32;
  const SparseGptPruner pruner(MakeCalibration(16, k, rng), 16, k);
  const HalfMatrix w = HalfMatrix::Random(4, k, rng, 0.1f);
  const HalfMatrix pruned = pruner.Prune(w, 0.0);
  for (int64_t i = 0; i < w.size(); ++i) {
    // No pruning -> no compensation -> identical bits.
    EXPECT_EQ(pruned.data()[i].bits(), w.data()[i].bits());
  }
}

}  // namespace
}  // namespace spinfer
