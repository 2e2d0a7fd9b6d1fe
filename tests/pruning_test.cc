#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/pruning/calibration.h"
#include "src/pruning/magnitude.h"
#include "src/pruning/pruner.h"
#include "src/pruning/wanda.h"
#include "src/util/random.h"
#include "src/util/thread_pool.h"

namespace spinfer {
namespace {

TEST(RandomPrunerTest, HitsTargetRate) {
  Rng rng(141);
  const HalfMatrix w = HalfMatrix::Random(128, 128, rng);
  const HalfMatrix pruned = RandomPruner(7).Prune(w, 0.6);
  EXPECT_NEAR(pruned.Sparsity(), 0.6, 0.03);
}

TEST(RandomPrunerTest, Deterministic) {
  Rng rng(142);
  const HalfMatrix w = HalfMatrix::Random(32, 32, rng);
  const HalfMatrix a = RandomPruner(9).Prune(w, 0.5);
  const HalfMatrix b = RandomPruner(9).Prune(w, 0.5);
  for (int64_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.data()[i].bits(), b.data()[i].bits());
  }
}

TEST(MagnitudePrunerTest, ExactPerRowSparsity) {
  Rng rng(143);
  const HalfMatrix w = HalfMatrix::Random(16, 100, rng);
  const HalfMatrix pruned = MagnitudePruner().Prune(w, 0.6);
  for (int64_t r = 0; r < 16; ++r) {
    int64_t nnz = 0;
    for (int64_t c = 0; c < 100; ++c) {
      nnz += !pruned.at(r, c).IsZero();
    }
    EXPECT_EQ(nnz, 40) << "row " << r;
  }
}

TEST(MagnitudePrunerTest, KeepsLargestMagnitudes) {
  Rng rng(144);
  const HalfMatrix w = HalfMatrix::Random(8, 64, rng);
  const HalfMatrix pruned = MagnitudePruner().Prune(w, 0.5);
  for (int64_t r = 0; r < 8; ++r) {
    float min_kept = 1e30f;
    float max_dropped = 0.0f;
    for (int64_t c = 0; c < 64; ++c) {
      const float mag = std::fabs(w.at(r, c).ToFloat());
      if (pruned.at(r, c).IsZero()) {
        max_dropped = std::max(max_dropped, mag);
      } else {
        min_kept = std::min(min_kept, mag);
      }
    }
    EXPECT_GE(min_kept, max_dropped);
  }
}

// The pruner selects (std::nth_element) under the order magnitude
// descending, then column ascending. That order is strict and total, so on
// rows full of ties the output is bit for bit a full sort's under it.
HalfMatrix FullSortMagnitudePrune(const HalfMatrix& w, double sparsity) {
  HalfMatrix out = w;
  const int64_t k = w.cols();
  const int64_t keep = k - static_cast<int64_t>(std::llround(sparsity * static_cast<double>(k)));
  for (int64_t r = 0; r < w.rows(); ++r) {
    std::vector<std::pair<float, int64_t>> scored;
    for (int64_t c = 0; c < k; ++c) {
      scored.emplace_back(std::fabs(w.at(r, c).ToFloat()), c);
    }
    std::sort(scored.begin(), scored.end(), [](const auto& a, const auto& b) {
      return a.first != b.first ? a.first > b.first : a.second < b.second;
    });
    for (int64_t i = keep; i < k; ++i) {
      out.at(r, scored[static_cast<size_t>(i)].second) = Half(0.0f);
    }
  }
  return out;
}

TEST(MagnitudePrunerTest, TiedRowsMatchFullSortReference) {
  const float kTies[] = {0.5f, -0.5f, 0.25f, -0.25f, 0.0f};
  Rng rng(145);
  HalfMatrix w(37, 50);
  for (int64_t i = 0; i < w.size(); ++i) {
    w.data()[i] = Half(kTies[rng.Below(5)]);
  }
  for (const int threads : {1, 3}) {
    ThreadPool::SetGlobalThreads(threads);
    for (const double sparsity : {0.0, 0.3, 0.5, 0.6, 0.9, 1.0}) {
      const HalfMatrix got = MagnitudePruner().Prune(w, sparsity);
      const HalfMatrix want = FullSortMagnitudePrune(w, sparsity);
      for (int64_t i = 0; i < w.size(); ++i) {
        ASSERT_EQ(got.data()[i].bits(), want.data()[i].bits())
            << "threads=" << threads << " sparsity=" << sparsity << " i=" << i;
      }
    }
  }
  ThreadPool::SetGlobalThreads(0);
}

TEST(MagnitudePrunerTest, ZeroSparsityIsIdentity) {
  Rng rng(145);
  const HalfMatrix w = HalfMatrix::Random(8, 32, rng);
  const HalfMatrix pruned = MagnitudePruner().Prune(w, 0.0);
  for (int64_t i = 0; i < w.size(); ++i) {
    EXPECT_EQ(pruned.data()[i].bits(), w.data()[i].bits());
  }
}

TEST(WandaPrunerTest, OutlierChannelsSurvive) {
  // A channel with a huge activation norm keeps its weights even when their
  // magnitudes are small — the property that distinguishes Wanda from
  // magnitude pruning.
  const int64_t k = 64;
  HalfMatrix w(4, k);
  for (int64_t r = 0; r < 4; ++r) {
    for (int64_t c = 0; c < k; ++c) {
      w.at(r, c) = Half(c == 0 ? 0.01f : 1.0f);  // tiny weight in channel 0
    }
  }
  std::vector<float> norms(k, 1.0f);
  norms[0] = 1000.0f;  // outlier activation channel
  const HalfMatrix pruned = WandaPruner(norms).Prune(w, 0.5);
  for (int64_t r = 0; r < 4; ++r) {
    EXPECT_FALSE(pruned.at(r, 0).IsZero()) << "row " << r;
  }
  // Magnitude pruning would drop channel 0 first.
  const HalfMatrix mag = MagnitudePruner().Prune(w, 0.5);
  for (int64_t r = 0; r < 4; ++r) {
    EXPECT_TRUE(mag.at(r, 0).IsZero());
  }
}

TEST(WandaPrunerTest, TargetSparsityPerRow) {
  Rng rng(146);
  const HalfMatrix w = HalfMatrix::Random(8, 80, rng);
  CalibrationConfig cal;
  cal.num_features = 80;
  Rng cal_rng(147);
  const WandaPruner pruner(SyntheticFeatureNorms(cal, cal_rng));
  const HalfMatrix pruned = pruner.Prune(w, 0.6);
  EXPECT_NEAR(pruned.Sparsity(), 0.6, 0.01);
}

TEST(CalibrationTest, NormsPositiveWithOutliers) {
  CalibrationConfig cal;
  cal.num_features = 10000;
  cal.outlier_fraction = 0.01;
  cal.outlier_scale = 50.0;
  Rng rng(148);
  const auto norms = SyntheticFeatureNorms(cal, rng);
  ASSERT_EQ(norms.size(), 10000u);
  int outliers = 0;
  for (float n : norms) {
    EXPECT_GT(n, 0.0f);
    outliers += n > 100.0f;
  }
  // ~1% outlier channels at ~50x scale.
  EXPECT_GT(outliers, 30);
  EXPECT_LT(outliers, 300);
}

}  // namespace
}  // namespace spinfer
