#include "src/core/dual_sparse.h"

#include <gtest/gtest.h>

namespace spinfer {
namespace {

TEST(DualSparseTest, EstimateImprovesWithActivationSparsity) {
  const DeviceSpec dev = Rtx4090();
  SpmmProblem p;
  p.m = 8192;
  p.k = 8192;
  p.n = 16;
  p.sparsity = 0.6;
  const double base = EstimateDualSparseTime(p, 0.0, 64, dev).total_us;
  const double mid = EstimateDualSparseTime(p, 0.5, 64, dev).total_us;
  const double high = EstimateDualSparseTime(p, 0.9, 64, dev).total_us;
  EXPECT_GT(base, mid);
  EXPECT_GT(mid, high);
}

TEST(DualSparseTest, FineGrainedSparsityCannotSkipTiles) {
  // With neuron groups much smaller than the GroupTile width, whole-tile
  // skips become improbable and the benefit collapses — the reason the
  // paper calls for *adaptive* encodings for activation sparsity (§6).
  const DeviceSpec dev = Rtx4090();
  SpmmProblem p;
  p.m = 8192;
  p.k = 8192;
  p.n = 16;
  p.sparsity = 0.6;
  const double grouped = EstimateDualSparseTime(p, 0.8, 64, dev).total_us;
  const double scattered = EstimateDualSparseTime(p, 0.8, 1, dev).total_us;
  EXPECT_LT(grouped, scattered);
}

}  // namespace
}  // namespace spinfer
