#include "src/core/dual_sparse.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "src/core/spinfer_kernel.h"
#include "src/util/check.h"

namespace spinfer {

std::vector<bool> ActiveRows(const HalfMatrix& x) {
  std::vector<bool> active(static_cast<size_t>(x.rows()), false);
  for (int64_t r = 0; r < x.rows(); ++r) {
    for (int64_t c = 0; c < x.cols(); ++c) {
      if (!x.at(r, c).IsZero()) {
        active[r] = true;
        break;
      }
    }
  }
  return active;
}

FloatMatrix CpuDualSparseSpmm(const TcaBmeMatrix& w, const HalfMatrix& x,
                              PerfCounters* counters) {
  SPINFER_CHECK_EQ(w.cols(), x.rows());
  const std::vector<bool> active = ActiveRows(x);
  const int64_t n = x.cols();
  const int64_t m = w.rows();
  const int64_t k = w.cols();
  FloatMatrix out(m, n);
  uint64_t flops = 0;

  for (int64_t gt = 0; gt < w.num_group_tiles(); ++gt) {
    ForEachNonzeroTile(w, gt, [&](uint64_t bitmap, int64_t /*bi*/, size_t first,
                                  int64_t bt_r, int64_t bt_c) {
      for (size_t vi = first; bitmap != 0; ++vi) {
        const int bit = std::countr_zero(bitmap);
        bitmap &= bitmap - 1;
        const int64_t r = bt_r + bit / kBitmapTileDim;
        const int64_t c = bt_c + bit % kBitmapTileDim;
        if (r >= m || c >= k || !active[c]) {
          continue;  // inactive input: the whole product row is zero
        }
        const float v = w.values()[vi].ToFloat();
        float* out_row = out.data() + r * n;
        const Half* x_row = x.data() + c * n;
        for (int64_t j = 0; j < n; ++j) {
          out_row[j] += v * x_row[j].ToFloat();
        }
        flops += 2ull * static_cast<uint64_t>(n);
      }
    });
  }
  if (counters != nullptr) {
    counters->flops += flops;
  }
  return out;
}

TimeBreakdown EstimateDualSparseTime(const SpmmProblem& p, double activation_sparsity,
                                     int neuron_group, const DeviceSpec& dev) {
  SPINFER_CHECK(activation_sparsity >= 0.0 && activation_sparsity <= 1.0);
  SPINFER_CHECK(neuron_group > 0);
  // Fraction of GroupTile columns (gt_cols input rows) that are entirely
  // inactive: inactive neurons arrive in contiguous groups of `neuron_group`,
  // so a GroupTile column of width G is skippable with probability
  // ~ s_a^(ceil(G / neuron_group)) under independent group activations.
  const SpInferSpmmKernel kernel;
  const int gt_cols = kernel.config().format.gt_cols;
  const double groups_per_tile =
      std::ceil(static_cast<double>(gt_cols) / static_cast<double>(neuron_group));
  const double skip_prob = std::pow(activation_sparsity, groups_per_tile);

  // Reuse the base estimate and scale the weight-traffic and compute terms
  // by the surviving fraction.
  KernelEstimate base = kernel.Estimate(p, dev);
  const double keep = 1.0 - skip_prob;
  KernelWork work;
  work.dram_bytes_read = static_cast<uint64_t>(
      static_cast<double>(base.counters.dram_bytes_read) * keep);
  work.dram_bytes_written = base.counters.dram_bytes_written;
  work.flops = static_cast<uint64_t>(static_cast<double>(base.counters.flops) * keep);
  work.decode_ops =
      static_cast<uint64_t>(static_cast<double>(base.counters.popc_ops +
                                                base.counters.alu_ops) *
                            32.0 * keep);
  work.n = p.n;
  return EstimateKernelTime(kernel.Traits(), work, dev);
}

}  // namespace spinfer
