#include "src/core/dual_sparse.h"

#include <cmath>

#include "src/core/spinfer_kernel.h"
#include "src/util/check.h"

namespace spinfer {

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
