// Unified SpMM kernel interface.
//
// Every kernel in the evaluation (SpInfer and the five baselines) implements
// this interface twice over:
//   * Run() — functional execution on the GPU simulator: real numerics
//     (verified against ReferenceGemm) plus hardware event counting;
//   * Estimate() — closed-form event counts + modeled GPU time from the
//     roofline cost model, usable at full LLM scale where functional
//     simulation would be too slow.
// Tests assert that Run() and Estimate() agree on event counts.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/gpusim/cost_model.h"
#include "src/gpusim/device_spec.h"
#include "src/gpusim/perf_counters.h"
#include "src/numeric/matrix.h"

namespace spinfer {

// Shape + sparsity description of O(MxN) = W(MxK) * X(KxN).
struct SpmmProblem {
  int64_t m = 0;
  int64_t k = 0;
  int64_t n = 0;
  // Fraction of zero entries in W.
  double sparsity = 0.0;
  // Exact nonzero count if known (e.g. from an encoded matrix); -1 derives
  // round(m*k*(1-sparsity)).
  int64_t nnz = -1;

  int64_t Nnz() const;
};

struct KernelEstimate {
  TimeBreakdown time;
  PerfCounters counters;
};

class SpmmKernel {
 public:
  virtual ~SpmmKernel() = default;

  virtual std::string name() const = 0;

  // Functional execution. `counters`, if non-null, receives the simulated
  // hardware events.
  virtual FloatMatrix Run(const HalfMatrix& w, const HalfMatrix& x,
                          PerfCounters* counters) const = 0;

  // Analytical event counts + modeled time on `dev`.
  virtual KernelEstimate Estimate(const SpmmProblem& p, const DeviceSpec& dev) const = 0;
};

}  // namespace spinfer
