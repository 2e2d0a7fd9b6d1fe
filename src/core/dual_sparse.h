// Dual sparsity: weight sparsity x dynamic activation sparsity.
//
// The paper's §6 names runtime activation sparsity (Deja Vu, PowerInfer) as
// future work: ReLU-family models leave many activation rows exactly zero
// at inference time, and those rows' weight columns contribute nothing.
// This extension models the composition analytically: a cost estimate of the
// Deja Vu-style deployment where inactive neurons are predicted in
// contiguous groups, letting a GPU kernel skip whole GroupTile columns and
// their weight traffic.
#pragma once

#include "src/core/spmm.h"
#include "src/gpusim/cost_model.h"

namespace spinfer {

// Modeled GPU time when a fraction `activation_sparsity` of X rows is
// inactive, clustered in contiguous groups of `neuron_group` rows (the
// granularity Deja Vu-style predictors emit). Weight traffic and compute
// drop by the fraction of fully-inactive GroupTile columns.
TimeBreakdown EstimateDualSparseTime(const SpmmProblem& p, double activation_sparsity,
                                     int neuron_group, const DeviceSpec& dev);

}  // namespace spinfer
