#include "src/core/spmm.h"

#include <cmath>

#include "src/util/check.h"

namespace spinfer {

int64_t SpmmProblem::Nnz() const {
  if (nnz >= 0) {
    return nnz;
  }
  SPINFER_CHECK(sparsity >= 0.0 && sparsity <= 1.0);
  return static_cast<int64_t>(
      std::llround(static_cast<double>(m) * static_cast<double>(k) * (1.0 - sparsity)));
}

}  // namespace spinfer
