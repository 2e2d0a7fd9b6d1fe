#include "src/pruning/magnitude.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "src/util/check.h"
#include "src/util/thread_pool.h"

namespace spinfer {

HalfMatrix MagnitudePruner::Prune(const HalfMatrix& w, double sparsity) const {
  SPINFER_CHECK(sparsity >= 0.0 && sparsity <= 1.0);
  HalfMatrix out = w;
  const int64_t rows = w.rows();
  const int64_t k = w.cols();
  const int64_t keep = k - static_cast<int64_t>(std::llround(sparsity * static_cast<double>(k)));
  // Rows are scored independently. Each chunk of rows reuses one scratch
  // buffer; the chunking changes no row's result.
  const int64_t max_chunks = 8 * ThreadPool::Global().num_threads();
  const int64_t rows_per_chunk = std::max<int64_t>(1, (rows + max_chunks - 1) / max_chunks);
  const int64_t chunks = (rows + rows_per_chunk - 1) / rows_per_chunk;
  ParallelFor(0, chunks, [&](int64_t chunk) {
    std::vector<std::pair<float, int64_t>> scored(static_cast<size_t>(k));
    const int64_t end = std::min(rows, (chunk + 1) * rows_per_chunk);
    for (int64_t r = chunk * rows_per_chunk; r < end; ++r) {
      for (int64_t c = 0; c < k; ++c) {
        scored[c] = {std::fabs(w.at(r, c).ToFloat()), c};
      }
      // Select the `keep` largest magnitudes. The order is strict and total
      // (ties resolve by column), so the kept set is exactly the first
      // `keep` of a full sort by the same order.
      std::nth_element(scored.begin(), scored.begin() + keep, scored.end(),
                       [](const auto& a, const auto& b) {
                         if (a.first != b.first) {
                           return a.first > b.first;
                         }
                         return a.second < b.second;
                       });
      for (int64_t i = keep; i < k; ++i) {
        out.at(r, scored[i].second) = Half(0.0f);
      }
    }
  }, /*grain=*/1);
  return out;
}

}  // namespace spinfer
