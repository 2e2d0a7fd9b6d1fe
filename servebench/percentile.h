// Percentiles under the "at least ten samples beyond it" rule: a tail
// percentile is only quoted when at least kMinSamplesBeyond samples lie
// above its rank, so p99 needs 1000 samples and p90 needs 100.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

namespace servebench {

inline constexpr int64_t kMinSamplesBeyond = 10;

// Samples lying beyond the `pct` percentile of `n` samples: n * (100 - pct)
// / 100, in integer arithmetic so p90 of 100 samples is exactly 10.
inline int64_t SamplesBeyond(int64_t n, int pct) {
  return n * (100 - pct) / 100;
}

// Smallest sample count that supports the `pct` percentile.
inline int64_t MinSamplesFor(int pct) {
  return (kMinSamplesBeyond * 100 + (100 - pct) - 1) / (100 - pct);
}

// Linear interpolation between sorted ranks (the numpy default, the same
// definition as spinfer::SummarizeLatenciesMs) at fraction `q` in [0, 1].
inline double InterpolatedQuantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double r = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(r);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (r - static_cast<double>(lo));
}

// The `pct` percentile (1..99) of `v`, or nullopt when fewer than
// kMinSamplesBeyond samples lie beyond it.
inline std::optional<double> Percentile(const std::vector<double>& v, int pct) {
  if (v.empty() || SamplesBeyond(static_cast<int64_t>(v.size()), pct) <
                       kMinSamplesBeyond) {
    return std::nullopt;
  }
  return InterpolatedQuantile(v, pct / 100.0);
}

// A tail percentile quoted at rank `pct` when the sample supports it, else
// at the highest whole-percent rank that keeps kMinSamplesBeyond samples
// beyond it (the median when even that is out of reach). `pct` records the
// rank actually used, so a report can state it next to the sample count.
struct TailValue {
  double value = 0.0;
  int pct = 0;
  int64_t n = 0;
};

inline TailValue TailPercentile(const std::vector<double>& v, int pct) {
  TailValue t;
  t.n = static_cast<int64_t>(v.size());
  if (v.empty()) {
    return t;
  }
  t.pct = pct;
  while (t.pct > 50 && SamplesBeyond(t.n, t.pct) < kMinSamplesBeyond) {
    --t.pct;
  }
  t.value = InterpolatedQuantile(v, t.pct / 100.0);
  return t;
}

inline double Median(const std::vector<double>& v) {
  return v.empty() ? 0.0 : InterpolatedQuantile(v, 0.5);
}

}  // namespace servebench
