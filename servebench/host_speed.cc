#include "host_speed.h"

#include <algorithm>
#include <chrono>

namespace servebench {
namespace {

constexpr int kRows = 256;
constexpr int kCols = 1024;
constexpr int kPanel = 8;
constexpr int kPassesPerSample = 3;

}  // namespace

HostSpeed::HostSpeed()
    : weights_(kRows * kCols), panel_(kCols * kPanel), out_(kRows * kPanel) {
  for (size_t i = 0; i < weights_.size(); ++i) {
    weights_[i] = static_cast<float>(i % 13) * (1.0f / 13.0f);
  }
  for (size_t i = 0; i < panel_.size(); ++i) {
    panel_[i] = static_cast<float>(i % 7) * (1.0f / 7.0f);
  }
}

double HostSpeed::PassMs() {
  const auto t0 = std::chrono::steady_clock::now();
  for (int p = 0; p < kPassesPerSample; ++p) {
    for (int i = 0; i < kRows; ++i) {
      float acc[kPanel] = {};
      const float* w = &weights_[static_cast<size_t>(i) * kCols];
      for (int k = 0; k < kCols; ++k) {
        const float* x = &panel_[static_cast<size_t>(k) * kPanel];
        for (int l = 0; l < kPanel; ++l) {
          acc[l] += w[k] * x[l];
        }
      }
      std::copy(acc, acc + kPanel, &out_[static_cast<size_t>(i) * kPanel]);
    }
  }
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

double HostSpeed::MeasureMs() {
  std::vector<double> ms(kSamples);
  for (double& m : ms) {
    m = PassMs();
  }
  std::nth_element(ms.begin(), ms.begin() + kSamples / 2, ms.end());
  return ms[kSamples / 2];
}

}  // namespace servebench
