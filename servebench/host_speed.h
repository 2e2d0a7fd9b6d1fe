// Host speed, measured with a fixed reference loop.
//
// On a shared host the speed of the same code drifts by 20-30% over minutes
// as neighbours come and go. Fastest repeats (fastest_repeat.h) remove the
// short slow spells within a run, not that drift, so the benchmark also
// times a fixed loop between rounds and scales its timings by
// kReferenceMs / (the loop's fastest time in the run). A drift slows the
// loop and the program alike and cancels; a change to the program, which
// the loop never calls, shows in full. The loop is a dense fp32 panel
// product of the shape of M's FFN matmul at N=8: a 1 MiB weight matrix
// streamed against an 8-column panel, like the decode steps it stands for.
//
// The loop and kReferenceMs are part of the benchmark's definition:
// changing either changes every scaled metric.
#pragma once

#include <vector>

namespace servebench {

class HostSpeed {
 public:
  // The loop's time (median of kSamples passes) at which scaled times equal
  // wall times: about its fastest on an idle 4-vCPU Xeon.
  static constexpr double kReferenceMs = 2.6;
  static constexpr int kSamples = 9;

  HostSpeed();

  // Times kSamples passes of the loop and returns the median in ms.
  double MeasureMs();

  // Factor for wall times taken while the loop's fastest time was
  // `fastest_ms`.
  static double ScaleFor(double fastest_ms) {
    return fastest_ms > 0.0 ? kReferenceMs / fastest_ms : 1.0;
  }

 private:
  double PassMs();

  std::vector<float> weights_;  // kRows x kCols
  std::vector<float> panel_;    // kCols x kPanel
  std::vector<float> out_;      // kRows x kPanel
};

}  // namespace servebench
