#include "src/llm/parallel.h"

#include <gtest/gtest.h>

namespace spinfer {
namespace {

TEST(ParallelTest, SingleGpuIsFree) {
  EXPECT_DOUBLE_EQ(AllReduceTimeUs(1 << 20, 1, Rtx4090()), 0.0);
  EXPECT_DOUBLE_EQ(LayerCommTimeUs(128, 5120, 1, Rtx4090()), 0.0);
}

// Zero traffic moves nothing: a zero-byte all-reduce and a zero-token layer
// must not be charged the ring's per-step latency even on multi-GPU rings.
TEST(ParallelTest, ZeroBytesIsFreeOnAnyRing) {
  for (int gpus : {2, 4, 8}) {
    EXPECT_DOUBLE_EQ(AllReduceTimeUs(0, gpus, Rtx4090()), 0.0);
    EXPECT_DOUBLE_EQ(LayerCommTimeUs(0, 5120, gpus, Rtx4090()), 0.0);
  }
}

TEST(ParallelTest, RingVolumeAndLatency) {
  const DeviceSpec dev = Rtx4090();
  const uint64_t bytes = 10'000'000;
  const double t2 = AllReduceTimeUs(bytes, 2, dev);
  // 2 GPUs: volume = 1.0 * bytes, 2 latency steps.
  EXPECT_NEAR(t2, 2 * dev.link_latency_us + 1e7 / (30.5 * 1e3), 1.0);
  const double t4 = AllReduceTimeUs(bytes, 4, dev);
  EXPECT_GT(t4, t2);  // more volume (1.5x) and steps
}

TEST(ParallelTest, NvlinkMuchFasterThanPcie) {
  const double pcie = AllReduceTimeUs(10'000'000, 2, Rtx4090());
  const double nvlink = AllReduceTimeUs(10'000'000, 2, A6000());
  EXPECT_LT(nvlink, pcie / 1.5);
}

TEST(ParallelTest, LayerCommIsTwoAllReduces) {
  const DeviceSpec dev = Rtx4090();
  const int64_t tokens = 32;
  const int64_t hidden = 5120;
  EXPECT_DOUBLE_EQ(LayerCommTimeUs(tokens, hidden, 2, dev),
                   2.0 * AllReduceTimeUs(2ull * tokens * hidden, 2, dev));
}

TEST(ParallelTest, CommScalesWithTokens) {
  const DeviceSpec dev = Rtx4090();
  EXPECT_GT(LayerCommTimeUs(4096, 5120, 2, dev), LayerCommTimeUs(32, 5120, 2, dev));
}

}  // namespace
}  // namespace spinfer
