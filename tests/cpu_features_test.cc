#include "src/util/cpu_features.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

namespace spinfer {
namespace {

// Runs ApplySimdOverride with a capture file for the warning channel and
// returns (result, warning text).
std::pair<SimdLevel, std::string> Apply(SimdLevel hw, const char* env) {
  std::FILE* f = std::tmpfile();
  EXPECT_NE(f, nullptr);
  const SimdLevel got = ApplySimdOverride(hw, env, f);
  std::string text;
  std::rewind(f);
  char buf[512];
  while (std::fgets(buf, sizeof(buf), f) != nullptr) {
    text += buf;
  }
  std::fclose(f);
  return {got, text};
}

TEST(CpuFeaturesTest, UnsetOverrideKeepsHardwareLevel) {
  EXPECT_EQ(Apply(SimdLevel::kAvx2, nullptr).first, SimdLevel::kAvx2);
  EXPECT_EQ(Apply(SimdLevel::kPortable, nullptr).first, SimdLevel::kPortable);
  EXPECT_EQ(Apply(SimdLevel::kAvx2, "").first, SimdLevel::kAvx2);
}

TEST(CpuFeaturesTest, PortableAndScalarNarrowDispatch) {
  for (const char* env : {"portable", "scalar"}) {
    const auto [level, warning] = Apply(SimdLevel::kAvx2, env);
    EXPECT_EQ(level, SimdLevel::kPortable) << env;
    EXPECT_TRUE(warning.empty()) << env << ": " << warning;
  }
}

TEST(CpuFeaturesTest, Avx2RequestCannotExceedHardware) {
  EXPECT_EQ(Apply(SimdLevel::kAvx2, "avx2").first, SimdLevel::kAvx2);
  // On a machine without AVX2 the request falls back instead of selecting an
  // unsupported tier.
  const auto [level, warning] = Apply(SimdLevel::kPortable, "avx2");
  EXPECT_EQ(level, SimdLevel::kPortable);
  EXPECT_TRUE(warning.empty()) << warning;
}

TEST(CpuFeaturesTest, UnsetOverrideSelectsAvx512OnCapableHardware) {
  EXPECT_EQ(Apply(SimdLevel::kAvx512, nullptr).first, SimdLevel::kAvx512);
  EXPECT_EQ(Apply(SimdLevel::kAvx512, "").first, SimdLevel::kAvx512);
}

TEST(CpuFeaturesTest, Avx2RequestNarrowsAnAvx512Host) {
  // SPINFER_SIMD=avx2 keeps the AVX2 kernels running in dispatched paths on
  // AVX-512 hosts.
  const auto [level, warning] = Apply(SimdLevel::kAvx512, "avx2");
  EXPECT_EQ(level, SimdLevel::kAvx2);
  EXPECT_TRUE(warning.empty()) << warning;
}

TEST(CpuFeaturesTest, PortableNarrowsAnAvx512Host) {
  for (const char* env : {"portable", "scalar"}) {
    const auto [level, warning] = Apply(SimdLevel::kAvx512, env);
    EXPECT_EQ(level, SimdLevel::kPortable) << env;
    EXPECT_TRUE(warning.empty()) << env << ": " << warning;
  }
}

TEST(CpuFeaturesTest, Avx512IsNotAnOverrideValue) {
  // It would select nothing the unset default does not, so it is rejected
  // like any other unknown value and dispatch keeps the hardware level.
  const auto [level, warning] = Apply(SimdLevel::kAvx2, "avx512");
  EXPECT_EQ(level, SimdLevel::kAvx2);
  EXPECT_NE(warning.find("unrecognized"), std::string::npos) << warning;
}

TEST(CpuFeaturesTest, UnrecognizedValueWarnsAndKeepsHardwareLevel) {
  // The motivating typo: SPINFER_SIMD=portble used to silently run AVX2
  // while the user believed they were testing the portable path.
  const auto [level, warning] = Apply(SimdLevel::kAvx2, "portble");
  EXPECT_EQ(level, SimdLevel::kAvx2);
  EXPECT_NE(warning.find("portble"), std::string::npos) << warning;
  EXPECT_NE(warning.find("unrecognized"), std::string::npos) << warning;
  EXPECT_NE(warning.find("avx2"), std::string::npos)
      << "warning should name the level actually dispatched: " << warning;
}

TEST(CpuFeaturesTest, NullWarnStreamSuppressesOutputNotBehavior) {
  EXPECT_EQ(ApplySimdOverride(SimdLevel::kAvx2, "bogus", nullptr),
            SimdLevel::kAvx2);
}

TEST(CpuFeaturesTest, ActiveLevelIsConsistentWithDetectedFeatures) {
  // ActiveSimdLevel() may be narrowed by the environment, but can never
  // exceed what the hardware reports.
  const CpuFeatures& f = GetCpuFeatures();
  const bool avx2 = f.avx2 && f.fma && f.f16c;
  const bool avx512 = avx2 && f.avx512f && f.avx512vl && f.avx512bw && f.avx512dq;
  const SimdLevel hw = avx512 ? SimdLevel::kAvx512
                       : avx2 ? SimdLevel::kAvx2
                              : SimdLevel::kPortable;
  EXPECT_LE(static_cast<int>(ActiveSimdLevel()), static_cast<int>(hw));
}

TEST(CpuFeaturesTest, SummaryMentionsDispatchLevel) {
  const std::string s = CpuFeaturesSummary();
  EXPECT_NE(s.find("dispatch: "), std::string::npos) << s;
  EXPECT_NE(s.find(SimdLevelName(ActiveSimdLevel())), std::string::npos) << s;
}

TEST(CpuFeaturesTest, SummaryNamesEachAvx512SubsetTheTierNeeds) {
  const CpuFeatures& f = GetCpuFeatures();
  const std::string s = CpuFeaturesSummary();
  const std::pair<bool, const char*> subsets[] = {{f.avx512f, "avx512f"},
                                                  {f.avx512vl, "avx512vl"},
                                                  {f.avx512bw, "avx512bw"},
                                                  {f.avx512dq, "avx512dq"}};
  for (const auto& [has, name] : subsets) {
    EXPECT_EQ(s.find(name) != std::string::npos, has) << name << ": " << s;
  }
}

}  // namespace
}  // namespace spinfer
