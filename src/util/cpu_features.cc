#include "src/util/cpu_features.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace spinfer {

namespace {

CpuFeatures Detect() {
  CpuFeatures f;
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  __builtin_cpu_init();
  f.avx2 = __builtin_cpu_supports("avx2") != 0;
  f.fma = __builtin_cpu_supports("fma") != 0;
  f.f16c = __builtin_cpu_supports("f16c") != 0;
  f.avx512f = __builtin_cpu_supports("avx512f") != 0;
  f.avx512vl = __builtin_cpu_supports("avx512vl") != 0;
  f.avx512bw = __builtin_cpu_supports("avx512bw") != 0;
  f.avx512dq = __builtin_cpu_supports("avx512dq") != 0;
#endif
  return f;
}

// The widest tier the CPU supports.
SimdLevel HardwareLevel(const CpuFeatures& f) {
  // The AVX2 kernels also use F16C half conversions; every AVX2-era CPU has
  // all three, but dispatch verifies each flag it depends on. The AVX-512
  // tier builds on the AVX2 one and adds the four subsets its tile uses.
  if (!(f.avx2 && f.fma && f.f16c)) {
    return SimdLevel::kPortable;
  }
  if (f.avx512f && f.avx512vl && f.avx512bw && f.avx512dq) {
    return SimdLevel::kAvx512;
  }
  return SimdLevel::kAvx2;
}

SimdLevel Resolve() {
  return ApplySimdOverride(HardwareLevel(GetCpuFeatures()),
                           std::getenv("SPINFER_SIMD"), stderr);
}

}  // namespace

SimdLevel ApplySimdOverride(SimdLevel hw_level, const char* env,
                            std::FILE* warn_to) {
  if (env == nullptr || *env == '\0') {
    return hw_level;
  }
  if (std::strcmp(env, "portable") == 0 || std::strcmp(env, "scalar") == 0) {
    return SimdLevel::kPortable;
  }
  if (std::strcmp(env, "avx2") == 0) {
    // At most AVX2; a CPU without it keeps its lower level — the override
    // can narrow dispatch but never select an unsupported tier.
    return std::min(hw_level, SimdLevel::kAvx2);
  }
  // A typo like SPINFER_SIMD=portble used to silently keep the hardware
  // level, so the user benchmarked AVX2 believing it was the portable path.
  // Results are identical either way (the bit-identity contract), so a loud
  // warning — not an abort — is the right failure mode.
  if (warn_to != nullptr) {
    std::fprintf(warn_to,
                 "[spinfer] warning: unrecognized SPINFER_SIMD value \"%s\" "
                 "ignored (expected \"portable\", \"scalar\", or \"avx2\"); "
                 "dispatching at hardware level \"%s\"\n",
                 env, SimdLevelName(hw_level));
  }
  return hw_level;
}

const CpuFeatures& GetCpuFeatures() {
  static const CpuFeatures features = Detect();
  return features;
}

SimdLevel ActiveSimdLevel() {
  static const SimdLevel level = Resolve();
  return level;
}

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kPortable:
      return "portable";
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kAvx512:
      return "avx512";
  }
  return "unknown";
}

std::string CpuFeaturesSummary() {
  const CpuFeatures& f = GetCpuFeatures();
  std::string s;
  auto add = [&s](bool has, const char* name) {
    if (has) {
      if (!s.empty()) {
        s += '+';
      }
      s += name;
    }
  };
  add(f.avx2, "avx2");
  add(f.fma, "fma");
  add(f.f16c, "f16c");
  add(f.avx512f, "avx512f");
  add(f.avx512vl, "avx512vl");
  add(f.avx512bw, "avx512bw");
  add(f.avx512dq, "avx512dq");
  if (s.empty()) {
    s = "baseline";
  }
  s += " (dispatch: ";
  s += SimdLevelName(ActiveSimdLevel());
  s += ')';
  return s;
}

}  // namespace spinfer
