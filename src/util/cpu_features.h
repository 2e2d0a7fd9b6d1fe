// Runtime CPU-feature detection and the SIMD dispatch policy.
//
// The library ships one binary that must run correctly on any x86-64 machine
// (and non-x86 hosts), so SIMD kernels are selected at runtime: translation
// units compiled with -mavx2/-mfma or -mavx512* are entered only after the
// running CPU has advertised those features. Detection happens once and is
// cached.
//
// Unset, dispatch takes the widest tier the hardware supports. It can be
// narrowed for debugging and A/B testing with the environment variable
// SPINFER_SIMD:
//   SPINFER_SIMD=portable   always take the portable fallback ("scalar" is
//                           accepted as a synonym)
//   SPINFER_SIMD=avx2       at most AVX2: an AVX-512 host runs its AVX2
//                           kernels, a host without AVX2 the portable ones
//                           (the override narrows, never selects a tier the
//                           CPU lacks, so it cannot crash the process)
// There is no "avx512" value: it would select nothing the unset default does
// not. Any other value is ignored with a warning on stderr (a typo must not
// silently benchmark the wrong variant). Every SIMD variant in the library
// is bit-identical to the portable path by contract, so the override changes
// speed, never results.
#pragma once

#include <cstdio>
#include <string>

namespace spinfer {

struct CpuFeatures {
  bool avx2 = false;
  bool fma = false;
  bool f16c = false;
  bool avx512f = false;
  bool avx512vl = false;  // the AVX-512 tier needs F, VL, BW and DQ
  bool avx512bw = false;
  bool avx512dq = false;
};

// What the running CPU supports; detected once, cached.
const CpuFeatures& GetCpuFeatures();

// SIMD tiers the library dispatches between. Ordered: higher is wider.
enum class SimdLevel {
  kPortable = 0,  // plain C++, auto-vectorized; runs everywhere
  kAvx2 = 1,      // AVX2+FMA hand-written kernels (x86-64)
  kAvx512 = 2,    // AVX-512 F/VL/BW/DQ kernels on top of the AVX2 tier
};


// The level dispatch should use: hardware features clamped by the
// SPINFER_SIMD override. Cached after the first call.
SimdLevel ActiveSimdLevel();

// The override policy, split out so tests can drive it without setenv races
// or a fresh process per value: returns `hw_level` narrowed by `env` (the
// SPINFER_SIMD value; nullptr/empty means unset). Unrecognized values keep
// `hw_level` and print one warning line to `warn_to` (pass nullptr to
// suppress). ActiveSimdLevel() calls this with stderr.
SimdLevel ApplySimdOverride(SimdLevel hw_level, const char* env,
                            std::FILE* warn_to);

const char* SimdLevelName(SimdLevel level);

// Human-readable summary, e.g.
// "avx2+fma+f16c+avx512f+avx512vl+avx512bw+avx512dq (dispatch: avx512)".
std::string CpuFeaturesSummary();

}  // namespace spinfer
