// Software IEEE 754 binary16 ("half precision") implementation.
//
// The paper's kernels operate on FP16 weights/activations with FP32
// accumulation (the Tensor Core mma.m16n8k16 contract). This environment has
// no hardware half type we can rely on portably, so Half stores the 16-bit
// pattern and converts to/from float with round-to-nearest-even — the same
// semantics as CUDA's __half.
//
// Fast path: half→float is the hottest conversion in the functional
// simulator (every gathered MMA operand passes through it), so ToFloat() is
// a single load from a 65,536-entry lookup table. The table is built at
// compile time from the bit-twiddled reference conversion below, which stays
// available (fp16_detail::HalfToFloatBits) as the oracle the exhaustive
// equivalence test in tests/fp16_test.cc compares against. float→half is an
// RNE bit algorithm inlined here so hot encoders avoid the call.
#pragma once

#include <array>
#include <bit>
#include <cstdint>

namespace spinfer {
namespace fp16_detail {

// Reference bit-twiddled half→float conversion (exact for every encoding,
// NaN payloads included). The lookup table is generated from this function;
// it is not the runtime hot path.
constexpr float HalfToFloatBits(uint16_t h) {
  const uint32_t sign = static_cast<uint32_t>(h & 0x8000u) << 16;
  const uint32_t exp = (h >> 10) & 0x1fu;
  const uint32_t mant = h & 0x3ffu;

  uint32_t out = 0;
  if (exp == 0) {
    if (mant == 0) {
      out = sign;  // +/- zero
    } else {
      // Subnormal: normalize into float's representation.
      int e = 0;
      uint32_t m = mant;
      while ((m & 0x400u) == 0) {
        m <<= 1;
        ++e;
      }
      m &= 0x3ffu;
      out = sign | (static_cast<uint32_t>(113 - e) << 23) | (m << 13);
    }
  } else if (exp == 31) {
    out = sign | 0x7f800000u | (mant << 13);  // inf / nan
  } else {
    out = sign | ((exp + 112) << 23) | (mant << 13);
  }
  return std::bit_cast<float>(out);
}

// float→half with round-to-nearest-even; overflow maps to +/-inf, float
// subnormals (< 2^-126, far below half's 2^-24 ulp) flush to zero, NaNs are
// quieted (payload dropped: sign | 0x7e00). Three predictable branches, no
// loop: the paged KV cache rounds every K/V value it stores through here.
constexpr uint16_t FloatToHalfBits(float f) {
  const uint32_t x = std::bit_cast<uint32_t>(f);
  const uint32_t sign = (x >> 16) & 0x8000u;
  const uint32_t a = x & 0x7fffffffu;  // |f|
  uint32_t h = 0;
  if (a >= 0x47800000u) {
    // |f| >= 2^16: infinity, or a quiet NaN.
    h = a > 0x7f800000u ? 0x7e00u : 0x7c00u;
  } else if (a >= 0x38800000u) {
    // A normal half (|f| >= 2^-14). Rebias the exponent (-112 << 23) and
    // round the 13 dropped mantissa bits to nearest even: adding 0xfff plus
    // the kept lsb carries exactly when they exceed half an ulp, or equal it
    // with the lsb odd. A carry out of the mantissa bumps the exponent, and
    // from 65520 up it lands on infinity (0x7c00).
    h = (a - 0x37fff001u + ((a >> 13) & 1u)) >> 13;
  } else {
    // A subnormal half or zero: adding 0.5f puts the sum's float ulp at
    // 2^-24, the half's subnormal step, so the float addition itself (in the
    // default rounding mode) rounds |f| to nearest even there; the sum's low bits are then the half's
    // (0x400, the smallest normal, when it rounds up out of the range).
    h = std::bit_cast<uint32_t>(std::bit_cast<float>(a) + 0.5f) - 0x3f000000u;
  }
  return static_cast<uint16_t>(sign | h);
}

// 65,536-entry half→float table, constant-initialized in fp16.cc from
// HalfToFloatBits over every encoding. 256 KiB of rodata; the working set of
// a decode loop touches only the encodings its values actually use.
extern const std::array<float, 65536> kHalfToFloatLut;

}  // namespace fp16_detail

// A 16-bit IEEE binary16 value. POD; exactly 2 bytes, safe to memcpy into the
// packed Values arrays of the sparse formats.
class Half {
 public:
  Half() = default;

  // Converts from float with round-to-nearest-even; overflow maps to +/-inf.
  explicit constexpr Half(float f) : bits_(fp16_detail::FloatToHalfBits(f)) {}

  // Reinterprets a raw bit pattern.
  static constexpr Half FromBits(uint16_t bits) {
    Half h;
    h.bits_ = bits;
    return h;
  }

  // Table-driven: one indexed load, bit-identical to the reference
  // conversion for all 65,536 encodings (tests/fp16_test.cc proves it).
  float ToFloat() const { return fp16_detail::kHalfToFloatLut[bits_]; }
  constexpr uint16_t bits() const { return bits_; }

  constexpr bool IsZero() const { return (bits_ & 0x7fff) == 0; }
  constexpr bool IsNan() const {
    return (bits_ & 0x7c00) == 0x7c00 && (bits_ & 0x03ff) != 0;
  }
  constexpr bool IsInf() const { return (bits_ & 0x7fff) == 0x7c00; }

  // Equality is bitwise except that +0 == -0 (matching float semantics for the
  // common sparse-format roundtrip checks); NaN != NaN.
  friend constexpr bool operator==(Half a, Half b) {
    if (a.IsNan() || b.IsNan()) {
      return false;
    }
    if (a.IsZero() && b.IsZero()) {
      return true;
    }
    return a.bits_ == b.bits_;
  }
  friend constexpr bool operator!=(Half a, Half b) { return !(a == b); }

 private:
  uint16_t bits_ = 0;
};

static_assert(sizeof(Half) == 2, "Half must be exactly 16 bits");

}  // namespace spinfer
