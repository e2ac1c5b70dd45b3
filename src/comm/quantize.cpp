#include "comm/quantize.h"

#include <cstring>

namespace subfed {

std::uint16_t fp32_to_fp16(float value) noexcept {
  std::uint32_t bits;
  std::memcpy(&bits, &value, 4);
  const std::uint32_t sign = (bits >> 16) & 0x8000u;
  const std::int32_t exponent = static_cast<std::int32_t>((bits >> 23) & 0xFF) - 127 + 15;
  std::uint32_t mantissa = bits & 0x7FFFFFu;

  if (exponent >= 31) return static_cast<std::uint16_t>(sign | 0x7C00u);  // inf/overflow
  if (exponent <= 0) {
    // Subnormal or underflow to zero.
    if (exponent < -10) return static_cast<std::uint16_t>(sign);
    mantissa |= 0x800000u;
    const std::uint32_t shift = static_cast<std::uint32_t>(14 - exponent);
    const std::uint32_t rounded = (mantissa + (1u << (shift - 1))) >> shift;
    return static_cast<std::uint16_t>(sign | rounded);
  }
  // Round mantissa to 10 bits (nearest, ties away — adequate here).
  const std::uint32_t rounded = (mantissa + 0x1000u) >> 13;
  if (rounded == 0x400u) {
    // Mantissa overflow bumps the exponent.
    return static_cast<std::uint16_t>(sign |
                                      ((static_cast<std::uint32_t>(exponent) + 1) << 10));
  }
  return static_cast<std::uint16_t>(sign | (static_cast<std::uint32_t>(exponent) << 10) |
                                    rounded);
}

float fp16_to_fp32(std::uint16_t half) noexcept {
  const std::uint32_t sign = static_cast<std::uint32_t>(half & 0x8000u) << 16;
  const std::uint32_t exponent = (half >> 10) & 0x1F;
  const std::uint32_t mantissa = half & 0x3FFu;

  std::uint32_t bits;
  if (exponent == 0) {
    if (mantissa == 0) {
      bits = sign;  // ±0
    } else {
      // Subnormal: normalize.
      int e = -1;
      std::uint32_t m = mantissa;
      do {
        ++e;
        m <<= 1;
      } while ((m & 0x400u) == 0);
      bits = sign | (static_cast<std::uint32_t>(127 - 15 - e) << 23) | ((m & 0x3FFu) << 13);
    }
  } else if (exponent == 31) {
    bits = sign | 0x7F800000u | (mantissa << 13);  // inf/nan
  } else {
    bits = sign | ((exponent - 15 + 127) << 23) | (mantissa << 13);
  }
  float value;
  std::memcpy(&value, &bits, 4);
  return value;
}

}  // namespace subfed
