// Scalar IEEE-754 half-precision casts behind the fp16 payload codec
// (comm/channel.h, QuantCodec::kFp16: 2 bytes per kept value). The int8 codec
// lives in comm/channel.cpp alone.
#pragma once

#include <cstdint>

namespace subfed {

/// fp32 → half, rounding the mantissa to nearest; overflow saturates to ±inf.
/// Exact zeros (either sign) stay exact.
std::uint16_t fp32_to_fp16(float value) noexcept;
/// half → fp32; exact for every half value.
float fp16_to_fp32(std::uint16_t half) noexcept;

}  // namespace subfed
