// Little-endian byte writers and the one bounded reader behind every binary
// format in the repo: tensor updates (comm/serialize), envelopes and quantized
// payloads (comm/channel), the SFCG checkpoint container (fl/checkpoint) and
// SFSN session checkpoints (serve/session).
//
// Every read is checked against the bytes actually present, so a truncated or
// crafted input ends in a CheckError ("truncated <what>"). A decoder that
// sizes an allocation from a declared count bounds that count by remaining()
// first — each element takes at least some bytes — so a header claiming
// billions of entries fails before anything is reserved.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/check.h"

namespace subfed {

inline void put_u32(std::vector<std::uint8_t>& out, std::uint32_t value) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
}

inline void put_u64(std::vector<std::uint8_t>& out, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
}

inline void put_f32(std::vector<std::uint8_t>& out, float value) {
  put_u32(out, std::bit_cast<std::uint32_t>(value));
}

inline void put_f64(std::vector<std::uint8_t>& out, double value) {
  put_u64(out, std::bit_cast<std::uint64_t>(value));
}

/// u32 length prefix, then the bytes (read back by ByteReader::blob).
inline void put_blob(std::vector<std::uint8_t>& out, std::span<const std::uint8_t> blob) {
  put_u32(out, static_cast<std::uint32_t>(blob.size()));
  out.insert(out.end(), blob.begin(), blob.end());
}

class ByteReader {
 public:
  /// `what` names the format in truncation errors; it must outlive the reader.
  ByteReader(std::span<const std::uint8_t> bytes, const char* what)
      : bytes_(bytes), what_(what) {}

  std::uint8_t u8() { return raw(1)[0]; }

  std::uint16_t u16() {
    const std::span<const std::uint8_t> b = raw(2);
    return static_cast<std::uint16_t>(b[0] | (b[1] << 8));
  }

  std::uint32_t u32() {
    const std::span<const std::uint8_t> b = raw(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(b[i]) << (8 * i);
    return v;
  }

  std::uint64_t u64() {
    std::uint64_t v = u32();
    v |= static_cast<std::uint64_t>(u32()) << 32;
    return v;
  }

  float f32() { return std::bit_cast<float>(u32()); }
  double f64() { return std::bit_cast<double>(u64()); }

  /// The next `n` bytes, as a view into the input.
  std::span<const std::uint8_t> raw(std::size_t n) {
    SUBFEDAVG_CHECK(n <= remaining(), "truncated " << what_);
    const std::span<const std::uint8_t> out = bytes_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  std::string str(std::size_t n) {
    const std::span<const std::uint8_t> b = raw(n);
    return {reinterpret_cast<const char*>(b.data()), b.size()};
  }

  /// A u32-length-prefixed blob (put_blob's inverse), as a view.
  std::span<const std::uint8_t> blob() { return raw(u32()); }

  std::size_t remaining() const noexcept { return bytes_.size() - pos_; }
  bool done() const noexcept { return pos_ == bytes_.size(); }

 private:
  std::span<const std::uint8_t> bytes_;
  const char* what_;
  std::size_t pos_ = 0;
};

}  // namespace subfed
