#include "comm/serialize.h"

#include <cstdint>

#include "util/bytes.h"
#include "util/check.h"

namespace subfed {

namespace {

constexpr std::uint32_t kMagic = 0x53464156;  // "SFAV"

}  // namespace

std::vector<std::uint8_t> encode_update(const StateDict& state, const ModelMask* mask) {
  std::vector<std::uint8_t> out;
  put_u32(out, kMagic);
  put_u32(out, static_cast<std::uint32_t>(state.size()));

  for (const auto& [name, tensor] : state) {
    put_u32(out, static_cast<std::uint32_t>(name.size()));
    out.insert(out.end(), name.begin(), name.end());
    put_u32(out, static_cast<std::uint32_t>(tensor.shape().rank()));
    for (const std::size_t d : tensor.shape().dims()) {
      put_u32(out, static_cast<std::uint32_t>(d));
    }

    const Tensor* m = mask != nullptr ? mask->find(name) : nullptr;
    out.push_back(m != nullptr ? 1 : 0);
    if (m == nullptr) {
      for (std::size_t i = 0; i < tensor.numel(); ++i) put_f32(out, tensor[i]);
      continue;
    }
    SUBFEDAVG_CHECK(m->shape() == tensor.shape(), "mask shape for " << name);
    // Packed bitmap, then kept values only.
    std::uint8_t byte = 0;
    int bit = 0;
    for (std::size_t i = 0; i < tensor.numel(); ++i) {
      if ((*m)[i] != 0.0f) byte |= static_cast<std::uint8_t>(1 << bit);
      if (++bit == 8) {
        out.push_back(byte);
        byte = 0;
        bit = 0;
      }
    }
    if (bit != 0) out.push_back(byte);
    for (std::size_t i = 0; i < tensor.numel(); ++i) {
      if ((*m)[i] != 0.0f) put_f32(out, tensor[i]);
    }
  }
  return out;
}

StateDict decode_update(std::span<const std::uint8_t> bytes, ModelMask* mask_out) {
  ByteReader reader(bytes, "update");
  SUBFEDAVG_CHECK(reader.u32() == kMagic, "bad update magic");
  const std::uint32_t entries = reader.u32();

  StateDict state;
  for (std::uint32_t e = 0; e < entries; ++e) {
    const std::uint32_t name_len = reader.u32();
    std::string name = reader.str(name_len);
    // Validate the declared shape against the bytes actually present before
    // anything is sized from it: a crafted header must fail here, not in
    // the allocator.
    const std::uint32_t rank = reader.u32();
    SUBFEDAVG_CHECK(rank <= kMaxUpdateRank,
                    "update entry '" << name << "' rank " << rank << " > " << kMaxUpdateRank);
    std::vector<std::size_t> dims(rank);
    std::size_t numel = rank == 0 ? 0 : 1;  // as Shape::numel
    for (auto& d : dims) {
      d = reader.u32();
      SUBFEDAVG_CHECK(d == 0 || numel <= SIZE_MAX / d,
                      "update entry '" << name << "' element count overflows");
      numel *= d;
    }
    const bool masked = reader.u8() != 0;
    const std::size_t declared = masked ? numel / 8 + (numel % 8 != 0) : numel;
    const std::size_t unit = masked ? 1 : 4;  // bitmap bytes, or f32 values
    SUBFEDAVG_CHECK(declared <= reader.remaining() / unit,
                    "update entry '" << name << "' declares " << numel
                                     << " elements but only " << reader.remaining()
                                     << " bytes remain");

    Tensor tensor{Shape(dims)};
    float* values = tensor.data();
    if (!masked) {
      for (std::size_t i = 0; i < tensor.numel(); ++i) values[i] = reader.f32();
    } else {
      const std::span<const std::uint8_t> bitmap = reader.raw(declared);
      const auto keep = [&](std::size_t i) { return ((bitmap[i / 8] >> (i % 8)) & 1) != 0; };
      for (std::size_t i = 0; i < tensor.numel(); ++i) {
        if (keep(i)) values[i] = reader.f32();
      }
      if (mask_out != nullptr) {
        Tensor bits{tensor.shape()};
        float* b = bits.data();
        for (std::size_t i = 0; i < bits.numel(); ++i) b[i] = keep(i) ? 1.0f : 0.0f;
        mask_out->set(name, std::move(bits));
      }
    }
    state.add(std::move(name), std::move(tensor));
  }
  SUBFEDAVG_CHECK(reader.done(), "trailing bytes in update");
  return state;
}

std::size_t encoded_header_bytes(const StateDict& state) {
  std::size_t bytes = 8;  // magic + entry count
  for (const auto& [name, tensor] : state) {
    bytes += 4 + name.size();                       // name length + name
    bytes += 4 + 4 * tensor.shape().rank();         // rank + dims
    bytes += 1;                                     // coverage flag
  }
  return bytes;
}

std::size_t payload_bytes(const StateDict& state, const ModelMask* mask) {
  std::size_t bytes = 0;
  for (const auto& [name, tensor] : state) {
    const Tensor* m = mask != nullptr ? mask->find(name) : nullptr;
    if (m == nullptr) {
      bytes += tensor.numel() * 4;
      continue;
    }
    std::size_t kept = 0;
    for (std::size_t i = 0; i < m->numel(); ++i) kept += ((*m)[i] != 0.0f);
    bytes += kept * 4 + (tensor.numel() + 7) / 8;
  }
  return bytes;
}

}  // namespace subfed
