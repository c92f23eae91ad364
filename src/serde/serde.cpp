#include "serde/serde.h"

namespace mahimahi::serde {

void Writer::varint(std::uint64_t v) {
  while (v >= 0x80) {
    out_.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out_.push_back(static_cast<std::uint8_t>(v));
}

std::uint64_t Reader::varint() {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    if (shift >= 64) throw SerdeError("varint too long");
    const std::uint8_t byte = u8();
    // The 10th byte may only contribute the single remaining bit.
    if (shift == 63 && (byte & 0x7e) != 0) throw SerdeError("varint overflow");
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      // Canonical encodings only: a zero final byte after the first means a
      // shorter encoding of the same value exists (the one Writer emits).
      // Decoders can then treat accepted bytes as the unique encoding of
      // what they decoded — Block::deserialize hashes them in place.
      if (byte == 0 && shift > 0) throw SerdeError("overlong varint");
      return v;
    }
    shift += 7;
  }
}

}  // namespace mahimahi::serde
