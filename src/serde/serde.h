// Binary serialization: little-endian fixed-width integers, LEB128 varints,
// and length-prefixed byte strings.
//
// This is the wire format for blocks (network frames and WAL records) and the
// preimage format for block digests, so encoding must be deterministic: the
// same value always serializes to the same bytes. Decoding is canonical too:
// Reader rejects overlong varints, so every accepted byte string is the one
// encoding of its value.
//
// Readers are bounds-checked and throw SerdeError on malformed input; the
// network layer catches at the message boundary and drops the peer's frame.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "common/bytes.h"
#include "crypto/digest.h"

namespace mahimahi::serde {

class SerdeError : public std::runtime_error {
 public:
  explicit SerdeError(const std::string& what) : std::runtime_error(what) {}
};

// Bytes Writer::varint(v) emits.
constexpr std::size_t varint_size(std::uint64_t v) {
  std::size_t size = 1;
  for (; v >= 0x80; v >>= 7) ++size;
  return size;
}

class Writer {
 public:
  Writer() = default;
  explicit Writer(std::size_t reserve) { out_.reserve(reserve); }

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) { append_le(v, 2); }
  void u32(std::uint32_t v) { append_le(v, 4); }
  void u64(std::uint64_t v) { append_le(v, 8); }

  // Unsigned LEB128; compact for small counts/rounds. Never overlong.
  void varint(std::uint64_t v);

  // Raw bytes, no length prefix.
  void raw(BytesView data) { out_.insert(out_.end(), data.begin(), data.end()); }

  // varint length followed by the bytes.
  void bytes(BytesView data) {
    varint(data.size());
    raw(data);
  }

  void digest(const Digest& d) { raw(d.view()); }

  const Bytes& data() const& { return out_; }
  Bytes take() && { return std::move(out_); }
  std::size_t size() const { return out_.size(); }

 private:
  void append_le(std::uint64_t v, int width) {
    for (int i = 0; i < width; ++i) out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  Bytes out_;
};

class Reader {
 public:
  explicit Reader(BytesView data) : data_(data) {}

  std::uint8_t u8() { return take(1)[0]; }
  std::uint16_t u16() { return static_cast<std::uint16_t>(read_le(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(read_le(4)); }
  std::uint64_t u64() { return read_le(8); }

  // Rejects overlong encodings (see the file comment).
  std::uint64_t varint();

  BytesView raw(std::size_t count) { return take(count); }

  Bytes bytes() {
    const std::uint64_t len = varint();
    // A length prefix can never legitimately exceed what remains.
    if (len > remaining()) throw SerdeError("length prefix exceeds input");
    const BytesView view = take(static_cast<std::size_t>(len));
    return Bytes(view.begin(), view.end());
  }

  Digest digest() {
    const BytesView view = take(32);
    Digest d;
    std::copy(view.begin(), view.end(), d.bytes.begin());
    return d;
  }

  std::size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return remaining() == 0; }

  // Call at the end of a top-level decode to reject trailing garbage.
  void expect_done() const {
    if (!done()) throw SerdeError("trailing bytes after message");
  }

 private:
  BytesView take(std::size_t count) {
    if (count > remaining()) throw SerdeError("unexpected end of input");
    const BytesView view = data_.subspan(pos_, count);
    pos_ += count;
    return view;
  }

  std::uint64_t read_le(int width) {
    const BytesView view = take(width);
    std::uint64_t v = 0;
    for (int i = width - 1; i >= 0; --i) v = v << 8 | view[i];
    return v;
  }

  BytesView data_;
  std::size_t pos_ = 0;
};

}  // namespace mahimahi::serde
