#include "crypto/blake2b.h"

#include <bit>
#include <cassert>
#include <cstring>
#include <utility>

#include "crypto/blake2b_core.h"

namespace mahimahi::crypto {

namespace {

using blake2b_core::kIv;
using blake2b_core::kSigma;

inline std::uint64_t load_le64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));  // little-endian host assumed (x86-64)
  return v;
}

[[gnu::always_inline]] inline void g(std::uint64_t& a, std::uint64_t& b, std::uint64_t& c,
                                     std::uint64_t& d, std::uint64_t x, std::uint64_t y) {
  a = a + b + x;
  d = std::rotr(d ^ a, 32);
  c = c + d;
  b = std::rotr(b ^ c, 24);
  a = a + b + y;
  d = std::rotr(d ^ a, 16);
  c = c + d;
  b = std::rotr(b ^ c, 63);
}

// One round with its message schedule fixed at compile time, so the fully
// unrolled compression indexes m[] with constants and keeps v[] in registers.
template <std::size_t R>
[[gnu::always_inline]] inline void round(std::uint64_t (&v)[16], const std::uint64_t (&m)[16]) {
  constexpr const std::uint8_t(&s)[16] = kSigma[R % 10];
  g(v[0], v[4], v[8], v[12], m[s[0]], m[s[1]]);
  g(v[1], v[5], v[9], v[13], m[s[2]], m[s[3]]);
  g(v[2], v[6], v[10], v[14], m[s[4]], m[s[5]]);
  g(v[3], v[7], v[11], v[15], m[s[6]], m[s[7]]);
  g(v[0], v[5], v[10], v[15], m[s[8]], m[s[9]]);
  g(v[1], v[6], v[11], v[12], m[s[10]], m[s[11]]);
  g(v[2], v[7], v[8], v[13], m[s[12]], m[s[13]]);
  g(v[3], v[4], v[9], v[14], m[s[14]], m[s[15]]);
}

template <std::size_t... R>
[[gnu::always_inline]] inline void rounds(std::uint64_t (&v)[16], const std::uint64_t (&m)[16],
                                          std::index_sequence<R...>) {
  (round<R>(v, m), ...);
}

}  // namespace

Blake2b::Blake2b(std::size_t digest_size, BytesView key) : digest_size_(digest_size) {
  assert(digest_size_ >= 1 && digest_size_ <= kMaxDigestSize);
  assert(key.size() <= 64);
  h_ = kIv;
  // Parameter block word 0: digest length, key length, fanout = depth = 1.
  h_[0] ^= 0x01010000ULL ^ (static_cast<std::uint64_t>(key.size()) << 8) ^
           static_cast<std::uint64_t>(digest_size_);
  if (!key.empty()) {
    std::array<std::uint8_t, kBlockSize> key_block{};
    std::memcpy(key_block.data(), key.data(), key.size());
    update({key_block.data(), key_block.size()});
  }
}

namespace blake2b_core {

void compress(std::array<std::uint64_t, 8>& h, const std::uint8_t* block,
              std::uint64_t counter, bool last, bool last_node) {
  std::uint64_t m[16];
  for (int i = 0; i < 16; ++i) m[i] = load_le64(block + 8 * i);

  std::uint64_t v[16];
  for (int i = 0; i < 8; ++i) v[i] = h[i];
  for (int i = 0; i < 8; ++i) v[8 + i] = kIv[i];
  v[12] ^= counter;  // low word of the byte counter; high word is zero
  if (last) v[14] = ~v[14];
  if (last_node) v[15] = ~v[15];

  rounds(v, m, std::make_index_sequence<12>{});

  for (int i = 0; i < 8; ++i) h[i] ^= v[i] ^ v[8 + i];
}

}  // namespace blake2b_core

void Blake2b::update(BytesView data) {
  // The final block must be compressed with the `last` flag set in finish(),
  // so a block is only compressed once more input follows it.
  const std::uint8_t* in = data.data();
  std::size_t size = data.size();
  if (size == 0) return;
  if (buffered_ > 0) {
    const std::size_t take = std::min(kBlockSize - buffered_, size);
    std::memcpy(buffer_.data() + buffered_, in, take);
    buffered_ += take;
    in += take;
    size -= take;
    if (size == 0) return;
    counter_ += kBlockSize;
    blake2b_core::compress(h_, buffer_.data(), counter_, /*last=*/false);
    buffered_ = 0;
  }
  // Whole blocks straight from the input, no staging copy.
  while (size > kBlockSize) {
    counter_ += kBlockSize;
    blake2b_core::compress(h_, in, counter_, /*last=*/false);
    in += kBlockSize;
    size -= kBlockSize;
  }
  std::memcpy(buffer_.data(), in, size);
  buffered_ = size;
}

void Blake2b::finish(std::uint8_t* out) {
  counter_ += buffered_;
  std::memset(buffer_.data() + buffered_, 0, kBlockSize - buffered_);
  blake2b_core::compress(h_, buffer_.data(), counter_, /*last=*/true);
  std::uint8_t full[kMaxDigestSize];
  for (int i = 0; i < 8; ++i) std::memcpy(full + 8 * i, &h_[i], 8);
  std::memcpy(out, full, digest_size_);
}

Digest Blake2b::hash256(BytesView data) {
  Blake2b h(32);
  h.update(data);
  Digest d;
  h.finish(d.bytes.data());
  return d;
}

std::array<std::uint8_t, 64> Blake2b::hash512(BytesView data) {
  Blake2b h(64);
  h.update(data);
  std::array<std::uint8_t, 64> d;
  h.finish(d.data());
  return d;
}

Digest Blake2b::mac256(BytesView key, BytesView data) {
  Blake2b h(32, key);
  h.update(data);
  Digest d;
  h.finish(d.bytes.data());
  return d;
}

}  // namespace mahimahi::crypto
