// Test-only reference BLAKE2b (RFC 7693): the library's implementation before
// it compressed straight from the input with unrolled rounds — every byte
// staged through the block buffer, rounds looped over a runtime sigma table.
// The differential tests check the fast code against it byte for byte.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>

#include "common/bytes.h"

namespace mahimahi::crypto::oracle {

class Blake2bReference {
 public:
  explicit Blake2bReference(std::size_t digest_size, BytesView key = {})
      : digest_size_(digest_size) {
    h_ = kIv;
    h_[0] ^= 0x01010000ULL ^ (static_cast<std::uint64_t>(key.size()) << 8) ^ digest_size_;
    if (!key.empty()) {
      std::array<std::uint8_t, 128> key_block{};
      std::memcpy(key_block.data(), key.data(), key.size());
      update({key_block.data(), key_block.size()});
    }
  }

  void update(BytesView data) {
    std::size_t offset = 0;
    while (offset < data.size()) {
      if (buffered_ == 128) {
        counter_ += 128;
        compress(false);
        buffered_ = 0;
      }
      const std::size_t take = std::min<std::size_t>(128 - buffered_, data.size() - offset);
      std::memcpy(buffer_.data() + buffered_, data.data() + offset, take);
      buffered_ += take;
      offset += take;
    }
  }

  Bytes finish() {
    counter_ += buffered_;
    std::memset(buffer_.data() + buffered_, 0, 128 - buffered_);
    compress(true);
    Bytes out(64);
    std::memcpy(out.data(), h_.data(), 64);
    out.resize(digest_size_);
    return out;
  }

 private:
  static constexpr std::array<std::uint64_t, 8> kIv = {
      0x6a09e667f3bcc908ULL, 0xbb67ae8584caa73bULL, 0x3c6ef372fe94f82bULL,
      0xa54ff53a5f1d36f1ULL, 0x510e527fade682d1ULL, 0x9b05688c2b3e6c1fULL,
      0x1f83d9abfb41bd6bULL, 0x5be0cd19137e2179ULL};
  static constexpr std::uint8_t kSigma[10][16] = {
      {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
      {14, 10, 4, 8, 9, 15, 13, 6, 1, 12, 0, 2, 11, 7, 5, 3},
      {11, 8, 12, 0, 5, 2, 15, 13, 10, 14, 3, 6, 7, 1, 9, 4},
      {7, 9, 3, 1, 13, 12, 11, 14, 2, 6, 5, 10, 4, 0, 15, 8},
      {9, 0, 5, 7, 2, 4, 10, 15, 14, 1, 11, 12, 6, 8, 3, 13},
      {2, 12, 6, 10, 0, 11, 8, 3, 4, 13, 7, 5, 15, 14, 1, 9},
      {12, 5, 1, 15, 14, 13, 4, 10, 0, 7, 6, 3, 9, 2, 8, 11},
      {13, 11, 7, 14, 12, 1, 3, 9, 5, 0, 15, 4, 8, 6, 2, 10},
      {6, 15, 14, 9, 11, 3, 0, 8, 12, 2, 13, 7, 1, 4, 10, 5},
      {10, 2, 8, 4, 7, 6, 1, 5, 15, 11, 9, 14, 3, 12, 13, 0}};

  static void g(std::uint64_t& a, std::uint64_t& b, std::uint64_t& c, std::uint64_t& d,
                std::uint64_t x, std::uint64_t y) {
    a = a + b + x;
    d = std::rotr(d ^ a, 32);
    c = c + d;
    b = std::rotr(b ^ c, 24);
    a = a + b + y;
    d = std::rotr(d ^ a, 16);
    c = c + d;
    b = std::rotr(b ^ c, 63);
  }

  void compress(bool last) {
    std::uint64_t m[16];
    std::memcpy(m, buffer_.data(), 128);
    std::uint64_t v[16];
    for (int i = 0; i < 8; ++i) v[i] = h_[i];
    for (int i = 0; i < 8; ++i) v[8 + i] = kIv[i];
    v[12] ^= counter_;
    if (last) v[14] = ~v[14];
    for (int round = 0; round < 12; ++round) {
      const std::uint8_t* s = kSigma[round % 10];
      g(v[0], v[4], v[8], v[12], m[s[0]], m[s[1]]);
      g(v[1], v[5], v[9], v[13], m[s[2]], m[s[3]]);
      g(v[2], v[6], v[10], v[14], m[s[4]], m[s[5]]);
      g(v[3], v[7], v[11], v[15], m[s[6]], m[s[7]]);
      g(v[0], v[5], v[10], v[15], m[s[8]], m[s[9]]);
      g(v[1], v[6], v[11], v[12], m[s[10]], m[s[11]]);
      g(v[2], v[7], v[8], v[13], m[s[12]], m[s[13]]);
      g(v[3], v[4], v[9], v[14], m[s[14]], m[s[15]]);
    }
    for (int i = 0; i < 8; ++i) h_[i] ^= v[i] ^ v[8 + i];
  }

  std::array<std::uint64_t, 8> h_;
  std::array<std::uint8_t, 128> buffer_{};
  std::size_t buffered_ = 0;
  std::uint64_t counter_ = 0;
  std::size_t digest_size_;
};

}  // namespace mahimahi::crypto::oracle
