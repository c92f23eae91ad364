// Test-only reference BLAKE2b (RFC 7693): the library's implementation before
// it compressed straight from the input with unrolled rounds — every byte
// staged through the block buffer, rounds looped over a runtime sigma table.
// The differential tests check the fast code against it byte for byte.
//
// It also takes a full parameter block and the last-node flag, so
// blake2bp_reference below builds the four-leaf tree hash (BLAKE2bp) out of
// it the way the BLAKE2 specification describes it, one sequential node at a
// time.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>

#include "common/bytes.h"

namespace mahimahi::crypto::oracle {

// The tree fields of the parameter block (RFC 7693 §2.8; sequential mode is
// fanout = depth = 1 and zeros).
struct TreeParams {
  std::uint8_t fanout = 1;
  std::uint8_t depth = 1;
  std::uint64_t node_offset = 0;
  std::uint8_t node_depth = 0;
  std::uint8_t inner_length = 0;
};

class Blake2bReference {
 public:
  // `digest_size` is the parameter block's digest length; `output_size` (0 =
  // the same) is how many bytes finish() returns: a BLAKE2bp leaf declares
  // the tree's digest length but outputs its full 64-byte chaining value.
  explicit Blake2bReference(std::size_t digest_size, BytesView key = {},
                            TreeParams tree = {}, bool last_node = false,
                            std::size_t output_size = 0)
      : digest_size_(output_size != 0 ? output_size : digest_size), last_node_(last_node) {
    // Serialize the parameter block byte by byte, then XOR it into the IV.
    std::array<std::uint8_t, 64> param{};
    param[0] = static_cast<std::uint8_t>(digest_size);
    param[1] = static_cast<std::uint8_t>(key.size());
    param[2] = tree.fanout;
    param[3] = tree.depth;
    for (int i = 0; i < 8; ++i) {
      param[8 + i] = static_cast<std::uint8_t>(tree.node_offset >> (8 * i));
    }
    param[16] = tree.node_depth;
    param[17] = tree.inner_length;
    h_ = kIv;
    for (int i = 0; i < 8; ++i) {
      std::uint64_t word;
      std::memcpy(&word, param.data() + 8 * i, 8);
      h_[i] ^= word;
    }
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
    if (last && last_node_) v[15] = ~v[15];
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
  bool last_node_;
};

// BLAKE2bp with a `digest_size`-byte output: 128-byte blocks dealt
// round-robin to four leaves (fanout 4, depth 2, inner length 64, node offset
// = leaf index, the last leaf flagged as the last node), and a root (node
// depth 1, last node) over the four 64-byte leaf outputs.
inline Bytes blake2bp_reference(BytesView data, std::size_t digest_size) {
  constexpr std::uint8_t kLeaves = 4;
  Bytes leaf_outputs;
  for (std::uint8_t leaf = 0; leaf < kLeaves; ++leaf) {
    Blake2bReference node(digest_size, {}, {kLeaves, 2, leaf, 0, 64},
                          /*last_node=*/leaf == kLeaves - 1, /*output_size=*/64);
    for (std::size_t offset = 128 * leaf; offset < data.size(); offset += 128 * kLeaves) {
      node.update(data.subspan(offset, std::min<std::size_t>(128, data.size() - offset)));
    }
    const Bytes out = node.finish();
    leaf_outputs.insert(leaf_outputs.end(), out.begin(), out.end());
  }
  Blake2bReference root(digest_size, {}, {kLeaves, 2, 0, 1, 64}, /*last_node=*/true);
  root.update({leaf_outputs.data(), leaf_outputs.size()});
  return root.finish();
}

}  // namespace mahimahi::crypto::oracle
