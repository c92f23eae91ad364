#include "crypto/blake2bp.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "crypto/blake2b.h"
#include "crypto/blake2b_core.h"

namespace mahimahi::crypto {

namespace {

using blake2b_core::kIv;

constexpr std::size_t kBlockSize = 128;

// Parameter block words 0 and 2 (RFC 7693 §2.8 layout; word 1 is the node
// offset). Word 0: digest length 32, key length 0, fanout 4, depth 2,
// leaf length 0. Word 2: node depth (0 leaves, 1 root), inner length 64.
constexpr std::uint64_t kParamWord0 = 32 | (4 << 16) | (2 << 24);
constexpr std::uint64_t kLeafParamWord2 = 64 << 8;
constexpr std::uint64_t kRootParamWord2 = kLeafParamWord2 | 1;

void stripes_portable(Blake2bp::LaneState& h, const std::uint8_t* data, std::size_t stripes,
                      std::uint64_t counter) {
  for (std::size_t s = 0; s < stripes; ++s) {
    counter += kBlockSize;
    for (std::size_t leaf = 0; leaf < Blake2bp::kLeaves; ++leaf) {
      std::array<std::uint64_t, 8> words;
      for (int w = 0; w < 8; ++w) words[w] = h[w][leaf];
      blake2b_core::compress(words, data + s * Blake2bp::kStripeSize + leaf * kBlockSize,
                             counter, /*last=*/false);
      for (int w = 0; w < 8; ++w) h[w][leaf] = words[w];
    }
  }
}

#if defined(__x86_64__)

// The AVX2 kernel: word w of all four leaves in one 256-bit vector, so one
// pass of the BLAKE2b rounds compresses a whole stripe. GCC vector
// extensions under a target attribute keep the kernel in plain C++ and out of
// the baseline build's instruction set; the dispatch below runs it only where
// the CPU has AVX2. Without AVX2 the compiler lowers the same source to SSE2
// pairs, about 8x slower than the scalar compression.
using U64x4 = std::uint64_t __attribute__((vector_size(32)));
using U32x8 = std::uint32_t __attribute__((vector_size(32)));
using U8x32 = std::uint8_t __attribute__((vector_size(32)));

#define MM_AVX2_INLINE [[gnu::target("avx2"), gnu::always_inline]] inline

MM_AVX2_INLINE U64x4 load4(const std::uint8_t* p) {
  U64x4 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

MM_AVX2_INLINE U64x4 splat(std::uint64_t x) { return U64x4{x, x, x, x}; }

MM_AVX2_INLINE U64x4 rotr32(U64x4 x) {
  return (U64x4)__builtin_shufflevector((U32x8)x, (U32x8)x, 1, 0, 3, 2, 5, 4, 7, 6);
}

// Rotations by whole bytes are byte shuffles within each 64-bit lane.
MM_AVX2_INLINE U64x4 rotr24(U64x4 x) {
  return (U64x4)__builtin_shufflevector((U8x32)x, (U8x32)x,  //
                                        3, 4, 5, 6, 7, 0, 1, 2, 11, 12, 13, 14, 15, 8, 9, 10,
                                        19, 20, 21, 22, 23, 16, 17, 18, 27, 28, 29, 30, 31, 24,
                                        25, 26);
}

MM_AVX2_INLINE U64x4 rotr16(U64x4 x) {
  return (U64x4)__builtin_shufflevector((U8x32)x, (U8x32)x,  //
                                        2, 3, 4, 5, 6, 7, 0, 1, 10, 11, 12, 13, 14, 15, 8, 9,
                                        18, 19, 20, 21, 22, 23, 16, 17, 26, 27, 28, 29, 30, 31,
                                        24, 25);
}

MM_AVX2_INLINE U64x4 rotr63(U64x4 x) { return (x >> 63) | (x + x); }

MM_AVX2_INLINE void g4(U64x4& a, U64x4& b, U64x4& c, U64x4& d, U64x4 x, U64x4 y) {
  a = a + b + x;
  d = rotr32(d ^ a);
  c = c + d;
  b = rotr24(b ^ c);
  a = a + b + y;
  d = rotr16(d ^ a);
  c = c + d;
  b = rotr63(b ^ c);
}

template <std::size_t R>
MM_AVX2_INLINE void round4(U64x4 (&v)[16], const U64x4 (&m)[16]) {
  constexpr const std::uint8_t(&s)[16] = blake2b_core::kSigma[R % 10];
  g4(v[0], v[4], v[8], v[12], m[s[0]], m[s[1]]);
  g4(v[1], v[5], v[9], v[13], m[s[2]], m[s[3]]);
  g4(v[2], v[6], v[10], v[14], m[s[4]], m[s[5]]);
  g4(v[3], v[7], v[11], v[15], m[s[6]], m[s[7]]);
  g4(v[0], v[5], v[10], v[15], m[s[8]], m[s[9]]);
  g4(v[1], v[6], v[11], v[12], m[s[10]], m[s[11]]);
  g4(v[2], v[7], v[8], v[13], m[s[12]], m[s[13]]);
  g4(v[3], v[4], v[9], v[14], m[s[14]], m[s[15]]);
}

template <std::size_t... R>
MM_AVX2_INLINE void rounds4(U64x4 (&v)[16], const U64x4 (&m)[16], std::index_sequence<R...>) {
  (round4<R>(v, m), ...);
}

// Message word j of the four blocks: a 4x4 transpose of 64-bit words per
// group of four, from the blocks at stripe + 128 * leaf.
MM_AVX2_INLINE void load_messages(U64x4 (&m)[16], const std::uint8_t* stripe) {
  for (int j = 0; j < 16; j += 4) {
    const U64x4 a = load4(stripe + 8 * j);
    const U64x4 b = load4(stripe + kBlockSize + 8 * j);
    const U64x4 c = load4(stripe + 2 * kBlockSize + 8 * j);
    const U64x4 d = load4(stripe + 3 * kBlockSize + 8 * j);
    const U64x4 ab_even = __builtin_shufflevector(a, b, 0, 4, 2, 6);
    const U64x4 ab_odd = __builtin_shufflevector(a, b, 1, 5, 3, 7);
    const U64x4 cd_even = __builtin_shufflevector(c, d, 0, 4, 2, 6);
    const U64x4 cd_odd = __builtin_shufflevector(c, d, 1, 5, 3, 7);
    m[j] = __builtin_shufflevector(ab_even, cd_even, 0, 1, 4, 5);
    m[j + 1] = __builtin_shufflevector(ab_odd, cd_odd, 0, 1, 4, 5);
    m[j + 2] = __builtin_shufflevector(ab_even, cd_even, 2, 3, 6, 7);
    m[j + 3] = __builtin_shufflevector(ab_odd, cd_odd, 2, 3, 6, 7);
  }
}

[[gnu::target("avx2")]] void stripes_avx2(Blake2bp::LaneState& h, const std::uint8_t* data,
                                          std::size_t stripes, std::uint64_t counter) {
  U64x4 hv[8];
  for (int w = 0; w < 8; ++w) std::memcpy(&hv[w], h[w], sizeof(hv[w]));
  for (std::size_t s = 0; s < stripes; ++s) {
    counter += kBlockSize;
    U64x4 m[16];
    load_messages(m, data + s * Blake2bp::kStripeSize);
    U64x4 v[16];
    for (int i = 0; i < 8; ++i) v[i] = hv[i];
    for (int i = 0; i < 8; ++i) v[8 + i] = splat(kIv[i]);
    v[12] ^= splat(counter);
    rounds4(v, m, std::make_index_sequence<12>{});
    for (int i = 0; i < 8; ++i) hv[i] ^= v[i] ^ v[8 + i];
  }
  for (int w = 0; w < 8; ++w) std::memcpy(h[w], &hv[w], sizeof(hv[w]));
}

#undef MM_AVX2_INLINE

Blake2bp::StripeKernel dispatched_kernel() {
  static const Blake2bp::StripeKernel kernel = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") ? &stripes_avx2 : &stripes_portable;
  }();
  return kernel;
}

#else

Blake2bp::StripeKernel dispatched_kernel() { return &stripes_portable; }

#endif

}  // namespace

Blake2bp::Blake2bp() : Blake2bp(dispatched_kernel()) {}

Blake2bp::Blake2bp(StripeKernel kernel) : kernel_(kernel) {
  for (std::size_t leaf = 0; leaf < kLeaves; ++leaf) {
    for (int w = 0; w < 8; ++w) h_[w][leaf] = kIv[w];
    h_[0][leaf] ^= kParamWord0;
    h_[1][leaf] ^= leaf;  // node offset
    h_[2][leaf] ^= kLeafParamWord2;
  }
}

void Blake2bp::push_stripes(const std::uint8_t* data, std::size_t stripes) {
  if (holding_) {
    kernel_(h_, held_.data(), 1, counter_);
    counter_ += kBlockSize;
  }
  kernel_(h_, data, stripes - 1, counter_);
  counter_ += (stripes - 1) * kBlockSize;
  std::memcpy(held_.data(), data + (stripes - 1) * kStripeSize, kStripeSize);
  holding_ = true;
}

void Blake2bp::update(BytesView data) {
  const std::uint8_t* in = data.data();
  std::size_t size = data.size();
  if (size == 0) return;
  if (buffered_ > 0) {
    const std::size_t take = std::min(kStripeSize - buffered_, size);
    std::memcpy(buffer_.data() + buffered_, in, take);
    buffered_ += take;
    in += take;
    size -= take;
    if (buffered_ < kStripeSize) return;
    push_stripes(buffer_.data(), 1);
    buffered_ = 0;
  }
  // Whole stripes straight from the input, no staging copy.
  if (const std::size_t stripes = size / kStripeSize; stripes > 0) {
    push_stripes(in, stripes);
    in += stripes * kStripeSize;
    size -= stripes * kStripeSize;
  }
  std::memcpy(buffer_.data(), in, size);
  buffered_ = size;
}

Digest Blake2bp::finish() {
  // Each leaf's last block is its block in the buffered partial stripe, if
  // the partial stripe reaches it, else its block in the held stripe; a leaf
  // that never got a byte finishes on an empty block.
  std::memset(buffer_.data() + buffered_, 0, kStripeSize - buffered_);
  std::array<std::uint8_t, kLeaves * 64> leaf_digests;
  for (std::size_t leaf = 0; leaf < kLeaves; ++leaf) {
    std::array<std::uint64_t, 8> h;
    for (int w = 0; w < 8; ++w) h[w] = h_[w][leaf];
    const std::size_t offset = leaf * kBlockSize;
    const bool in_buffer = buffered_ > offset;
    const bool last_node = leaf == kLeaves - 1;
    std::uint64_t counter = counter_;
    if (holding_) {
      counter += kBlockSize;
      blake2b_core::compress(h, held_.data() + offset, counter, !in_buffer,
                             last_node && !in_buffer);
    }
    if (in_buffer || !holding_) {
      counter += in_buffer ? std::min(kBlockSize, buffered_ - offset) : 0;
      blake2b_core::compress(h, buffer_.data() + offset, counter, /*last=*/true, last_node);
    }
    std::memcpy(leaf_digests.data() + leaf * 64, h.data(), 64);
  }

  std::array<std::uint64_t, 8> root = kIv;
  root[0] ^= kParamWord0;
  root[2] ^= kRootParamWord2;
  blake2b_core::compress(root, leaf_digests.data(), kBlockSize, /*last=*/false);
  blake2b_core::compress(root, leaf_digests.data() + kBlockSize, 2 * kBlockSize,
                         /*last=*/true, /*last_node=*/true);
  Digest digest;
  std::memcpy(digest.bytes.data(), root.data(), digest.bytes.size());
  return digest;
}

Digest Blake2bp::hash256(BytesView data) {
  Blake2bp h;
  h.update(data);
  return h.finish();
}

Digest Blake2bp::hash256_portable(BytesView data) {
  Blake2bp h(&stripes_portable);
  h.update(data);
  return h.finish();
}

bool Blake2bp::vectorized() { return dispatched_kernel() != &stripes_portable; }

Digest bulk_hash256(BytesView data) {
  return data.size() < kBulkHashCrossover ? Blake2b::hash256(data) : Blake2bp::hash256(data);
}

}  // namespace mahimahi::crypto
