// BLAKE2b (RFC 7693), implemented from scratch.
//
// The paper's implementation hashes blocks with blake2; we do the same. The
// default output is 32 bytes (block digests); a 64-byte variant and keyed
// hashing (MAC mode) are also provided.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.h"
#include "crypto/digest.h"

namespace mahimahi::crypto {

class Blake2b {
 public:
  static constexpr std::size_t kBlockSize = 128;
  static constexpr std::size_t kMaxDigestSize = 64;

  // digest_size in [1, 64]; key at most 64 bytes (empty = unkeyed).
  explicit Blake2b(std::size_t digest_size = 32, BytesView key = {});

  void update(BytesView data);

  // Writes digest_size bytes into `out`.
  void finish(std::uint8_t* out);

  // One-shot 32-byte digest (the library-wide Digest type).
  static Digest hash256(BytesView data);
  // One-shot 64-byte digest.
  static std::array<std::uint8_t, 64> hash512(BytesView data);
  // Keyed 32-byte MAC.
  static Digest mac256(BytesView key, BytesView data);

 private:
  std::array<std::uint64_t, 8> h_;
  std::array<std::uint8_t, kBlockSize> buffer_{};
  std::size_t buffered_ = 0;
  std::uint64_t counter_ = 0;  // bytes compressed so far (fits 64 bits here)
  std::size_t digest_size_;
};

}  // namespace mahimahi::crypto
