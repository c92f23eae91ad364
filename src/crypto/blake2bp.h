// BLAKE2bp-256: BLAKE2b as a four-leaf tree (the 4-way parallel mode of the
// BLAKE2 specification), used for the bulk digest: block content.
//
// The input is cut into 128-byte blocks dealt round-robin to four leaves
// (fanout 4, depth 2, inner length 64, node offset = leaf index). Each leaf
// is a BLAKE2b node with a 64-byte output, and a root node (node depth 1)
// hashes the four leaf outputs into the 32-byte digest. The last leaf and the
// root carry the last-node flag. The leaves advance in lock step, so on hosts
// with AVX2 one kernel compresses each full 512-byte stripe (one block per
// leaf) in four 64-bit lanes; every other host runs the same leaves through
// the scalar BLAKE2b compression. Both paths give the same digest.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/bytes.h"
#include "crypto/digest.h"

namespace mahimahi::crypto {

class Blake2bp {
 public:
  static constexpr std::size_t kLeaves = 4;
  static constexpr std::size_t kStripeSize = 4 * 128;

  // Uses the AVX2 stripe kernel where the host has it (checked once).
  Blake2bp();

  void update(BytesView data);
  Digest finish();

  static Digest hash256(BytesView data);
  // The same digest through the scalar leaves on any host: the reference
  // that tests and the micro bench hold the kernel against.
  static Digest hash256_portable(BytesView data);
  // Whether hash256 runs the AVX2 stripe kernel on this host.
  static bool vectorized();

  // Leaf chaining values, word-major: h[word][leaf].
  using LaneState = std::uint64_t[8][kLeaves];
  // Compresses `stripes` consecutive full stripes, none of them a leaf's
  // last block; `counter` is each leaf's byte count before the first.
  using StripeKernel = void (*)(LaneState& h, const std::uint8_t* data, std::size_t stripes,
                                std::uint64_t counter);

 private:
  explicit Blake2bp(StripeKernel kernel);
  // Compresses the held stripe and all of `data`'s stripes but the last,
  // which becomes the held one.
  void push_stripes(const std::uint8_t* data, std::size_t stripes);

  StripeKernel kernel_;
  alignas(32) LaneState h_;
  // The last full stripe seen: it holds every leaf's last block until more
  // input shows that it does not.
  std::array<std::uint8_t, kStripeSize> held_;
  bool holding_ = false;
  std::array<std::uint8_t, kStripeSize> buffer_;
  std::size_t buffered_ = 0;
  std::uint64_t counter_ = 0;  // bytes compressed per leaf (all leaves equal)
};

// Inputs shorter than this many bytes are digested with plain BLAKE2b-256,
// longer ones with BLAKE2bp-256. The tree pays six compressions beyond the
// input's own (four leaf finals, two root blocks), which plain BLAKE2b only
// earns back once the stripe kernel has enough bytes to run on: on an AVX2
// x86-64 host bench_micro_crypto reads BM_Blake2b256 and BM_Blake2bp256
// within noise of each other at 1 KiB, the tree 1.3x faster at 2 KiB and
// 1.9x at 4 KiB. Below the crossover sit sub-KiB batch payloads and the
// block preimages of small committees (genesis, an n = 4 block without
// declared keys: ~350 bytes, BM_BlockDeserialize/0); at n = 50 a preimage's
// 34+ parent refs alone put it above. The two parameter blocks keep the
// digests domain-separated.
inline constexpr std::size_t kBulkHashCrossover = 1024;

// The 32-byte digest of `data`: BLAKE2b-256 below kBulkHashCrossover bytes,
// BLAKE2bp-256 at or above it.
Digest bulk_hash256(BytesView data);

}  // namespace mahimahi::crypto
