// The BLAKE2b compression function and its constants (RFC 7693 §2.6, §3.2),
// shared by the sequential hash (blake2b.cpp) and the four-leaf tree hash
// (blake2bp.cpp). Internal to src/crypto.
#pragma once

#include <array>
#include <cstdint>

namespace mahimahi::crypto::blake2b_core {

inline constexpr std::array<std::uint64_t, 8> kIv = {
    0x6a09e667f3bcc908ULL, 0xbb67ae8584caa73bULL, 0x3c6ef372fe94f82bULL,
    0xa54ff53a5f1d36f1ULL, 0x510e527fade682d1ULL, 0x9b05688c2b3e6c1fULL,
    0x1f83d9abfb41bd6bULL, 0x5be0cd19137e2179ULL};

inline constexpr std::uint8_t kSigma[10][16] = {
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

// Compresses the 128-byte block at `block` (read in place) into `h`.
// `counter` is the node's byte count through this block; `last` and
// `last_node` are the two finalization flags f0 and f1.
void compress(std::array<std::uint64_t, 8>& h, const std::uint8_t* block,
              std::uint64_t counter, bool last, bool last_node = false);

}  // namespace mahimahi::crypto::blake2b_core
