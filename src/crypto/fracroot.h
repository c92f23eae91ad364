// Fractional bits of integer roots.
//
// The SHA-2 family defines its magic constants as "the first N bits of the
// fractional part of the square/cube roots of the first primes". Rather than
// transcribing 80 opaque 64-bit constants for SHA-512, we compute them with
// exact 256-bit integer arithmetic:
//
//   frac_sqrt64(p) = floor(sqrt(p) * 2^64) mod 2^64
//   frac_cbrt64(p) = floor(cbrt(p) * 2^64) mod 2^64
#pragma once

#include <array>
#include <cstdint>

namespace mahimahi::crypto {

std::uint64_t frac_sqrt64(std::uint64_t n);
std::uint64_t frac_cbrt64(std::uint64_t n);

// First `N` primes (compile-time), for the SHA-2 constant schedules.
template <std::size_t N>
constexpr std::array<std::uint32_t, N> first_primes() {
  std::array<std::uint32_t, N> primes{};
  std::size_t count = 0;
  for (std::uint32_t candidate = 2; count < N; ++candidate) {
    bool prime = true;
    for (std::uint32_t d = 2; d * d <= candidate; ++d) {
      if (candidate % d == 0) {
        prime = false;
        break;
      }
    }
    if (prime) primes[count++] = candidate;
  }
  return primes;
}

}  // namespace mahimahi::crypto
