#include "common/crc32.h"

#include <array>

namespace mahimahi {

namespace {

// Slice-by-16 tables: kTables[0] is the classic bytewise table of the
// reflected IEEE polynomial; kTables[k][i] advances kTables[k-1][i] by one
// more zero byte, so one 16-byte stride costs 16 independent lookups instead
// of a 16-step dependency chain.
using Tables = std::array<std::array<std::uint32_t, 256>, 16>;

constexpr Tables build_tables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
    }
  }
  return t;
}

constexpr Tables kTables = build_tables();

// Little-endian regardless of the host (one load on x86-64 and AArch64).
inline std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t crc32_init() { return 0xffffffffu; }

std::uint32_t crc32_update(std::uint32_t state, BytesView data) {
  const auto& t = kTables;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 16; p += 16, n -= 16) {
    const std::uint32_t a = load_le32(p) ^ state;
    const std::uint32_t b = load_le32(p + 4);
    const std::uint32_t c = load_le32(p + 8);
    const std::uint32_t d = load_le32(p + 12);
    state = t[15][a & 0xff] ^ t[14][(a >> 8) & 0xff] ^ t[13][(a >> 16) & 0xff] ^
            t[12][a >> 24] ^ t[11][b & 0xff] ^ t[10][(b >> 8) & 0xff] ^
            t[9][(b >> 16) & 0xff] ^ t[8][b >> 24] ^ t[7][c & 0xff] ^
            t[6][(c >> 8) & 0xff] ^ t[5][(c >> 16) & 0xff] ^ t[4][c >> 24] ^
            t[3][d & 0xff] ^ t[2][(d >> 8) & 0xff] ^ t[1][(d >> 16) & 0xff] ^ t[0][d >> 24];
  }
  for (; n > 0; ++p, --n) state = t[0][(state ^ *p) & 0xff] ^ (state >> 8);
  return state;
}

std::uint32_t crc32_finish(std::uint32_t state) { return state ^ 0xffffffffu; }

std::uint32_t crc32(BytesView data) {
  return crc32_finish(crc32_update(crc32_init(), data));
}

}  // namespace mahimahi
