// Time representation shared by the simulator and the real runtime.
//
// All protocol-visible timestamps are microseconds held in a signed 64-bit
// integer. The simulator supplies virtual time; the TCP runtime supplies
// steady-clock time. The validator core never reads a clock itself (sans-IO),
// it is always told the current time by its driver.
#pragma once

#include <chrono>
#include <cstdint>

namespace mahimahi {

using TimeMicros = std::int64_t;

constexpr TimeMicros kMicrosPerMilli = 1000;
constexpr TimeMicros kMicrosPerSecond = 1000 * 1000;

constexpr TimeMicros millis(std::int64_t ms) { return ms * kMicrosPerMilli; }
constexpr TimeMicros seconds(double s) { return static_cast<TimeMicros>(s * kMicrosPerSecond); }
inline double to_seconds(TimeMicros t) { return static_cast<double>(t) / kMicrosPerSecond; }

// Steady-clock now, for the real (non-simulated) runtime.
inline TimeMicros steady_now_micros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace mahimahi
