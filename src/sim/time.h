// Simulated time.
//
// All model time is kept as integer microseconds so that runs are exactly
// reproducible and event ordering is never subject to floating-point noise.
// The paper's parameters (milliseconds and seconds) are exact in this base.
#ifndef CCSIM_SIM_TIME_H_
#define CCSIM_SIM_TIME_H_

#include <cstdint>

#include "util/check.h"

namespace ccsim {

/// Simulated time in microseconds since simulation start.
using SimTime = int64_t;

inline constexpr SimTime kMicrosecond = 1;
inline constexpr SimTime kMillisecond = 1000;
inline constexpr SimTime kSecond = 1000 * 1000;

/// Rounds a real-valued count of µs to the nearest SimTime. Durations come
/// from outside input (configs, environment variables), and casting NaN, an
/// infinity or a value past SimTime's range is undefined behaviour, so those
/// fail a check that stays on in every build.
constexpr SimTime RoundToSimTime(double micros) {
  const double rounded = micros + 0.5;
  CCSIM_CHECK(rounded >= -0x1p63 && rounded < 0x1p63)
      << "duration of " << micros << " µs is not a representable SimTime";
  return static_cast<SimTime>(rounded);
}

/// Converts (real-valued) seconds to SimTime, rounding to nearest µs.
constexpr SimTime FromSeconds(double seconds) {
  return RoundToSimTime(seconds * static_cast<double>(kSecond));
}

/// Converts milliseconds to SimTime, rounding to nearest µs.
constexpr SimTime FromMillis(double millis) {
  return RoundToSimTime(millis * static_cast<double>(kMillisecond));
}

/// Converts SimTime to seconds for reporting.
constexpr double ToSeconds(SimTime t) {
  return static_cast<double>(t) / static_cast<double>(kSecond);
}

}  // namespace ccsim

#endif  // CCSIM_SIM_TIME_H_
