// Virtual-time representation shared by the whole library.
//
// All timing-sensitive code in rtct (the sync algorithms, the network model,
// the simulator) works on plain 64-bit nanosecond counts instead of
// std::chrono types so that values serialize directly onto the wire and the
// same arithmetic runs identically under the discrete-event simulator and
// the real-time driver.
#pragma once

#include <cstdint>
#include <string>

namespace rtct {

/// A point in time, nanoseconds since an arbitrary epoch (simulation start
/// or process start). Signed so that differences are representable directly.
using Time = std::int64_t;

/// A duration in nanoseconds. Negative durations are meaningful (e.g. the
/// paper's AdjustTimeDelta carries a *negative* lag to compensate).
using Dur = std::int64_t;

inline constexpr Dur kNanosecond = 1;
inline constexpr Dur kMicrosecond = 1000 * kNanosecond;
inline constexpr Dur kMillisecond = 1000 * kMicrosecond;
inline constexpr Dur kSecond = 1000 * kMillisecond;

constexpr Dur nanoseconds(std::int64_t n) { return n; }
constexpr Dur microseconds(std::int64_t n) { return n * kMicrosecond; }
constexpr Dur milliseconds(std::int64_t n) { return n * kMillisecond; }
constexpr Dur seconds(std::int64_t n) { return n * kSecond; }

/// Converts a duration to fractional milliseconds (for reporting only).
constexpr double to_ms(Dur d) { return static_cast<double>(d) / static_cast<double>(kMillisecond); }

/// Expected time per frame for a game that declares `cfps` frames/second.
/// The paper's CFPS is normally 60, giving 16.667 ms (§3.2).
constexpr Dur frame_period(int cfps) { return kSecond / cfps; }

/// Renders a duration as "12.345ms" for logs and reports.
std::string format_dur(Dur d);

/// The host's monotonic clock (std::chrono::steady_clock) as a Time — the
/// clock of everything that runs in real time; simulated code never reads it.
Time steady_now();

}  // namespace rtct
