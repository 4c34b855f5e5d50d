// Strongly-typed byte, time and bandwidth units used across the simulator.
//
// Simulated time is held as integer nanoseconds so that event ordering is
// exact and runs are bit-reproducible; bandwidths are double bytes/second
// because they only ever scale durations.
#pragma once

#include <cstdint>
#include <compare>
#include <limits>
#include <string>

namespace grout {

// ---------------------------------------------------------------------------
// Tenants
// ---------------------------------------------------------------------------

/// Identifies the serving tenant a CE / trace span / allocation belongs to.
/// Lives here (not in serve/) because it is threaded through every layer:
/// kernel specs, the wire format, trace spans and governor accounting.
using TenantId = std::uint32_t;

/// Work that predates or bypasses the serving frontend (single-program runs).
inline constexpr TenantId kNoTenant = 0xffffffffu;

// ---------------------------------------------------------------------------
// Bytes
// ---------------------------------------------------------------------------

using Bytes = std::uint64_t;

inline constexpr Bytes operator""_KiB(unsigned long long v) { return Bytes{v} << 10; }
inline constexpr Bytes operator""_MiB(unsigned long long v) { return Bytes{v} << 20; }
inline constexpr Bytes operator""_GiB(unsigned long long v) { return Bytes{v} << 30; }

/// Human readable byte count, e.g. "1.50 GiB".
std::string format_bytes(Bytes b);

// ---------------------------------------------------------------------------
// SimTime: integer nanoseconds since simulation start.
// ---------------------------------------------------------------------------

class SimTime {
 public:
  constexpr SimTime() = default;
  static constexpr SimTime from_ns(std::int64_t ns) { return SimTime{ns}; }
  static constexpr SimTime from_us(double us) {
    return SimTime{static_cast<std::int64_t>(us * 1e3)};
  }
  static constexpr SimTime from_ms(double ms) {
    return SimTime{static_cast<std::int64_t>(ms * 1e6)};
  }
  static constexpr SimTime from_seconds(double s) {
    return SimTime{static_cast<std::int64_t>(s * 1e9)};
  }
  static constexpr SimTime zero() { return SimTime{0}; }
  static constexpr SimTime max() {
    return SimTime{std::numeric_limits<std::int64_t>::max()};
  }

  [[nodiscard]] constexpr std::int64_t ns() const { return ns_; }
  [[nodiscard]] constexpr double us() const { return static_cast<double>(ns_) * 1e-3; }
  [[nodiscard]] constexpr double ms() const { return static_cast<double>(ns_) * 1e-6; }
  [[nodiscard]] constexpr double seconds() const { return static_cast<double>(ns_) * 1e-9; }

  constexpr auto operator<=>(const SimTime&) const = default;

  constexpr SimTime& operator+=(SimTime other) {
    ns_ += other.ns_;
    return *this;
  }
  constexpr SimTime& operator-=(SimTime other) {
    ns_ -= other.ns_;
    return *this;
  }
  friend constexpr SimTime operator+(SimTime a, SimTime b) { return SimTime{a.ns_ + b.ns_}; }
  friend constexpr SimTime operator-(SimTime a, SimTime b) { return SimTime{a.ns_ - b.ns_}; }
  friend constexpr SimTime operator*(SimTime a, std::int64_t k) { return SimTime{a.ns_ * k}; }
  friend constexpr SimTime operator*(std::int64_t k, SimTime a) { return a * k; }

 private:
  constexpr explicit SimTime(std::int64_t ns) : ns_{ns} {}
  std::int64_t ns_{0};
};

/// Human readable duration, e.g. "12.3 ms".
std::string format_time(SimTime t);

// ---------------------------------------------------------------------------
// Bandwidth: bytes per second.
// ---------------------------------------------------------------------------

class Bandwidth {
 public:
  constexpr Bandwidth() = default;
  static constexpr Bandwidth bytes_per_sec(double v) { return Bandwidth{v}; }
  static constexpr Bandwidth gib_per_sec(double v) { return Bandwidth{v * 1073741824.0}; }
  static constexpr Bandwidth mib_per_sec(double v) { return Bandwidth{v * 1048576.0}; }
  /// Network convention: 1 Mbit = 1e6 bits.
  static constexpr Bandwidth mbit_per_sec(double v) { return Bandwidth{v * 1e6 / 8.0}; }

  [[nodiscard]] constexpr double bps() const { return bytes_per_sec_; }
  [[nodiscard]] constexpr bool valid() const { return bytes_per_sec_ > 0.0; }

  /// Time to move `b` bytes at this bandwidth (no latency component).
  [[nodiscard]] SimTime transfer_time(Bytes b) const;

  constexpr auto operator<=>(const Bandwidth&) const = default;

 private:
  constexpr explicit Bandwidth(double v) : bytes_per_sec_{v} {}
  double bytes_per_sec_{0.0};
};

}  // namespace grout
