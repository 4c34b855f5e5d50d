#include "common/units.hpp"

#include "common/error.hpp"

#include <array>
#include <cstdio>

namespace grout {

std::string format_bytes(Bytes b) {
  static constexpr std::array<const char*, 5> kSuffix = {"B", "KiB", "MiB", "GiB", "TiB"};
  double v = static_cast<double>(b);
  std::size_t s = 0;
  while (v >= 1024.0 && s + 1 < kSuffix.size()) {
    v /= 1024.0;
    ++s;
  }
  char buf[48];
  if (s == 0) {
    std::snprintf(buf, sizeof buf, "%.0f %s", v, kSuffix[s]);
  } else {
    std::snprintf(buf, sizeof buf, "%.2f %s", v, kSuffix[s]);
  }
  return buf;
}

std::string format_time(SimTime t) {
  const double s = t.seconds();
  char buf[48];
  if (s >= 1.0) {
    std::snprintf(buf, sizeof buf, "%.3f s", s);
  } else if (s >= 1e-3) {
    std::snprintf(buf, sizeof buf, "%.3f ms", s * 1e3);
  } else if (s >= 1e-6) {
    std::snprintf(buf, sizeof buf, "%.3f us", s * 1e6);
  } else {
    std::snprintf(buf, sizeof buf, "%lld ns", static_cast<long long>(t.ns()));
  }
  return buf;
}

SimTime Bandwidth::transfer_time(Bytes b) const {
  GROUT_CHECK(valid(), "transfer over zero bandwidth");
  return SimTime::from_seconds(static_cast<double>(b) / bytes_per_sec_);
}

}  // namespace grout
