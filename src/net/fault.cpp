#include "net/fault.hpp"

#include <charconv>
#include <cmath>

#include "common/strings.hpp"
#include "net/topology.hpp"

namespace grout::net {

namespace {

/// A finite number spelled by the whole of `s`: no unit suffix ("5ms"), no
/// trailing text, no nan/inf.
double parse_double(std::string_view s, std::string_view what) {
  double value = 0.0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  GROUT_REQUIRE(ec == std::errc{} && ptr == s.data() + s.size() && std::isfinite(value),
                std::string("fault plan: bad ") + std::string(what) + ": '" + std::string(s) +
                    "'");
  return value;
}

/// A sim time in seconds: a finite number >= 0.
SimTime parse_time(std::string_view s, std::string_view what) {
  const double sec = parse_double(s, what);
  GROUT_REQUIRE(sec >= 0.0, std::string("fault plan: ") + std::string(what) + " must be >= 0");
  return SimTime::from_seconds(sec);
}

std::uint64_t parse_uint(std::string_view s, std::string_view what) {
  std::uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  GROUT_REQUIRE(ec == std::errc{} && ptr == s.data() + s.size(),
                std::string("fault plan: bad ") + std::string(what) + ": '" + std::string(s) +
                    "'");
  return value;
}

/// Split "head@tail" (tail optional when `required` is false).
std::pair<std::string_view, std::string_view> split_at(std::string_view s, char delim) {
  const std::size_t pos = s.find(delim);
  if (pos == std::string_view::npos) return {s, {}};
  return {s.substr(0, pos), s.substr(pos + 1)};
}

}  // namespace

bool FaultPlan::empty() const {
  return kills.empty() && degrades.empty() && drop_next_controls == 0 &&
         control_drop_rate == 0.0 && control_delay == SimTime::zero();
}

FaultPlan FaultPlan::parse(const std::string& spec) {
  FaultPlan plan;
  std::string normalized = spec;
  for (char& c : normalized) {
    if (c == ';') c = ',';
  }
  for (const std::string_view raw : split(normalized, ',')) {
    const std::string_view token = trim(raw);
    if (token.empty()) continue;
    const auto [kind, rest] = split_at(token, ':');
    GROUT_REQUIRE(!rest.empty(), "fault plan: directive needs an argument: '" +
                                     std::string(token) + "'");
    if (kind == "kill") {
      const auto [worker, at] = split_at(rest, '@');
      GROUT_REQUIRE(!at.empty(), "fault plan: kill needs '@<sec>'");
      plan.kills.push_back(KillWorkerFault{
          static_cast<std::size_t>(parse_uint(worker, "kill worker")),
          parse_time(at, "kill time")});
    } else if (kind == "degrade") {
      const auto [link, at_bw] = split_at(rest, '@');
      const auto [a, b] = split_at(link, '-');
      const auto [at, mbit] = split_at(at_bw, '=');
      GROUT_REQUIRE(!b.empty() && !mbit.empty(),
                    "fault plan: degrade needs '<a>-<b>@<sec>=<mbit>'");
      const double rate = parse_double(mbit, "degrade bandwidth");
      GROUT_REQUIRE(rate >= 0.0, "fault plan: degrade bandwidth must be >= 0");
      const DegradeLinkFault degrade{static_cast<NodeId>(parse_uint(a, "degrade endpoint")),
                                     static_cast<NodeId>(parse_uint(b, "degrade endpoint")),
                                     parse_time(at, "degrade time"),
                                     Bandwidth::mbit_per_sec(rate)};
      GROUT_REQUIRE(degrade.a != degrade.b, "fault plan: degrade needs two distinct endpoints");
      plan.degrades.push_back(degrade);
    } else if (kind == "drop") {
      plan.drop_next_controls += static_cast<std::uint32_t>(parse_uint(rest, "drop count"));
    } else if (kind == "droprate") {
      const auto [rate, seed] = split_at(rest, '@');
      plan.control_drop_rate = parse_double(rate, "drop rate");
      GROUT_REQUIRE(plan.control_drop_rate >= 0.0 && plan.control_drop_rate < 1.0,
                    "fault plan: droprate must be in [0, 1)");
      if (!seed.empty()) plan.seed = parse_uint(seed, "droprate seed");
    } else if (kind == "delay") {
      const double us = parse_double(rest, "delay");
      GROUT_REQUIRE(us >= 0.0, "fault plan: delay must be >= 0");
      plan.control_delay = SimTime::from_us(us);
    } else {
      GROUT_REQUIRE(false, "fault plan: unknown directive '" + std::string(kind) + "'");
    }
  }
  return plan;
}

FaultInjector::FaultInjector(sim::Simulator& sim, NetworkFabric& fabric, FaultPlan plan)
    : sim_{sim},
      fabric_{fabric},
      plan_{std::move(plan)},
      rng_{plan_.seed},
      drops_left_{plan_.drop_next_controls} {}

void FaultInjector::arm(KillHandler on_worker_death) {
  if (drops_left_ > 0 || plan_.control_drop_rate > 0.0) {
    fabric_.set_control_fault_hook([this](NodeId, NodeId) { return should_drop_control(); });
  }
  fabric_.set_control_extra_delay(plan_.control_delay);
  for (const KillWorkerFault& kill : plan_.kills) {
    sim_.schedule_at(kill.at, [this, kill, on_worker_death] {
      fabric_.kill_node(worker_node_id(kill.worker));
      ++injected_kills_;
      if (on_worker_death) on_worker_death(kill.worker);
    });
  }
  for (const DegradeLinkFault& degrade : plan_.degrades) {
    sim_.schedule_at(degrade.at, [this, degrade] {
      fabric_.set_link_override(degrade.a, degrade.b, degrade.bw);
      ++injected_degrades_;
    });
  }
}

bool FaultInjector::should_drop_control() {
  if (drops_left_ > 0) {
    --drops_left_;
    return true;
  }
  return plan_.control_drop_rate > 0.0 && rng_.next_double() < plan_.control_drop_rate;
}

}  // namespace grout::net
