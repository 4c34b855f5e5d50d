// Execution tracing for the simulated system.
//
// Every interesting span (kernel, migration, network transfer, scheduling
// decision) can be recorded; tests assert on ordering properties and
// `to_chrome_json` exports the timeline.
//
// `spans()` presents a *canonical* order: spans sorted by full content
// (begin, end, category, name, location, tenant), so the presented vector
// does not depend on the order in which same-time events recorded them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace grout::sim {

enum class TraceCategory : std::uint8_t {
  Kernel,
  Migration,
  Eviction,
  NetworkTransfer,
  Scheduling,
  HostCompute,
  Other,
};

const char* to_string(TraceCategory c);

struct TraceSpan {
  TraceCategory category{TraceCategory::Other};
  std::string name;
  std::string location;  // e.g. "node0/gpu1" or "controller"
  SimTime begin;
  SimTime end;
  /// Serving tenant this span belongs to; kNoTenant for single-program runs
  /// and cluster-internal work (evictions, spills).
  TenantId tenant{kNoTenant};
};

class Tracer {
 public:
  void set_enabled(bool enabled) { enabled_ = enabled; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  void record(TraceCategory category, std::string name, std::string location, SimTime begin,
              SimTime end);
  /// Tenant-tagged overload: span carries the submitting tenant's id so
  /// per-tenant timelines can be filtered out of one shared-cluster trace.
  void record(TraceCategory category, std::string name, std::string location, SimTime begin,
              SimTime end, TenantId tenant);

  /// Spans in canonical content order (sorted lazily, cached until the
  /// next record/clear).
  [[nodiscard]] const std::vector<TraceSpan>& spans() const;
  void clear();

  /// Serialize to Chrome trace-event JSON (load in chrome://tracing).
  [[nodiscard]] std::string to_chrome_json() const;

 private:
  bool enabled_{false};
  mutable bool sorted_{true};
  mutable std::vector<TraceSpan> spans_;
};

}  // namespace grout::sim
