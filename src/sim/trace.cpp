#include "sim/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/error.hpp"

namespace grout::sim {

namespace {

/// JSON string-escape: quotes, backslashes and control characters. Span
/// names come from user-provided kernel/array names, so arbitrary bytes can
/// reach the trace output.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

const char* to_string(TraceCategory c) {
  switch (c) {
    case TraceCategory::Kernel: return "kernel";
    case TraceCategory::Migration: return "migration";
    case TraceCategory::Eviction: return "eviction";
    case TraceCategory::NetworkTransfer: return "network";
    case TraceCategory::Scheduling: return "scheduling";
    case TraceCategory::HostCompute: return "host";
    case TraceCategory::Other: return "other";
  }
  return "?";
}

void Tracer::record(TraceCategory category, std::string name, std::string location,
                    SimTime begin, SimTime end) {
  record(category, std::move(name), std::move(location), begin, end, kNoTenant);
}

void Tracer::record(TraceCategory category, std::string name, std::string location,
                    SimTime begin, SimTime end, TenantId tenant) {
  if (!enabled_) return;
  GROUT_REQUIRE(end >= begin, "trace span ends before it begins");
  spans_.push_back(
      TraceSpan{category, std::move(name), std::move(location), begin, end, tenant});
  sorted_ = false;
}

const std::vector<TraceSpan>& Tracer::spans() const {
  if (!sorted_) {
    // Canonical content order: full-field lexicographic sort.
    std::sort(spans_.begin(), spans_.end(), [](const TraceSpan& a, const TraceSpan& b) {
      if (a.begin != b.begin) return a.begin < b.begin;
      if (a.end != b.end) return a.end < b.end;
      if (a.category != b.category) {
        return static_cast<std::uint8_t>(a.category) < static_cast<std::uint8_t>(b.category);
      }
      if (a.name != b.name) return a.name < b.name;
      if (a.location != b.location) return a.location < b.location;
      return a.tenant < b.tenant;
    });
    sorted_ = true;
  }
  return spans_;
}

void Tracer::clear() {
  spans_.clear();
  sorted_ = true;
}

std::string Tracer::to_chrome_json() const {
  std::ostringstream os;
  os << "[";
  bool first = true;
  for (const auto& s : spans()) {
    if (!first) os << ",";
    first = false;
    os << "\n  {\"name\": \"" << json_escape(s.name) << "\", \"cat\": \"" << to_string(s.category)
       << "\", \"ph\": \"X\", \"ts\": " << s.begin.us() << ", \"dur\": " << (s.end - s.begin).us()
       << ", \"pid\": 0, \"tid\": \"" << json_escape(s.location) << "\"";
    if (s.tenant != kNoTenant) os << ", \"args\": {\"tenant\": " << s.tenant << "}";
    os << "}";
  }
  os << "\n]\n";
  return os.str();
}

}  // namespace grout::sim
