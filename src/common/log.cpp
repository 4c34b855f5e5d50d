#include "common/log.hpp"

#include <cstdio>

namespace grout {

namespace {
LogLevel g_level{LogLevel::Warn};

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::Trace: return "TRACE";
    case LogLevel::Debug: return "DEBUG";
    case LogLevel::Info: return "INFO";
    case LogLevel::Warn: return "WARN";
    case LogLevel::Error: return "ERROR";
    case LogLevel::Off: return "OFF";
  }
  return "?";
}
}  // namespace

LogLevel log_level() { return g_level; }
void set_log_level(LogLevel level) { g_level = level; }

namespace detail {
void log_write(LogLevel level, std::string_view component, const std::string& message) {
  std::fprintf(stderr, "[%-5s] %.*s: %s\n", level_name(level),
               static_cast<int>(component.size()), component.data(), message.c_str());
}
}  // namespace detail

}  // namespace grout
