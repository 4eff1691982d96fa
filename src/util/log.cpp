#include "util/log.hpp"

#include <atomic>
#include <cstdio>

namespace zmail {

namespace {
std::atomic<LogLevel> g_level{LogLevel::kWarn};

const char* level_name(LogLevel l) noexcept {
  switch (l) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo:  return "INFO ";
    case LogLevel::kWarn:  return "WARN ";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff:   return "OFF  ";
  }
  return "?";
}
}  // namespace

void set_log_level(LogLevel level) noexcept { g_level.store(level); }
LogLevel log_level() noexcept { return g_level.load(); }

bool log_enabled(LogLevel level, const char* /*tag*/) noexcept {
  return static_cast<int>(level) >=
         static_cast<int>(g_level.load(std::memory_order_relaxed));
}

void logf(LogLevel level, const char* tag, const char* fmt, ...) {
  if (!log_enabled(level, tag)) return;
  char buf[1024];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  std::fprintf(stderr, "[%s] %-8s %s\n", level_name(level), tag, buf);
}

}  // namespace zmail
