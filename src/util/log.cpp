#include "util/log.hpp"

#include <cstdio>

namespace zmail {

namespace {
const char* level_name(LogLevel l) noexcept {
  switch (l) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo:  return "INFO ";
    case LogLevel::kWarn:  return "WARN ";
    case LogLevel::kError: return "ERROR";
  }
  return "?";
}
}  // namespace

void logf(LogLevel level, const char* tag, const char* fmt, ...) {
  if (!log_enabled(level)) return;
  char buf[1024];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  std::fprintf(stderr, "[%s] %-8s %s\n", level_name(level), tag, buf);
}

}  // namespace zmail
