// Minimal leveled logger.
//
// Simulations are quiet: records below kWarn are dropped, so benches print
// only warnings and errors.  The `tag` argument ("net", "core", "store",
// "sim", ...) names the subsystem in each record.  Records go to stderr.
#pragma once

#include <cstdarg>

namespace zmail {

enum class LogLevel { kTrace = 0, kDebug, kInfo, kWarn, kError };

// Records below this level are dropped.
inline constexpr LogLevel kLogThreshold = LogLevel::kWarn;

constexpr bool log_enabled(LogLevel level) noexcept {
  return level >= kLogThreshold;
}

// printf-style logging with a subsystem tag, e.g. LOGF(kInfo, "bank", ...).
void logf(LogLevel level, const char* tag, const char* fmt, ...)
    __attribute__((format(printf, 3, 4)));

}  // namespace zmail

#define ZMAIL_LOG(level, tag, ...)                                   \
  do {                                                               \
    if (::zmail::log_enabled(level))                                 \
      ::zmail::logf((level), (tag), __VA_ARGS__);                    \
  } while (0)
