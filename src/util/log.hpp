// Minimal leveled logger.
//
// Simulations are chatty only when asked: the default level is kWarn so that
// benches stay quiet, and tests can raise verbosity per-fixture.  The `tag`
// argument ("net", "core", "store", "sim", ...) names the subsystem in each
// record.  Records go to stderr.
#pragma once

#include <cstdarg>

namespace zmail {

enum class LogLevel { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

// Global threshold; messages below it are dropped.
void set_log_level(LogLevel level) noexcept;
LogLevel log_level() noexcept;

// Threshold test for one record against the global level.
bool log_enabled(LogLevel level, const char* tag) noexcept;

// printf-style logging with a subsystem tag, e.g. LOGF(kInfo, "bank", ...).
void logf(LogLevel level, const char* tag, const char* fmt, ...)
    __attribute__((format(printf, 3, 4)));

}  // namespace zmail

#define ZMAIL_LOG(level, tag, ...)                                   \
  do {                                                               \
    if (::zmail::log_enabled((level), (tag)))                        \
      ::zmail::logf((level), (tag), __VA_ARGS__);                    \
  } while (0)
