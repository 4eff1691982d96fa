#include "util/log.hpp"

#include <gtest/gtest.h>

namespace zmail {
namespace {

TEST(Log, ThresholdIsWarn) {
  static_assert(!log_enabled(LogLevel::kTrace));
  static_assert(!log_enabled(LogLevel::kInfo));
  static_assert(log_enabled(LogLevel::kWarn));
  static_assert(log_enabled(LogLevel::kError));
}

TEST(Log, SuppressedMessagesDoNotCrash) {
  logf(LogLevel::kDebug, "test", "dropped %d", 42);
  ZMAIL_LOG(LogLevel::kInfo, "test", "also dropped %s", "x");
}

TEST(Log, EmittedMessagesDoNotCrash) {
  logf(LogLevel::kWarn, "test", "emitted %d %s", 1, "ok");
  ZMAIL_LOG(LogLevel::kError, "test", "emitted %s", "too");
}

}  // namespace
}  // namespace zmail
