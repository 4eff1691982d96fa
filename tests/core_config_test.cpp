#include "core/config.hpp"

#include <gtest/gtest.h>

#include "core/system.hpp"

namespace zmail::core {
namespace {

TEST(Config, DefaultsAreValid) {
  EXPECT_TRUE(ZmailParams{}.validate().empty());
}

TEST(Config, EmptyCompliantMeansAllCompliant) {
  ZmailParams p;
  p.n_isps = 3;
  EXPECT_TRUE(p.is_compliant(0));
  EXPECT_TRUE(p.is_compliant(2));
  EXPECT_EQ(p.compliant_count(), 3u);
}

TEST(Config, CompliantCountWithMask) {
  ZmailParams p;
  p.n_isps = 4;
  p.compliant = {true, false, true, false};
  EXPECT_EQ(p.compliant_count(), 2u);
  EXPECT_FALSE(p.is_compliant(1));
}

TEST(Config, ValidationCatchesEachProblem) {
  {
    ZmailParams p;
    p.n_isps = 0;
    EXPECT_FALSE(p.validate().empty());
  }
  {
    ZmailParams p;
    p.users_per_isp = 0;
    EXPECT_FALSE(p.validate().empty());
  }
  {
    ZmailParams p;
    p.compliant = {true};  // n_isps defaults to 2
    EXPECT_FALSE(p.validate().empty());
  }
  {
    ZmailParams p;
    p.minavail = 100;
    p.maxavail = 10;
    EXPECT_FALSE(p.validate().empty());
  }
  {
    ZmailParams p;
    p.initial_user_balance = -5;
    EXPECT_FALSE(p.validate().empty());
  }
  {
    ZmailParams p;
    p.default_daily_limit = -1;
    EXPECT_FALSE(p.validate().empty());
  }
}

// The policy values are persisted in the ISP image; 1 was the unmodelled
// filter option and stays unused.
static_assert(static_cast<int>(NonCompliantPolicy::kAccept) == 0);
static_assert(static_cast<int>(NonCompliantPolicy::kSegregate) == 2);
static_assert(static_cast<int>(NonCompliantPolicy::kDiscard) == 3);

TEST(Config, ValidationReportsMultipleProblems) {
  ZmailParams p;
  p.n_isps = 0;
  p.users_per_isp = 0;
  p.minavail = 5;
  p.maxavail = 1;
  EXPECT_GE(p.validate().size(), 3u);
}

TEST(Config, SystemRefusesInvalidParams) {
  ZmailParams p;
  p.minavail = 100;
  p.maxavail = 10;
  EXPECT_DEATH({ ZmailSystem sys(p, 1); }, "minavail");
}

}  // namespace
}  // namespace zmail::core
