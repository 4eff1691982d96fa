#include "crypto/hashcash.hpp"

#include <gtest/gtest.h>

namespace zmail::crypto {
namespace {

TEST(Hashcash, SolveAndVerify) {
  const PowStamp stamp = pow_solve("alice@isp0.example", 10);
  EXPECT_TRUE(pow_verify(stamp));
  EXPECT_EQ(stamp.resource, "alice@isp0.example");
  EXPECT_EQ(stamp.difficulty_bits, 10);
}

TEST(Hashcash, ZeroDifficultyIsFree) {
  std::uint64_t attempts = 0;
  const PowStamp stamp = pow_solve("x", 0, 0, &attempts);
  EXPECT_EQ(attempts, 1u);
  EXPECT_TRUE(pow_verify(stamp));
}

TEST(Hashcash, WrongResourceFailsVerification) {
  PowStamp stamp = pow_solve("bob@isp1.example", 12);
  stamp.resource = "mallory@isp2.example";
  EXPECT_FALSE(pow_verify(stamp));
}

TEST(Hashcash, RaisingDifficultyInvalidatesStamp) {
  PowStamp stamp = pow_solve("carol", 8);
  // A stamp solved for 8 bits almost surely fails at 24 bits.
  stamp.difficulty_bits = 24;
  EXPECT_FALSE(pow_verify(stamp));
}

TEST(Hashcash, ExpectedWorkGrowsWithDifficulty) {
  // Average attempts over several puzzles should grow roughly 2^k.
  auto avg_attempts = [](int bits) {
    std::uint64_t total = 0;
    for (int i = 0; i < 8; ++i) {
      std::uint64_t attempts = 0;
      pow_solve(std::string("r").append(std::to_string(i)), bits,
                static_cast<std::uint64_t>(i) << 32, &attempts);
      total += attempts;
    }
    return static_cast<double>(total) / 8.0;
  };
  const double easy = avg_attempts(4);
  const double hard = avg_attempts(12);
  EXPECT_GT(hard, easy * 8);  // 2^8 = 256 expected; demand at least 8x
}

TEST(Hashcash, StartCounterChangesSolution) {
  const PowStamp a = pow_solve("same", 8, 0);
  const PowStamp b = pow_solve("same", 8, a.counter + 1);
  EXPECT_NE(a.counter, b.counter);
  EXPECT_TRUE(pow_verify(a));
  EXPECT_TRUE(pow_verify(b));
}

}  // namespace
}  // namespace zmail::crypto
