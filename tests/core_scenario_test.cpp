#include "core/scenario.hpp"

#include <gtest/gtest.h>

#include <filesystem>

namespace zmail::core {
namespace {

// --- Low-level parsing helpers ------------------------------------------------

TEST(ParseUserRef, DotForm) {
  const auto r = parse_user_ref("1.2");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->first, 1u);
  EXPECT_EQ(r->second, 2u);
}

TEST(ParseUserRef, AddressForm) {
  const auto r = parse_user_ref("u2@isp1.example");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->first, 1u);
  EXPECT_EQ(r->second, 2u);
}

TEST(ParseUserRef, Malformed) {
  EXPECT_FALSE(parse_user_ref("").has_value());
  EXPECT_FALSE(parse_user_ref("12").has_value());
  EXPECT_FALSE(parse_user_ref("a.b").has_value());
  EXPECT_FALSE(parse_user_ref("bob@gmail.com").has_value());
}

TEST(ParseDuration, AllSuffixes) {
  EXPECT_EQ(parse_duration("90s"), 90 * sim::kSecond);
  EXPECT_EQ(parse_duration("15m"), 15 * sim::kMinute);
  EXPECT_EQ(parse_duration("2h"), 2 * sim::kHour);
  EXPECT_EQ(parse_duration("1d"), sim::kDay);
}

TEST(ParseDuration, Malformed) {
  EXPECT_FALSE(parse_duration("").has_value());
  EXPECT_FALSE(parse_duration("10").has_value());
  EXPECT_FALSE(parse_duration("m").has_value());
  EXPECT_FALSE(parse_duration("10w").has_value());
  EXPECT_FALSE(parse_duration("-5m").has_value());
}

TEST(ParseCount, WholeTokens) {
  EXPECT_EQ(parse_count("0"), 0u);
  EXPECT_EQ(parse_count("8"), 8u);
  EXPECT_EQ(parse_int("-1"), -1);  // an integer, but not a count
}

TEST(ParseCount, Malformed) {
  EXPECT_FALSE(parse_count("abc").has_value());
  EXPECT_FALSE(parse_count("3x").has_value());
  EXPECT_FALSE(parse_count("-1").has_value());
  EXPECT_FALSE(parse_count("").has_value());
  EXPECT_FALSE(parse_count("99999999999999999999").has_value());
}

// --- Script parsing -------------------------------------------------------------

TEST(ScenarioParse, MinimalScript) {
  const auto s = Scenario::parse("world isps=2 users=3\n");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->params().n_isps, 2u);
  EXPECT_EQ(s->params().users_per_isp, 3u);
  EXPECT_EQ(s->command_count(), 0u);
}

TEST(ScenarioParse, CommentsAndBlanksIgnored) {
  const auto s = Scenario::parse(
      "# a zmail scenario\n"
      "world isps=2 users=2   # inline comment\n"
      "\n"
      "send 0.0 1.1\n");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->command_count(), 1u);
}

TEST(ScenarioParse, CompliantMask) {
  const auto s = Scenario::parse("world isps=3 users=2 compliant=110\n");
  ASSERT_TRUE(s.has_value());
  EXPECT_TRUE(s->params().is_compliant(0));
  EXPECT_TRUE(s->params().is_compliant(1));
  EXPECT_FALSE(s->params().is_compliant(2));
}

TEST(ScenarioParse, BadMaskLengthRejected) {
  ScenarioError err;
  EXPECT_FALSE(
      Scenario::parse("world isps=3 users=2 compliant=11\n", &err)
          .has_value());
  EXPECT_EQ(err.line, 1u);
}

TEST(ScenarioParse, UnknownVerbRejected) {
  ScenarioError err;
  EXPECT_FALSE(Scenario::parse("world isps=2 users=2\nfrobnicate\n", &err)
                   .has_value());
  EXPECT_EQ(err.line, 2u);
  EXPECT_NE(err.message.find("frobnicate"), std::string::npos);
}

TEST(ScenarioParse, MissingWorldRejected) {
  ScenarioError err;
  EXPECT_FALSE(Scenario::parse("send 0.0 1.0\n", &err).has_value());
}

TEST(ScenarioParse, DuplicateWorldRejected) {
  ScenarioError err;
  EXPECT_FALSE(Scenario::parse("world isps=2 users=2\nworld isps=3 users=2\n",
                               &err)
                   .has_value());
}

// Parses `world_line` followed by one command and expects the world line
// (line 1) to be rejected with a message naming `needle`.
void ExpectWorldRejected(const std::string& world_line,
                         const std::string& needle) {
  ScenarioError err;
  EXPECT_FALSE(Scenario::parse(world_line + "\nrun 1m\n", &err).has_value())
      << world_line;
  EXPECT_EQ(err.line, 1u) << world_line;
  EXPECT_NE(err.message.find(needle), std::string::npos)
      << world_line << ": " << err.message;
}

TEST(ScenarioParse, WorldUnknownKeyRejected) {
  ExpectWorldRejected("world isp=5 users=1", "isp");
  ExpectWorldRejected("world isps=2 users=1 balanse=7", "balanse");
}

TEST(ScenarioParse, WorldTokenWithoutValueRejected) {
  ExpectWorldRejected("world isps=2 users", "users");
  ExpectWorldRejected("world isps 2", "isps");
}

TEST(ScenarioParse, WorldMalformedNumberRejected) {
  ExpectWorldRejected("world isps=abc users=2", "abc");
  ExpectWorldRejected("world isps=2 users=3x", "3x");
  ExpectWorldRejected("world isps=2 users=2 seed=", "seed");
}

TEST(ScenarioParse, WorldNegativeNumberRejected) {
  ExpectWorldRejected("world isps=-1 users=2", "-1");
  ExpectWorldRejected("world isps=2 users=2 balance=-5", "-5");
  ExpectWorldRejected("world isps=2 users=2 limit=-1", "-1");
}

TEST(ScenarioParse, WorldSwitchOtherThanZeroOrOneRejected) {
  ExpectWorldRejected("world isps=2 users=2 retry=2", "retry");
  ExpectWorldRejected("world isps=2 users=2 reliable=7", "reliable");
}

TEST(ScenarioParse, WorldDuplicateKeyRejected) {
  ExpectWorldRejected("world isps=2 isps=3 users=2", "isps");
}

TEST(ScenarioParse, WorldInvalidParamsRejected) {
  ExpectWorldRejected("world isps=2 users=0", "users_per_isp");
  ExpectWorldRejected("world isps=0 users=2", "n_isps");
}

TEST(ScenarioParse, WorldKeysApplyInAnyOrder) {
  const auto s = Scenario::parse(
      "world compliant=01 seed=9 limit=3 balance=4 users=5 isps=2 "
      "reliable=1 retry=0\n");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->params().n_isps, 2u);
  EXPECT_EQ(s->params().users_per_isp, 5u);
  EXPECT_EQ(s->params().initial_user_balance, 4);
  EXPECT_EQ(s->params().default_daily_limit, 3);
  EXPECT_EQ(s->seed(), 9u);
  EXPECT_FALSE(s->params().retry.enabled);
  EXPECT_TRUE(s->params().reliable_email_transport);
  EXPECT_FALSE(s->params().is_compliant(0));
  EXPECT_TRUE(s->params().is_compliant(1));
}

// Parses a valid world line, a valid `run`, then `verb_line`, and expects
// `verb_line` (line 3) to be rejected with a message naming `needle`.
void ExpectVerbRejected(const std::string& verb_line,
                        const std::string& needle) {
  ScenarioError err;
  EXPECT_FALSE(Scenario::parse("world isps=2 users=2\nrun 1m\n" + verb_line +
                                   "\n",
                               &err)
                   .has_value())
      << verb_line;
  EXPECT_EQ(err.line, 3u) << verb_line;
  EXPECT_NE(err.message.find(needle), std::string::npos)
      << verb_line << ": " << err.message;
}

TEST(ScenarioParse, PrintOtherThanBalancesRejected) {
  ExpectVerbRejected("print balanc", "print");
  ExpectVerbRejected("print balances now", "print");
  EXPECT_TRUE(Scenario::parse("world isps=2 users=2\nprint\nprint balances\n")
                  .has_value());
}

TEST(ScenarioParse, ExtraTokensOnBareVerbsRejected) {
  ExpectVerbRejected("day 3", "day takes no arguments");
  ExpectVerbRejected("snapshot now", "snapshot takes no arguments");
  ExpectVerbRejected("run 5m extra", "run takes one duration");
  ExpectVerbRejected("run", "run takes one duration");
  ExpectVerbRejected("run 5x", "run takes one duration");
  ExpectVerbRejected("expect conservation please",
                     "expect conservation takes no arguments");
}

TEST(ScenarioParse, SpamMalformedCountRejected) {
  ExpectVerbRejected("spam 0.0 count=abc", "count=N");
  ExpectVerbRejected("spam 0.0 count=-3", "count=N");
  ExpectVerbRejected("spam 0.0 count=", "count=N");
  ExpectVerbRejected("spam 0.0", "count=N");
  ExpectVerbRejected("spam 0.0 count=3 extra", "count=N");
}

TEST(ScenarioParse, SendTailOtherThanSubjectRejected) {
  ExpectVerbRejected("send 0.0 1.1 x y z", "subject TEXT");
  ExpectVerbRejected("send 0.0 1.1 subject", "subject TEXT");
  ExpectVerbRejected("send 0.0", "subject TEXT");
}

// --- Execution -------------------------------------------------------------------

TEST(ScenarioRun, SendAndExpectBalance) {
  const auto s = Scenario::parse(
      "world isps=2 users=2 balance=10\n"
      "send 0.0 1.1 subject hi\n"
      "run 5m\n"
      "expect balance 0.0 9\n"
      "expect balance 1.1 11\n"
      "expect conservation\n");
  ASSERT_TRUE(s.has_value());
  ScenarioRunner runner(*s);
  const ScenarioResult r = runner.run();
  EXPECT_TRUE(r.ok()) << (r.failures.empty() ? "" : r.failures[0].message);
  EXPECT_EQ(r.commands_executed, 5u);
}

TEST(ScenarioRun, SubjectTakesTheRestOfTheLine) {
  const auto s = Scenario::parse(
      "world isps=2 users=2\n"
      "send 0.0 1.1 subject Hello  World again # comment\n"
      "send 0.0 1.0\n"
      "run 5m\n");
  ASSERT_TRUE(s.has_value());
  ScenarioRunner runner(*s);
  ASSERT_TRUE(runner.run().ok());
  const auto& with = runner.world().isp(1).inbox(1);
  const auto& without = runner.world().isp(1).inbox(0);
  ASSERT_EQ(with.size(), 1u);
  ASSERT_EQ(without.size(), 1u);
  EXPECT_EQ(with[0].msg.subject(), "Hello World again");
  EXPECT_EQ(without[0].msg.subject(), "scenario");
}

TEST(ScenarioRun, FailedExpectationIsReported) {
  const auto s = Scenario::parse(
      "world isps=2 users=2 balance=10\n"
      "expect balance 0.0 999\n");
  ASSERT_TRUE(s.has_value());
  ScenarioRunner runner(*s);
  const ScenarioResult r = runner.run();
  ASSERT_EQ(r.failures.size(), 1u);
  EXPECT_EQ(r.failures[0].line, 2u);
  EXPECT_NE(r.failures[0].message.find("want 999"), std::string::npos);
}

TEST(ScenarioRun, SnapshotAndViolationsExpectation) {
  const auto s = Scenario::parse(
      "world isps=2 users=2 balance=50\n"
      "send 0.0 1.0\n"
      "run 1h\n"
      "snapshot\n"
      "run 30m\n"
      "expect violations 0\n"
      "expect conservation\n");
  ASSERT_TRUE(s.has_value());
  ScenarioRunner runner(*s);
  EXPECT_TRUE(runner.run().ok());
  EXPECT_EQ(runner.world().bank().seq(), 1u);
}

TEST(ScenarioRun, SpamBuySellDayFlip) {
  const auto s = Scenario::parse(
      "world isps=3 users=3 balance=30 limit=10 compliant=110\n"
      "spam 0.0 count=15\n"   // daily limit refuses some
      "day\n"
      "buy 1.1 20\n"
      "sell 1.1 5\n"
      "run 1h\n"
      "flip 2\n"
      "send 2.0 0.0\n"
      "run 10m\n"
      "expect conservation\n");
  ASSERT_TRUE(s.has_value());
  ScenarioRunner runner(*s);
  const ScenarioResult r = runner.run();
  EXPECT_TRUE(r.ok()) << (r.failures.empty() ? "" : r.failures[0].message);
  EXPECT_TRUE(runner.world().is_compliant(2));
  // 30 initial + 20 bought - 5 sold, plus any spam windfall that happened
  // to land on this user.
  const auto u = runner.world().isp(1).user(1);
  EXPECT_EQ(u.balance, 45 + u.lifetime_received_paid);
}

TEST(ScenarioRun, PrintBalancesProducesOutput) {
  const auto s = Scenario::parse(
      "world isps=2 users=2 balance=7\n"
      "print balances\n");
  ASSERT_TRUE(s.has_value());
  ScenarioRunner runner(*s);
  const ScenarioResult r = runner.run();
  ASSERT_EQ(r.output.size(), 4u);
  EXPECT_NE(r.output[0].find("balance=7"), std::string::npos);
  EXPECT_NE(r.output[3].find("u1@isp1.example"), std::string::npos);
}

TEST(ScenarioRun, PolicyVerbSetsUserOverrides) {
  const auto s = Scenario::parse(
      "world isps=3 users=2 compliant=110\n"
      "policy 0 discard\n"
      "spam 2.0 count=10\n"   // legacy spammer
      "run 1h\n");
  ASSERT_TRUE(s.has_value());
  ScenarioRunner runner(*s);
  const ScenarioResult r = runner.run();
  EXPECT_TRUE(r.ok()) << (r.failures.empty() ? "" : r.failures[0].message);
  // ISP 0's users discard legacy mail; ISP 1's accept it.
  EXPECT_EQ(runner.world().isp(0).metrics().emails_delivered, 0u);
  EXPECT_GT(runner.world().isp(0).metrics().emails_discarded +
                runner.world().isp(1).metrics().emails_delivered,
            0u);
}

TEST(ScenarioRun, PolicyVerbRejectsBadArguments) {
  const auto s = Scenario::parse(
      "world isps=3 users=2 compliant=110\n"
      "policy 2 discard\n"    // legacy isp
      "policy 0 frobnicate\n"
      "policy 0\n");
  ASSERT_TRUE(s.has_value());
  ScenarioRunner runner(*s);
  EXPECT_EQ(runner.run().failures.size(), 3u);
}

// The paper's spam-filter option is not modelled (SPEC.md divergences),
// so `filter` is an unknown policy name like any other.
TEST(ScenarioRun, PolicyVerbRejectsFilter) {
  const auto s = Scenario::parse(
      "world isps=3 users=2 compliant=110\n"
      "policy 0 filter\n");
  ASSERT_TRUE(s.has_value());
  ScenarioRunner runner(*s);
  const ScenarioResult r = runner.run();
  ASSERT_EQ(r.failures.size(), 1u);
  EXPECT_EQ(r.failures[0].line, 2u);
  EXPECT_NE(r.failures[0].message.find("policy name"), std::string::npos);
  EXPECT_FALSE(runner.world().isp(0).users().policy_override(0).has_value());
}

TEST(ScenarioRun, OutOfRangeUserRefsFailGracefully) {
  const auto s = Scenario::parse(
      "world isps=2 users=2\n"
      "send 5.0 0.0\n"     // isp 5 does not exist
      "send 0.0 0.9\n"     // user 9 does not exist
      "buy 3.3 10\n"
      "expect balance 7.7 1\n");
  ASSERT_TRUE(s.has_value());
  ScenarioRunner runner(*s);
  const ScenarioResult r = runner.run();
  EXPECT_EQ(r.failures.size(), 4u);  // reported, not crashed
  EXPECT_EQ(r.commands_executed, 4u);
}

TEST(ScenarioRun, BuyRefusalIsAFailure) {
  const auto s = Scenario::parse(
      "world isps=2 users=2 balance=5\n"
      "buy 0.0 100000\n");  // far beyond the user's real-money account
  ASSERT_TRUE(s.has_value());
  ScenarioRunner runner(*s);
  EXPECT_FALSE(runner.run().ok());
}

// --- The durable-store verbs ---------------------------------------------------

TEST(ScenarioParse, WorldHardenedTransportKeys) {
  const auto s = Scenario::parse("world isps=2 users=2 retry=1 reliable=1\n");
  ASSERT_TRUE(s.has_value());
  EXPECT_TRUE(s->params().retry.enabled);
  EXPECT_TRUE(s->params().reliable_email_transport);
  const auto off = Scenario::parse("world isps=2 users=2\n");
  ASSERT_TRUE(off.has_value());
  EXPECT_FALSE(off->params().retry.enabled);
  EXPECT_FALSE(off->params().reliable_email_transport);
}

TEST(ScenarioRun, CrashVerbRequiresTheStore) {
  const auto s = Scenario::parse(
      "world isps=2 users=2\n"
      "crash 0 10m\n");
  ASSERT_TRUE(s.has_value());
  ScenarioRunner runner(*s);
  const ScenarioResult r = runner.run();
  ASSERT_EQ(r.failures.size(), 1u);
  EXPECT_NE(r.failures[0].message.find("durable store"), std::string::npos);
}

TEST(ScenarioRun, CrashVerbRecoversFromTheStore) {
  auto s = Scenario::parse(
      "world isps=2 users=3 balance=50 limit=100 retry=1 reliable=1\n"
      "send 0.0 1.1 subject hi\n"
      "run 10m\n"
      "snapshot\n"
      "run 30m\n"
      "crash 0 15m\n"
      "crash bank 15m\n"
      "run 1h\n"
      "crash 7 10m\n"    // no such host: reported, not asserted
      "crash bank\n"     // missing duration
      "expect conservation\n"
      "expect violations 0\n");
  ASSERT_TRUE(s.has_value());
  s->mutable_params().store.enabled = true;
  s->mutable_params().store.dir = "scenario_crash_test_store";
  ScenarioRunner runner(*s);
  const ScenarioResult r = runner.run();
  EXPECT_EQ(r.failures.size(), 2u);  // exactly the two malformed crash lines
  EXPECT_EQ(runner.world().state_recoveries(), 2u);
  std::filesystem::remove_all("scenario_crash_test_store");
}

TEST(ScenarioRun, CrashVerbNamesMemberBanks) {
  auto s = Scenario::parse(
      "world isps=3 users=3 balance=50 limit=100 retry=1 reliable=1 "
      "compliant=110\n"
      "send 0.0 1.1 subject hi\n"
      "send 2.0 0.1 subject legacy\n"
      "run 10m\n"
      "snapshot\n"
      "crash bank1 15m\n"
      "crash bank0 15m\n"
      "run 2h\n"
      "crash bank2 10m\n"  // only two member banks: reported
      "crash bankx 10m\n"  // not an index: reported
      "expect conservation\n"
      "expect violations 0\n");
  ASSERT_TRUE(s.has_value());
  s->mutable_params().n_banks = 2;
  s->mutable_params().store.enabled = true;
  s->mutable_params().store.dir = "scenario_bank_crash_test_store";
  ScenarioRunner runner(*s);
  const ScenarioResult r = runner.run();
  EXPECT_EQ(r.failures.size(), 2u);  // exactly the two bad bank names
  EXPECT_EQ(runner.world().state_recoveries(), 2u);
  EXPECT_EQ(runner.world().bank().seq(), 1u);
  std::filesystem::remove_all("scenario_bank_crash_test_store");
}

}  // namespace
}  // namespace zmail::core
