#include "core/obs.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <type_traits>

#include "core/system.hpp"

namespace zmail {
namespace {

core::ZmailSystem make_system() {
  core::ZmailParams p;
  p.n_isps = 2;
  p.users_per_isp = 2;
  p.initial_user_balance = 10;
  return core::ZmailSystem(p, 7);
}

// Every counter set through fields() to its own value base+1, base+2, ...,
// so a counter dropped, doubled or swapped by a consumer reads wrong.
template <class M>
M distinct_counters(std::uint64_t base) {
  M m;
  M::fields([&](const char*, auto p) {
    m.*p = static_cast<std::decay_t<decltype(m.*p)>>(++base);
  });
  return m;
}

// fields() lists every member: all counters are 8 bytes wide, so a member
// missing from the list leaves the byte count short.
template <class M>
std::size_t field_count() {
  std::size_t n = 0;
  M::fields([&](const char*, auto) { ++n; });
  EXPECT_EQ(n * sizeof(std::uint64_t), sizeof(M));
  return n;
}

template <class M>
void expect_each_counter_once(const json::Value& j, const M& m) {
  ASSERT_EQ(j.items().size(), field_count<M>());
  std::size_t i = 0;
  M::fields([&](const char* name, auto p) {
    EXPECT_EQ(j.items()[i++].first, name);  // declaration order
    const json::Value* v = j.find(name);
    ASSERT_NE(v, nullptr) << name;
    EXPECT_EQ(v->dump(), json::Value(m.*p).dump()) << name;
  });
}

TEST(ObsToJson, EveryCounterAppearsExactlyOnce) {
  EXPECT_EQ(field_count<core::IspMetrics>(), 28u);
  EXPECT_EQ(field_count<core::BankMetrics>(), 27u);
  EXPECT_EQ(field_count<core::LegacyHostStats>(), 3u);

  const auto isp = distinct_counters<core::IspMetrics>(0);
  expect_each_counter_once(obs::to_json(isp), isp);
  const auto bank = distinct_counters<core::BankMetrics>(100);
  expect_each_counter_once(obs::to_json(bank), bank);
  const auto legacy = distinct_counters<core::LegacyHostStats>(200);
  expect_each_counter_once(obs::to_json(legacy), legacy);
}

template <class M>
void expect_merge_sums_every_counter() {
  const M a = distinct_counters<M>(0);
  const M b = distinct_counters<M>(1000);
  M sum = a;
  sum.merge(b);
  M::fields([&](const char* name, auto p) {
    EXPECT_EQ(sum.*p, a.*p + b.*p) << name;
  });
}

TEST(ObsToJson, MergeSumsEveryCounter) {
  expect_merge_sums_every_counter<core::IspMetrics>();
  expect_merge_sums_every_counter<core::BankMetrics>();
}

TEST(ObsSnapshot, ReflectsSystemActivity) {
  core::ZmailSystem sys = make_system();
  const auto r = sys.send_email(net::make_user_address(0, 0),
                                net::make_user_address(1, 1), "hi", "body");
  EXPECT_EQ(r.result, core::SendResult::kSentPaid);
  sys.run_for(sim::kHour);

  const json::Value j = obs::snapshot(sys);
  EXPECT_EQ(j.find("n_isps")->as_uint64(), 2u);
  EXPECT_EQ(j.find("compliant_isps")->as_uint64(), 2u);
  EXPECT_GE(j.find("isp_totals")->find("emails_delivered")->as_uint64(), 1u);
  EXPECT_EQ(j.find("isp_totals")->items().size(), 28u);
  EXPECT_EQ(j.find("bank")->items().size(), 27u);
  EXPECT_GT(j.find("network")->find("datagrams_sent")->as_uint64(), 0u);
  EXPECT_EQ(j.find("network")->find("smtp_bytes_received")->size(), 2u);
  ASSERT_NE(j.find("conservation"), nullptr);
  EXPECT_TRUE(j.find("conservation")->find("holds")->as_bool());
  EXPECT_EQ(j.find("per_isp")->size(), 2u);
  EXPECT_NE(j.find("store"), nullptr);
  EXPECT_EQ(j.find("federation"), nullptr);  // one bank: no federation
  EXPECT_EQ(j.find("timeseries"), nullptr);  // no telemetry registry
}

TEST(ObsSnapshot, SeveralBanksAddAFederationSection) {
  core::ZmailParams p;
  p.n_isps = 4;
  p.users_per_isp = 2;
  p.n_banks = 2;
  core::ZmailSystem sys(p, 8);
  sys.send_email(net::make_user_address(0, 0), net::make_user_address(1, 1),
                 "hi", "body");  // bank 0's member pays bank 1's
  sys.run_for(sim::kMinute);
  sys.start_snapshot();
  sys.run_for(sim::kHour);

  const json::Value j = obs::snapshot(sys);
  const json::Value* bank = j.find("bank");
  EXPECT_EQ(bank->find("snapshot_rounds")->as_uint64(), 1u);
  EXPECT_EQ(bank->find("interbank_messages")->as_uint64(), 2u);
  EXPECT_EQ(bank->find("settlements_cross_bank")->as_uint64(), 1u);
  const json::Value* f = j.find("federation");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->items().size(), 2u);  // the counters live under "bank"
  EXPECT_EQ(f->find("n_banks")->as_uint64(), 2u);
  EXPECT_EQ(f->find("per_bank")->size(), 2u);
}

TEST(ObsSnapshot, WriteFileRoundTripsThroughParser) {
  core::ZmailSystem sys = make_system();
  sys.run_for(sim::kMinute);
  const json::Value snap = obs::snapshot(sys);

  const std::string path = ::testing::TempDir() + "obs_test_out.json";
  std::string err;
  ASSERT_TRUE(json::write_file(path, snap, &err)) << err;

  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::stringstream ss;
  ss << f.rdbuf();
  const auto parsed = json::parse(ss.str(), &err);
  ASSERT_TRUE(parsed.has_value()) << err;
  EXPECT_EQ(parsed->find("sim_time")->as_int64(),
            static_cast<std::int64_t>(sim::kMinute));
  EXPECT_EQ(parsed->dump(), snap.dump());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace zmail
