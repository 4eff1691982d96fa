#include "core/obs.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

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

TEST(ObsToJson, IspMetricsCarriesEveryCounter) {
  core::IspMetrics m;
  m.emails_delivered = 3;
  m.refused_no_balance = 1;
  const json::Value j = obs::to_json(m);
  EXPECT_EQ(j.find("emails_delivered")->as_uint64(), 3u);
  EXPECT_EQ(j.find("refused_no_balance")->as_uint64(), 1u);
  // Field count guards against new IspMetrics counters being forgotten in
  // the exporter: one JSON key per struct field.
  EXPECT_EQ(j.items().size(), 22u);
}

TEST(ObsToJson, StatsShapes) {
  OnlineStats s;
  s.add(1.0);
  s.add(3.0);
  const json::Value js = obs::to_json(s);
  EXPECT_EQ(js.find("count")->as_uint64(), 2u);
  EXPECT_DOUBLE_EQ(js.find("mean")->as_double(), 2.0);

  Histogram h(0.0, 10.0, 10);
  h.add(5.0);
  const json::Value jh = obs::to_json(h);
  EXPECT_EQ(jh.find("total")->as_uint64(), 1u);
  EXPECT_EQ(jh.find("counts")->size(), 10u);

  Sample sample;
  const json::Value je = obs::to_json(sample);
  EXPECT_EQ(je.find("count")->as_uint64(), 0u);
  EXPECT_EQ(je.find("mean"), nullptr);  // omitted when empty
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
  EXPECT_GT(j.find("network")->find("datagrams_sent")->as_uint64(), 0u);
  EXPECT_EQ(j.find("network")->find("smtp_bytes_received")->size(), 2u);
  ASSERT_NE(j.find("conservation"), nullptr);
  EXPECT_TRUE(j.find("conservation")->find("holds")->as_bool());
  EXPECT_EQ(j.find("per_isp")->size(), 2u);
  EXPECT_EQ(j.find("federation"), nullptr);  // one bank: no federation
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

  const json::Value j = obs::snapshot(sys, obs::Schema::kV2);
  const json::Value* f = j.find("federation");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->find("n_banks")->as_uint64(), 2u);
  EXPECT_EQ(f->find("interbank_messages")->as_uint64(), 2u);
  EXPECT_EQ(f->find("settlements_cross_bank")->as_uint64(), 1u);
  EXPECT_EQ(f->find("per_bank")->size(), 2u);
  EXPECT_EQ(j.find("bank")->find("snapshot_rounds")->as_uint64(), 1u);
}

TEST(ObsRegistry, ProvidersAreLazyAndOrdered) {
  int calls = 0;
  obs::MetricsRegistry reg;
  reg.add("first", [&] {
    ++calls;
    return json::Value(1);
  });
  reg.add("second", [&] {
    ++calls;
    return json::Value("two");
  });
  EXPECT_EQ(calls, 0);  // lazy: nothing invoked at registration
  const json::Value j = reg.snapshot();
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(j.find("schema")->as_string(), "zmail-obs-v1");
  // Registration order == serialization order (after the schema key).
  EXPECT_EQ(j.items()[1].first, "first");
  EXPECT_EQ(j.items()[2].first, "second");
}

TEST(ObsRegistry, DuplicateNameIsRejectedFirstRegistrationWins) {
  obs::MetricsRegistry reg;
  EXPECT_TRUE(reg.add("dup", [] { return json::Value(1); }));
  EXPECT_FALSE(reg.add("dup", [] { return json::Value(2); }));
  EXPECT_EQ(reg.size(), 1u);
  const json::Value j = reg.snapshot();
  EXPECT_EQ(j.find("dup")->as_int64(), 1);  // first registration wins
}

TEST(ObsRegistry, WriteFileRoundTripsThroughParser) {
  core::ZmailSystem sys = make_system();
  obs::MetricsRegistry reg;
  reg.add_system("system", sys);
  sys.run_for(sim::kMinute);

  const std::string path = "obs_test_out.json";
  std::string err;
  ASSERT_TRUE(reg.write_file(path, &err)) << err;

  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::stringstream ss;
  ss << f.rdbuf();
  const auto parsed = json::parse(ss.str(), &err);
  ASSERT_TRUE(parsed.has_value()) << err;
  EXPECT_EQ(parsed->find("schema")->as_string(), "zmail-obs-v1");
  // add_system is lazy: run_for happened after registration, and the file
  // must reflect the post-run state.
  EXPECT_EQ(parsed->find("system")->find("sim_time")->as_int64(),
            static_cast<std::int64_t>(sim::kMinute));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace zmail
