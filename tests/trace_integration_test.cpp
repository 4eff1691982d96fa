// End-to-end causal tracing through the full system: a message's span
// chain must survive ARQ retransmits and refunds, ISP crash/recovery must
// not re-mint spans (WAL replay is suppressed), the snapshot round and
// checkpoint machinery must produce closed host-scoped spans, and the
// whole stream must pass the exporters and the CI span invariants.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core/obs.hpp"
#include "core/system.hpp"
#include "net/address.hpp"
#include "net/faults.hpp"
#include "trace/analyze.hpp"
#include "trace/export.hpp"
#include "trace/trace.hpp"

namespace zmail::core {
namespace {

class TraceIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace::set_enabled(false);
    trace::clear();
    trace::set_enabled(true);
  }
  void TearDown() override {
    trace::set_enabled(false);
    trace::clear();
  }
};

ZmailParams small_params() {
  ZmailParams p;
  p.n_isps = 2;
  p.users_per_isp = 2;
  p.initial_user_balance = 50;
  p.default_daily_limit = 100;
  p.initial_avail = 100;
  p.minavail = 10;
  p.maxavail = 400;
  p.record_inboxes = false;
  return p;
}

const trace::Chain* chain_of(const std::map<trace::TraceId, trace::Chain>& m,
                             trace::Ev terminal) {
  for (const auto& [id, c] : m)
    if (c.terminal == terminal) return &c;
  return nullptr;
}

TEST_F(TraceIntegrationTest, DeliveredMessageHasFullCausalChain) {
  ZmailSystem sys(small_params(), 7);
  ASSERT_EQ(sys.send_email(net::make_user_address(0, 0),
                           net::make_user_address(1, 0), "hi", "body"),
            SendResult::kSentPaid);
  sys.run_for(sim::kMinute);

  const auto events = trace::collect();
  const auto chains = trace::build_chains(events);
  const trace::Chain* c = chain_of(chains, trace::Ev::kDeliver);
  ASSERT_NE(c, nullptr);
  EXPECT_TRUE(c->has_root);
  EXPECT_TRUE(c->root_closed);

  // The chain walks submit -> network -> SMTP -> classify -> deliver.
  bool saw_submit = false, saw_net = false, saw_smtp = false,
       saw_classify = false;
  for (const auto& ev : c->events) {
    const auto t = static_cast<trace::Ev>(ev.type);
    if (t == trace::Ev::kSubmit) saw_submit = true;
    if (t == trace::Ev::kNetSend || t == trace::Ev::kNetDeliver) saw_net = true;
    if (t == trace::Ev::kSmtp) saw_smtp = true;
    if (t == trace::Ev::kClassify) saw_classify = true;
  }
  EXPECT_TRUE(saw_submit);
  EXPECT_TRUE(saw_net);
  EXPECT_TRUE(saw_smtp);
  EXPECT_TRUE(saw_classify);

  const trace::ValidationResult v = trace::validate(events);
  EXPECT_TRUE(v.ok) << (v.problems.empty() ? "" : v.problems.front());
}

TEST_F(TraceIntegrationTest, ArqRetransmitAndRefundChain) {
  ZmailParams p = small_params();
  p.reliable_email_transport = true;
  p.email_max_retransmits = 2;  // abandon quickly -> refund path
  ZmailSystem sys(p, 11);

  // Total loss: every datagram is dropped, so the transfer retransmits to
  // its cap, abandons, and refunds the payer.
  net::FaultPlan plan;
  plan.rates.drop = 1.0;
  net::FaultInjector faults(plan, 99);
  sys.attach_faults(&faults);

  ASSERT_EQ(sys.send_email(net::make_user_address(0, 0),
                           net::make_user_address(1, 0), "doomed", "body"),
            SendResult::kSentPaid);
  sys.run_for(sim::kHour);
  ASSERT_EQ(sys.pending_transfers(), 0u);

  const auto events = trace::collect();
  const auto chains = trace::build_chains(events);
  const trace::Chain* c = chain_of(chains, trace::Ev::kRefund);
  ASSERT_NE(c, nullptr);
  EXPECT_TRUE(c->has_root);
  EXPECT_TRUE(c->root_closed);
  // Initial transmission plus at least one retransmit before abandoning.
  EXPECT_GE(c->transmits, 2u);

  // The kTransit span closed with the abandoned flag.
  bool transit_abandoned = false;
  for (const auto& s : trace::build_spans(events))
    if (s.type == trace::Ev::kTransit && s.closed && s.end_arg0 == 1)
      transit_abandoned = true;
  EXPECT_TRUE(transit_abandoned);

  const trace::ValidationResult v = trace::validate(events);
  EXPECT_TRUE(v.ok) << (v.problems.empty() ? "" : v.problems.front());
}

TEST_F(TraceIntegrationTest, CrashRecoveryDoesNotRemintSpans) {
  const std::string dir = "trace_itest_store";
  std::filesystem::remove_all(dir);
  ZmailParams p = small_params();
  p.store.enabled = true;
  p.store.dir = dir;
  ZmailSystem sys(p, 13);
  sys.enable_bank_trading();

  for (int i = 0; i < 6; ++i) {
    sys.send_email(net::make_user_address(i % 2, 0),
                   net::make_user_address((i + 1) % 2, 0), "t",
                   std::string("b").append(std::to_string(i)));
    sys.run_for(sim::kMinute);
  }
  sys.checkpoint_host(0);
  sys.crash_host(0, 5 * sim::kMinute);
  sys.run_for(sim::kHour);
  EXPECT_EQ(sys.state_recoveries(), 1u);

  // More traced traffic after the rebuild keeps working.
  sys.send_email(net::make_user_address(0, 1), net::make_user_address(1, 1),
                 "after", "recovery");
  sys.run_for(sim::kHour);

  const auto events = trace::collect();
  // Exactly one kMessage begin per id, even though ISP 0's WAL replayed
  // commands that had emitted spans pre-crash (the ReplayGuard suppresses
  // them), and the recovery itself shows up as a closed span.
  const trace::ValidationResult v = trace::validate(events);
  EXPECT_TRUE(v.ok) << (v.problems.empty() ? "" : v.problems.front());
  bool recovery_span_closed = false;
  for (const auto& s : trace::build_spans(events))
    if (s.type == trace::Ev::kRecovery && s.closed) recovery_span_closed = true;
  EXPECT_TRUE(recovery_span_closed);

  std::filesystem::remove_all(dir);
}

TEST_F(TraceIntegrationTest, SnapshotRoundAndBankExchangeSpans) {
  ZmailParams p = small_params();
  p.initial_avail = 100;
  p.minavail = 50;
  p.maxavail = 400;
  ZmailSystem sys(p, 17);
  sys.enable_bank_trading();
  sys.buy_epennies(net::make_user_address(0, 0), 60);  // avail 40 < 50
  sys.run_for(sim::kHour);  // trading poll fires -> bank buy round-trips
  for (int i = 0; i < 4; ++i) {
    sys.send_email(net::make_user_address(0, i % 2),
                   net::make_user_address(1, i % 2), "s", "m");
    sys.run_for(10 * sim::kMinute);
  }
  sys.start_snapshot();
  sys.run_for(sim::kHour);

  bool settle_span = false, buy_span = false;
  for (const auto& s : trace::build_spans(trace::collect())) {
    if (s.type == trace::Ev::kSnapshotRound && s.closed) settle_span = true;
    if (s.type == trace::Ev::kBankBuy && s.closed) buy_span = true;
  }
  EXPECT_TRUE(settle_span);
  EXPECT_TRUE(buy_span);

  const auto stages = trace::breakdown(trace::collect());
  EXPECT_EQ(stages.count("settle"), 1u);
  EXPECT_EQ(stages.count("stamp_buy"), 1u);
}

TEST_F(TraceIntegrationTest, ExportedRunReparsesAndValidates) {
  ZmailSystem sys(small_params(), 23);
  for (int i = 0; i < 4; ++i) {
    sys.send_email(net::make_user_address(0, 0), net::make_user_address(1, 0),
                   "x", "y");
    sys.run_for(sim::kMinute);
  }
  const auto events = trace::collect();
  ASSERT_FALSE(events.empty());

  const std::string path = ::testing::TempDir() + "titest.json";
  std::string err;
  ASSERT_TRUE(trace::export_chrome(path, events, &err)) << err;
  std::vector<trace::TraceEvent> loaded;
  ASSERT_TRUE(trace::load(path, &loaded, &err)) << err;
  std::remove(path.c_str());
  ASSERT_EQ(loaded.size(), events.size());
  const trace::ValidationResult v = trace::validate(loaded);
  EXPECT_TRUE(v.ok) << (v.problems.empty() ? "" : v.problems.front());
}

TEST_F(TraceIntegrationTest, ObsV2FoldsCountersAndBreakdown) {
  ZmailSystem sys(small_params(), 29);
  sys.send_email(net::make_user_address(0, 0), net::make_user_address(1, 0),
                 "v2", "b");
  sys.run_for(sim::kHour);

  // The snapshot carries the fault counters, bank idempotency counters,
  // store totals, and the live trace breakdown.
  const json::Value snap = obs::snapshot(sys);
  ASSERT_NE(snap.find("isp_totals"), nullptr);
  EXPECT_NE(snap.find("isp_totals")->find("emails_retransmitted"), nullptr);
  ASSERT_NE(snap.find("bank"), nullptr);
  EXPECT_NE(snap.find("bank")->find("duplicate_buys"), nullptr);
  ASSERT_NE(snap.find("store"), nullptr);
  EXPECT_NE(snap.find("store")->find("state_recoveries"), nullptr);
  ASSERT_NE(snap.find("trace_breakdown"), nullptr);
  EXPECT_NE(snap.find("trace_breakdown")->find("message"), nullptr);
}

}  // namespace
}  // namespace zmail::core
