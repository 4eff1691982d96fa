// Zero-sum safety and liveness under faults, as named fixed-seed rows.
//
// The paper's money argument (Sections 4.1-4.4) assumes the transport
// delivers every message, and Section 5 leaves the collaborating banks'
// plane open.  One world loop, run_chaos(), drops both assumptions: a
// deterministic FaultInjector loses, duplicates, corrupts and truncates
// datagrams, cuts host pairs apart and crashes hosts, while the
// acknowledged link (paid mail, trades, requests, reports and inter-bank
// wires) and the durable store have to keep the books straight.  Each row
// of the table is one world and one fault plan, run at three fixed seeds;
// every row must hold the properties in expect_properties(), and some add
// their own.
//
//   R1.a-c  paid mail under rate faults, an ISP partition, host crashes
//   R2.d    an ISP and the bank crash with real state wipes
//   R3.a-c  1-8 durable member banks under settlement-plane faults, a
//           bank partition, mid-round bank crashes
//   heavy_loss                    25% loss between two ISPs
//   store_crashes                 an ISP crashes holding quiesce-buffered
//                                 sends, then the bank; both rebuild
//   legacy_isp_mid_round_crashes  two banks, a legacy ISP, local mail, an
//                                 ISP and a member bank crashing mid-round
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "core/invariants.hpp"
#include "core/system.hpp"
#include "net/address.hpp"
#include "net/faults.hpp"
#include "net/msg_type.hpp"

namespace zmail::core {
namespace {

constexpr std::uint64_t kSeeds[] = {42, 43, 44};

struct ChaosOutcome {
  IspMetrics isp;
  BankMetrics bank;
  LegacyHostStats legacy;
  net::FaultCounters faults;
  InvariantReport audit;
  std::uint64_t accepted_paid = 0;  // paid remote sends the system took on
  std::uint64_t pending = 0;
  std::uint64_t pending_after_1h = 0;  // one hour after the last round
  std::uint64_t buffered_at_crash = 0;  // sends held by ISPs as they crashed
  bool idle = false;
  bool conserved = false;
  std::uint64_t recoveries = 0;
};

// crash_host(host, down) `at` minutes after round `round` opens.
struct Crash {
  int round = 0;
  std::size_t host = 0;
  sim::Duration down = 20 * sim::kMinute;
  int at = 0;
};

struct ChaosCase {
  std::string name;  // the gtest parameter name
  std::size_t isps = 3;
  std::size_t users = 6;
  std::size_t banks = 1;
  std::vector<bool> compliant;  // empty: every ISP is compliant
  bool store = false;
  bool arq = true;  // paid mail rides the acknowledged transport
  bool local_mail = false;  // destinations include the sender's own ISP
  // Mail keeps flowing while a round is open.  Under faults an email then
  // can land in the other epoch (a retransmit across the quiesce, an ISP
  // that quiesced late on a re-sent request), which skews its ISP pair for
  // one round (inconsistent_pairs_found) and cancels in the next; only
  // rows that stop mail during rounds can ask for zero skew.
  bool mail_during_rounds = true;
  int rounds = 2;   // snapshot rounds, each after one chunk of mail
  int sends_per_round = 180;
  net::FaultPlan plan;
  std::vector<Crash> crashes;
  std::function<void(const ChaosOutcome&)> expect;  // row-specific checks
};

// gtest names a failing row instead of dumping its bytes.
void PrintTo(const ChaosCase& c, std::ostream* os) { *os << c.name; }

std::uint64_t planned_crashes(const ChaosCase& c) {
  // Without the store an outage isolates a host but wipes nothing.
  return c.crashes.size() + (c.store ? c.plan.outages.size() : 0);
}

bool plan_empty(const ChaosCase& c) {
  const net::FaultRates& r = c.plan.rates;
  return r.drop == 0 && r.duplicate == 0 && r.reorder == 0 &&
         r.corrupt == 0 && r.truncate == 0 && r.delay_spike == 0 &&
         c.plan.partitions.empty() && c.plan.outages.empty();
}

bool fault_free(const ChaosCase& c) {
  return plan_empty(c) && c.crashes.empty();
}

std::uint64_t replays(const BankMetrics& b) {
  return b.duplicate_buys + b.duplicate_sells + b.stale_trades +
         b.duplicate_interbank + b.stale_interbank;
}

std::uint64_t interbank_msgs(const BankMetrics& b) {
  return b.interbank_messages + b.clearing_messages;
}

// Settlement-plane frames the link re-sent: buy and sell requests and
// their replies, credit reports, snapshot requests and inter-bank wires.
std::uint64_t control_retries(const IspMetrics& i, const BankMetrics& b) {
  return i.bank_retries + i.report_retries + b.trade_reply_retries +
         b.snapshot_rerequests + b.interbank_retries;
}

// One world: `rounds` chunks of one cross-ISP email per simulated minute,
// each followed by a snapshot round run until it closes, all under the
// case's fault plan and with the auditor checking every 10 minutes.  Unless
// the row stops it, mail keeps flowing while a round is open, so every
// quiesce buffers sends and a crash mid-round takes buffered sends down
// with it.  Then a drain, faults still injecting, until no frame is pending
// on the link and no round is open.
ChaosOutcome run_chaos(const ChaosCase& c, std::uint64_t seed) {
  const std::string dir =
      "core_chaos_test_" + c.name + "_" + std::to_string(seed);
  std::filesystem::remove_all(dir);
  ZmailParams p;
  p.n_isps = c.isps;
  p.users_per_isp = c.users;
  p.n_banks = c.banks;
  p.compliant = c.compliant;
  p.initial_user_balance = 10'000;
  p.default_daily_limit = 100'000;
  p.record_inboxes = false;
  p.retry.enabled = true;
  p.reliable_email_transport = c.arq;
  p.email_max_retransmits = 0;  // retry forever: no abandons expected
  p.store.enabled = c.store;
  p.store.dir = dir;
  // The simulation never loses the page cache, so fsync changes no
  // simulated outcome; store_wal_test and store_recovery_test cover it.
  p.store.fsync_data = false;

  ChaosOutcome o;
  {
    ZmailSystem sys(p, seed);
    sys.enable_bank_trading();
    // Independent fault stream: the same (plan, seed) replays
    // bit-identically.
    net::FaultInjector inj(c.plan, seed ^ 0x5DEECE66Dull);
    sys.attach_faults(&inj);
    InvariantAuditor auditor(sys);
    auditor.run_continuously(10 * sim::kMinute);

    std::vector<std::size_t> senders;
    for (std::size_t i = 0; i < c.isps; ++i)
      if (p.is_compliant(i)) senders.push_back(i);
    Rng traffic(seed + 17);
    auto send_one = [&](int i) {
      const std::size_t src = senders[traffic.next_below(senders.size())];
      std::size_t dst = traffic.next_below(c.local_mail ? c.isps : c.isps - 1);
      if (!c.local_mail && dst >= src) ++dst;
      const SendResult res = sys.send_email(
          net::make_user_address(src, traffic.next_below(c.users)),
          net::make_user_address(dst, traffic.next_below(c.users)), "chaos",
          std::to_string(i));
      if (res == SendResult::kSentPaid ||
          (res == SendResult::kBuffered && p.is_compliant(dst)))
        ++o.accepted_paid;
      sys.run_for(sim::kMinute);
    };
    for (int r = 0; r < c.rounds; ++r) {
      for (int i = 0; i < c.sends_per_round; ++i) send_one(i);
      sys.start_snapshot();
      EXPECT_TRUE(sys.bank().round_open());
      // A crash whose minute the round outlives never happens, and the
      // recoveries property fails.
      for (int m = 0; m < 16 * 60 && sys.bank().round_open(); ++m) {
        for (const Crash& k : c.crashes) {
          if (k.round != r || k.at != m) continue;
          if (k.host < c.isps)
            o.buffered_at_crash += sys.isp(k.host).buffered_count();
          sys.crash_host(k.host, k.down);
        }
        if (c.mail_during_rounds)
          send_one(m);
        else
          sys.run_for(sim::kMinute);
      }
    }

    sys.run_for(sim::kHour);
    o.pending_after_1h = sys.pending_transfers();
    for (int k = 0; k < 12 && (sys.pending_transfers() > 0 ||
                               sys.bank().round_open());
         ++k)
      sys.run_for(15 * sim::kMinute);
    sys.attach_faults(nullptr);
    auditor.check_now();

    o.isp = sys.total_isp_metrics();
    o.bank = sys.bank().metrics();
    o.legacy = sys.total_legacy_stats();
    o.faults = inj.counters();
    o.audit = auditor.report();
    o.pending = sys.pending_transfers();
    o.idle = !sys.bank().round_open();
    o.conserved = sys.conservation_holds();
    o.recoveries = sys.state_recoveries();
  }
  std::filesystem::remove_all(dir);
  return o;
}

void expect_properties(const ChaosCase& c, const ChaosOutcome& o) {
  EXPECT_EQ(o.isp.emails_sent_compliant, o.accepted_paid)
      << "every paid send the ISPs accepted went out, crashes or not";
  EXPECT_EQ(o.isp.emails_received_compliant + o.isp.emails_refunded,
            o.isp.emails_sent_compliant)
      << "every paid email is delivered or refunded";
  EXPECT_EQ(o.pending, 0u) << "no frame left pending after the drain";
  EXPECT_TRUE(o.idle) << "no round left open after the drain";
  // The auditor includes "no ISP pair drifts for two rounds running".
  EXPECT_TRUE(o.audit.ok())
      << (o.audit.messages.empty() ? "" : o.audit.messages.front());
  if (!c.mail_during_rounds || fault_free(c)) {
    EXPECT_EQ(o.bank.inconsistent_pairs_found, 0u);
  }
  if (c.mail_during_rounds) {
    EXPECT_GT(o.isp.emails_buffered_during_quiesce, 0u)
        << "the quiesce held sends back";
  }
  EXPECT_TRUE(o.conserved);
  EXPECT_EQ(o.bank.snapshot_rounds, static_cast<std::uint64_t>(c.rounds))
      << "every driven round closed";
  EXPECT_EQ(o.recoveries, planned_crashes(c))
      << "every planned crash ended in a snapshot + WAL rebuild";
  if (fault_free(c)) {
    EXPECT_EQ(o.isp.emails_retransmitted, 0u);
    EXPECT_EQ(o.isp.emails_refunded, 0u);
    EXPECT_EQ(o.bank.interbank_retries, 0u);
    EXPECT_EQ(replays(o.bank), 0u);
    // Quiet: nothing lost, so no control frame is ever sent twice.
    EXPECT_EQ(control_retries(o.isp, o.bank), 0u);
  }
  if (!plan_empty(c)) {
    EXPECT_GT(o.faults.total_injected(), 0u) << "the row injected faults";
  }
  if (c.expect) c.expect(o);
}

net::FaultPlan rates(double drop, double dup, double corrupt,
                     double truncate = 0.0) {
  net::FaultPlan plan;
  plan.rates.drop = drop;
  plan.rates.duplicate = dup;
  plan.rates.corrupt = corrupt;
  plan.rates.truncate = truncate;
  return plan;
}

void partitioned(const ChaosOutcome& o) { EXPECT_GT(o.faults.partitioned, 0u); }
void outage_lost(const ChaosOutcome& o) { EXPECT_GT(o.faults.outage_lost, 0u); }

// The R1 world: paid mail between three ISPs on one bank, 2 x 180
// minutes.
ChaosCase mail_world(std::string name, net::FaultPlan plan = {}) {
  ChaosCase c;
  c.name = std::move(name);
  c.plan = std::move(plan);
  return c;
}

// The R3 world: eight ISPs on `banks` durable member banks, 3 x 40
// minutes with mail stopped while each round runs, and the rates confined
// to the settlement plane (mail is the R1 rows' subject).
ChaosCase bank_world(std::string name, std::size_t banks,
                     net::FaultPlan plan = {}) {
  ChaosCase c;
  c.name = std::move(name);
  c.isps = 8;
  c.users = 4;
  c.banks = banks;
  c.store = true;
  c.arq = false;
  c.mail_during_rounds = false;
  c.rounds = 3;
  c.sends_per_round = 40;
  c.plan = std::move(plan);
  c.plan.only_types = {net::kMsgBuy,
                       net::kMsgBuyReply,
                       net::kMsgSell,
                       net::kMsgSellReply,
                       net::kMsgRequest,
                       net::kMsgReply,
                       net::MsgType::intern("fed-columns"),
                       net::MsgType::intern("fed-clearing"),
                       Link::control_ack()};
  return c;
}

std::vector<ChaosCase> rows() {
  std::vector<ChaosCase> v;
  const sim::Duration r1_span = 360 * sim::kMinute;

  v.push_back(mail_world("R1a_fault_free"));
  v.push_back(mail_world("R1a_drop5", rates(0.05, 0, 0)));
  v.push_back(mail_world("R1a_dup5", rates(0, 0.05, 0)));
  v.push_back(mail_world("R1a_corrupt1", rates(0, 0, 0.01)));
  v.push_back(mail_world("R1a_drop5_dup5_corrupt1", rates(0.05, 0.05, 0.01)));
  v.push_back(mail_world("R1a_truncate1", rates(0, 0, 0, 0.01)));
  v.push_back(mail_world("R1a_drop20", rates(0.20, 0, 0)));
  {
    ChaosCase c = mail_world("R1b_isp_partition");
    c.plan.partitions.push_back({0, 1, r1_span / 4, r1_span / 2});
    c.expect = partitioned;
    v.push_back(std::move(c));
  }
  {
    // An ISP, then the bank, crash and lose what was in flight to them.
    ChaosCase c = mail_world("R1c_isp_then_bank_outage");
    c.plan.outages.push_back({1, r1_span / 4, r1_span / 4 + r1_span / 8});
    c.plan.outages.push_back({c.isps, 5 * r1_span / 8, 3 * r1_span / 4});
    c.expect = outage_lost;
    v.push_back(std::move(c));
  }
  {
    // The same two crashes with the store on: real state wipes, rebuilt
    // from snapshot + WAL replay.
    const sim::Duration span = 120 * sim::kMinute;
    ChaosCase c = mail_world("R2d_isp_then_bank_crash");
    c.store = true;
    c.sends_per_round = 60;
    c.plan.outages.push_back({1, span / 4, span / 4 + span / 8});
    c.plan.outages.push_back({c.isps, 5 * span / 8, 3 * span / 4});
    c.expect = outage_lost;
    v.push_back(std::move(c));
  }

  for (const std::size_t k : {1, 2, 4, 8}) {
    const std::string banks = "R3a_banks" + std::to_string(k);
    ChaosCase quiet = bank_world(banks + "_fault_free", k);
    if (k == 1)
      quiet.expect = [](const ChaosOutcome& o) {
        EXPECT_EQ(interbank_msgs(o.bank), 0u)
            << "a single bank exchanges no inter-bank traffic";
      };
    v.push_back(std::move(quiet));
    v.push_back(bank_world(banks + "_drop5", k, rates(0.05, 0, 0)));
    v.push_back(bank_world(banks + "_drop10_dup5_corrupt1", k,
                   rates(0.10, 0.05, 0.01)));
  }
  {
    // Banks 0 and 1 cut apart across the first round's opening: their
    // column and clearing wires back off and retransmit through the heal.
    ChaosCase c = bank_world("R3b_bank_partition", 4);
    const sim::SimTime open_at = c.sends_per_round * sim::kMinute;
    c.plan.partitions.push_back({c.isps, c.isps + 1,
                                 open_at - 5 * sim::kMinute,
                                 open_at + 30 * sim::kMinute});
    c.expect = [](const ChaosOutcome& o) {
      EXPECT_GT(o.faults.partitioned, 0u);
      EXPECT_GT(o.bank.interbank_retries, 0u);
    };
    v.push_back(std::move(c));
  }
  {
    // A member bank dies right after its round opened (kStartRound is on
    // its WAL, its sealed requests on the link); replay re-opens the round
    // and the link delivers the requests once the bank is back.
    ChaosCase c = bank_world("R3c_banks4_one_crash", 4);
    c.crashes = {{0, c.isps + 1}};
    c.expect = outage_lost;
    v.push_back(std::move(c));
    ChaosCase d = bank_world("R3c_banks8_two_crashes", 8);
    d.crashes = {{0, d.isps + 1}, {1, d.isps + 2}};
    d.expect = outage_lost;
    v.push_back(std::move(d));
  }

  {
    // A quarter of all datagrams lost: the transport retransmits until
    // every paid email lands within the hour, and none is refunded.
    ChaosCase c = mail_world("heavy_loss", rates(0.25, 0, 0));
    c.isps = 2;
    c.users = 2;
    c.rounds = 1;
    c.sends_per_round = 40;
    c.expect = [](const ChaosOutcome& o) {
      EXPECT_GE(o.isp.emails_sent_compliant, 40u);
      EXPECT_EQ(o.isp.emails_received_compliant, o.isp.emails_sent_compliant);
      EXPECT_EQ(o.isp.emails_refunded, 0u);
      EXPECT_GT(o.isp.emails_retransmitted, 0u);
      EXPECT_EQ(o.pending_after_1h, 0u);
    };
    v.push_back(std::move(c));
  }
  {
    // An ISP crashes seven minutes into the first round's quiesce, holding
    // the sends it buffered, and the bank crashes as the second opens.
    ChaosCase c = mail_world("store_crashes");
    c.users = 3;
    c.store = true;
    c.sends_per_round = 20;
    c.crashes = {{0, 0, 2 * sim::kMinute, 7}, {1, c.isps, 2 * sim::kMinute}};
    c.expect = [](const ChaosOutcome& o) {
      EXPECT_GT(o.buffered_at_crash, 0u) << "WAL replay rebuilt the buffer";
    };
    v.push_back(std::move(c));
  }
  {
    // Two member banks, a legacy ISP that still receives its share of
    // (unpaid) mail, local mail, and an ISP plus a member bank crashing a
    // minute into the first round.
    ChaosCase c = mail_world("legacy_isp_mid_round_crashes");
    c.isps = 6;
    c.users = 3;
    c.banks = 2;
    c.compliant = {true, true, true, true, true, false};
    c.store = true;
    c.local_mail = true;
    c.sends_per_round = 30;
    c.crashes = {{0, 2, 20 * sim::kMinute, 1},
                 {0, c.isps + 1, 20 * sim::kMinute, 1}};
    c.expect = [](const ChaosOutcome& o) {
      EXPECT_EQ(o.isp.emails_delivered + o.isp.emails_refunded,
                o.isp.emails_sent_local + o.isp.emails_sent_compliant);
      EXPECT_GT(o.isp.emails_sent_local, 0u);
      EXPECT_GT(o.legacy.emails_received, 0u);
    };
    v.push_back(std::move(c));
  }
  return v;
}

class ChaosRow : public ::testing::TestWithParam<ChaosCase> {};

TEST_P(ChaosRow, HoldsAtEverySeed) {
  const ChaosCase& c = GetParam();
  IspMetrics isp;
  BankMetrics bank;
  std::uint64_t injected = 0, recoveries = 0, violations = 0;
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const ChaosOutcome o = run_chaos(c, seed);
    expect_properties(c, o);
    isp.merge(o.isp);
    bank.merge(o.bank);
    injected += o.faults.total_injected();
    recoveries += o.recoveries;
    violations += o.audit.violations;
  }
  std::printf(
      "%-34s sent=%llu delivered=%llu refunded=%llu retransmits=%llu "
      "bank_retries=%llu report_retries=%llu control_retries=%llu "
      "injected=%llu interbank=%llu "
      "interbank_retries=%llu replays=%llu recoveries=%llu skewed_pairs=%llu "
      "violations=%llu\n",
      c.name.c_str(),
      static_cast<unsigned long long>(isp.emails_sent_compliant),
      static_cast<unsigned long long>(isp.emails_received_compliant),
      static_cast<unsigned long long>(isp.emails_refunded),
      static_cast<unsigned long long>(isp.emails_retransmitted),
      static_cast<unsigned long long>(isp.bank_retries),
      static_cast<unsigned long long>(isp.report_retries),
      static_cast<unsigned long long>(control_retries(isp, bank)),
      static_cast<unsigned long long>(injected),
      static_cast<unsigned long long>(interbank_msgs(bank)),
      static_cast<unsigned long long>(bank.interbank_retries),
      static_cast<unsigned long long>(replays(bank)),
      static_cast<unsigned long long>(recoveries),
      static_cast<unsigned long long>(bank.inconsistent_pairs_found),
      static_cast<unsigned long long>(violations));
}

INSTANTIATE_TEST_SUITE_P(Rows, ChaosRow, ::testing::ValuesIn(rows()),
                         [](const auto& info) { return info.param.name; });

TEST(ChaosScaling, InterBankTrafficGrowsWithTheBankCount) {
  std::uint64_t msgs[9] = {};
  for (const std::size_t k : {2, 8})
    for (const std::uint64_t seed : kSeeds)
      msgs[k] += interbank_msgs(run_chaos(bank_world("scaling", k), seed).bank);
  EXPECT_GT(msgs[8], msgs[2]);
}

}  // namespace
}  // namespace zmail::core
