#include "core/system.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <string>

#include "isp_image.hpp"
#include "net/faults.hpp"
#include "store/crc32c.hpp"
#include "store/snapshot.hpp"
#include "store/wal.hpp"
#include "telemetry/registry.hpp"

namespace zmail::core {
namespace {

ZmailParams two_isps() {
  ZmailParams p;
  p.n_isps = 2;
  p.users_per_isp = 3;
  p.initial_user_balance = 20;
  return p;
}

net::EmailAddress user(std::size_t i, std::size_t u) {
  return net::make_user_address(i, u);
}

TEST(System, CrossIspMailMovesOneEPenny) {
  ZmailSystem sys(two_isps(), 1);
  EXPECT_EQ(sys.send_email(user(0, 0), user(1, 1), "hi", "there"),
            SendResult::kSentPaid);
  sys.run_for(sim::kMinute);
  EXPECT_EQ(sys.isp(0).user(0).balance, 19);
  EXPECT_EQ(sys.isp(1).user(1).balance, 21);
  EXPECT_EQ(sys.isp(0).credit()[1], 1);
  EXPECT_EQ(sys.isp(1).credit()[0], -1);
  ASSERT_EQ(sys.isp(1).inbox(1).size(), 1u);
  EXPECT_EQ(sys.isp(1).inbox(1)[0].msg.subject(), "hi");
}

TEST(System, MailTravelsThroughRealSmtp) {
  ZmailSystem sys(two_isps(), 2);
  sys.send_email(user(0, 0), user(1, 0), "subject line", "body\n.dots\nok");
  sys.run_for(sim::kMinute);
  EXPECT_GT(sys.smtp_bytes_received(1), 100u);
  ASSERT_EQ(sys.isp(1).inbox(0).size(), 1u);
  EXPECT_EQ(sys.isp(1).inbox(0)[0].msg.body, "body\n.dots\nok");
}

TEST(System, ConservationHoldsAfterTraffic) {
  ZmailSystem sys(two_isps(), 3);
  for (int i = 0; i < 20; ++i) {
    sys.send_email(user(i % 2, i % 3), user((i + 1) % 2, (i + 1) % 3), "s",
                   "b");
  }
  sys.run_for(sim::kHour);
  EXPECT_EQ(sys.epennies_in_flight(), 0);
  EXPECT_TRUE(sys.conservation_holds());
}

TEST(System, InFlightEPenniesCountedMidFlight) {
  ZmailSystem sys(two_isps(), 4);
  const EPenny before = sys.total_epennies();
  sys.send_email(user(0, 0), user(1, 0), "s", "b");
  // Not yet delivered: the e-penny is in flight but still counted.
  EXPECT_EQ(sys.epennies_in_flight(), 1);
  EXPECT_EQ(sys.total_epennies(), before);
  sys.run_for(sim::kMinute);
  EXPECT_EQ(sys.epennies_in_flight(), 0);
  EXPECT_EQ(sys.total_epennies(), before);
}

TEST(System, UserTradesViaFacade) {
  ZmailSystem sys(two_isps(), 5);
  EXPECT_TRUE(sys.buy_epennies(user(0, 0), 10));
  EXPECT_EQ(sys.isp(0).user(0).balance, 30);
  EXPECT_TRUE(sys.sell_epennies(user(0, 0), 5));
  EXPECT_EQ(sys.isp(0).user(0).balance, 25);
  EXPECT_FALSE(sys.buy_epennies({"nobody", "unknown.example"}, 1));
  EXPECT_TRUE(sys.conservation_holds());
}

TEST(System, RealMoneyIsConservedByUserTrades) {
  ZmailSystem sys(two_isps(), 6);
  const Money before = sys.total_real_money();
  sys.buy_epennies(user(0, 0), 10);
  sys.sell_epennies(user(1, 2), 3);
  EXPECT_EQ(sys.total_real_money(), before);
}

TEST(System, SnapshotRoundCompletesOverNetwork) {
  ZmailSystem sys(two_isps(), 7);
  sys.send_email(user(0, 0), user(1, 0), "s", "b");
  sys.run_for(sim::kMinute);
  sys.start_snapshot();
  // Requests travel, ISPs quiesce 10 minutes, replies return.
  sys.run_for(30 * sim::kMinute);
  EXPECT_FALSE(sys.bank().round_open());
  EXPECT_TRUE(sys.bank().last_violations().empty());
  EXPECT_EQ(sys.bank().seq(), 1u);
  EXPECT_EQ(sys.isp(0).seq(), 1u);
  EXPECT_EQ(sys.isp(1).seq(), 1u);
  // Settlement: ISP 0 paid ISP 1 one e-penny's worth.
  EXPECT_EQ(sys.bank().account(0),
            kInitialIspBankAccount - Money::from_epennies(1));
}

TEST(System, MailSentDuringQuiesceArrivesAfter) {
  ZmailSystem sys(two_isps(), 8);
  sys.start_snapshot();
  sys.run_for(sim::kMinute);  // requests delivered; ISPs quiescing
  ASSERT_TRUE(sys.isp(0).in_quiesce());
  EXPECT_EQ(sys.send_email(user(0, 0), user(1, 0), "during", "quiesce"),
            SendResult::kBuffered);
  EXPECT_TRUE(sys.isp(1).inbox(0).empty());
  sys.run_for(15 * sim::kMinute);  // quiesce expires, mail flushes
  ASSERT_EQ(sys.isp(1).inbox(0).size(), 1u);
  EXPECT_EQ(sys.isp(1).inbox(0)[0].msg.subject(), "during");
  EXPECT_TRUE(sys.conservation_holds());
}

TEST(System, MisbehavingIspDetectedBySnapshot) {
  ZmailSystem sys(two_isps(), 9);
  sys.isp(0).set_misbehavior(Isp::Misbehavior::kFreeRide);
  for (int i = 0; i < 5; ++i)
    sys.send_email(user(0, 0), user(1, 0), "free", "ride");
  sys.run_for(sim::kHour);
  sys.start_snapshot();
  sys.run_for(30 * sim::kMinute);
  ASSERT_EQ(sys.bank().last_violations().size(), 1u);
  EXPECT_EQ(sys.bank().last_violations()[0].discrepancy, -5);
}

TEST(System, LegacySenderDeliversFreeMail) {
  ZmailParams p = two_isps();
  p.n_isps = 3;
  p.compliant = {true, true, false};
  ZmailSystem sys(p, 10);
  EXPECT_EQ(sys.send_email(user(2, 0), user(0, 1), "free", "smtp"),
            SendResult::kSentFree);
  sys.run_for(sim::kMinute);
  EXPECT_EQ(sys.legacy_stats(2).emails_sent, 1u);
  ASSERT_EQ(sys.isp(0).inbox(1).size(), 1u);
  EXPECT_EQ(sys.isp(0).inbox(1)[0].paid, 0);
  EXPECT_EQ(sys.isp(0).user(1).balance, p.initial_user_balance);
}

TEST(System, CompliantToLegacyIsFree) {
  ZmailParams p = two_isps();
  p.n_isps = 3;
  p.compliant = {true, true, false};
  ZmailSystem sys(p, 11);
  EXPECT_EQ(sys.send_email(user(0, 0), user(2, 1), "to", "legacy"),
            SendResult::kSentFree);
  sys.run_for(sim::kMinute);
  EXPECT_EQ(sys.isp(0).user(0).balance, p.initial_user_balance);
  EXPECT_EQ(sys.legacy_stats(2).emails_received, 1u);
}

TEST(System, BankTradingRefillsDepletedPool) {
  ZmailParams p = two_isps();
  p.initial_avail = 60;
  p.minavail = 50;
  p.maxavail = 200;
  ZmailSystem sys(p, 13);
  sys.enable_bank_trading(sim::kMinute);
  // Drain the pool below minavail with user purchases.
  sys.buy_epennies(user(0, 0), 15);
  EXPECT_EQ(sys.isp(0).avail(), 45);
  sys.run_for(10 * sim::kMinute);
  EXPECT_EQ(sys.isp(0).avail(), 200);
  EXPECT_TRUE(sys.conservation_holds());
  EXPECT_GT(sys.bank().epennies_outstanding(), 0);
}

TEST(System, DailyResetsRestoreSendingCapacity) {
  ZmailParams p = two_isps();
  p.default_daily_limit = 2;
  ZmailSystem sys(p, 14);
  sys.enable_daily_resets();
  EXPECT_EQ(sys.send_email(user(0, 0), user(1, 0), "1", "b"),
            SendResult::kSentPaid);
  EXPECT_EQ(sys.send_email(user(0, 0), user(1, 0), "2", "b"),
            SendResult::kSentPaid);
  EXPECT_EQ(sys.send_email(user(0, 0), user(1, 0), "3", "b"),
            SendResult::kDailyLimit);
  sys.run_for(25 * sim::kHour);  // crosses the daily boundary
  EXPECT_EQ(sys.send_email(user(0, 0), user(1, 0), "4", "b"),
            SendResult::kSentPaid);
}

TEST(System, PeriodicSnapshotsAdvanceSeq) {
  ZmailSystem sys(two_isps(), 15);
  sys.enable_periodic_snapshots(2 * sim::kHour);
  sys.send_email(user(0, 0), user(1, 0), "s", "b");
  sys.run_for(7 * sim::kHour);
  EXPECT_GE(sys.bank().metrics().snapshot_rounds, 3u);
  EXPECT_EQ(sys.bank().seq(), sys.isp(0).seq());
}

TEST(System, DeliveryLatencyIsSampled) {
  ZmailSystem sys(two_isps(), 17);
  for (int i = 0; i < 10; ++i)
    sys.send_email(user(0, 0), user(1, 0), "s", "b");
  sys.run_for(sim::kMinute);
  ASSERT_EQ(sys.delivery_latency().size(), 10u);
  EXPECT_GT(sys.delivery_latency().min(), 0.0);
  EXPECT_LT(sys.delivery_latency().max(), 1.0);  // well under a second
}

TEST(System, QuiesceBufferingShowsUpInLatency) {
  ZmailSystem sys(two_isps(), 18);
  sys.start_snapshot();
  sys.run_for(sim::kMinute);
  ASSERT_TRUE(sys.isp(0).in_quiesce());
  sys.send_email(user(0, 0), user(1, 0), "held", "b");
  sys.run_for(20 * sim::kMinute);
  ASSERT_EQ(sys.delivery_latency().size(), 1u);
  // ~9 minutes of buffer time.
  EXPECT_GT(sys.delivery_latency().max(), 8.0 * 60.0);
  EXPECT_LT(sys.delivery_latency().max(), 10.0 * 60.0);
}

TEST(SendOutcome, CarriesResultAndPerRecipientCounts) {
  ZmailSystem sys(two_isps(), 21);
  const SendOutcome ok = sys.send_email(user(0, 0), user(1, 1), "s", "b");
  EXPECT_EQ(ok.result, SendResult::kSentPaid);
  EXPECT_EQ(ok.sent, 1u);
  EXPECT_EQ(ok.refused, 0u);
  EXPECT_TRUE(ok.all_sent());
  // Implicit conversion keeps pre-redesign call sites working.
  const SendResult legacy = ok;
  EXPECT_EQ(legacy, SendResult::kSentPaid);
  switch (ok) {
    case SendResult::kSentPaid:
      break;
    default:
      FAIL() << "switch over SendOutcome must use the embedded result";
  }
}

// Exactly the sends that leave the sender count as sent; a quarantined one
// is neither sent nor refused.
TEST(SendOutcome, EachResultIsSentRefusedOrBlocked) {
  const auto counts = [](SendResult r) {
    const SendOutcome o = SendOutcome::from(r);
    return std::pair{o.sent, o.refused};
  };
  using Counts = std::pair<std::size_t, std::size_t>;
  for (const SendResult r :
       {SendResult::kDeliveredLocally, SendResult::kSentPaid,
        SendResult::kSentFree, SendResult::kBuffered})
    EXPECT_EQ(counts(r), Counts(1, 0)) << static_cast<int>(r);
  EXPECT_EQ(counts(SendResult::kNoBalance), Counts(0, 1));
  EXPECT_EQ(counts(SendResult::kDailyLimit), Counts(0, 1));
  EXPECT_EQ(counts(SendResult::kQuarantined), Counts(0, 0));
}

TEST(SendOutcome, CountsARefusalPerRecipient) {
  ZmailParams p = two_isps();
  p.initial_user_balance = 2;  // enough for two stamps only
  ZmailSystem sys(p, 22);
  // A message to three recipients is one send per recipient.
  std::size_t sent = 0, refused = 0;
  SendOutcome last;
  for (std::size_t u = 0; u < 3; ++u) {
    last = sys.send_email(user(0, 0), user(1, u), "s", "b");
    sent += last.sent;
    refused += last.refused;
  }
  EXPECT_EQ(sent, 2u);
  EXPECT_EQ(refused, 1u);
  EXPECT_FALSE(last.all_sent());
  EXPECT_EQ(last.result, SendResult::kNoBalance);
}

// Pins the single-bank world: one legacy ISP, user and ISP<->bank trades,
// three snapshot rounds, one free-riding ISP pair, and the durable store
// with one bank crash and recovery.  Every literal below was captured from
// the central-bank implementation; the bank state machine may be
// restructured, but a one-bank world must keep doing exactly this.
TEST(CentralBankGolden, SingleBankWorldFinalStateIsPinned) {
  const std::string dir = "core_system_test_golden_store";
  std::filesystem::remove_all(dir);
  ZmailParams p;
  p.n_isps = 4;
  p.users_per_isp = 4;
  p.compliant = {true, true, true, false};
  p.initial_user_balance = 30;
  p.default_daily_limit = 500;
  p.initial_avail = 40;
  p.minavail = 20;
  p.maxavail = 60;
  p.retry.enabled = true;
  p.reliable_email_transport = true;
  p.store.enabled = true;
  p.store.dir = dir;
  ZmailSystem sys(p, 2005);
  sys.enable_bank_trading(10 * sim::kMinute);
  sys.isp(2).set_misbehavior(Isp::Misbehavior::kFreeRide);

  Rng traffic(77);
  auto burst = [&](int n) {
    for (int k = 0; k < n; ++k) {
      const std::size_t src = traffic.next_below(p.n_isps);
      const std::size_t dst = traffic.next_below(p.n_isps);
      sys.send_email(user(src, traffic.next_below(p.users_per_isp)),
                     user(dst, traffic.next_below(p.users_per_isp)), "g",
                     std::string("b").append(std::to_string(k)));
      sys.run_for(sim::kMinute);
    }
  };
  burst(40);
  sys.buy_epennies(user(0, 1), 25);
  sys.sell_epennies(user(1, 2), 10);
  sys.start_snapshot();
  sys.run_for(30 * sim::kMinute);
  burst(30);
  sys.crash_host(sys.bank_index(), 20 * sim::kMinute);
  sys.buy_epennies(user(1, 0), 15);
  burst(30);
  sys.start_snapshot();
  sys.run_for(30 * sim::kMinute);
  burst(30);
  sys.sell_epennies(user(0, 3), 5);
  sys.start_snapshot();
  sys.run_for(2 * sim::kHour);

  EXPECT_EQ(sys.bank().account(0), Money::from_micros(999'590'000));
  EXPECT_EQ(sys.bank().account(1), Money::from_micros(1'000'010'000));
  EXPECT_EQ(sys.bank().account(2), Money::from_micros(1'000'000'000));
  EXPECT_EQ(sys.bank().account(3), Money::from_micros(1'000'000'000));

  const BankMetrics m = sys.bank().metrics();
  EXPECT_EQ(m.buys_received, 1u);
  EXPECT_EQ(m.buys_accepted, 1u);
  EXPECT_EQ(m.buys_rejected, 0u);
  EXPECT_EQ(m.sells_received, 1u);
  EXPECT_EQ(m.snapshot_rounds, 3u);
  EXPECT_EQ(m.credit_reports_received, 9u);
  EXPECT_EQ(m.inconsistent_pairs_found, 6u);
  EXPECT_EQ(m.bad_envelopes, 0u);
  EXPECT_EQ(m.stale_reports, 0u);
  EXPECT_EQ(m.duplicate_buys, 0u);
  EXPECT_EQ(m.duplicate_sells, 0u);
  EXPECT_EQ(m.stale_trades, 0u);
  EXPECT_EQ(m.snapshot_rerequests, 0u);
  EXPECT_EQ(m.trade_reply_retries, 0u);
  EXPECT_EQ(m.epennies_minted, 45);
  EXPECT_EQ(m.epennies_burned, 5);
  EXPECT_EQ(m.settlement_transfers, 2u);
  EXPECT_EQ(m.settlement_bytes, 32u);

  EXPECT_EQ(sys.bank().persistent_drift_pairs(), 2u);
  const auto& v = sys.bank().last_violations();
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0].isp_i, 0u);
  EXPECT_EQ(v[0].isp_j, 2u);
  EXPECT_EQ(v[0].discrepancy, -2);
  EXPECT_EQ(v[1].isp_i, 1u);
  EXPECT_EQ(v[1].isp_j, 2u);
  EXPECT_EQ(v[1].discrepancy, -2);

  EXPECT_EQ(sys.delivery_latency().size(), 93u);
  EXPECT_EQ(sys.delivery_latency().sum(), 0x1.635f4e4430b18p+1);
  EXPECT_EQ(sys.state_recoveries(), 1u);
  EXPECT_EQ(sys.bank().seq(), 3u);
  EXPECT_FALSE(sys.bank().round_open());

  // Persisted-layout pins: a reordered or dropped counter in either
  // serializer still round-trips, so only the bytes themselves catch it.
  const crypto::Bytes isp_state = isp_image(sys.isp(0));
  EXPECT_EQ(store::crc32c(isp_state.data(), isp_state.size()), 0x523f6ae5u);
  const crypto::Bytes bank_state = sys.bank().serialize_state(0);
  EXPECT_EQ(store::crc32c(bank_state.data(), bank_state.size()), 0x2c600b15u);
  std::filesystem::remove_all(dir);
}

// Pins the WAL bytes of a small durable world: two ISPs and the bank under
// a lossy network, read before the first checkpoint truncates any log.
// Every record type on the hot path is in these files (user sends, received
// mail, retransmit notes, trades on both sides, the round opening), so a
// change to how a record is encoded, framed or checksummed changes a pin.
TEST(WalGolden, TwoIspLogsBeforeTheFirstCheckpointArePinned) {
  const std::string dir = "core_system_test_wal_golden";
  std::filesystem::remove_all(dir);
  ZmailParams p;
  p.n_isps = 2;
  p.users_per_isp = 4;
  p.initial_user_balance = 30;
  p.initial_avail = 10;
  p.minavail = 20;
  p.maxavail = 60;
  p.retry.enabled = true;
  p.reliable_email_transport = true;
  p.store.enabled = true;
  p.store.dir = dir;
  p.store.fsync_data = false;
  ZmailSystem sys(p, 1861);
  sys.enable_bank_trading(10 * sim::kMinute);
  net::FaultPlan plan;
  plan.rates.drop = 0.2;
  plan.rates.duplicate = 0.1;
  plan.rates.reorder = 0.1;
  net::FaultInjector faults(plan, 62);
  sys.attach_faults(&faults);

  Rng traffic(5);
  for (int k = 0; k < 60; ++k) {
    const std::size_t src = traffic.next_below(p.n_isps);
    const std::size_t dst = traffic.next_below(p.n_isps);
    sys.send_email(user(src, traffic.next_below(p.users_per_isp)),
                   user(dst, traffic.next_below(p.users_per_isp)), "w",
                   "wal " + std::to_string(k));
    if (k == 20) sys.buy_epennies(user(1, 2), 7);
    if (k == 40) sys.sell_epennies(user(0, 1), 3);
    sys.run_for(sim::kMinute);
  }
  sys.start_snapshot();
  sys.run_for(2 * sim::kMinute);  // inside the 10-minute quiesce window
  sys.attach_faults(nullptr);
  ASSERT_EQ(sys.store_totals().checkpoints, 0u);
  ASSERT_GT(sys.total_isp_metrics().emails_retransmitted, 0u);

  std::map<std::string, std::uint32_t> crcs;
  std::map<std::uint8_t, std::uint64_t> isp_ops, bank_ops;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".zwal") continue;
    const std::string name = entry.path().filename().string();
    crypto::Bytes file;
    ASSERT_EQ(store::read_file(entry.path().string(), file),
              store::StoreStatus::kOk);
    auto& ops = name.rfind("isp", 0) == 0 ? isp_ops : bank_ops;
    const store::WalScanResult scan = store::wal_scan(
        file, [&](const store::WalRecord& r) { ++ops[r.type]; });
    ASSERT_EQ(scan.status, store::StoreStatus::kOk) << name;
    // The writers are still open, so each file runs on past its log to the
    // end of the writer's window: the pins cover the log, and the rest is
    // zeros (nothing checkpointed, so no stale extent).
    ASSERT_LT(scan.valid_bytes, file.size()) << name;
    EXPECT_TRUE(std::all_of(file.begin() + static_cast<std::ptrdiff_t>(
                                               scan.valid_bytes),
                            file.end(), [](std::uint8_t b) { return b == 0; }))
        << name;
    crcs[name] = store::crc32c(file.data(), scan.valid_bytes);
  }
  const auto op = [](auto v) { return static_cast<std::uint8_t>(v); };
  EXPECT_GT(isp_ops[op(Isp::WalOp::kUserSend)], 0u);
  EXPECT_GT(isp_ops[op(Isp::WalOp::kOnEmail)], 0u);
  EXPECT_GT(isp_ops[op(Isp::WalOp::kNoteRetransmit)], 0u);
  EXPECT_GT(isp_ops[op(Isp::WalOp::kSnapshotRequest)], 0u);
  EXPECT_GT(bank_ops[op(BankFederation::WalOp::kOnBuy)], 0u);
  EXPECT_GT(bank_ops[op(BankFederation::WalOp::kOnSell)], 0u);
  EXPECT_GT(bank_ops[op(BankFederation::WalOp::kStartRound)], 0u);

  const std::map<std::string, std::uint32_t> pinned = {
      {"bank.zwal", 0xd703b98cu},
      {"isp0.zwal", 0x9fbbdcd6u},
      {"isp1.zwal", 0x952e901eu}};
  EXPECT_EQ(crcs, pinned);
  std::filesystem::remove_all(dir);
}

// Isp keeps users_bought()/users_sold() as running totals for the O(1)
// telemetry trade gauges.  They must equal the lifetime column sums after
// live trades, a restore_snapshot and a recover_host that replays trades
// from the WAL tail.
TEST(TradeTotals, RunningTotalsMatchTheColumnsAfterEveryRestore) {
  const std::string dir = "core_system_test_trade_totals";
  std::filesystem::remove_all(dir);
  ZmailParams p;
  p.n_isps = 2;
  p.users_per_isp = 4;
  p.initial_user_balance = 20;
  p.store.enabled = true;
  p.store.dir = dir;
  ZmailSystem sys(p, 31);
  telemetry::TelemetryConfig tc;
  tc.enabled = true;
  sys.enable_telemetry(tc);

  Rng rng(32);
  auto trade = [&](int n) {
    for (int k = 0; k < n; ++k) {
      const auto u = user(0, rng.next_below(p.users_per_isp));
      if (k % 3 == 2)
        sys.sell_epennies(u, 1 + static_cast<EPenny>(rng.next_below(4)));
      else
        sys.buy_epennies(u, 1 + static_cast<EPenny>(rng.next_below(8)));
      sys.run_for(sim::kMinute);
    }
  };
  auto column_sums = [](const Isp& isp) {
    std::pair<EPenny, EPenny> sums{0, 0};
    isp.users().for_each_active([&](UserId, ConstUserRef u) {
      sums.first += u.lifetime_epennies_bought;
      sums.second += u.lifetime_epennies_sold;
    });
    return sums;
  };
  auto expect_totals = [&](const Isp& isp, const char* path) {
    const auto [bought, sold] = column_sums(isp);
    EXPECT_EQ(isp.users_bought(), bought) << path;
    EXPECT_EQ(isp.users_sold(), sold) << path;
  };

  trade(24);
  const auto live = column_sums(sys.isp(0));
  ASSERT_GT(live.first, 0);
  ASSERT_GT(live.second, 0);
  expect_totals(sys.isp(0), "live trades");

  const crypto::RsaKey bank_pub = sys.bank().public_key_for(0);
  store::SnapshotData snap;
  crypto::Bytes scalars;
  sys.isp(0).serialize_sections(scalars, snap.sections);
  Isp by_column(0, sys.params(), bank_pub, 1);
  ASSERT_TRUE(by_column.restore_snapshot(snap));
  expect_totals(by_column, "restore_snapshot");
  EXPECT_EQ(column_sums(by_column), live);

  // Trades after the checkpoint live only in the WAL tail.
  sys.checkpoint_host(0);
  trade(12);
  const auto before_crash = column_sums(sys.isp(0));
  ASSERT_GT(before_crash.first, live.first);
  sys.recover_host(0);
  expect_totals(sys.isp(0), "recover_host");
  EXPECT_EQ(column_sums(sys.isp(0)), before_crash);

  // The rate series' points sum to its last reading, the running total.
  sys.telemetry()->sample(sys.now());
  double sampled = 0;
  for (const auto& series : sys.telemetry()->collect())
    if (series.key() == "econ.isp0.user_epennies_bought")
      for (const auto& pt : series.points) sampled += pt.value;
  EXPECT_EQ(sampled, static_cast<double>(before_crash.first));
  std::filesystem::remove_all(dir);
}

TEST(IspId, ImplicitFromIndexAndComparable) {
  const IspId a = 2;  // implicit: indices keep working at call sites
  const IspId b(2);
  const IspId c = 3;
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_LT(a, c);
  EXPECT_EQ(a.index(), 2u);

  ZmailSystem sys(two_isps(), 23);
  sys.send_email(user(0, 0), user(1, 1), "s", "b");
  sys.run_for(sim::kMinute);
  const IspId receiver = 1;
  EXPECT_TRUE(sys.is_compliant(receiver));
  EXPECT_EQ(sys.isp(receiver).user(1).balance, 21);
  EXPECT_GT(sys.smtp_bytes_received(receiver), 0u);
}

TEST(System, AccessingLegacyIspAsCompliantAborts) {
  ZmailParams p = two_isps();
  p.n_isps = 3;
  p.compliant = {true, true, false};
  ZmailSystem sys(p, 16);
  EXPECT_DEATH((void)sys.isp(2), "non-compliant");
}

}  // namespace
}  // namespace zmail::core
