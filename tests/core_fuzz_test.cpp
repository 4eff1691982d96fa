// Failure injection and randomized fuzzing of the protocol surfaces.
//
// Two layers:
//   1. wire fuzz — every handler that accepts bytes from the network is
//      fed random garbage, truncations, and bit-flipped real messages; it
//      must never crash and never change monetary state;
//   2. operation fuzz — long random sequences of API operations (sends,
//      trades, snapshots, day rollovers, compliance flips, quiesces) with
//      the global invariants checked throughout.
#include <gtest/gtest.h>

#include "core/invariants.hpp"
#include "core/system.hpp"
#include "net/faults.hpp"

namespace zmail::core {
namespace {

net::EmailAddress user(std::size_t i, std::size_t u) {
  return net::make_user_address(i, u);
}

// --- Layer 1: wire fuzz -------------------------------------------------------

class WireFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WireFuzzTest, GarbageNeverCrashesOrMovesMoney) {
  Rng rng(GetParam());
  ZmailParams p;
  p.n_isps = 2;
  p.users_per_isp = 2;
  Rng key_rng(GetParam() ^ 0xFF);
  const crypto::KeyPair keys = crypto::generate_keypair(key_rng);
  Isp isp(0, p, keys.pub, 5);
  BankFederation bank(p, {keys}, 6);

  const EPenny isp_held = isp.epennies_held();
  const Money bank_account = bank.account(0);

  for (int i = 0; i < 300; ++i) {
    crypto::Bytes junk(rng.next_below(64));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_u64());
    switch (rng.next_below(6)) {
      case 0: isp.on_email(1, junk); break;
      case 1: isp.on_buyreply(junk); break;
      case 2: isp.on_sellreply(junk); break;
      case 3: isp.on_request(junk); break;
      case 4: (void)bank.on_buy(0, junk); break;
      case 5: bank.on_reply(0, junk); break;
    }
  }
  EXPECT_EQ(isp.epennies_held(), isp_held);
  EXPECT_EQ(bank.account(0), bank_account);
  EXPECT_FALSE(isp.in_quiesce());
  EXPECT_GT(isp.metrics().bad_envelopes, 0u);
}

TEST_P(WireFuzzTest, BitFlippedRealMessagesRejected) {
  Rng rng(GetParam() + 1'000);
  ZmailParams p;
  p.n_isps = 2;
  p.users_per_isp = 2;
  p.minavail = 50;
  p.maxavail = 200;
  Rng key_rng(GetParam() ^ 0xAA);
  const crypto::KeyPair keys = crypto::generate_keypair(key_rng);
  Isp isp(0, p, keys.pub, 7);
  BankFederation bank(p, {keys}, 8);

  // Produce one real buy, capture its reply, then flip bits in copies.
  isp.set_avail(10);
  isp.maybe_trade_with_bank();
  crypto::Bytes reply;
  for (const Outbound& o : isp.take_outbox()) reply = bank.on_buy(0, o.payload);
  ASSERT_FALSE(reply.empty());

  for (int i = 0; i < 200; ++i) {
    crypto::Bytes mutated = reply;
    const std::size_t byte = rng.next_below(mutated.size());
    mutated[byte] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
    isp.on_buyreply(mutated);
    EXPECT_EQ(isp.avail(), 10) << "tampered reply changed state";
  }
  // The pristine reply still works exactly once afterwards.
  isp.on_buyreply(reply);
  EXPECT_EQ(isp.avail(), 200);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireFuzzTest,
                         ::testing::Range<std::uint64_t>(0, 6));

// --- Layer 2: operation fuzz ---------------------------------------------------

class OpFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OpFuzzTest, InvariantsSurviveRandomOperationSequences) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);

  ZmailParams p;
  p.n_isps = 4;
  p.users_per_isp = 5;
  p.initial_user_balance = 60;
  p.default_daily_limit = 40;
  p.minavail = 200;
  p.maxavail = 2'000;
  p.initial_avail = 1'000;
  p.compliant = {true, true, true, false};
  ZmailSystem sys(p, seed);
  Money money_total = sys.total_real_money();

  auto random_user = [&](bool compliant_only) {
    for (;;) {
      const std::size_t i = rng.next_below(p.n_isps);
      if (compliant_only && !sys.is_compliant(i)) continue;
      return user(i, rng.next_below(p.users_per_isp));
    }
  };

  for (int op = 0; op < 400; ++op) {
    switch (rng.next_below(10)) {
      case 0:
      case 1:
      case 2:  // plain send (any sender)
        sys.send_email(random_user(false), random_user(false), "f", "b",
                       rng.bernoulli(0.2) ? net::MailClass::kSpam
                                          : net::MailClass::kLegitimate);
        break;
      case 3: {  // one message to three recipients: a send per recipient
        const net::EmailAddress from = random_user(false);
        const net::EmailAddress to[] = {random_user(false), random_user(false),
                                        random_user(false)};
        for (const net::EmailAddress& r : to) sys.send_email(from, r, "m", "b");
        break;
      }
      case 4:
        sys.buy_epennies(random_user(true), rng.uniform_int(1, 30));
        break;
      case 5:
        sys.sell_epennies(random_user(true), rng.uniform_int(1, 30));
        break;
      case 6:  // short idle
        sys.run_for(static_cast<sim::Duration>(
            rng.next_below(static_cast<std::uint64_t>(sim::kMinute))));
        break;
      case 7:  // snapshot (possibly overlapping quiesce windows)
        sys.start_snapshot();
        sys.run_for(rng.bernoulli(0.5) ? 15 * sim::kMinute : sim::kMinute);
        break;
      case 8:  // day rollover
        for (std::size_t i = 0; i < p.n_isps; ++i)
          if (sys.is_compliant(i)) sys.isp(i).end_of_day();
        break;
      case 9:  // drain fully, then occasionally flip the legacy ISP
        sys.run_for(30 * sim::kMinute);
        if (!sys.is_compliant(3) && sys.epennies_in_flight() == 0 &&
            rng.bernoulli(0.3)) {
          sys.make_compliant(3);
          // The flip brings ISP 3's users' real-money accounts (and its
          // till) into the measured economy.
          money_total = sys.total_real_money();
        }
        break;
    }

    // Cheap invariants on every step.
    for (std::size_t i = 0; i < p.n_isps; ++i) {
      if (!sys.is_compliant(i)) continue;
      ASSERT_GE(sys.isp(i).avail(), 0) << "seed " << seed << " op " << op;
      for (std::size_t u = 0; u < p.users_per_isp; ++u)
        ASSERT_GE(sys.isp(i).user(u).balance, 0)
            << "seed " << seed << " op " << op;
    }
  }

  // Full drain, then the global invariants.
  sys.run_for(2 * sim::kHour);
  EXPECT_EQ(sys.epennies_in_flight(), 0) << "seed " << seed;
  EXPECT_TRUE(sys.conservation_holds()) << "seed " << seed;
  EXPECT_EQ(sys.total_real_money(), money_total) << "seed " << seed;
  EXPECT_EQ(sys.bank().metrics().inconsistent_pairs_found, 0u)
      << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, OpFuzzTest,
                         ::testing::Range<std::uint64_t>(10, 26));

// --- Layer 3: corruption round trip over every wire type ----------------------
//
// A FaultInjector bit-flips half and truncates a quarter of ALL datagrams —
// emails on the reliable transport, plain emails to/from the legacy ISP,
// buy/sell exchanges, snapshot requests and credit reports, acks.  Every
// parse/unseal path sees mangled input mid-protocol; the hardened
// configuration must neither crash nor leak a single e-penny, and once the
// network heals every paid email must have landed.

class CorruptionRoundTripTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(CorruptionRoundTripTest, MangledWiresNeverCrashOrLeak) {
  const std::uint64_t seed = GetParam();
  ZmailParams p;
  p.n_isps = 3;
  p.users_per_isp = 3;
  p.initial_user_balance = 500;
  p.default_daily_limit = 1'000;
  p.minavail = 50;
  p.maxavail = 200;
  p.initial_avail = 100;
  p.compliant = {true, true, false};  // a legacy ISP keeps kMsgEmail in play
  p.retry.enabled = true;
  p.reliable_email_transport = true;
  ZmailSystem sys(p, seed);
  sys.enable_bank_trading(sim::kMinute);

  net::FaultPlan plan;
  plan.rates.corrupt = 0.5;
  plan.rates.truncate = 0.25;
  net::FaultInjector inj(plan, seed ^ 0xC0FFEE);
  sys.attach_faults(&inj);

  InvariantAuditor auditor(sys);
  Rng rng(seed + 3);
  for (int i = 0; i < 40; ++i) {
    // Paid compliant<->compliant, free compliant->legacy, legacy->compliant.
    sys.send_email(user(0, rng.next_below(3)), user(1, rng.next_below(3)),
                   "x", std::string("p").append(std::to_string(i)));
    if (i % 4 == 0)
      sys.send_email(user(0, 0), user(2, 0), "x", "to-legacy");
    if (i % 4 == 2)
      sys.send_email(user(2, 0), user(1, 0), "x", "from-legacy");
    // Force bank trades so buy/sell wires cross the hostile network too.
    if (i % 8 == 1) sys.buy_epennies(user(0, 0), 60);
    if (i % 8 == 5) sys.sell_epennies(user(1, 0), 30);
    sys.run_for(sim::kMinute);
  }
  sys.start_snapshot();  // request/reply wires get mangled as well
  sys.run_for(sim::kHour);

  // Heal and drain: recovery must finish the job.
  sys.attach_faults(nullptr);
  sys.run_for(2 * sim::kHour);

  EXPECT_GT(inj.counters().corrupted + inj.counters().truncated, 0u);
  const IspMetrics m = sys.total_isp_metrics();
  EXPECT_EQ(m.emails_received_compliant, m.emails_sent_compliant)
      << "seed " << seed;
  EXPECT_EQ(sys.pending_transfers(), 0u) << "seed " << seed;
  EXPECT_TRUE(sys.conservation_holds()) << "seed " << seed;
  auditor.check_now();
  EXPECT_TRUE(auditor.report().ok())
      << "seed " << seed << ": "
      << (auditor.report().messages.empty()
              ? ""
              : auditor.report().messages.front());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorruptionRoundTripTest,
                         ::testing::Range<std::uint64_t>(40, 46));

}  // namespace
}  // namespace zmail::core
