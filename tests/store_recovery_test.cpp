// Crash recovery end to end: a rebuilt party must be byte-identical to the
// one that "died" (snapshot + WAL replay is exact under fsync-per-record),
// a crash mid-scenario must leave the invariant auditor green, and
// reopening a store directory must resume the persisted state.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "core/invariants.hpp"
#include "core/system.hpp"
#include "isp_image.hpp"
#include "net/address.hpp"
#include "net/faults.hpp"
#include "store/checkpoint.hpp"

namespace zmail::core {
namespace {

std::string fresh_dir(const std::string& name) {
  const std::string dir = "store_recovery_test_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

ZmailParams store_params(const std::string& dir) {
  ZmailParams p;
  p.n_isps = 3;
  p.users_per_isp = 3;
  p.initial_user_balance = 200;
  p.default_daily_limit = 1'000;
  p.initial_avail = 300;
  p.minavail = 100;
  p.maxavail = 600;
  p.record_inboxes = false;
  p.store.enabled = true;
  p.store.dir = dir;
  return p;
}

void drive_traffic(ZmailSystem& sys, std::uint64_t seed, int rounds) {
  Rng rng(seed);
  const auto& p = sys.params();
  for (int i = 0; i < rounds; ++i) {
    const std::size_t src = rng.next_below(p.n_isps);
    const std::size_t dst = (src + 1 + rng.next_below(p.n_isps - 1)) % p.n_isps;
    sys.send_email(net::make_user_address(src, rng.next_below(p.users_per_isp)),
                   net::make_user_address(dst, rng.next_below(p.users_per_isp)),
                   "t", "b" + std::to_string(i));
    sys.run_for(sim::kMinute);
  }
}

TEST(StoreRecoveryTest, RecoverHostIsByteExactAtAQuietPoint) {
  const std::string dir = fresh_dir("exact");
  ZmailSystem sys(store_params(dir), 91);
  sys.enable_bank_trading();
  drive_traffic(sys, 92, 30);
  sys.start_snapshot();  // exercise quiesce buffering + the round machinery
  drive_traffic(sys, 93, 20);
  sys.run_for(sim::kHour);  // settle: outboxes drained, replies processed

  const crypto::Bytes isp_before = isp_image(sys.isp(0));
  const crypto::Bytes bank_before = sys.bank().serialize_state(0);
  ASSERT_FALSE(isp_before.empty());

  sys.recover_host(0);
  sys.recover_host(sys.bank_index());
  EXPECT_EQ(sys.state_recoveries(), 2u);

  // The rebuilt parties (fresh construction -> snapshot restore -> WAL
  // replay) must match the pre-crash state byte for byte, RNG and all.
  EXPECT_EQ(isp_image(sys.isp(0)), isp_before);
  EXPECT_EQ(sys.bank().serialize_state(0), bank_before);

  // And the recovered system keeps working: more traffic, clean audits.
  InvariantAuditor auditor(sys);
  drive_traffic(sys, 94, 10);
  sys.start_snapshot();
  sys.run_for(sim::kHour);
  auditor.check_now();
  EXPECT_TRUE(auditor.report().ok())
      << (auditor.report().messages.empty()
              ? ""
              : auditor.report().messages.front());
  std::filesystem::remove_all(dir);
}

TEST(StoreRecoveryTest, CrashMidScenarioRecoversWithCleanAudits) {
  const std::string dir = fresh_dir("chaos");
  ZmailParams p = store_params(dir);
  // Crash survival needs the fault-tolerance stack: acked exactly-once
  // email and ISP<->bank retries redrive whatever the outage window ate.
  p.reliable_email_transport = true;
  p.retry.enabled = true;
  p.retry.base = 30 * sim::kSecond;
  ZmailSystem sys(p, 111);
  sys.enable_bank_trading();
  InvariantAuditor auditor(sys);
  auditor.run_continuously(5 * sim::kMinute);

  drive_traffic(sys, 112, 15);
  sys.start_snapshot();
  drive_traffic(sys, 113, 5);

  // Crash an ISP mid-flow, then the bank a little later.
  sys.crash_host(0, 2 * sim::kMinute);
  drive_traffic(sys, 114, 10);
  sys.crash_host(sys.bank_index(), 2 * sim::kMinute);
  drive_traffic(sys, 115, 10);
  sys.start_snapshot();
  sys.run_for(2 * sim::kHour);

  EXPECT_EQ(sys.state_recoveries(), 2u);
  EXPECT_EQ(sys.pending_transfers(), 0u);
  auditor.check_now();
  EXPECT_TRUE(auditor.report().ok())
      << (auditor.report().messages.empty()
              ? ""
              : auditor.report().messages.front());
  EXPECT_TRUE(sys.conservation_holds());
  std::filesystem::remove_all(dir);
}

TEST(StoreRecoveryTest, ReopeningAStoreDirectoryResumesPersistedState) {
  const std::string dir = fresh_dir("reopen");
  crypto::Bytes isp_saved, bank_saved;
  {
    ZmailSystem sys(store_params(dir), 77);
    sys.enable_bank_trading();
    drive_traffic(sys, 78, 25);
    sys.start_snapshot();
    sys.run_for(sim::kHour);
    sys.checkpoint_all();
    isp_saved = isp_image(sys.isp(1));
    bank_saved = sys.bank().serialize_state(0);
  }  // process "exits"

  // Same params + seed, same directory: construction recovers every party
  // from disk (recover-at-open), not counted as a crash recovery.
  ZmailSystem sys(store_params(dir), 77);
  EXPECT_EQ(sys.state_recoveries(), 0u);
  EXPECT_EQ(isp_image(sys.isp(1)), isp_saved);
  EXPECT_EQ(sys.bank().serialize_state(0), bank_saved);
  std::filesystem::remove_all(dir);
}

TEST(StoreRecoveryTest, StoreOffRunsAreBitIdenticalToEachOther) {
  // Belt and braces for the zero-cost-off contract: two identical store-off
  // systems and one store-on system produce the same simulation metrics.
  const std::string dir = fresh_dir("zerocost");
  ZmailParams off = store_params(dir);
  off.store.enabled = false;
  ZmailSystem a(off, 55);
  ZmailSystem b(off, 55);
  ZmailParams on = store_params(dir);
  ZmailSystem c(on, 55);
  for (ZmailSystem* s : {&a, &b, &c}) {
    s->enable_bank_trading();
    drive_traffic(*s, 56, 20);
    s->start_snapshot();
    s->run_for(sim::kHour);
  }
  EXPECT_EQ(isp_image(a.isp(0)), isp_image(b.isp(0)));
  EXPECT_EQ(a.bank().serialize_state(0), b.bank().serialize_state(0));
  // The durable store must not perturb the simulation: state bytes match
  // the store-off run exactly (the WAL observes commands, never reorders
  // or reinterprets them).
  EXPECT_EQ(isp_image(a.isp(0)), isp_image(c.isp(0)));
  EXPECT_EQ(a.bank().serialize_state(0), c.bank().serialize_state(0));
  EXPECT_EQ(a.total_epennies(), c.total_epennies());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace zmail::core
