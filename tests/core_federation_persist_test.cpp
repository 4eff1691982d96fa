// Federation durability end to end: a rebuilt member bank must be
// byte-identical to the one that "died", a torn or bit-flipped tail on a
// bank's WAL must trim cleanly to the last valid record, replayed
// inter-bank wires must be absorbed by the idempotency ledgers, and a
// mid-round bank crash must end in a settled round with clean audits.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "core/federation.hpp"
#include "core/invariants.hpp"
#include "core/isp.hpp"
#include "core/system.hpp"
#include "interbank_wire_queue.hpp"
#include "net/address.hpp"
#include "store/wal.hpp"

namespace zmail::core {
namespace {

std::string fresh_dir(const std::string& name) {
  const std::string dir = "fed_persist_test_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

ZmailParams fed_store_params(const std::string& dir, std::size_t n_banks) {
  ZmailParams p;
  p.n_isps = 8;
  p.n_banks = n_banks;
  p.users_per_isp = 3;
  p.initial_user_balance = 200;
  p.default_daily_limit = 1'000;
  p.initial_avail = 300;
  p.minavail = 100;
  p.maxavail = 600;
  p.record_inboxes = false;
  p.retry.enabled = true;  // the inter-bank plane rides real datagrams
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
                   "t", std::string("b").append(std::to_string(i)));
    sys.run_for(sim::kMinute);
  }
}

TEST(FederationPersistTest, RecoveredBankIsByteExactAtAQuietPoint) {
  const std::string dir = fresh_dir("exact");
  ZmailSystem sys(fed_store_params(dir, 4), 91);
  sys.enable_bank_trading();
  drive_traffic(sys, 92, 30);
  sys.start_snapshot();
  drive_traffic(sys, 93, 20);
  sys.run_for(2 * sim::kHour);  // settle: round closed, wires acked
  ASSERT_FALSE(sys.bank().round_open());
  ASSERT_EQ(sys.pending_transfers(), 0u);

  std::vector<crypto::Bytes> before;
  for (std::size_t b = 0; b < 4; ++b)
    before.push_back(sys.bank().serialize_state(b));
  ASSERT_FALSE(before[0].empty());

  for (std::size_t b = 0; b < 4; ++b) sys.recover_host(sys.bank_host(b));
  EXPECT_EQ(sys.state_recoveries(), 4u);

  // The rebuilt banks (fresh construction -> snapshot restore -> WAL
  // replay) must match the pre-crash state byte for byte, RNG and all.
  for (std::size_t b = 0; b < 4; ++b)
    EXPECT_EQ(sys.bank().serialize_state(b), before[b]) << "bank " << b;

  // And the recovered federation keeps settling: more traffic, clean audit.
  InvariantAuditor auditor(sys);
  drive_traffic(sys, 94, 10);
  sys.start_snapshot();
  sys.run_for(2 * sim::kHour);
  auditor.check_now();
  EXPECT_TRUE(auditor.report().ok())
      << (auditor.report().messages.empty()
              ? ""
              : auditor.report().messages.front());
  std::filesystem::remove_all(dir);
}

// Truncate the bank WAL at every byte offset of the final record, and
// separately flip a bit at every byte offset of the final record.  Every
// mangled image must scan to exactly the preceding records — a torn tail
// is data loss, never an open error and never a phantom record — and the
// store must reopen on top of it.
TEST(FederationPersistTest, TornFederationWalTailStopsAtLastValidRecord) {
  const std::string dir = fresh_dir("torn");
  {
    ZmailParams p = fed_store_params(dir, 2);
    p.initial_avail = 120;  // a few user buys push every pool below minavail
    ZmailSystem sys(p, 77);
    sys.enable_bank_trading();
    // Trades only, no snapshot: no checkpoint runs, so the buy records
    // stay in the log for the fuzz below.  ISPs 1/3/5/7 are homed on
    // bank1; deplete each pool so each ISP buys from it once.
    for (std::size_t isp : {1u, 3u, 5u, 7u}) {
      for (int k = 0; k < 3; ++k)
        ASSERT_TRUE(sys.buy_epennies(net::make_user_address(isp, k % 3), 10));
      sys.run_for(6 * sim::kMinute);  // let the trading poll fire
    }
    drive_traffic(sys, 78, 10);
  }  // process "exits"

  const std::string path = dir + "/bank1.zwal";
  crypto::Bytes intact;
  ASSERT_EQ(store::read_file(path, intact), store::StoreStatus::kOk);
  const store::WalScanResult full = store::wal_scan(intact);
  ASSERT_EQ(full.status, store::StoreStatus::kOk);
  ASSERT_GT(full.records, 1u);
  ASSERT_EQ(full.valid_bytes, intact.size());

  // Start of the final record: everything before it survives a scan of
  // the image missing its last byte.
  crypto::Bytes headless(intact.begin(), intact.end() - 1);
  const std::size_t final_start = store::wal_scan(headless).valid_bytes;
  ASSERT_LT(final_start, intact.size());

  const auto check_mangled = [&](const crypto::Bytes& mangled,
                                 const char* what, std::size_t off) {
    const store::WalScanResult r = store::wal_scan(mangled);
    EXPECT_EQ(r.records, full.records - 1) << what << " at offset " << off;
    EXPECT_EQ(r.last_lsn, full.last_lsn - 1) << what << " at offset " << off;
    EXPECT_EQ(r.valid_bytes, final_start) << what << " at offset " << off;
  };
  for (std::size_t cut = final_start; cut < intact.size(); ++cut)
    check_mangled(
        crypto::Bytes(intact.begin(),
                      intact.begin() + static_cast<std::ptrdiff_t>(cut)),
        "truncate", cut);
  for (std::size_t off = final_start; off < intact.size(); ++off) {
    crypto::Bytes mangled = intact;
    mangled[off] ^= 0x10;
    check_mangled(mangled, "corrupt", off);
  }

  // The recovery path proper: a store whose WAL lost its tail reopens and
  // restores the durable prefix (recover-at-open, not a crash recovery).
  {
    FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(intact.data(), 1, final_start, f), final_start);
    std::fclose(f);
  }
  ZmailSystem reopened(fed_store_params(dir, 2), 77);
  EXPECT_EQ(reopened.state_recoveries(), 0u);
  EXPECT_FALSE(reopened.bank().serialize_state(1).empty());
  std::filesystem::remove_all(dir);
}

TEST(FederationPersistTest, DuplicateAndStaleInterbankWiresAbsorbed) {
  ZmailParams p;
  p.n_isps = 6;
  p.users_per_isp = 2;
  p.n_banks = 3;
  Rng key_rng(11);
  std::vector<crypto::KeyPair> keys;
  for (std::size_t b = 0; b < p.n_banks; ++b)
    keys.push_back(crypto::generate_keypair(key_rng));
  BankFederation fed(p, std::move(keys), 11);

  InterbankWireQueue queue;
  queue.attach(fed);

  std::vector<Isp> isps;
  isps.reserve(p.n_isps);
  for (std::size_t i = 0; i < p.n_isps; ++i)
    isps.emplace_back(i, p, fed.public_key_for(i), 200 + i);
  const auto mail_between = [&](std::size_t a, std::size_t b, int k) {
    for (int m = 0; m < k; ++m)
      isps[a].user_send(0, b, 0,
                        net::make_email(net::make_user_address(a, 0),
                                        net::make_user_address(b, 0), "s",
                                        "b"));
    for (const Outbound& o : isps[a].take_outbox())
      isps[b].on_email(a, o.payload);
  };
  mail_between(0, 4, 5);
  mail_between(4, 2, 3);
  mail_between(2, 0, 1);
  mail_between(1, 3, 7);

  for (auto& [idx, wire] : fed.start_snapshot()) {
    isps[idx].on_request(wire);
    isps[idx].on_quiesce_timeout();
    for (const Outbound& o : isps[idx].take_outbox())
      if (o.type == kMsgReply) fed.on_reply(idx, o.payload);
  }
  // Deliver the inter-bank plane (columns, clearing) to quiescence,
  // remembering every wire for the replay below.
  const std::vector<InterbankWire> seen = queue.drain(fed);
  ASSERT_FALSE(fed.round_open());
  ASSERT_FALSE(seen.empty());

  const BankMetrics base = fed.metrics();
  std::vector<Money> positions;
  for (std::size_t b = 0; b < 3; ++b)
    positions.push_back(fed.clearing_position(b));

  // A confused (or malicious) peer replays the entire round's traffic:
  // none is re-applied.
  for (const InterbankWire& d : seen)
    fed.on_interbank(d.to, d.from, d.kind, d.wire);
  EXPECT_TRUE(queue.drain(fed).empty());

  const BankMetrics after = fed.metrics();
  EXPECT_EQ(after.snapshot_rounds, base.snapshot_rounds);
  EXPECT_EQ(after.clearing_transfers, base.clearing_transfers);
  EXPECT_EQ(after.settlements_cross_bank, base.settlements_cross_bank);
  EXPECT_GT(after.duplicate_interbank + after.stale_interbank, 0u);
  Money net = Money::zero();
  for (std::size_t b = 0; b < 3; ++b) {
    EXPECT_EQ(fed.clearing_position(b), positions[b]) << "bank " << b;
    net += fed.clearing_position(b);
  }
  EXPECT_TRUE(net.is_zero());
  EXPECT_FALSE(fed.round_open());
}

TEST(FederationPersistTest, MidRoundBankCrashRecoversAndSettles) {
  const std::string dir = fresh_dir("crash");
  ZmailSystem sys(fed_store_params(dir, 4), 314);
  sys.enable_bank_trading();
  InvariantAuditor auditor(sys);
  auditor.run_continuously(10 * sim::kMinute);

  drive_traffic(sys, 315, 20);
  sys.start_snapshot();
  // The round is open, bank1's sealed requests are in flight, and the
  // reports racing back die with the host: recovery must replay the WAL
  // (kStartRound included), re-seal, and close the round.
  sys.crash_host(sys.bank_host(1), 20 * sim::kMinute);
  drive_traffic(sys, 316, 10);
  sys.run_for(3 * sim::kHour);

  EXPECT_EQ(sys.state_recoveries(), 1u);
  EXPECT_FALSE(sys.bank().round_open());
  EXPECT_EQ(sys.bank().metrics().snapshot_rounds, 1u);
  EXPECT_EQ(sys.pending_transfers(), 0u);
  auditor.check_now();
  EXPECT_TRUE(auditor.report().ok())
      << (auditor.report().messages.empty()
              ? ""
              : auditor.report().messages.front());
  EXPECT_TRUE(sys.conservation_holds());
  std::filesystem::remove_all(dir);
}

TEST(FederationPersistTest, HardenedFaultFreeRunsAreDeterministic) {
  const std::string da = fresh_dir("det_a");
  const std::string db = fresh_dir("det_b");
  ZmailSystem a(fed_store_params(da, 4), 55);
  ZmailSystem b(fed_store_params(db, 4), 55);
  for (ZmailSystem* s : {&a, &b}) {
    s->enable_bank_trading();
    drive_traffic(*s, 56, 20);
    s->start_snapshot();
    s->run_for(2 * sim::kHour);
  }
  for (std::size_t bk = 0; bk < 4; ++bk)
    EXPECT_EQ(a.bank().serialize_state(bk),
              b.bank().serialize_state(bk))
        << "bank " << bk;
  EXPECT_EQ(a.bank().metrics().interbank_messages,
            b.bank().metrics().interbank_messages);
  EXPECT_EQ(a.total_epennies(), b.total_epennies());
  std::filesystem::remove_all(da);
  std::filesystem::remove_all(db);
}

}  // namespace
}  // namespace zmail::core
