// Crash recovery end to end: a rebuilt party must be byte-identical to the
// one that "died" (snapshot + WAL replay is exact under fsync-per-record),
// and reopening a store directory must resume the persisted state.  An
// ISP's checkpoints are differentials over its last full image, so the
// cases below also crash around them: base + differential + WAL tail,
// a stale differential, a crash before the WAL reset, a randomized op mix
// against full images, and a rebuild into the crashed ISP's own arena.
// Crashes mid-scenario under the auditor are rows of core_chaos_test.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "core/invariants.hpp"
#include "core/system.hpp"
#include "crypto/rsa.hpp"
#include "isp_image.hpp"
#include "net/address.hpp"
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
                   "t", std::string("b").append(std::to_string(i)));
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

// A kill while the WAL header is being rewritten behind a checkpoint can
// leave a log of 0 or 3 bytes.  The log then restarts; if it restarted at
// LSN 1, the records appended after the restart would be skipped at the
// next recovery as covered by the snapshot, and five durable records
// would be lost without an error.
TEST(StoreRecoveryTest, WalCutBehindASnapshotLosesNoLaterRecord) {
  const crypto::Bytes blob = {1, 2, 3};
  const crypto::Bytes record = {9};
  store::StoreConfig cfg;
  cfg.enabled = true;
  cfg.fsync_data = false;
  const auto accept = [](const store::SnapshotFileView&) { return true; };
  for (const std::uintmax_t cut : {0u, 3u}) {
    SCOPED_TRACE(cut);
    cfg.dir = fresh_dir("walcut" + std::to_string(cut));
    std::string err;
    {
      store::Checkpointer cp;
      ASSERT_TRUE(cp.open(cfg, "bank", &err)) << err;
      for (int i = 0; i < 100; ++i) cp.wal().append(1, record);
      ASSERT_TRUE(cp.checkpoint({{store::kBankStateSection, blob}}, 1, &err))
          << err;
      std::filesystem::resize_file(cp.wal_path(), cut);
    }
    store::Checkpointer cp;
    ASSERT_TRUE(cp.open(cfg, "bank", &err)) << err;
    std::uint64_t replayed = 0;
    const auto count = [&](std::uint8_t, std::span<const std::uint8_t>) {
      ++replayed;
    };
    ASSERT_TRUE(cp.recover(accept, count, nullptr, &err)) << err;
    EXPECT_EQ(replayed, 0u);
    for (int i = 0; i < 5; ++i) cp.wal().append(1, record);
    EXPECT_EQ(cp.wal().durable_lsn(), 105u);  // LSNs never go backwards

    cp.simulate_crash();
    store::RecoveryStats rs;
    ASSERT_TRUE(cp.recover(accept, count, &rs, &err)) << err;
    EXPECT_EQ(rs.wal_records_replayed, 5u);
    EXPECT_EQ(rs.recovered_lsn, 105u);
    std::filesystem::remove_all(cfg.dir);
  }
}

// A checkpoint restarts the log without trimming the file, so the records
// logged before it stay behind the new terminator with valid CRCs.
// Recovery replays only the records logged after the checkpoint, and still
// does when the terminator is lost and only the LSN check stops the scan.
TEST(StoreRecoveryTest, StaleRecordsBehindTheTerminatorAreNeverReplayed) {
  const crypto::Bytes blob = {1, 2, 3};
  const crypto::Bytes record(30, 7);  // 8 + 9 + 30 bytes a record
  constexpr std::size_t kRec = 47;
  store::StoreConfig cfg;
  cfg.enabled = true;
  cfg.fsync_data = false;
  cfg.dir = fresh_dir("stale_extent");
  const auto accept = [](const store::SnapshotFileView&) { return true; };
  std::vector<std::uint8_t> types;
  const auto collect = [&](std::uint8_t type, std::span<const std::uint8_t>) {
    types.push_back(type);
  };
  std::string err;
  store::Checkpointer cp;
  ASSERT_TRUE(cp.open(cfg, "bank", &err)) << err;
  for (int i = 0; i < 100; ++i) cp.wal().append(1, record);
  ASSERT_TRUE(cp.checkpoint({{store::kBankStateSection, blob}}, 1, &err))
      << err;
  for (int i = 0; i < 5; ++i) cp.wal().append(2, record);
  const std::size_t end = 20 + 5 * kRec;
  ASSERT_GT(std::filesystem::file_size(cp.wal_path()), 20 + 100 * kRec);

  cp.simulate_crash();
  store::RecoveryStats rs;
  ASSERT_TRUE(cp.recover(accept, collect, &rs, &err)) << err;
  EXPECT_EQ(rs.wal_status, store::StoreStatus::kOk);
  EXPECT_EQ(rs.wal_bytes, end);
  EXPECT_EQ(rs.recovered_lsn, 105u);
  EXPECT_EQ(types, std::vector<std::uint8_t>(5, 2));

  // Lose the terminator: the old sixth record's length word comes back, so
  // the scan meets that whole record (LSN 6, valid CRC) and stops there.
  {
    std::fstream f(cp.wal_path(),
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(end));
    const char old_len[4] = {0, 0, 0, 39};
    f.write(old_len, 4);
  }
  types.clear();
  cp.simulate_crash();
  ASSERT_TRUE(cp.recover(accept, collect, &rs, &err)) << err;
  EXPECT_EQ(rs.wal_status, store::StoreStatus::kCorrupt);
  EXPECT_EQ(rs.wal_bytes, end);
  EXPECT_EQ(rs.recovered_lsn, 105u);
  EXPECT_EQ(types, std::vector<std::uint8_t>(5, 2));
  std::filesystem::remove_all(cfg.dir);
}

// Enough users that the traffic below dirties well under half the rows,
// so an ISP checkpoint after the first is a differential.
ZmailParams differential_params(const std::string& dir) {
  ZmailParams p = store_params(dir);
  p.users_per_isp = 400;
  return p;
}

TEST(StoreRecoveryTest, BasePlusDifferentialPlusWalTailIsByteExact) {
  const std::string dir = fresh_dir("differential");
  ZmailSystem sys(differential_params(dir), 71);
  sys.enable_bank_trading();
  sys.checkpoint_all();  // the base images
  const store::Checkpointer& cp = *sys.host_store(0);
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(round);
    const std::uint64_t differentials = cp.stats().differentials;
    drive_traffic(sys, 72 + round, 30);
    sys.start_snapshot();  // checkpoints each ISP at its quiesce flush
    sys.run_for(sim::kHour);
    ASSERT_EQ(cp.stats().differentials, differentials + 1);
    drive_traffic(sys, 74 + round, 20);  // the WAL tail
    sys.run_for(sim::kHour);
    ASSERT_GT(std::filesystem::file_size(cp.wal_path()), 20u);

    const crypto::Bytes before = isp_image(sys.isp(0));
    sys.recover_host(0);
    // The second round's differential is taken after this recovery: the
    // rows the recovery restored and replayed were marked dirty again.
    EXPECT_EQ(isp_image(sys.isp(0)), before);
  }
  std::filesystem::remove_all(dir);
}

// The rebuild hands the crashed ISP's arena to its successor unfilled: no
// state may survive in it.  Every column of the crashed ISP is poisoned
// first, and the rebuilt image must still equal an unpoisoned twin's.
TEST(StoreRecoveryTest, RebuildIntoThePoisonedArenaOfTheCrashedIsp) {
  const std::string dir_a = fresh_dir("poisoned");
  const std::string dir_b = fresh_dir("twin");
  ZmailSystem a(differential_params(dir_a), 61);
  ZmailSystem b(differential_params(dir_b), 61);
  for (ZmailSystem* s : {&a, &b}) {
    s->enable_bank_trading();
    s->checkpoint_all();
    drive_traffic(*s, 62, 20);
    s->start_snapshot();
    s->run_for(sim::kHour);
    drive_traffic(*s, 63, 10);
  }
  ASSERT_GT(a.host_store(0)->stats().differentials, 0u);
  Population& users = a.isp(0).users();
  for (std::size_t c = 0; c < Population::kColumnCount; ++c) {
    const auto col = static_cast<Population::Column>(c);
    const std::vector<std::uint8_t> junk(users.column_bytes(col), 0xA5);
    ASSERT_TRUE(users.load_column(col, junk.data(), junk.size()));
  }
  users.set_policy_override(5, NonCompliantPolicy::kDiscard);
  const std::uint8_t* arena = users.column_data(Population::Column::kAccount);

  a.recover_host(0);
  b.recover_host(0);
  // Same mapping: the successor adopted the arena rather than mapping one
  // while its predecessor still held this one.
  EXPECT_EQ(a.isp(0).users().column_data(Population::Column::kAccount), arena);
  EXPECT_EQ(isp_image(a.isp(0)), isp_image(b.isp(0)));
  std::filesystem::remove_all(dir_a);
  std::filesystem::remove_all(dir_b);
}

// --- One ISP on its own store, as ZmailSystem drives it --------------------

crypto::Bytes file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return crypto::Bytes(std::istreambuf_iterator<char>(in), {});
}

class IspStoreTest : public ::testing::Test {
 protected:
  IspStoreTest() : keys_(crypto::generate_keypair(key_rng_)) {
    params_.n_isps = 3;
    params_.users_per_isp = 256;
    params_.initial_user_balance = 100;
    params_.default_daily_limit = 50;
    params_.initial_avail = 1'000;
    params_.minavail = 100;
    params_.maxavail = 5'000;
    params_.record_inboxes = false;
    cfg_.enabled = true;
    cfg_.fsync_data = false;
  }

  // A fresh ISP with its store in `name`, its commands logged when `wal`.
  void start(const std::string& name, bool wal) {
    cfg_.dir = fresh_dir(name);
    isp_ = std::make_unique<Isp>(0, params_, keys_.pub, 42);
    cp_ = std::make_unique<store::Checkpointer>();
    ASSERT_TRUE(cp_->open(cfg_, "isp0", &err_)) << err_;
    if (wal) isp_->attach_wal(&cp_->wal());
  }
  void TearDown() override {
    cp_.reset();
    if (!cfg_.dir.empty()) std::filesystem::remove_all(cfg_.dir);
  }

  bool checkpoint() {
    return isp_->write_checkpoint(*cp_, ++sim_us_, scalars_, rows_, &err_);
  }

  // What a restarted process rebuilds from the directory: a fresh ISP
  // (another seed; the restore overwrites everything) recovered through a
  // fresh Checkpointer.
  std::unique_ptr<Isp> restart(const std::string& dir,
                               store::RecoveryStats* rs) {
    store::StoreConfig cfg = cfg_;
    cfg.dir = dir;
    store::Checkpointer cp;
    auto isp = std::make_unique<Isp>(0, params_, keys_.pub, 7);
    std::string err;
    EXPECT_TRUE(cp.open(cfg, "isp0", &err)) << err;
    EXPECT_TRUE(isp->recover(cp, rs, &err)) << err;
    return isp;
  }

  // Mail between users of this ISP (0) and of ISP 1, both ways.
  static net::EmailMessage mail(std::size_t fi, std::size_t fu, std::size_t ti,
                                std::size_t tu) {
    return net::make_email(net::make_user_address(fi, fu),
                           net::make_user_address(ti, tu), "s", "b");
  }

  // One randomized operation over `users` users: sends, receives, buys,
  // sells, a day reset, a release and, unless `logged_only`, a policy
  // override (set on the population directly, so not a WAL command).
  void random_op(Rng& rng, std::size_t users, bool logged_only = true) {
    const UserId u = rng.next_below(users);
    const std::size_t v = rng.next_below(users);
    switch (rng.next_below(logged_only ? 8 : 9)) {
      case 0: isp_->user_send(u, 0, v, mail(0, u.slot(), 0, v)); break;
      case 1: isp_->user_send(u, 1, v, mail(0, u.slot(), 1, v)); break;
      case 2: isp_->on_email(1, mail(1, v, 0, u.slot())); break;
      case 3: isp_->user_send(u, 2, v, mail(0, u.slot(), 2, v)); break;
      case 4: isp_->user_buy(u, 1 + static_cast<EPenny>(v % 5)); break;
      case 5: isp_->user_sell(u, 1 + static_cast<EPenny>(v % 3)); break;
      case 6:
        if (rng.next_below(8) == 0) isp_->end_of_day();
        break;
      case 7: isp_->release_user(u); break;
      case 8:
        isp_->users().set_policy_override(
            u, v % 2 ? std::optional(NonCompliantPolicy::kSegregate)
                     : std::nullopt);
        break;
    }
    (void)isp_->take_outbox();
  }

  Rng key_rng_{5};
  crypto::KeyPair keys_;
  ZmailParams params_;
  store::StoreConfig cfg_;
  std::unique_ptr<Isp> isp_;
  std::unique_ptr<store::Checkpointer> cp_;
  crypto::Bytes scalars_;
  RowBuffer rows_;
  std::uint64_t sim_us_ = 0;
  std::string err_;
};

// A differential left from before a newer full image keeps the old base's
// tag, and recovery ignores it.
TEST_F(IspStoreTest, StaleDifferentialIsIgnored) {
  start("stale", /*wal=*/true);
  Rng rng(11);
  for (int i = 0; i < 20; ++i) random_op(rng, 16);
  ASSERT_TRUE(checkpoint()) << err_;  // the base
  for (int i = 0; i < 20; ++i) random_op(rng, 16);
  ASSERT_TRUE(checkpoint()) << err_;
  ASSERT_EQ(cp_->stats().differentials, 1u);
  const std::string delta = cfg_.dir + "/isp0.zdelta";
  const crypto::Bytes stale = file_bytes(delta);
  // Dirty more than half the rows: the next checkpoint is a full image.
  for (std::size_t u = 0; u < 200; ++u) isp_->user_buy(u, 1);
  ASSERT_TRUE(checkpoint()) << err_;
  ASSERT_EQ(cp_->stats().differentials, 1u);
  EXPECT_EQ(file_bytes(delta), stale);  // left behind, tagged with the old base
  for (int i = 0; i < 20; ++i) random_op(rng, 16);  // the WAL tail

  store::RecoveryStats rs;
  const auto rebuilt = restart(cfg_.dir, &rs);
  EXPECT_TRUE(rs.snapshot_loaded);
  EXPECT_FALSE(rs.differential_loaded);
  EXPECT_GT(rs.wal_records_replayed, 0u);
  EXPECT_EQ(isp_image(*rebuilt), isp_image(*isp_));
}

// Only a full image at its base's own LSN would share the old
// differential's tag; that differential is removed before the image is
// written.  Unlogged writes keep the LSN still here.
TEST_F(IspStoreTest, FullImageAtTheBaseLsnRemovesTheDifferential) {
  start("same_lsn", /*wal=*/false);
  ASSERT_TRUE(checkpoint()) << err_;
  isp_->user(3).warnings = 1;
  ASSERT_TRUE(checkpoint()) << err_;
  ASSERT_EQ(cp_->stats().differentials, 1u);
  const std::string delta = cfg_.dir + "/isp0.zdelta";
  ASSERT_TRUE(std::filesystem::exists(delta));
  for (std::size_t u = 0; u < 200; ++u) isp_->user(u).warnings = 2;
  ASSERT_TRUE(checkpoint()) << err_;
  EXPECT_EQ(cp_->base_lsn(), 1u);
  EXPECT_FALSE(std::filesystem::exists(delta));

  store::RecoveryStats rs;
  const auto rebuilt = restart(cfg_.dir, &rs);
  EXPECT_FALSE(rs.differential_loaded);
  EXPECT_EQ(isp_image(*rebuilt), isp_image(*isp_));
}

// A kill after the differential's exchange but before the WAL reset leaves
// the new differential with the old, longer log.  Every record in it is
// covered by the differential, so none replays, and later appends continue
// after it.
TEST_F(IspStoreTest, CrashBeforeTheWalResetRecoversExactly) {
  start("before_reset", /*wal=*/true);
  Rng rng(12);
  for (int i = 0; i < 20; ++i) random_op(rng, 32);
  ASSERT_TRUE(checkpoint()) << err_;
  for (int i = 0; i < 30; ++i) random_op(rng, 32);
  const crypto::Bytes old_log = file_bytes(cp_->wal_path());
  ASSERT_TRUE(checkpoint()) << err_;
  ASSERT_EQ(cp_->stats().differentials, 1u);
  const crypto::Bytes expected = isp_image(*isp_);
  const std::string wal_path = cp_->wal_path();
  cp_.reset();  // the process dies ...
  {
    std::ofstream out(wal_path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(old_log.data()),
              static_cast<std::streamsize>(old_log.size()));
  }  // ... before the header rewrite

  store::RecoveryStats rs;
  isp_ = restart(cfg_.dir, &rs);
  EXPECT_TRUE(rs.differential_loaded);
  EXPECT_EQ(rs.wal_records_replayed, 0u);
  EXPECT_EQ(isp_image(*isp_), expected);

  // The restarted party logs on after the differential.
  cp_ = std::make_unique<store::Checkpointer>();
  ASSERT_TRUE(cp_->open(cfg_, "isp0", &err_)) << err_;
  ASSERT_TRUE(isp_->recover(*cp_, nullptr, &err_)) << err_;
  isp_->attach_wal(&cp_->wal());
  for (int i = 0; i < 10; ++i) random_op(rng, 32);
  cp_.reset();
  const auto again = restart(cfg_.dir, &rs);
  EXPECT_TRUE(rs.differential_loaded);
  EXPECT_GT(rs.wal_records_replayed, 0u);
  EXPECT_EQ(isp_image(*again), isp_image(*isp_));
}

// Every write path marks what it changes: after each round of a randomized
// op mix, recovery from the differential equals recovery from a full image
// of the same state (and the state itself).
TEST_F(IspStoreTest, DifferentialRecoveryEqualsFullImageRecovery) {
  start("mix_differential", /*wal=*/false);
  store::StoreConfig full_cfg = cfg_;
  full_cfg.dir = fresh_dir("mix_full");
  store::Checkpointer full;
  ASSERT_TRUE(full.open(full_cfg, "isp0", &err_)) << err_;
  Rng rng(13);
  for (int round = 0; round < 8; ++round) {
    SCOPED_TRACE(round);
    for (int i = 0; i < 25; ++i)
      random_op(rng, params_.users_per_isp, /*logged_only=*/false);
    const std::uint64_t differentials = cp_->stats().differentials;
    ASSERT_TRUE(checkpoint()) << err_;
    std::vector<store::SnapshotSection> sections;
    isp_->serialize_sections(scalars_, sections);
    ASSERT_TRUE(full.checkpoint(std::move(sections), sim_us_, &err_)) << err_;

    store::RecoveryStats rs_diff, rs_full;
    const auto from_diff = restart(cfg_.dir, &rs_diff);
    const auto from_full = restart(full_cfg.dir, &rs_full);
    EXPECT_EQ(rs_diff.differential_loaded,
              cp_->stats().differentials > differentials);
    EXPECT_EQ(isp_image(*from_diff), isp_image(*from_full));
    EXPECT_EQ(isp_image(*from_diff), isp_image(*isp_));
  }
  // Both transitions ran: differentials over a base, and a full image once
  // a differential outgrew half the image.
  EXPECT_GE(cp_->stats().differentials, 4u);
  EXPECT_GE(cp_->stats().checkpoints - cp_->stats().differentials, 2u);
  std::filesystem::remove_all(full_cfg.dir);
}

}  // namespace
}  // namespace zmail::core
