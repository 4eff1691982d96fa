// Columnar user-state core: UserId semantics, Population column/arena
// behavior, and the two ISP snapshot renditions agreeing with each other
// (v1 row blob <-> v2 columnar sections, including the v1 read-compat
// path used for pre-columnar snapshots on disk).
#include "core/population.hpp"

#include <gtest/gtest.h>

#include <cstdio>

#include "core/isp.hpp"
#include "store/snapshot.hpp"

namespace zmail::core {
namespace {

// --- UserId ----------------------------------------------------------------

TEST(UserIdTest, ImplicitFromIndexExplicitBackOut) {
  const UserId u = 7;  // implicit, like IspId
  EXPECT_EQ(u.slot(), 7u);
  EXPECT_TRUE(u.valid());
  EXPECT_EQ(u, UserId(7));
  EXPECT_NE(u, UserId(8));
  EXPECT_LT(UserId(3), UserId(4));
}

TEST(UserIdTest, InvalidSentinelMatchesLegacyNoUser) {
  EXPECT_FALSE(kInvalidUser.valid());
  // The historical kNoUser was size_t(-1); it must truncate to the same
  // sentinel so old call sites keep meaning "no user".
  EXPECT_EQ(UserId(static_cast<std::size_t>(-1)), kInvalidUser);
}

TEST(UserIdTest, WireEncodingRoundTripsAndPreservesLegacyBytes) {
  EXPECT_EQ(user_to_wire(UserId(42)), 42u);
  EXPECT_EQ(user_to_wire(kInvalidUser), ~std::uint64_t{0});
  EXPECT_EQ(user_from_wire(42), UserId(42));
  EXPECT_EQ(user_from_wire(~std::uint64_t{0}), kInvalidUser);
  // Anything at or past the sentinel slot reads back as "no user".
  EXPECT_EQ(user_from_wire(0xFFFFFFFFull), kInvalidUser);
}

// --- Population ------------------------------------------------------------

TEST(PopulationTest, ResetInitializesEveryColumn) {
  Population p;
  p.reset(3, Money::from_dollars(5.0), 10, 4);
  ASSERT_EQ(p.size(), 3u);
  p.for_each_active([](UserId, ConstUserRef u) {
    EXPECT_EQ(u.account, Money::from_dollars(5.0));
    EXPECT_EQ(u.balance, 10);
    EXPECT_EQ(u.limit, 4);
    EXPECT_EQ(u.sent, 0);
    EXPECT_EQ(u.blocked_today, 0);
    EXPECT_EQ(u.warnings, 0);
    EXPECT_EQ(u.quarantined, 0);
    EXPECT_EQ(u.lifetime_sent, 0);
  });
}

TEST(PopulationTest, ProxyWritesLandInColumns) {
  Population p;
  p.reset(4, Money::zero(), 10, 5);
  p.at(2).balance -= 3;
  p.at(2).sent += 1;
  p.at(2).blocked_today = true;
  EXPECT_EQ(p.balances()[2], 7);
  EXPECT_EQ(p.sent_today()[2], 1);
  EXPECT_EQ(p.blocked_today()[2], 1);
  EXPECT_EQ(p.balances()[1], 10);  // neighbors untouched
}

TEST(PopulationTest, ResetDayClearsOnlyTheDayArena) {
  Population p;
  p.reset(5, Money::zero(), 10, 5);
  p.at(1).sent = 4;
  p.at(1).blocked_today = true;
  p.at(1).warnings = 2;  // persistent: survives the day boundary
  p.at(1).balance = 6;
  p.reset_day();
  EXPECT_EQ(p.at(UserId(1)).sent, 0);
  EXPECT_EQ(p.at(UserId(1)).blocked_today, 0);
  EXPECT_EQ(p.at(UserId(1)).warnings, 2);
  EXPECT_EQ(p.at(UserId(1)).balance, 6);
}

TEST(PopulationTest, PolicySideTableIsSparseAndOrdered) {
  Population p;
  p.reset(8, Money::zero(), 10, 5);
  EXPECT_EQ(p.policy_override(UserId(3)), std::nullopt);
  EXPECT_EQ(p.policy_or(UserId(3), NonCompliantPolicy::kAccept),
            NonCompliantPolicy::kAccept);
  p.set_policy_override(5, NonCompliantPolicy::kDiscard);
  p.set_policy_override(2, NonCompliantPolicy::kSegregate);
  EXPECT_EQ(p.policy_or(UserId(5), NonCompliantPolicy::kAccept),
            NonCompliantPolicy::kDiscard);
  ASSERT_EQ(p.policy_overrides().size(), 2u);
  EXPECT_EQ(p.policy_overrides().begin()->first, 2u);  // slot-ordered
  p.set_policy_override(5, std::nullopt);
  EXPECT_EQ(p.policy_override(UserId(5)), std::nullopt);
  // reset() drops the table.
  p.reset(8, Money::zero(), 10, 5);
  EXPECT_TRUE(p.policy_overrides().empty());
}

TEST(PopulationTest, ColumnSpansAndRawBytes) {
  Population p;
  p.reset(4, Money::from_epennies(2), 9, 5);
  EXPECT_EQ(p.column_span<EPenny>(Population::Column::kBalance)[0], 9);
  EXPECT_EQ(p.column_span<Money>(Population::Column::kAccount)[3],
            Money::from_epennies(2));
  EXPECT_EQ(p.column_span<std::uint8_t>(Population::Column::kQuarantined)[0],
            0);
  EXPECT_EQ(p.column_bytes(Population::Column::kBalance), 4 * 8u);
  EXPECT_EQ(p.column_bytes(Population::Column::kBlockedToday), 4u);

  // Raw round trip of one column through load_column.
  p.at(1).balance = 123;
  Population q;
  q.reset(4, Money::zero(), 0, 0);
  ASSERT_TRUE(q.load_column(Population::Column::kBalance,
                            p.column_data(Population::Column::kBalance),
                            p.column_bytes(Population::Column::kBalance)));
  EXPECT_EQ(q.balances()[1], 123);
  // Wrong length refused.
  EXPECT_FALSE(q.load_column(Population::Column::kBalance,
                             p.column_data(Population::Column::kBalance), 7));
}

// --- ISP snapshot renditions ------------------------------------------------

ZmailParams small_params() {
  ZmailParams p;
  p.n_isps = 3;
  p.users_per_isp = 4;
  p.default_daily_limit = 5;
  p.initial_user_balance = 10;
  p.initial_avail = 100;
  p.minavail = 50;
  p.maxavail = 200;
  return p;
}

net::EmailMessage mail(std::size_t fi, std::size_t fu, std::size_t ti,
                       std::size_t tu) {
  return net::make_email(net::make_user_address(fi, fu),
                         net::make_user_address(ti, tu), "s", "b");
}

class PopulationSnapshotTest : public ::testing::Test {
 protected:
  PopulationSnapshotTest() : keys_(crypto::generate_keypair(key_rng_)) {}

  // Drives the ISP through enough traffic to dirty every kind of state:
  // balances, sent/limit, lifetime counters, a policy override, credit.
  void dirty(Isp& isp) {
    isp.user_send(0, 0, 1, mail(0, 0, 0, 1));  // local paid send
    isp.user_send(1, 1, 2, mail(0, 1, 1, 2));  // remote paid send
    isp.user_buy(2, 3);
    isp.users().set_policy_override(3, NonCompliantPolicy::kDiscard);
    isp.user(3).warnings = 2;
    (void)isp.take_outbox();
  }

  Rng key_rng_{101};
  crypto::KeyPair keys_;
  ZmailParams params_ = small_params();
};

TEST_F(PopulationSnapshotTest, ColumnarSectionsRoundTripExactly) {
  Isp a(0, params_, keys_.pub, 42);
  dirty(a);

  crypto::Bytes scalars;
  std::vector<store::SnapshotSection> sections;
  a.serialize_sections(scalars, sections);
  ASSERT_EQ(sections.size(), 1 + Population::kColumnCount);

  Isp b(0, params_, keys_.pub, 7);  // different seed: fully overwritten
  ASSERT_TRUE(b.restore_columnar(sections));
  // The v1 blob is a complete, canonical rendition of ISP state; byte
  // equality proves the columnar round trip restored everything.
  EXPECT_EQ(b.serialize_state(), a.serialize_state());
  EXPECT_EQ(b.users().policy_override(UserId(3)),
            NonCompliantPolicy::kDiscard);
}

TEST_F(PopulationSnapshotTest, MissingColumnSectionIsRejected) {
  Isp a(0, params_, keys_.pub, 42);
  dirty(a);
  crypto::Bytes scalars;
  std::vector<store::SnapshotSection> sections;
  a.serialize_sections(scalars, sections);
  sections.pop_back();  // drop the last column
  Isp b(0, params_, keys_.pub, 7);
  EXPECT_FALSE(b.restore_columnar(sections));
}

TEST_F(PopulationSnapshotTest, V1SnapshotsStillRestore) {
  Isp a(0, params_, keys_.pub, 42);
  dirty(a);

  // A pre-columnar snapshot: v1 container, single state-blob section.
  const crypto::Bytes state = a.serialize_state();
  store::SnapshotData snap;
  snap.sections.push_back(store::SnapshotSection{store::kStateSection, state});

  Isp b(0, params_, keys_.pub, 7);
  ASSERT_TRUE(b.restore_snapshot(snap));
  EXPECT_EQ(b.serialize_state(), a.serialize_state());
}

TEST_F(PopulationSnapshotTest, V2SnapshotRestoresViaMmapView) {
  Isp a(0, params_, keys_.pub, 42);
  dirty(a);

  store::SnapshotData snap;
  snap.meta.version = store::kSnapshotVersionColumnar;
  snap.meta.features = store::kFeatureColumnarUserState;
  crypto::Bytes scalars;
  a.serialize_sections(scalars, snap.sections);
  const std::string path = "core_population_test.zsnap";
  std::string err;
  ASSERT_EQ(store::write_snapshot_file(path, snap, true, &err),
            store::StoreStatus::kOk)
      << err;

  store::SnapshotFileView view;
  ASSERT_EQ(view.open(path), store::StoreStatus::kOk);
  Isp b(0, params_, keys_.pub, 7);
  ASSERT_TRUE(b.restore_snapshot(view.snapshot()));
  EXPECT_EQ(b.serialize_state(), a.serialize_state());
  view.close();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace zmail::core
