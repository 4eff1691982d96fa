// Columnar user-state core: UserId semantics, Population column/arena
// behavior, and the ISP snapshot sections: exact round trips in memory and
// through a mapped file, and restores that refuse malformed sections.
#include "core/population.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <utility>
#include <vector>

#include "core/isp.hpp"
#include "isp_image.hpp"
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

// Every column starts on a 64-byte boundary, and no two columns overlap.
TEST(PopulationTest, ColumnsAreAlignedAndDisjoint) {
  Population p;
  p.reset(1'000, Money::from_epennies(1), 2, 3);
  std::vector<std::pair<std::uintptr_t, std::uintptr_t>> extents;
  for (std::size_t c = 0; c < Population::kColumnCount; ++c) {
    const auto col = static_cast<Population::Column>(c);
    const auto at = reinterpret_cast<std::uintptr_t>(p.column_data(col));
    EXPECT_EQ(at % 64, 0u) << Population::column_name(col);
    extents.emplace_back(at, at + p.column_bytes(col));
  }
  std::sort(extents.begin(), extents.end());
  for (std::size_t i = 1; i < extents.size(); ++i)
    EXPECT_LE(extents[i - 1].second, extents[i].first);
}

TEST(PopulationTest, MoveEmptiesTheSource) {
  Population a;
  a.reset(4, Money::zero(), 10, 5);
  a.at(2).balance = 7;
  a.at(2).sent = 1;
  a.set_policy_override(1, NonCompliantPolicy::kDiscard);
  Population b(std::move(a));
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(a.policy_overrides().empty());
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(b.balances()[2], 7);
  EXPECT_EQ(b.policy_override(1), NonCompliantPolicy::kDiscard);
  b.reset_day();
  EXPECT_EQ(b.sent_today()[2], 0);

  Population c;
  c.reset(2, Money::zero(), 1, 1);
  c = std::move(b);
  EXPECT_EQ(b.size(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(c.size(), 4u);
  EXPECT_EQ(c.balances()[2], 7);
  a.reset(3, Money::zero(), 4, 1);  // a moved-from population is reusable
  EXPECT_EQ(a.balances()[2], 4);
}

TEST(PopulationTest, EmptyPopulationWorks) {
  Population p;
  p.reset(0, Money::zero(), 10, 5);
  EXPECT_EQ(p.size(), 0u);
  EXPECT_TRUE(p.balances().empty());
  p.reset_day();
  for (std::size_t c = 0; c < Population::kColumnCount; ++c) {
    const auto col = static_cast<Population::Column>(c);
    EXPECT_EQ(p.column_bytes(col), 0u);
    EXPECT_TRUE(p.load_column(col, nullptr, 0));
  }
  int visited = 0;
  p.for_each_active([&](UserId, ConstUserRef) { ++visited; });
  EXPECT_EQ(visited, 0);
  Population moved(std::move(p));
  EXPECT_EQ(moved.size(), 0u);
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

// Dirty marks: a writable row marks itself, a const read does not, and the
// whole-column writes mark their columns.
TEST(PopulationTest, DirtyMarksFollowTheWritePaths) {
  using Column = Population::Column;
  Population p;
  p.reset(130, Money::zero(), 10, 5);
  for (std::size_t c = 0; c < Population::kColumnCount; ++c)
    EXPECT_TRUE(p.column_dirty(static_cast<Column>(c)));
  EXPECT_EQ(p.differential_bytes(), p.dirty_rows_bytes() + p.image_bytes());
  p.clear_dirty();
  EXPECT_EQ(p.dirty_row_count(), 0u);
  EXPECT_EQ(p.differential_bytes(), 4u);

  const Population& view = p;
  EXPECT_EQ(view.at(UserId(7)).balance, 10);
  EXPECT_EQ(p.dirty_row_count(), 0u);
  for (const std::size_t u : {5u, 70u, 129u, 70u}) p.at(u).balance += 1;
  EXPECT_EQ(p.dirty_row_count(), 3u);
  EXPECT_EQ(p.dirty_rows_bytes(), 4 + 3 * (4 + Population::kRowBytes));

  p.reset_day();
  EXPECT_TRUE(p.column_dirty(Column::kSent));
  EXPECT_TRUE(p.column_dirty(Column::kBlockedToday));
  EXPECT_FALSE(p.column_dirty(Column::kBalance));
  EXPECT_EQ(p.differential_bytes(),
            p.dirty_rows_bytes() + 130 * (8 + 1));
  ASSERT_TRUE(p.load_column(Column::kWarnings,
                            p.column_data(Column::kWarnings),
                            p.column_bytes(Column::kWarnings)));
  EXPECT_TRUE(p.column_dirty(Column::kWarnings));
  p.clear_dirty();
  EXPECT_EQ(p.differential_bytes(), 4u);
}

TEST(PopulationTest, GatheredRowsScatterBackAndMarkTheirRows) {
  Population p;
  p.reset(100, Money::from_epennies(3), 10, 5);
  p.clear_dirty();
  p.at(2).balance = 77;
  p.at(2).quarantined = 1;
  p.at(64).lifetime_epennies_sold = 9;
  p.at(99).account = Money::from_epennies(8);
  std::vector<std::uint8_t> rows(p.dirty_rows_bytes());
  p.gather_dirty_rows(rows);

  Population q;
  q.reset(100, Money::from_epennies(3), 10, 5);
  q.clear_dirty();
  ASSERT_TRUE(q.load_rows(rows));
  EXPECT_EQ(q.dirty_row_count(), 3u);
  for (std::size_t c = 0; c < Population::kColumnCount; ++c) {
    const auto col = static_cast<Population::Column>(c);
    EXPECT_TRUE(std::equal(p.column_data(col),
                           p.column_data(col) + p.column_bytes(col),
                           q.column_data(col)))
        << Population::column_name(col);
  }

  // Malformed payloads are refused whole: nothing is written or marked.
  Population r;
  r.reset(100, Money::zero(), 0, 0);
  r.clear_dirty();
  std::vector<std::uint8_t> short_rows(rows.begin(), rows.end() - 1);
  EXPECT_FALSE(r.load_rows(short_rows));
  EXPECT_FALSE(r.load_rows(std::span<const std::uint8_t>(rows.data(), 3)));
  std::vector<std::uint8_t> bad_slot = rows;
  bad_slot[4 + 2 * 4] = 100;  // the third slot, 99, becomes 100
  EXPECT_FALSE(r.load_rows(bad_slot));
  EXPECT_EQ(r.dirty_row_count(), 0u);
  EXPECT_EQ(r.balances()[2], 0);
}

// --- ISP snapshot sections --------------------------------------------------

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

  store::SnapshotData snap;
  crypto::Bytes scalars;
  a.serialize_sections(scalars, snap.sections);
  ASSERT_EQ(snap.sections.size(), 1 + Population::kColumnCount);

  Isp b(0, params_, keys_.pub, 7);  // different seed: fully overwritten
  ASSERT_TRUE(b.restore_snapshot(snap));
  // The image is a complete, canonical rendition of ISP state; byte
  // equality proves the round trip restored everything.
  EXPECT_EQ(isp_image(b), isp_image(a));
  EXPECT_EQ(b.users().policy_override(UserId(3)),
            NonCompliantPolicy::kDiscard);

  // Into an ISP of the same size with state of its own (its columns are
  // overwritten in place) and into one of another size (rebuilt).
  Isp used(0, params_, keys_.pub, 9);
  used.user_send(2, 0, 3, mail(0, 2, 0, 3));
  used.users().set_policy_override(0, NonCompliantPolicy::kSegregate);
  ASSERT_TRUE(used.restore_snapshot(snap));
  EXPECT_EQ(isp_image(used), isp_image(a));
  EXPECT_FALSE(used.users().policy_override(UserId(0)).has_value());
  ZmailParams bigger = params_;
  bigger.users_per_isp = 6;
  Isp resized(0, bigger, keys_.pub, 7);
  ASSERT_TRUE(resized.restore_snapshot(snap));
  EXPECT_EQ(isp_image(resized), isp_image(a));
}

TEST_F(PopulationSnapshotTest, MissingColumnSectionIsRejected) {
  Isp a(0, params_, keys_.pub, 42);
  dirty(a);
  store::SnapshotData snap;
  crypto::Bytes scalars;
  a.serialize_sections(scalars, snap.sections);
  snap.sections.pop_back();  // drop the last column
  Isp b(0, params_, keys_.pub, 7);
  EXPECT_FALSE(b.restore_snapshot(snap));
}

// Every enum byte in the scalar section is range-checked before it is
// cast.  Each case re-frames the image around one out-of-range byte, so
// every CRC still checks and only the restore can refuse it.
TEST_F(PopulationSnapshotTest, OutOfRangeEnumBytesFailTheRestore) {
  Isp a(0, params_, keys_.pub, 42);
  a.users().set_policy_override(3, NonCompliantPolicy::kDiscard);
  a.user_send(1, 1, 2, mail(0, 1, 1, 2));  // one remote email stays queued
  a.set_misbehavior(Isp::Misbehavior::kFreeRide);
  crypto::Bytes scalars;
  std::vector<store::SnapshotSection> sections;
  a.serialize_sections(scalars, sections);
  const std::vector<Outbound> outbox = a.take_outbox();
  ASSERT_EQ(outbox.size(), 1u);

  // The scalar section opens with version u8, user count u32, override
  // count u32 and the first override's slot u32, then its policy byte.  It
  // ends with the misbehavior byte, the metrics, the RNG state (four u64
  // words, a double and a flag) and the nonce counter; the one outbox
  // entry (dest u8, index u64, type and payload with u32 lengths, sender
  // u64) sits just before the misbehavior byte.
  std::size_t n_metrics = 0;
  IspMetrics::fields([&](const char*, auto) { ++n_metrics; });
  const std::size_t policy_at = 13;
  const std::size_t misbehavior_at =
      scalars.size() - 8 - (4 * 8 + 8 + 1) - 8 * n_metrics - 1;
  const std::size_t dest_at = misbehavior_at -
                              (1 + 8 + 4 + outbox[0].type.name().size() + 4 +
                               outbox[0].payload.size() + 8);
  ASSERT_EQ(scalars[policy_at],
            static_cast<std::uint8_t>(NonCompliantPolicy::kDiscard));
  ASSERT_EQ(scalars[misbehavior_at],
            static_cast<std::uint8_t>(Isp::Misbehavior::kFreeRide));
  ASSERT_EQ(scalars[dest_at],
            static_cast<std::uint8_t>(Outbound::Dest::kIsp));

  const auto restores = [&](std::size_t at, std::uint8_t value) {
    crypto::Bytes bad = scalars;
    bad[at] = value;
    std::vector<store::SnapshotSection> framed = sections;
    framed[0].payload = bad;
    const crypto::Bytes image = store::encode_snapshot({{}, framed});
    store::SnapshotData snap;
    EXPECT_EQ(store::decode_snapshot(image, snap), store::StoreStatus::kOk);
    Isp b(0, params_, keys_.pub, 7);
    return b.restore_snapshot(snap);
  };
  EXPECT_TRUE(restores(policy_at, scalars[policy_at]));  // control
  for (const std::uint8_t v : {std::uint8_t{4}, std::uint8_t{0xFF}})
    EXPECT_FALSE(restores(policy_at, v)) << "policy " << int{v};
  for (const std::uint8_t v : {std::uint8_t{2}, std::uint8_t{0xFF}}) {
    EXPECT_FALSE(restores(misbehavior_at, v)) << "misbehavior " << int{v};
    EXPECT_FALSE(restores(dest_at, v)) << "dest " << int{v};
  }
}

TEST_F(PopulationSnapshotTest, ReplayedOutOfRangeMisbehaviorIsSkipped) {
  Isp isp(0, params_, keys_.pub, 42);
  const auto op = static_cast<std::uint8_t>(Isp::WalOp::kSetMisbehavior);
  for (const std::uint8_t v : {std::uint8_t{2}, std::uint8_t{0xFF}})
    isp.apply_wal_record(op, crypto::Bytes{v});
  EXPECT_EQ(isp.misbehavior(), Isp::Misbehavior::kNone);
  isp.apply_wal_record(op, crypto::Bytes{1});  // control: in range applies
  EXPECT_EQ(isp.misbehavior(), Isp::Misbehavior::kFreeRide);
}

TEST_F(PopulationSnapshotTest, V2SnapshotRestoresViaMmapView) {
  Isp a(0, params_, keys_.pub, 42);
  dirty(a);

  store::SnapshotData snap;
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
  EXPECT_EQ(isp_image(b), isp_image(a));
  view.close();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace zmail::core
