// Snapshot format: the byte layout is pinned by a golden file, unknown
// versions/features are rejected with typed errors, trailing bytes are
// corruption, the file writer is atomic
// (temp + exchange), streams exactly the bytes encode_snapshot produces and
// recycles the previous snapshot's inode, and the checkpointer's size
// figures match the files it writes.
#include "store/snapshot.hpp"

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstdio>
#include <filesystem>
#include <iterator>
#include <string>
#include <vector>

#include "core/isp.hpp"
#include "crypto/rsa.hpp"
#include "hex.hpp"
#include "store/checkpoint.hpp"
#include "util/rng.hpp"

namespace zmail::store {
namespace {

constexpr std::uint8_t kStatePayload[] = {0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x42};
constexpr std::uint8_t kScalarsPayload[] = {0xAA, 0xBB, 0xCC};
constexpr std::uint8_t kColumnPayload[] = {0x01, 0x02, 0x03, 0x04,
                                           0x05, 0x06, 0x07, 0x08};

crypto::Bytes bytes_of(std::span<const std::uint8_t> s) {
  return crypto::Bytes(s.begin(), s.end());
}

// The status of decoding `snap`'s encoded image; the sections, which would
// point into that image, are dropped with it.
StoreStatus decode_status(const SnapshotData& snap) {
  const crypto::Bytes image = encode_snapshot(snap);
  SnapshotData out;
  return decode_snapshot(image, out);
}

// A bank-shaped snapshot: one state-blob section, no feature bits.
SnapshotData bank_snapshot() {
  SnapshotData s;
  s.meta.next_lsn = 0x0102030405060708ull;
  s.meta.sim_time_us = 1234567890;
  s.sections.push_back(SnapshotSection{kBankStateSection, kStatePayload});
  return s;
}

// An ISP-shaped snapshot: one scalar section plus one raw column section
// (payload little-endian, unlike the big-endian container framing).
SnapshotData golden_snapshot() {
  SnapshotData s;
  s.meta.features = kFeatureColumnarUserState;
  s.meta.next_lsn = 0x0102030405060708ull;
  s.meta.sim_time_us = 1234567890;
  SnapshotSection scalars;
  scalars.id = kIspScalarsSection;
  scalars.payload = kScalarsPayload;
  s.sections.push_back(scalars);
  SnapshotSection column;
  column.id = kUserColumnBase;  // column 0 (account)
  column.payload = kColumnPayload;
  s.sections.push_back(column);
  return s;
}

TEST(SnapshotCodecTest, EncodeDecodeRoundTrip) {
  const SnapshotData in = bank_snapshot();
  const crypto::Bytes image = encode_snapshot(in);
  SnapshotData out;
  ASSERT_EQ(decode_snapshot(image, out), StoreStatus::kOk);
  EXPECT_EQ(out.meta.version, in.meta.version);
  EXPECT_EQ(out.meta.features, in.meta.features);
  EXPECT_EQ(out.meta.next_lsn, in.meta.next_lsn);
  EXPECT_EQ(out.meta.sim_time_us, in.meta.sim_time_us);
  ASSERT_EQ(out.sections.size(), 1u);
  EXPECT_EQ(out.sections[0].id, kBankStateSection);
  EXPECT_EQ(bytes_of(out.sections[0].payload),
            bytes_of(in.sections[0].payload));
}

// The on-disk layout, byte for byte.  If this test breaks, the format
// changed: add a new version rather than edit the golden string.
TEST(SnapshotGoldenTest, V2ColumnarByteLayoutIsPinned) {
  const crypto::Bytes encoded = encode_snapshot(golden_snapshot());
  EXPECT_EQ(crypto::to_hex(encoded),
            // magic  version  features next_lsn
            "5a534e50"
            "00000002"
            "00000001"
            "0102030405060708"
            // sim_time_us      sections header-crc
            "00000000499602d2"
            "00000002"
            "a2b81f22"
            // scalar section: id len    payload  crc
            "00000002"
            "0000000000000003"
            "aabbcc"
            "e18929aa"
            // column section: id len    payload (LE i64)  crc
            "00000010"
            "0000000000000008"
            "0102030405060708"
            "46891f81");
}

// A differential: the scalar section and one row-delta section, which
// holds the big-endian base tag and then one dirty row of a four-user
// population (count, slot, one value per column; little-endian).
TEST(SnapshotGoldenTest, DifferentialByteLayoutIsPinned) {
  core::Population users;
  users.reset(4, Money::from_micros(0x11), 0x22, 0x33);
  users.clear_dirty();
  const core::UserRef row = users.at(2);
  row.balance = 0x44;
  row.quarantined = 1;
  row.lifetime_epennies_sold = 0x55;
  crypto::Bytes rows(8 + users.dirty_rows_bytes());
  crypto::store_be(rows.data(), 0x0102030405060708ull, 8);
  users.gather_dirty_rows(std::span(rows).subspan(8));

  SnapshotData s;
  s.meta.features = kFeatureRowDelta;
  s.meta.next_lsn = 0x0102030405060709ull;
  s.meta.sim_time_us = 1234567890;
  s.sections.push_back(SnapshotSection{kIspScalarsSection, kScalarsPayload});
  s.sections.push_back(SnapshotSection{kRowDeltaSection, rows});
  EXPECT_EQ(crypto::to_hex(encode_snapshot(s)),
            // magic  version  features next_lsn
            "5a534e50"
            "00000002"
            "00000002"
            "0102030405060709"
            // sim_time_us      sections header-crc
            "00000000499602d2"
            "00000002"
            "8574a170"
            // scalar section: id len    payload  crc
            "00000002"
            "0000000000000003"
            "aabbcc"
            "e18929aa"
            // row-delta section: id len, base tag (BE), count, slot (LE)
            "00000003"
            "000000000000005a"
            "0102030405060708"
            "01000000"
            "02000000"
            // account balance sent limit (LE i64)
            "1100000000000000"
            "4400000000000000"
            "0000000000000000"
            "3300000000000000"
            // blocked_today (u8) warnings quarantined (u8)
            "00"
            "0000000000000000"
            "01"
            // lifetime sent, received_paid, bought, sold; section crc
            "0000000000000000"
            "0000000000000000"
            "0000000000000000"
            "5500000000000000"
            "c2b6a775");
  SnapshotData out;
  const crypto::Bytes image = encode_snapshot(s);
  ASSERT_EQ(decode_snapshot(image, out), StoreStatus::kOk);
  EXPECT_EQ(row_delta_base(out), 0x0102030405060708ull);
  EXPECT_EQ(row_delta_base(golden_snapshot()), 0u);
}

TEST(SnapshotCodecTest, ColumnarRoundTrip) {
  const SnapshotData in = golden_snapshot();
  const crypto::Bytes image = encode_snapshot(in);
  SnapshotData out;
  ASSERT_EQ(decode_snapshot(image, out), StoreStatus::kOk);
  EXPECT_EQ(out.meta.version, kSnapshotVersion);
  EXPECT_EQ(out.meta.features, kFeatureColumnarUserState);
  ASSERT_EQ(out.sections.size(), 2u);
  EXPECT_EQ(out.sections[0].id, kIspScalarsSection);
  EXPECT_EQ(out.sections[1].id, kUserColumnBase);
  EXPECT_EQ(bytes_of(out.sections[1].payload),
            bytes_of(in.sections[1].payload));
}

TEST(SnapshotCodecTest, UnknownVersionIsATypedError) {
  SnapshotData s = golden_snapshot();
  // A future format, nothing, and the retired v1 row-blob layout.
  for (const std::uint32_t version : {kSnapshotVersion + 1, 0u, 1u}) {
    s.meta.version = version;
    EXPECT_EQ(decode_status(s), StoreStatus::kUnknownVersion) << version;
  }
}

TEST(SnapshotCodecTest, UnknownFeatureBitIsATypedError) {
  SnapshotData s = bank_snapshot();
  s.meta.features = 0x80000000u;  // a feature flag this build predates
  EXPECT_EQ(decode_status(s), StoreStatus::kUnknownFeature);

  SnapshotData isp = golden_snapshot();
  isp.meta.features |= 0x80000000u;
  EXPECT_EQ(decode_status(isp), StoreStatus::kUnknownFeature);
}

TEST(SnapshotCodecTest, DamageIsDetected) {
  const crypto::Bytes intact = encode_snapshot(golden_snapshot());
  SnapshotData out;

  crypto::Bytes bad_magic = intact;
  bad_magic[1] ^= 0xFF;
  EXPECT_EQ(decode_snapshot(bad_magic, out), StoreStatus::kBadMagic);

  crypto::Bytes bad_header = intact;
  bad_header[13] ^= 0x01;  // inside next_lsn: header crc must catch it
  EXPECT_EQ(decode_snapshot(bad_header, out), StoreStatus::kCorrupt);

  crypto::Bytes bad_payload = intact;
  bad_payload[intact.size() - 5] ^= 0x01;  // last payload byte
  EXPECT_EQ(decode_snapshot(bad_payload, out), StoreStatus::kCorrupt);

  crypto::Bytes short_file(intact.begin(), intact.begin() + 40);
  EXPECT_EQ(decode_snapshot(short_file, out), StoreStatus::kTruncated);

  const crypto::Bytes empty;
  EXPECT_EQ(decode_snapshot(empty, out), StoreStatus::kNotFound);
}

// The grammar is `header section*` and nothing after: one byte appended to
// a golden image is corruption, in memory and through the file view.
TEST(SnapshotCodecTest, TrailingBytesAreCorrupt) {
  for (const SnapshotData& golden : {bank_snapshot(), golden_snapshot()}) {
    crypto::Bytes image = encode_snapshot(golden);
    image.push_back(0x00);
    SnapshotData out;
    EXPECT_EQ(decode_snapshot(image, out), StoreStatus::kCorrupt);

    const std::string path = "store_snapshot_trailing_test.zsnap";
    FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(image.data(), 1, image.size(), f), image.size());
    std::fclose(f);
    SnapshotFileView view;
    EXPECT_EQ(view.open(path), StoreStatus::kCorrupt);
    EXPECT_TRUE(view.sections().empty());
    std::remove(path.c_str());
  }
}

TEST(SnapshotFileTest, WriteReadRoundTripAndMissingFile) {
  const std::string path = "store_snapshot_test_file.zsnap";
  std::remove(path.c_str());

  crypto::Bytes image;
  EXPECT_EQ(read_file(path, image), StoreStatus::kNotFound);

  std::string err;
  ASSERT_EQ(write_snapshot_file(path, golden_snapshot(), true, &err),
            StoreStatus::kOk)
      << err;
  SnapshotData out;
  ASSERT_EQ(read_file(path, image), StoreStatus::kOk);
  ASSERT_EQ(decode_snapshot(image, out), StoreStatus::kOk);
  EXPECT_EQ(out.meta.next_lsn, golden_snapshot().meta.next_lsn);

  // A rewrite swaps the new image in and keeps the previous one, complete,
  // as the spare `.tmp` the next write overwrites in place.
  SnapshotData second = golden_snapshot();
  second.meta.sim_time_us = 777;
  ASSERT_EQ(write_snapshot_file(path, second, true, &err), StoreStatus::kOk);
  ASSERT_EQ(read_file(path, image), StoreStatus::kOk);
  EXPECT_TRUE(image == encode_snapshot(second));
  ASSERT_EQ(decode_snapshot(image, out), StoreStatus::kOk);
  EXPECT_EQ(out.meta.sim_time_us, 777u);
  crypto::Bytes spare;
  ASSERT_EQ(read_file(path + ".tmp", spare), StoreStatus::kOk);
  EXPECT_TRUE(spare == encode_snapshot(golden_snapshot()));
  EXPECT_EQ(decode_snapshot(spare, out), StoreStatus::kOk);
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

// A snapshot of `n` payload bytes derived from `gen`, so that every
// generation's image differs from its neighbours in size and content.
SnapshotData generation(std::uint64_t gen, crypto::Bytes& payload,
                        std::size_t n) {
  payload.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    payload[i] = static_cast<std::uint8_t>(gen * 131 + i * 7);
  SnapshotData s;
  s.meta.next_lsn = gen;
  s.meta.sim_time_us = gen * 1000;
  s.sections.push_back(SnapshotSection{kBankStateSection, payload});
  return s;
}

std::uint64_t inode_of(const std::string& path) {
  struct stat st{};
  EXPECT_EQ(::stat(path.c_str(), &st), 0) << path;
  return static_cast<std::uint64_t>(st.st_ino);
}

// Rewrites recycle the previous snapshot's inode: after write k the path
// holds generation k and the spare holds generation k-1, exactly, while
// the images alternately grow and shrink (a missing trim would leave the
// larger image's tail behind), and the path alternates between the same
// two inodes, so no write frees one.
TEST(SnapshotFileTest, RewritesAlternateBetweenTwoInodes) {
  for (const bool fsync_data : {false, true}) {
    SCOPED_TRACE(fsync_data ? "fsync" : "no fsync");
    const std::string path = "store_snapshot_generations_test.zsnap";
    const std::string spare = path + ".tmp";
    std::remove(path.c_str());
    std::remove(spare.c_str());
    constexpr std::size_t kSizes[] = {4096, 64, 20000, 1000, 30000, 7};
    crypto::Bytes prev_image;
    std::vector<std::uint64_t> inodes;  // the path's inode after each write
    for (std::size_t k = 1; k <= std::size(kSizes); ++k) {
      SCOPED_TRACE(k);
      crypto::Bytes payload;
      const SnapshotData snap = generation(k, payload, kSizes[k - 1]);
      std::string err;
      ASSERT_EQ(write_snapshot_file(path, snap, fsync_data, &err),
                StoreStatus::kOk)
          << err;
      const crypto::Bytes image = encode_snapshot(snap);
      crypto::Bytes file;
      ASSERT_EQ(read_file(path, file), StoreStatus::kOk);
      EXPECT_TRUE(file == image);
      inodes.push_back(inode_of(path));
      if (k >= 2) {
        ASSERT_EQ(read_file(spare, file), StoreStatus::kOk);
        EXPECT_TRUE(file == prev_image);
        EXPECT_EQ(inode_of(spare), inodes[k - 2]);
        EXPECT_NE(inodes[k - 1], inodes[k - 2]);
      }
      if (k >= 3) {
        EXPECT_EQ(inodes[k - 1], inodes[k - 3]);
      }
      prev_image = image;
    }
    std::remove(path.c_str());
    std::remove(spare.c_str());
  }
}

// A torn earlier write can leave a garbage spare larger than the next
// image; the rewrite overwrites and trims it, with or without a snapshot
// already at the path.
TEST(SnapshotFileTest, GarbageSpareLargerThanTheImageIsOverwritten) {
  const std::string path = "store_snapshot_garbage_spare_test.zsnap";
  const std::string spare = path + ".tmp";
  const auto leave_garbage = [&] {
    const crypto::Bytes garbage(4 * encode_snapshot(golden_snapshot()).size() +
                                    4096,
                                0xA7);
    FILE* f = std::fopen(spare.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(garbage.data(), 1, garbage.size(), f),
              garbage.size());
    std::fclose(f);
  };
  std::remove(path.c_str());
  for (const bool path_exists : {false, true}) {
    SCOPED_TRACE(path_exists ? "over a snapshot" : "first write");
    leave_garbage();
    SnapshotData snap = golden_snapshot();
    snap.meta.sim_time_us = path_exists ? 2 : 1;
    std::string err;
    ASSERT_EQ(write_snapshot_file(path, snap, false, &err), StoreStatus::kOk)
        << err;
    crypto::Bytes file;
    ASSERT_EQ(read_file(path, file), StoreStatus::kOk);
    EXPECT_TRUE(file == encode_snapshot(snap));
    SnapshotFileView view;
    EXPECT_EQ(view.open(path), StoreStatus::kOk);
  }
  std::remove(path.c_str());
  std::remove(spare.c_str());
}

TEST(SnapshotFileViewTest, MapsSectionsAndValidatesOnOpen) {
  const std::string path = "store_snapshot_view_test.zsnap";
  std::remove(path.c_str());

  SnapshotFileView missing;
  EXPECT_EQ(missing.open(path), StoreStatus::kNotFound);

  const SnapshotData snap = golden_snapshot();
  std::string err;
  ASSERT_EQ(write_snapshot_file(path, snap, true, &err), StoreStatus::kOk)
      << err;

  SnapshotFileView view;
  ASSERT_EQ(view.open(path), StoreStatus::kOk);
  EXPECT_EQ(view.meta().version, kSnapshotVersion);
  EXPECT_EQ(view.meta().next_lsn, snap.meta.next_lsn);
  ASSERT_EQ(view.sections().size(), 2u);
  const auto* col = view.find(kUserColumnBase);
  ASSERT_NE(col, nullptr);
  EXPECT_EQ(bytes_of(col->payload), bytes_of(snap.sections[1].payload));
  EXPECT_EQ(view.find(kUserColumnBase + 7), nullptr);
  view.close();

  // Flip one payload byte on disk: open() must catch it via the section
  // CRC, not hand out a corrupt mapping.
  crypto::Bytes raw;
  ASSERT_EQ(read_file(path, raw), StoreStatus::kOk);
  raw[raw.size() - 5] ^= 0x01;
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(raw.data(), 1, raw.size(), f), raw.size());
  std::fclose(f);
  EXPECT_EQ(view.open(path), StoreStatus::kCorrupt);
  EXPECT_TRUE(view.sections().empty());
  std::remove(path.c_str());
}

// The streamed writer and encode_snapshot share one framing routine; the
// bytes on disk must be exactly the in-memory image, for the pinned golden
// snapshots and for a real ISP's sections borrowed from its live columns.
TEST(SnapshotFileTest, StreamedFileEqualsEncodeSnapshot) {
  const std::string path = "store_snapshot_streamed_test.zsnap";
  const auto expect_file_is_image = [&](const SnapshotData& snap,
                                        const char* what) {
    std::string err;
    ASSERT_EQ(write_snapshot_file(path, snap, false, &err), StoreStatus::kOk)
        << what << ": " << err;
    crypto::Bytes file;
    ASSERT_EQ(read_file(path, file), StoreStatus::kOk) << what;
    const crypto::Bytes image = encode_snapshot(snap);
    EXPECT_EQ(image.size(), encoded_snapshot_size(snap)) << what;
    EXPECT_TRUE(file == image) << what << ": " << file.size() << " bytes on "
                               << "disk, " << image.size() << " encoded";
  };
  expect_file_is_image(bank_snapshot(), "bank-shaped");
  expect_file_is_image(golden_snapshot(), "golden");

  core::ZmailParams p;
  p.n_isps = 4;
  p.users_per_isp = 10'000;
  p.initial_user_balance = 100;
  Rng key_rng(11);
  const crypto::KeyPair keys = crypto::generate_keypair(key_rng);
  core::Isp isp(0, p, keys.pub, 42);
  for (std::size_t u = 0; u < p.users_per_isp; u += 37)
    isp.user(u).balance += static_cast<EPenny>(u % 11);
  SnapshotData snap;
  snap.meta.features = kFeatureColumnarUserState;
  crypto::Bytes scalars;
  isp.serialize_sections(scalars, snap.sections);
  expect_file_is_image(snap, "10k-user ISP");
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

TEST(SnapshotFileTest, UnwritablePathIsAnIoError) {
  std::string err;
  EXPECT_EQ(write_snapshot_file("store_snapshot_no_such_dir/x.zsnap",
                                golden_snapshot(), true, &err),
            StoreStatus::kIoError);
  EXPECT_FALSE(err.empty());
}

// last_snapshot_bytes and the recovery's snapshot_bytes are computed
// without re-encoding; they must still be the file's size.  The feature
// bit follows the sections: set for user columns, clear for a bank blob.
TEST(CheckpointerTest, SnapshotBytesEqualTheFileSize) {
  const std::string dir = "store_snapshot_test_ckpt";
  std::filesystem::remove_all(dir);
  StoreConfig cfg;
  cfg.enabled = true;
  cfg.dir = dir;
  const auto file_size = [](const std::string& path) {
    struct stat st{};
    EXPECT_EQ(::stat(path.c_str(), &st), 0) << path;
    return static_cast<std::uint64_t>(st.st_size);
  };
  const auto no_replay = [](std::uint8_t, std::span<const std::uint8_t>) {};

  for (const SnapshotData& golden : {bank_snapshot(), golden_snapshot()}) {
    const bool columnar = golden.sections.size() == 2;
    SCOPED_TRACE(columnar ? "isp" : "bank");
    Checkpointer cp;
    std::string err;
    ASSERT_TRUE(cp.open(cfg, columnar ? "isp0" : "bank", &err)) << err;
    ASSERT_TRUE(cp.checkpoint(golden.sections, 7, &err)) << err;
    const std::uint64_t bytes = file_size(cp.snapshot_path());
    EXPECT_EQ(cp.stats().last_snapshot_bytes, bytes);
    RecoveryStats rs;
    std::vector<crypto::Bytes> restored;
    std::uint32_t features = ~0u;
    ASSERT_TRUE(cp.recover(
        [&](const SnapshotFileView& v) {
          features = v.meta().features;
          for (const SnapshotSection& s : v.sections())
            restored.push_back(bytes_of(s.payload));
          return true;
        },
        no_replay, &rs, &err))
        << err;
    EXPECT_EQ(features, columnar ? kFeatureColumnarUserState : 0u);
    ASSERT_EQ(restored.size(), golden.sections.size());
    for (std::size_t i = 0; i < restored.size(); ++i)
      EXPECT_EQ(restored[i], bytes_of(golden.sections[i].payload));
    EXPECT_EQ(rs.snapshot_bytes, bytes);
  }
  std::filesystem::remove_all(dir);
}

// A differential goes to its own file with the row-delta feature bit, is
// sized like that file, and is restored after the base only while its tag
// names that base.
TEST(CheckpointerTest, DifferentialFollowsItsBaseAndOnlyItsBase) {
  const std::string dir = "store_snapshot_test_differential";
  std::filesystem::remove_all(dir);
  StoreConfig cfg;
  cfg.enabled = true;
  cfg.dir = dir;
  Checkpointer cp;
  std::string err;
  ASSERT_TRUE(cp.open(cfg, "isp0", &err)) << err;
  ASSERT_FALSE(cp.checkpoint_differential({}, 1, &err));  // no base yet
  ASSERT_TRUE(cp.checkpoint(golden_snapshot().sections, 1, &err)) << err;
  const std::uint64_t base_bytes = cp.stats().last_snapshot_bytes;
  cp.wal().append(1, kStatePayload);
  ASSERT_TRUE(cp.has_base());
  const auto differential = [&](Lsn tag) {
    crypto::Bytes rows(8 + 4, 0);  // the tag, then a count of 0 rows
    crypto::store_be(rows.data(), tag, 8);
    return rows;
  };
  crypto::Bytes rows = differential(cp.base_lsn());
  ASSERT_TRUE(cp.checkpoint_differential(
      {{kIspScalarsSection, kScalarsPayload}, {kRowDeltaSection, rows}}, 2,
      &err))
      << err;
  EXPECT_EQ(cp.stats().checkpoints, 2u);
  EXPECT_EQ(cp.stats().differentials, 1u);
  EXPECT_EQ(cp.stats().last_snapshot_bytes,
            std::filesystem::file_size(dir + "/isp0.zdelta"));
  EXPECT_EQ(cp.stats().bytes_written,
            base_bytes + cp.stats().last_snapshot_bytes);

  std::vector<std::uint32_t> features;
  const auto restore = [&](const SnapshotFileView& v) {
    features.push_back(v.meta().features);
    return true;
  };
  const auto no_replay = [](std::uint8_t, std::span<const std::uint8_t>) {};
  RecoveryStats rs;
  ASSERT_TRUE(cp.recover(restore, no_replay, &rs, &err)) << err;
  EXPECT_EQ(features, (std::vector<std::uint32_t>{kFeatureColumnarUserState,
                                                  kFeatureRowDelta}));
  EXPECT_TRUE(rs.differential_loaded);
  EXPECT_EQ(rs.recovered_lsn, 1u);  // the record the differential covers

  // The same file with another tag is not applied.  Here it was the last
  // checkpoint, so the log it truncated starts past the base, and the
  // recovery reports the gap instead of losing the record in between.
  rows = differential(cp.base_lsn() + 7);
  ASSERT_TRUE(cp.checkpoint_differential(
      {{kIspScalarsSection, kScalarsPayload}, {kRowDeltaSection, rows}}, 3,
      &err))
      << err;
  features.clear();
  err.clear();
  EXPECT_FALSE(cp.recover(restore, no_replay, &rs, &err));
  EXPECT_EQ(features.size(), 1u);
  EXPECT_FALSE(rs.differential_loaded);
  EXPECT_NE(err.find("gap"), std::string::npos) << err;
  std::filesystem::remove_all(dir);
}

// A restore callback that refuses the snapshot fails the recovery.
TEST(CheckpointerTest, RefusedRestoreIsARecoverError) {
  const std::string dir = "store_snapshot_test_refused";
  std::filesystem::remove_all(dir);
  StoreConfig cfg;
  cfg.enabled = true;
  cfg.dir = dir;
  Checkpointer cp;
  std::string err;
  ASSERT_TRUE(cp.open(cfg, "bank", &err)) << err;
  ASSERT_TRUE(cp.checkpoint(bank_snapshot().sections, 7, &err)) << err;
  err.clear();
  EXPECT_FALSE(cp.recover([](const SnapshotFileView&) { return false; },
                          [](std::uint8_t, std::span<const std::uint8_t>) {},
                          nullptr, &err));
  EXPECT_FALSE(err.empty());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace zmail::store
