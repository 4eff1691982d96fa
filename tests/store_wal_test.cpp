// WAL framing, group commit, crash semantics, and the torn-write fuzz:
// the log must stop *cleanly* at the last valid LSN no matter where a
// crash truncates — or a bad disk corrupts — the final record.
#include "store/wal.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "store/crc32c.hpp"
#include "store/crc32c_impl.hpp"
#include "util/rng.hpp"

namespace zmail::store {
namespace {

std::string tmp_path(const std::string& name) {
  return "store_wal_test_" + name + ".zwal";
}

crypto::Bytes payload_for(int i) {
  crypto::Bytes p;
  for (int k = 0; k <= i; ++k) p.push_back(static_cast<std::uint8_t>(i + k));
  return p;
}

struct ScanCapture {
  std::vector<Lsn> lsns;
  std::vector<std::uint8_t> types;
  std::vector<crypto::Bytes> payloads;

  std::function<void(const WalRecord&)> fn() {
    return [this](const WalRecord& r) {
      lsns.push_back(r.lsn);
      types.push_back(r.type);
      payloads.emplace_back(r.payload, r.payload + r.payload_len);
    };
  }
};

TEST(Crc32cTest, KnownVectorsAndSeedChaining) {
  // RFC 3720 test vector: crc32c of "123456789" is 0xE3069283.
  const char* digits = "123456789";
  EXPECT_EQ(crc32c(digits, 9), 0xE3069283u);
  // An all-zero 32-byte block (iSCSI vector).
  const std::uint8_t zeros[32] = {};
  EXPECT_EQ(crc32c(zeros, 32), 0x8A9136AAu);
  // Seeding with a finalized crc chains: crc(a||b) == crc(b, crc(a)).
  EXPECT_EQ(crc32c(digits + 4, 5, crc32c(digits, 4)), 0xE3069283u);
}

// The SSE4.2 path must give the portable reference's value for every
// length around the 8-byte stride at every start alignment, around the
// three-lane block's edges, on a buffer the size of a 100k-user ISP
// checkpoint, and when chained across the two.
TEST(Crc32cTest, Sse42MatchesPortable) {
#if ZMAIL_STORE_SSE42
  if (!detail::have_sse42()) {
    GTEST_SKIP() << "this CPU lacks SSE4.2; only the portable CRC32C runs "
                    "here";
  }
  Rng rng(2026);
  std::vector<std::uint8_t> buf(7'400'000 + 8);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_u64());

  for (std::size_t off = 0; off < 8; ++off)
    for (std::size_t len = 0; len <= 4096; ++len)
      ASSERT_EQ(detail::crc32c_sse42(buf.data() + off, len, 0),
                detail::crc32c_portable(buf.data() + off, len, 0))
          << "offset " << off << " length " << len;

  // Lane and block edges: one lane, one block of three, two blocks plus a
  // tail that is not a whole word.
  for (const std::size_t len :
       {detail::kLaneBlock - 1, detail::kLaneBlock, detail::kLaneBlock + 1,
        detail::kThreeLaneMin - 1, detail::kThreeLaneMin,
        detail::kThreeLaneMin + 1, 2 * detail::kThreeLaneMin + 7})
    for (std::size_t off = 0; off < 8; ++off)
      ASSERT_EQ(detail::crc32c_sse42(buf.data() + off, len, 0),
                detail::crc32c_portable(buf.data() + off, len, 0))
          << "offset " << off << " length " << len;

  const std::size_t big = 7'400'000;
  const std::uint32_t whole = detail::crc32c_portable(buf.data() + 3, big, 0);
  EXPECT_EQ(detail::crc32c_sse42(buf.data() + 3, big, 0), whole);
  EXPECT_EQ(crc32c(buf.data() + 3, big), whole);

  // Seed chaining in both directions across the implementations.
  // Splits just past the first lane and inside the second block put the
  // seam, and the seeded register, mid-lane.
  for (const std::size_t split :
       {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{4093},
        detail::kLaneBlock + 5, detail::kThreeLaneMin + 3, big}) {
    const std::uint8_t* a = buf.data() + 3;
    const std::uint8_t* b = a + split;
    const std::size_t b_len = big - split;
    EXPECT_EQ(detail::crc32c_sse42(b, b_len,
                                   detail::crc32c_portable(a, split, 0)),
              whole)
        << "split " << split;
    EXPECT_EQ(detail::crc32c_portable(b, b_len,
                                      detail::crc32c_sse42(a, split, 0)),
              whole)
        << "split " << split;
  }
#else
  GTEST_SKIP() << "the SSE4.2 CRC32C is built only for x86-64";
#endif
}

TEST(WalWriterTest, AppendSyncReopenRoundTrip) {
  const std::string path = tmp_path("roundtrip");
  std::remove(path.c_str());
  {
    WalWriter w;
    std::string err;
    ASSERT_TRUE(w.open(path, 1, true, &err)) << err;
    for (int i = 0; i < 5; ++i)
      EXPECT_EQ(w.append_record(static_cast<std::uint8_t>(10 + i),
                                payload_for(i)),
                static_cast<Lsn>(i + 1));
    // group_commit_records == 1: every append is synced immediately.
    EXPECT_EQ(w.durable_lsn(), 5u);
    EXPECT_EQ(w.next_lsn(), 6u);
  }
  crypto::Bytes file;
  ASSERT_EQ(read_file(path, file), StoreStatus::kOk);
  ScanCapture cap;
  const WalScanResult r = wal_scan(file, cap.fn());
  EXPECT_EQ(r.status, StoreStatus::kOk);
  EXPECT_EQ(r.records, 5u);
  EXPECT_EQ(r.base_lsn, 1u);
  EXPECT_EQ(r.last_lsn, 5u);
  EXPECT_EQ(r.valid_bytes, file.size());
  ASSERT_EQ(cap.lsns.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(cap.lsns[i], static_cast<Lsn>(i + 1));
    EXPECT_EQ(cap.types[i], static_cast<std::uint8_t>(10 + i));
    EXPECT_EQ(cap.payloads[i], payload_for(i));
  }

  // Reopening resumes at the next LSN and keeps appending.
  WalWriter w2;
  std::string err;
  ASSERT_TRUE(w2.open(path, 1, true, &err)) << err;
  EXPECT_EQ(w2.next_lsn(), 6u);
  EXPECT_EQ(w2.append_record(99, payload_for(6)), 6u);
  std::remove(path.c_str());
}

TEST(WalWriterTest, GroupCommitBuffersUntilTheCadence) {
  const std::string path = tmp_path("groupcommit");
  std::remove(path.c_str());
  WalWriter w;
  std::string err;
  ASSERT_TRUE(w.open(path, 4, true, &err)) << err;
  w.append_record(1, payload_for(0));
  w.append_record(1, payload_for(1));
  w.append_record(1, payload_for(2));
  EXPECT_EQ(w.durable_lsn(), 0u);  // still buffered
  crypto::Bytes file;
  ASSERT_EQ(read_file(path, file), StoreStatus::kOk);
  EXPECT_EQ(wal_scan(file).records, 0u);  // nothing on disk yet

  w.append_record(1, payload_for(3));  // 4th record: cadence reached
  EXPECT_EQ(w.durable_lsn(), 4u);
  ASSERT_EQ(read_file(path, file), StoreStatus::kOk);
  EXPECT_EQ(wal_scan(file).records, 4u);

  // Explicit sync flushes a partial group.
  w.append_record(1, payload_for(4));
  EXPECT_EQ(w.durable_lsn(), 4u);
  w.sync();
  EXPECT_EQ(w.durable_lsn(), 5u);
  std::remove(path.c_str());
}

TEST(WalWriterTest, SimulateCrashDropsTheUnsyncedTail) {
  const std::string path = tmp_path("crash");
  std::remove(path.c_str());
  WalWriter w;
  std::string err;
  ASSERT_TRUE(w.open(path, 64, true, &err)) << err;
  w.append_record(1, payload_for(0));
  w.append_record(2, payload_for(1));
  w.sync();  // LSNs 1-2 durable
  w.append_record(3, payload_for(2));
  w.append_record(4, payload_for(3));
  EXPECT_EQ(w.next_lsn(), 5u);

  w.simulate_crash();
  EXPECT_EQ(w.durable_lsn(), 2u);
  EXPECT_EQ(w.next_lsn(), 3u);  // LSN sequence resumes after the loss

  w.append_record(5, payload_for(9));
  w.sync();
  crypto::Bytes file;
  ASSERT_EQ(read_file(path, file), StoreStatus::kOk);
  ScanCapture cap;
  const WalScanResult r = wal_scan(file, cap.fn());
  EXPECT_EQ(r.status, StoreStatus::kOk);
  ASSERT_EQ(r.records, 3u);
  EXPECT_EQ(cap.types[2], 5u);  // the post-crash record took LSN 3
  std::remove(path.c_str());
}

TEST(WalWriterTest, TruncateBehindCheckpointAdvancesBaseLsn) {
  const std::string path = tmp_path("truncate");
  std::remove(path.c_str());
  WalWriter w;
  std::string err;
  ASSERT_TRUE(w.open(path, 1, true, &err)) << err;
  for (int i = 0; i < 7; ++i) w.append_record(1, payload_for(i));
  ASSERT_TRUE(w.truncate_behind_checkpoint(&err)) << err;
  EXPECT_EQ(w.next_lsn(), 8u);  // LSNs stay monotonic across truncation

  crypto::Bytes file;
  ASSERT_EQ(read_file(path, file), StoreStatus::kOk);
  WalScanResult r = wal_scan(file);
  EXPECT_EQ(r.status, StoreStatus::kOk);
  EXPECT_EQ(r.records, 0u);
  EXPECT_EQ(r.base_lsn, 8u);

  w.append_record(1, payload_for(7));
  ASSERT_EQ(read_file(path, file), StoreStatus::kOk);
  r = wal_scan(file);
  EXPECT_EQ(r.records, 1u);
  EXPECT_EQ(r.last_lsn, 8u);
  std::remove(path.c_str());
}

// The satellite fuzz: cut the file at *every* byte offset of the final
// record, and separately flip a bit at every byte offset of the final
// record.  Every mangled file must scan to exactly the first two records
// and reopen ready to append LSN 3 — a torn tail is data loss, never an
// open error and never a phantom record.
TEST(WalTornWriteFuzz, EveryTruncationAndCorruptionStopsAtLastValidLsn) {
  const std::string path = tmp_path("fuzz");
  std::remove(path.c_str());
  crypto::Bytes intact;
  std::size_t final_record_start = 0;
  {
    WalWriter w;
    std::string err;
    ASSERT_TRUE(w.open(path, 1, true, &err)) << err;
    w.append_record(7, payload_for(0));
    w.append_record(8, payload_for(1));
    ASSERT_EQ(read_file(path, intact), StoreStatus::kOk);
    final_record_start = intact.size();
    w.append_record(9, payload_for(2));
  }
  ASSERT_EQ(read_file(path, intact), StoreStatus::kOk);
  ASSERT_GT(intact.size(), final_record_start);

  const auto check_mangled = [&](const crypto::Bytes& mangled,
                                 const char* what, std::size_t off) {
    ScanCapture cap;
    const WalScanResult r = wal_scan(mangled, cap.fn());
    EXPECT_TRUE(r.status == StoreStatus::kOk ||
                r.status == StoreStatus::kTruncated ||
                r.status == StoreStatus::kCorrupt)
        << what << " at offset " << off;
    EXPECT_EQ(r.records, 2u) << what << " at offset " << off;
    EXPECT_EQ(r.last_lsn, 2u) << what << " at offset " << off;
    ASSERT_EQ(cap.lsns.size(), 2u) << what << " at offset " << off;
    EXPECT_EQ(cap.payloads[1], payload_for(1));

    // The recovery path proper: opening the mangled file trims the tail
    // and resumes the LSN sequence right after the last valid record.
    const std::string mp = tmp_path("fuzz_mangled");
    std::remove(mp.c_str());
    {
      FILE* f = std::fopen(mp.c_str(), "wb");
      ASSERT_NE(f, nullptr);
      if (!mangled.empty()) {
        ASSERT_EQ(std::fwrite(mangled.data(), 1, mangled.size(), f),
                  mangled.size());
      }
      std::fclose(f);
    }
    WalWriter w;
    std::string err;
    ASSERT_TRUE(w.open(mp, 1, true, &err))
        << what << " at offset " << off << ": " << err;
    EXPECT_EQ(w.next_lsn(), 3u) << what << " at offset " << off;
    std::remove(mp.c_str());
  };

  // Truncation at every byte of the final record (including cutting it off
  // entirely at final_record_start).
  for (std::size_t cut = final_record_start; cut < intact.size(); ++cut) {
    crypto::Bytes mangled(intact.begin(),
                          intact.begin() + static_cast<std::ptrdiff_t>(cut));
    check_mangled(mangled, "truncate", cut);
  }

  // Single-bit corruption at every byte of the final record.
  for (std::size_t off = final_record_start; off < intact.size(); ++off) {
    crypto::Bytes mangled = intact;
    mangled[off] ^= 0x10;
    check_mangled(mangled, "corrupt", off);
  }
  std::remove(path.c_str());
}

TEST(WalScanTest, DamagedHeaderRejectsAndOpenRestartsTheLog) {
  const std::string path = tmp_path("header");
  std::remove(path.c_str());
  crypto::Bytes intact;
  {
    WalWriter w;
    std::string err;
    ASSERT_TRUE(w.open(path, 1, true, &err)) << err;
    w.append_record(1, payload_for(0));
  }
  ASSERT_EQ(read_file(path, intact), StoreStatus::kOk);

  crypto::Bytes bad_magic = intact;
  bad_magic[0] ^= 0xFF;
  EXPECT_EQ(wal_scan(bad_magic).status, StoreStatus::kBadMagic);

  crypto::Bytes bad_crc = intact;
  bad_crc[8] ^= 0x01;  // inside base_lsn, breaks the header crc
  EXPECT_EQ(wal_scan(bad_crc).status, StoreStatus::kCorrupt);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace zmail::store
