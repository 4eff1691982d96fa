// Versioned binary snapshot format.
//
// A snapshot is a full serialization of one party's settlement state at a
// quiesce boundary, paired with the WAL position it covers: recovery loads
// the snapshot, then replays WAL records with lsn >= meta.next_lsn.  (The
// checkpointer truncates the WAL behind each snapshot, so in practice the
// whole surviving log replays.)
//
// On-disk grammar (all integers big-endian, matching the wire format):
//
//   snapshot := header section*
//   header   := "ZSNP" version:u32 features:u32 next_lsn:u64
//               sim_time_us:u64 section_count:u32 crc:u32
//               (36 bytes; crc is CRC32C over the first 32)
//   section  := id:u32 len:u64 payload:u8[len] crc:u32
//               (crc is CRC32C over payload)
//
// Versioning contract: there is one container version, kSnapshotVersion,
// and readers reject every other with StoreStatus::kUnknownVersion.  A
// layout change means a new version, not an edit; the byte layout is
// pinned by a golden-file test (tests/store_snapshot_test.cpp).
// `features` is a bitmask of *required* capabilities — a reader that does
// not recognize a set bit must refuse the file (kUnknownFeature) rather
// than silently ignore data it cannot interpret.  The one bit defined,
// kFeatureColumnarUserState, marks a snapshot carrying user columns.
//
// Both parties write the same container.  An ISP checkpoint is one
// kIspScalarsSection (counts, pending protocol state, metrics, RNG)
// followed by eleven kUserColumnBase+i sections, each the raw
// little-endian bytes of one Population column.  A member bank's
// checkpoint is one kBankStateSection holding its state blob.
// SnapshotFileView maps a file read-only and validates every CRC once at
// open, so an ISP restore is a handful of bulk copies straight out of the
// page cache instead of field-by-field deserialization.
//
// Writes stream straight from the sections: write_snapshot_file frames the
// header and each section's prefix and CRC trailer, then hands those and
// the borrowed payloads (an ISP's live Population columns) to writev, so a
// checkpoint never stages the image in memory.  encode_snapshot uses the
// same framing routine, so the in-memory and on-disk images are the same
// bytes.  Writes are atomic and recycle the previous snapshot's inode:
//
//   1. open `<path>.tmp` without O_TRUNC and stream the image over its
//      old bytes (the spare the previous write left, or a new file);
//   2. ftruncate it to encoded_snapshot_size(), fsync it;
//   3. swap it into `path` with renameat2(RENAME_EXCHANGE), then fsync the
//      directory so the swap itself is durable.
//
// (The fsyncs only when `fsync_data`.)  The swapped-out previous snapshot
// stays behind, complete, as `<path>.tmp`, and the next write overwrites it
// in place, so a checkpoint neither allocates an inode nor frees one.  A
// plain rename(2) is used only when `path` does not exist yet or the
// filesystem rejects the exchange.  A crash mid-checkpoint leaves the
// previous snapshot intact at `path`; steady-state disk use is two
// snapshots per party.
//
// View lifetime: a SnapshotFileView of `path` must be closed before the
// next-but-one write to `path`.  The next write swaps the mapped inode out
// to `<path>.tmp`; the one after rewrites and trims it in place, and a
// MAP_PRIVATE mapping does not freeze file pages it has not written.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "crypto/bytes.hpp"
#include "store/status.hpp"
#include "store/wal.hpp"

namespace zmail::store {

// The one container version; decode_snapshot rejects every other.
constexpr std::uint32_t kSnapshotVersion = 2;

// Feature bits: user-state sections are whole Population columns as raw
// little-endian payloads.  The checkpointer sets the bit when a section id
// is a user column.
constexpr std::uint32_t kFeatureColumnarUserState = 1u << 0;
// Feature bits this build understands.
constexpr std::uint32_t kSupportedFeatures = kFeatureColumnarUserState;

// Section ids.  The id space leaves room for side tables (metrics,
// indexes) without a version bump — readers skip
// recognized-but-unneeded sections.
constexpr std::uint32_t kBankStateSection = 1;  // a member bank's blob
// ISP sections: scalar tail + one section per Population column at
// kUserColumnBase + static_cast<u32>(Population::Column).  Every id from
// kUserColumnBase up is a user column.
constexpr std::uint32_t kIspScalarsSection = 2;
constexpr std::uint32_t kUserColumnBase = 0x10;

// One section: an id and a borrowed payload.  Writers point the payload at
// live state, readers at the bytes of a decoded or mapped image; a section
// never owns its bytes, which must outlive it.
struct SnapshotSection {
  std::uint32_t id = 0;
  std::span<const std::uint8_t> payload;
};

struct SnapshotMeta {
  std::uint32_t version = kSnapshotVersion;
  std::uint32_t features = 0;
  Lsn next_lsn = 1;               // first WAL record NOT covered by this state
  std::uint64_t sim_time_us = 0;  // simulation clock at checkpoint
};

struct SnapshotData {
  SnapshotMeta meta;
  std::vector<SnapshotSection> sections;
};

// Exact encoded size of `snap`: the header, 16 framing bytes per section
// and the payloads.  Equals encode_snapshot(snap).size() without encoding.
std::uint64_t encoded_snapshot_size(const SnapshotData& snap) noexcept;

// Pure (de)serialization — the fuzz and golden tests work on buffers.
// decode_snapshot validates every CRC, rejects bytes after the last section
// (kCorrupt) and points out.sections into `image`, which must outlive them.
crypto::Bytes encode_snapshot(const SnapshotData& snap);
StoreStatus decode_snapshot(std::span<const std::uint8_t> image,
                            SnapshotData& out);
// The sections would point into a buffer that dies with the call.
StoreStatus decode_snapshot(const crypto::Bytes&& image,
                            SnapshotData& out) = delete;

// Atomic streamed file write (overwrite the spare + trim + fsync + exchange
// + directory fsync; the fsyncs only when `fsync_data`).  The bytes at
// `path` are exactly encode_snapshot(snap); the previous snapshot is left
// as `<path>.tmp`.
StoreStatus write_snapshot_file(const std::string& path,
                                const SnapshotData& snap, bool fsync_data,
                                std::string* error = nullptr);

// Read-only mmap view of a snapshot file.  open() maps the file and
// validates the header and every section CRC once; the sections then point
// straight into the mapping, so consumers (Isp::restore_snapshot) can bulk
// copy column payloads without an intermediate copy of the file.  The view
// owns the mapping; sections are valid until close() or destruction, which
// must come before the next-but-one write_snapshot_file to the same path
// (see the header comment).
class SnapshotFileView {
 public:
  SnapshotFileView() = default;
  ~SnapshotFileView() { close(); }
  SnapshotFileView(const SnapshotFileView&) = delete;
  SnapshotFileView& operator=(const SnapshotFileView&) = delete;

  StoreStatus open(const std::string& path);
  void close();

  const SnapshotData& snapshot() const noexcept { return snap_; }
  const SnapshotMeta& meta() const noexcept { return snap_.meta; }
  std::size_t file_size() const noexcept { return map_size_; }
  const std::vector<SnapshotSection>& sections() const noexcept {
    return snap_.sections;
  }
  // First section with this id, or nullptr.
  const SnapshotSection* find(std::uint32_t id) const noexcept;

 private:
  SnapshotData snap_;
  const std::uint8_t* map_ = nullptr;
  std::size_t map_size_ = 0;
};

}  // namespace zmail::store
