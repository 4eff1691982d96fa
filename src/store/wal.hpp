// Append-only write-ahead log.
//
// The settlement state of a Zmail party (bank or compliant ISP) is a
// deterministic state machine; the WAL records every command applied to it,
// so <latest snapshot> + <WAL tail replay> reconstructs the exact pre-crash
// state (see core::Isp::apply_wal_record and
// core::BankFederation::apply_wal_record).
//
// On-disk grammar (all integers big-endian, matching the wire format):
//
//   wal     := header record*
//   header  := "ZWAL" version:u32 base_lsn:u64 crc:u32      (20 bytes; crc
//              is CRC32C over the first 16 header bytes)
//   record  := body_len:u32 body_crc:u32 body
//   body    := lsn:u64 type:u8 payload:u8[body_len - 9]
//
// LSNs are assigned monotonically starting at base_lsn; a gap or repeat is
// corruption.  Scanning stops *cleanly* at the first byte that does not
// continue a valid record — a torn final write (partial record, bad CRC,
// short length prefix) yields exactly the records before it, never a crash
// or a partial apply.
//
// Encoding: each party builds a record's payload in one member buffer it
// reuses for every record, and hands it to WalSink::append as a byte span;
// the writer encodes the record straight onto the end of its pending
// buffer.  Neither buffer is freed between records, so a warm log appends
// without touching the heap.
//
// Durability model: append() encodes into an in-memory buffer; sync() is
// the fsync point — it write(2)s the buffer and optionally fsync(2)s, so
// the file only ever contains records up to the last sync.  Group commit is
// a sync cadence (`group_commit_records`): with N > 1, up to N-1 records
// ride in the buffer and are lost by simulate_crash(), which is how the
// simulation models losing the un-fsynced tail of a real crash.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>

#include "crypto/bytes.hpp"
#include "store/status.hpp"

namespace zmail::store {

// Log sequence number.  1-based; 0 means "none".
using Lsn = std::uint64_t;

// Where state machines log commands (each core::Isp and member bank of a
// core::BankFederation holds one of these, attached by the harness;
// detached during replay so recovery does not re-log the records it is
// applying).  `payload` is borrowed for the call only, so the caller may
// reuse its buffer for the next record.
class WalSink {
 public:
  virtual ~WalSink() = default;
  virtual void append(std::uint8_t type,
                      std::span<const std::uint8_t> payload) = 0;
};

// One decoded record, borrowed from the scan buffer.
struct WalRecord {
  Lsn lsn = 0;
  std::uint8_t type = 0;
  const std::uint8_t* payload = nullptr;
  std::size_t payload_len = 0;
};

struct WalScanResult {
  // kOk: clean end of file.  kTruncated / kCorrupt: a torn or damaged tail
  // was found — everything before `valid_bytes` is intact and was visited.
  // Header-level failures (kBadMagic, kUnknownVersion, ...) visit nothing.
  StoreStatus status = StoreStatus::kOk;
  std::uint64_t records = 0;
  Lsn base_lsn = 0;
  Lsn last_lsn = 0;          // last valid LSN (base_lsn - 1 when empty)
  std::size_t valid_bytes = 0;  // offset just past the last valid record
};

// Scans an in-memory WAL image, invoking `fn` for each valid record in
// order.  Never throws, never reads past the buffer: recovery and the
// torn-write fuzzer share this one decoder.
WalScanResult wal_scan(const crypto::Bytes& file,
                       const std::function<void(const WalRecord&)>& fn = {});

// Append side.  Not thread-safe (each party owns its log, and the
// simulation applies commands from one thread).
class WalWriter : public WalSink {
 public:
  struct Stats {
    std::uint64_t records_appended = 0;
    std::uint64_t bytes_appended = 0;   // encoded record bytes (excl. header)
    std::uint64_t syncs = 0;            // write(2) flushes
    std::uint64_t fsyncs = 0;           // fsync(2) barriers issued
  };

  WalWriter() = default;
  ~WalWriter() override;
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  // Opens or creates `path`.  An existing log is scanned; a torn tail is
  // trimmed and appends continue after the last valid record.  `fsync_data`
  // false skips the fsync(2) barrier at sync points (write(2) still runs —
  // benches measuring pure append cost use this).  Returns false and fills
  // `error` on failure.
  bool open(const std::string& path, std::uint32_t group_commit_records = 1,
            bool fsync_data = true, std::string* error = nullptr);
  bool is_open() const noexcept { return fd_ >= 0; }
  void close();

  // Appends one record, returning its LSN; syncs automatically every
  // `group_commit_records` appends.
  Lsn append_record(std::uint8_t type, std::span<const std::uint8_t> payload);
  void append(std::uint8_t type,
              std::span<const std::uint8_t> payload) override {
    append_record(type, payload);
  }

  // Explicit fsync point: flushes buffered records to the file (and to
  // stable storage when fsync_data).  After sync(), durable_lsn() ==
  // next_lsn() - 1.
  void sync();

  // Everything at or behind this LSN survives a crash.
  Lsn durable_lsn() const noexcept { return durable_lsn_; }
  Lsn next_lsn() const noexcept { return next_lsn_; }
  std::uint32_t group_commit_records() const noexcept { return group_; }

  // Restarts the log empty with base_lsn = `next_lsn`: the header is
  // rewritten in place, then the file trimmed to it.
  bool restart_at(Lsn next_lsn, std::string* error = nullptr);
  // Checkpoint truncation: the snapshot now covers every logged record, so
  // restart the log empty at next_lsn() (LSNs stay monotonic across the
  // truncation).
  bool truncate_behind_checkpoint(std::string* error = nullptr) {
    return restart_at(next_lsn_, error);
  }

  // Models the crash: buffered (un-synced) records vanish, exactly as the
  // un-fsynced page-cache tail of a real process death would.  The file is
  // left as the last sync() wrote it; the writer rewinds its LSN counter to
  // match and can keep appending after recovery.
  void simulate_crash();

  const Stats& stats() const noexcept { return stats_; }

 private:
  bool write_header(Lsn base_lsn, std::string* error);

  int fd_ = -1;
  std::string path_;
  std::uint32_t group_ = 1;
  bool fsync_data_ = true;
  Lsn next_lsn_ = 1;
  Lsn durable_lsn_ = 0;
  crypto::Bytes pending_;            // encoded, not yet written records
  std::uint32_t pending_records_ = 0;
  Stats stats_;
};

// Reads a whole file into `out`, sized once from fstat(2); kNotFound when
// it does not exist.
StoreStatus read_file(const std::string& path, crypto::Bytes& out);

}  // namespace zmail::store
