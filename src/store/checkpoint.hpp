// Per-party durability: WAL + snapshot + recovery orchestration.
//
// A Checkpointer owns one party's on-disk pair
//
//   <dir>/<party>.zwal    append-only command log (store/wal.hpp)
//   <dir>/<party>.zsnap   latest full-state snapshot (store/snapshot.hpp)
//
// and is deliberately generic: the party hands it snapshot sections and
// restore/replay callbacks, so this layer knows nothing about bank/ISP
// internals and `zmail_store` stays below `zmail_core` in the link graph.
//
// Lifecycle:
//   open()        — open/create both files; scan + trim the WAL tail
//   wal()         — the sink the party logs commands to
//   checkpoint()  — atomically write a snapshot covering all logged
//                   commands, then truncate the WAL behind it
//   simulate_crash() — drop un-fsynced WAL buffer (models process death)
//   recover()     — load snapshot (if any), replay the WAL tail, report
//                   what happened; stops *cleanly* at a torn tail
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "crypto/bytes.hpp"
#include "store/snapshot.hpp"
#include "store/status.hpp"
#include "store/wal.hpp"

namespace zmail::store {

// Durability knobs for a simulation run.  Lives here (not core/config.hpp)
// so benches and tests can drive a Checkpointer without pulling in core.
struct StoreConfig {
  bool enabled = false;        // off ⇒ zero store objects, zero overhead
  std::string dir;             // directory for <party>.zwal/.zsnap files
  // Records per group commit: 1 = sync every append (strict durability);
  // N > 1 batches, trading the un-synced tail on crash for throughput.
  std::uint32_t group_commit_records = 1;
  bool fsync_data = true;      // issue fsync(2) barriers at sync points
  // Extra periodic checkpoint cadence in sim microseconds (0 = only at
  // protocol-driven boundaries: ISP quiesce flush, bank round close).
  std::int64_t checkpoint_interval_us = 0;
  bool checkpoint_at_snapshot = true;  // checkpoint at quiesce boundaries
};

struct RecoveryStats {
  bool snapshot_loaded = false;
  StoreStatus snapshot_status = StoreStatus::kNotFound;
  StoreStatus wal_status = StoreStatus::kNotFound;
  std::uint64_t wal_records_replayed = 0;
  Lsn recovered_lsn = 0;       // last applied LSN (0 = nothing)
  std::uint64_t snapshot_bytes = 0;
  std::uint64_t wal_bytes = 0;
};

class Checkpointer {
 public:
  struct Stats {
    std::uint64_t checkpoints = 0;
    std::uint64_t last_snapshot_bytes = 0;
    std::uint64_t wal_records_truncated = 0;
  };

  Checkpointer() = default;

  // Opens `<dir>/<party>.zwal` for appending (creating it if absent).  The
  // snapshot file is only touched by checkpoint()/recover().
  bool open(const StoreConfig& cfg, const std::string& party,
            std::string* error = nullptr);
  bool is_open() const { return wal_.is_open(); }

  WalWriter& wal() { return wal_; }
  const WalWriter& wal() const { return wal_; }

  // Writes the party-provided sections as one snapshot covering every
  // command logged so far, then truncates the WAL behind it.  The header's
  // kFeatureColumnarUserState bit is set when a section is a user column
  // (id >= kUserColumnBase).  The payloads are borrowed: they stream from
  // the party's memory to the file and are not retained.  Single-threaded
  // simulation makes snapshot+truncate atomic: both happen within one
  // event, and a modeled crash can only land between events.
  bool checkpoint(std::vector<SnapshotSection> sections,
                  std::uint64_t sim_time_us, std::string* error = nullptr);

  // Models process death: the un-synced WAL tail vanishes.
  void simulate_crash() { wal_.simulate_crash(); }

  // Rebuilds party state from disk.  `restore` gets a read-only mmap view
  // of the snapshot file, so a restore copies sections straight out of
  // the mapping; it returns false if the contents are unusable (missing
  // sections, decode failure), which is fatal.  `replay` applies one
  // logged command.  Neither is called when the corresponding file is
  // absent (fresh party).  A torn/corrupt WAL tail is not an error —
  // replay simply stops at the last valid record, which is exactly the
  // crash contract.  Returns false only on unrecoverable problems
  // (unreadable or unrestorable snapshot, unknown snapshot version,
  // WAL/snapshot LSN mismatch).
  bool recover(const std::function<bool(const SnapshotFileView&)>& restore,
               const std::function<void(std::uint8_t, const crypto::Bytes&)>& replay,
               RecoveryStats* stats = nullptr, std::string* error = nullptr);

  const Stats& stats() const { return stats_; }
  const std::string& wal_path() const { return wal_path_; }
  const std::string& snapshot_path() const { return snap_path_; }

 private:
  // Replays the WAL tail from `replay_from` into `replay` (the second half
  // of recover).  Updates `st` and tolerates a torn tail.
  bool replay_wal_tail(
      Lsn replay_from,
      const std::function<void(std::uint8_t, const crypto::Bytes&)>& replay,
      RecoveryStats& st, std::string* error);

  StoreConfig cfg_;
  std::string wal_path_;
  std::string snap_path_;
  WalWriter wal_;
  Stats stats_;
  std::uint64_t records_at_last_ckpt_ = 0;
};

// Creates `dir` (and parents) if needed.  Returns false on failure.
bool ensure_dir(const std::string& dir, std::string* error = nullptr);

}  // namespace zmail::store
