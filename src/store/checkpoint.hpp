// Per-party durability: WAL + snapshot + recovery orchestration.
//
// A Checkpointer owns one party's on-disk files
//
//   <dir>/<party>.zwal    append-only command log (store/wal.hpp)
//   <dir>/<party>.zsnap   latest full image, the base (store/snapshot.hpp)
//   <dir>/<party>.zdelta  latest differential over that base (ISPs only)
//
// and is deliberately generic: the party hands it snapshot sections and
// restore/replay callbacks, so this layer knows nothing about bank/ISP
// internals and `zmail_store` stays below `zmail_core` in the link graph.
//
// Lifecycle:
//   open()        — open/create the WAL; scan it and trim a torn tail
//   recover()     — load the base (if any), then the one differential
//                   tagged with that base (if any), replay the WAL tail
//                   after the later of the two, and report what happened;
//                   stops *cleanly* at a torn tail.  The WAL file is
//                   scanned through a read-only mapping, which touches the
//                   log's pages only (not the extent behind its
//                   terminator), and each record's payload reaches the
//                   replay callback as a span into it (nothing copied).
//                   Call it after open() and before the first append: a
//                   log cut to nothing restarts at the loaded image's
//                   next_lsn here.
//   wal()         — the sink the party logs commands to
//   checkpoint()  — atomically write a full image covering all logged
//                   commands, then restart the WAL behind it (a new header
//                   and a terminator; the file keeps its extent, whose
//                   stale records all carry LSNs below the new base); the
//                   image becomes the base
//   checkpoint_differential() — the same for a differential over the base
//   simulate_crash() — drop un-fsynced WAL buffer (models process death)
//
// Crash windows.  Each file is replaced by write_snapshot_file's atomic
// exchange, and the WAL is restarted only after it, so a crash leaves
// either the previous file set or the new file with the old, longer log,
// whose records the new file already covers (replay skips them by LSN).
// A crash between the restart's header and its terminator leaves the new
// header over old records, whose LSNs fall below its base: the scan stops
// at the first of them.
// A full image leaves the differential alone: it keeps the old base's tag
// and is ignored from then on.  Only a full image at the base's own
// next_lsn would carry that same tag; the differential is removed before
// such an image is written.  It covers no logged command beyond the base,
// so a crash in between loses nothing the log does not hold.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
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
  std::string dir;             // directory for <party>.zwal/.zsnap/.zdelta
  bool fsync_data = true;      // issue fsync(2) barriers at sync points
  // Extra periodic checkpoint cadence in sim microseconds (0 = only at
  // protocol-driven boundaries: ISP quiesce flush, bank round close).
  std::int64_t checkpoint_interval_us = 0;
};

struct RecoveryStats {
  bool snapshot_loaded = false;      // a base image
  bool differential_loaded = false;  // and a differential over it
  StoreStatus snapshot_status = StoreStatus::kNotFound;
  StoreStatus wal_status = StoreStatus::kNotFound;
  std::uint64_t wal_records_replayed = 0;
  Lsn recovered_lsn = 0;       // last applied LSN (0 = nothing)
  std::uint64_t snapshot_bytes = 0;  // base + differential file sizes
  std::uint64_t wal_bytes = 0;       // the log's valid bytes, header included
};

class Checkpointer {
 public:
  // Applies one logged command: its type and a view of its payload.
  using ReplayFn =
      std::function<void(std::uint8_t, std::span<const std::uint8_t>)>;

  struct Stats {
    std::uint64_t checkpoints = 0;    // full images and differentials
    std::uint64_t differentials = 0;
    std::uint64_t last_snapshot_bytes = 0;  // the last file written
    std::uint64_t bytes_written = 0;  // Σ over every file written
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

  // Writes the party-provided sections as one full image covering every
  // command logged so far, then truncates the WAL behind it.  The image
  // becomes the base.  The header's kFeatureColumnarUserState bit is set
  // when a section is a user column (id >= kUserColumnBase).  The payloads
  // are borrowed: they stream from the party's memory to the file and are
  // not retained.  Single-threaded simulation makes snapshot+truncate
  // atomic: both happen within one event, and a modeled crash can only
  // land between events.
  bool checkpoint(std::vector<SnapshotSection> sections,
                  std::uint64_t sim_time_us, std::string* error = nullptr);
  // The same for a differential over the base: `sections` hold a
  // kRowDeltaSection tagged with base_lsn(), and the header also sets
  // kFeatureRowDelta.  Requires has_base().
  bool checkpoint_differential(std::vector<SnapshotSection> sections,
                               std::uint64_t sim_time_us,
                               std::string* error = nullptr);
  // A base image is on disk: this Checkpointer wrote or recovered one.
  bool has_base() const noexcept { return base_lsn_ != 0; }
  // The base's next_lsn, the tag of every differential over it (0: none).
  Lsn base_lsn() const noexcept { return base_lsn_; }

  // Models process death: the un-synced WAL tail vanishes.
  void simulate_crash() { wal_.simulate_crash(); }

  // Rebuilds party state from disk.  `restore` gets a read-only mmap view
  // of the base, then of the differential when one is tagged with it
  // (kFeatureRowDelta tells them apart), so a restore copies sections
  // straight out of the mapping; it returns false if the contents are
  // unusable (missing sections, decode failure), which is fatal.  `replay` applies one
  // logged command; its payload is a view into the WAL image, valid for
  // the call only.  Neither is called when the corresponding file is
  // absent (fresh party).  A torn/corrupt WAL tail is not an error —
  // replay simply stops at the last valid record, which is exactly the
  // crash contract.  Returns false only on unrecoverable problems
  // (unreadable or unrestorable snapshot, unknown snapshot version,
  // WAL/snapshot LSN mismatch).
  bool recover(const std::function<bool(const SnapshotFileView&)>& restore,
               const ReplayFn& replay,
               RecoveryStats* stats = nullptr, std::string* error = nullptr);

  const Stats& stats() const { return stats_; }
  const std::string& wal_path() const { return wal_path_; }
  const std::string& snapshot_path() const { return snap_path_; }

 private:
  // Writes one snapshot file covering every logged command, then truncates
  // the WAL behind it (both checkpoint flavours).
  bool write_checkpoint(const std::string& path,
                        std::vector<SnapshotSection> sections,
                        std::uint64_t sim_time_us, std::string* error);
  // Replays the WAL tail from `replay_from` into `replay` (the second half
  // of recover).  Updates `st` and tolerates a torn tail.
  bool replay_wal_tail(
      Lsn replay_from, const ReplayFn& replay,
      RecoveryStats& st, std::string* error);

  StoreConfig cfg_;
  std::string wal_path_;
  std::string snap_path_;
  std::string delta_path_;
  WalWriter wal_;
  Stats stats_;
  std::uint64_t records_at_last_ckpt_ = 0;
  Lsn base_lsn_ = 0;
  // A differential tagged with the base is on disk.
  bool differential_on_disk_ = false;
};

// Creates `dir` (and parents) if needed.  Returns false on failure.
bool ensure_dir(const std::string& dir, std::string* error = nullptr);

}  // namespace zmail::store
