#include "store/checkpoint.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace zmail::store {

bool ensure_dir(const std::string& dir, std::string* error) {
  if (dir.empty()) {
    if (error) *error = "store: empty directory";
    return false;
  }
  std::string path;
  std::size_t pos = 0;
  while (pos <= dir.size()) {
    const std::size_t slash = dir.find('/', pos);
    path = slash == std::string::npos ? dir : dir.substr(0, slash);
    pos = slash == std::string::npos ? dir.size() + 1 : slash + 1;
    if (path.empty()) continue;  // leading '/'
    if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST) {
      if (error) *error = "store: mkdir " + path + ": " + std::strerror(errno);
      return false;
    }
  }
  return true;
}

bool Checkpointer::open(const StoreConfig& cfg, const std::string& party,
                        std::string* error) {
  cfg_ = cfg;
  if (!ensure_dir(cfg.dir, error)) return false;
  wal_path_ = cfg.dir + "/" + party + ".zwal";
  snap_path_ = cfg.dir + "/" + party + ".zsnap";
  delta_path_ = cfg.dir + "/" + party + ".zdelta";
  base_lsn_ = 0;
  differential_on_disk_ = false;
  // Cadence 1: every append is in the file before the caller acts on it,
  // which is the output-commit point the system relies on.
  return wal_.open(wal_path_, 1, cfg.fsync_data, error);
}

bool Checkpointer::write_checkpoint(const std::string& path,
                                    std::vector<SnapshotSection> sections,
                                    std::uint64_t sim_time_us,
                                    std::string* error) {
  SnapshotData snap;
  snap.sections = std::move(sections);
  for (const SnapshotSection& s : snap.sections) {
    if (s.id >= kUserColumnBase) snap.meta.features |= kFeatureColumnarUserState;
    if (s.id == kRowDeltaSection) snap.meta.features |= kFeatureRowDelta;
  }
  // next_lsn() (not durable_lsn()) — commands still in the group-commit
  // buffer are already reflected in the state, so the snapshot covers them.
  snap.meta.next_lsn = wal_.next_lsn();
  snap.meta.sim_time_us = sim_time_us;
  const StoreStatus ws =
      write_snapshot_file(path, snap, cfg_.fsync_data, error);
  if (ws != StoreStatus::kOk) return false;
  if (!wal_.truncate_behind_checkpoint(error)) return false;
  ++stats_.checkpoints;
  stats_.last_snapshot_bytes = encoded_snapshot_size(snap);
  stats_.bytes_written += stats_.last_snapshot_bytes;
  stats_.wal_records_truncated +=
      wal_.stats().records_appended - records_at_last_ckpt_;
  records_at_last_ckpt_ = wal_.stats().records_appended;
  return true;
}

bool Checkpointer::checkpoint(std::vector<SnapshotSection> sections,
                              std::uint64_t sim_time_us, std::string* error) {
  const Lsn next = wal_.next_lsn();
  if (differential_on_disk_ && next == base_lsn_ &&
      ::unlink(delta_path_.c_str()) != 0 && errno != ENOENT) {
    if (error)
      *error = "checkpoint: unlink " + delta_path_ + ": " + std::strerror(errno);
    return false;
  }
  differential_on_disk_ = false;
  if (!write_checkpoint(snap_path_, std::move(sections), sim_time_us, error))
    return false;
  base_lsn_ = next;
  return true;
}

bool Checkpointer::checkpoint_differential(
    std::vector<SnapshotSection> sections, std::uint64_t sim_time_us,
    std::string* error) {
  if (!has_base()) {
    if (error) *error = "checkpoint: a differential needs a base image";
    return false;
  }
  if (!write_checkpoint(delta_path_, std::move(sections), sim_time_us, error))
    return false;
  differential_on_disk_ = true;
  ++stats_.differentials;
  return true;
}

bool Checkpointer::recover(
    const std::function<bool(const SnapshotFileView&)>& restore,
    const ReplayFn& replay,
    RecoveryStats* stats, std::string* error) {
  RecoveryStats local;
  RecoveryStats& st = stats ? *stats : local;
  st = RecoveryStats{};
  // A base this Checkpointer wrote or loaded must still be there: the
  // party may have kept its memory on the strength of it.
  const bool had_base = has_base();
  base_lsn_ = 0;
  differential_on_disk_ = false;

  const auto fail = [error](const std::string& what) {
    if (error) *error = "recover: " + what;
    return false;
  };
  Lsn replay_from = 1;
  SnapshotFileView view;
  st.snapshot_status = view.open(snap_path_);
  if (st.snapshot_status == StoreStatus::kOk) {
    if (!restore(view)) return fail("snapshot sections failed to restore");
    st.snapshot_loaded = true;
    st.snapshot_bytes = view.file_size();
    base_lsn_ = replay_from = view.meta().next_lsn;
  } else if (st.snapshot_status != StoreStatus::kNotFound || had_base) {
    return fail(std::string("snapshot unreadable: ") +
                store_status_name(st.snapshot_status));
  }
  if (has_base()) {
    // A differential with another tag predates this base.  Ignoring one
    // wrongly cannot go unnoticed: the log it truncated would then start
    // past replay_from, which replay_wal_tail reports as a gap.
    const StoreStatus ds = view.open(delta_path_);
    if (ds == StoreStatus::kOk && row_delta_base(view.snapshot()) == base_lsn_) {
      if (!restore(view)) return fail("differential failed to restore");
      st.differential_loaded = differential_on_disk_ = true;
      st.snapshot_bytes += view.file_size();
      replay_from = view.meta().next_lsn;
    } else if (ds != StoreStatus::kOk && ds != StoreStatus::kNotFound) {
      return fail(std::string("differential unreadable: ") +
                  store_status_name(ds));
    }
  }
  view.close();  // unmap before replay; the restored state owns its copies
  st.recovered_lsn = replay_from - 1;

  if (!replay_wal_tail(replay_from, replay, st, error)) return false;
  // A log cut to nothing or to a short header restarts at LSN 1
  // (WalWriter::open); its records would then fall behind the loaded image
  // and be skipped as covered by it.  Restart it after the image instead,
  // so LSNs never go backwards.
  return wal_.next_lsn() >= replay_from || wal_.restart_at(replay_from, error);
}

bool Checkpointer::replay_wal_tail(
    Lsn replay_from,
    const ReplayFn& replay,
    RecoveryStats& st, std::string* error) {
  crypto::Bytes wal_image;
  st.wal_status = read_file(wal_path_, wal_image);
  if (st.wal_status == StoreStatus::kNotFound) return true;  // fresh party
  if (st.wal_status != StoreStatus::kOk) {
    if (error) *error = "recover: wal unreadable";
    return false;
  }
  st.wal_bytes = wal_image.size();

  bool gap = false;
  const WalScanResult scan =
      wal_scan(wal_image, [&](const WalRecord& rec) {
        if (rec.lsn < replay_from) return;  // covered by the snapshot
        if (rec.lsn != replay_from + st.wal_records_replayed) {
          gap = true;  // hole between snapshot and log: cannot apply safely
          return;
        }
        replay(rec.type, {rec.payload, rec.payload_len});
        ++st.wal_records_replayed;
        st.recovered_lsn = rec.lsn;
      });
  st.wal_status = scan.status;
  switch (scan.status) {
    case StoreStatus::kOk:
    case StoreStatus::kTruncated:
    case StoreStatus::kCorrupt:
      break;  // torn tail ⇒ clean stop at last valid record (the contract)
    default:
      if (error)
        *error = std::string("recover: wal header: ") +
                 store_status_name(scan.status);
      return false;
  }
  if (gap || (st.snapshot_loaded && scan.base_lsn > replay_from)) {
    if (error) *error = "recover: LSN gap between snapshot and WAL";
    return false;
  }
  return true;
}

}  // namespace zmail::store
