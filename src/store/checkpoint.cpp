#include "store/checkpoint.hpp"

#include <sys/stat.h>

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
  // Cadence 1: every append is in the file before the caller acts on it,
  // which is the output-commit point the system relies on.
  return wal_.open(wal_path_, 1, cfg.fsync_data, error);
}

bool Checkpointer::checkpoint(std::vector<SnapshotSection> sections,
                              std::uint64_t sim_time_us, std::string* error) {
  SnapshotData snap;
  snap.sections = std::move(sections);
  for (const SnapshotSection& s : snap.sections)
    if (s.id >= kUserColumnBase) snap.meta.features = kFeatureColumnarUserState;
  // next_lsn() (not durable_lsn()) — commands still in the group-commit
  // buffer are already reflected in the state, so the snapshot covers them.
  snap.meta.next_lsn = wal_.next_lsn();
  snap.meta.sim_time_us = sim_time_us;
  const StoreStatus ws =
      write_snapshot_file(snap_path_, snap, cfg_.fsync_data, error);
  if (ws != StoreStatus::kOk) return false;
  if (!wal_.truncate_behind_checkpoint(error)) return false;
  ++stats_.checkpoints;
  stats_.last_snapshot_bytes = encoded_snapshot_size(snap);
  stats_.wal_records_truncated +=
      wal_.stats().records_appended - records_at_last_ckpt_;
  records_at_last_ckpt_ = wal_.stats().records_appended;
  return true;
}

bool Checkpointer::recover(
    const std::function<bool(const SnapshotFileView&)>& restore,
    const ReplayFn& replay,
    RecoveryStats* stats, std::string* error) {
  RecoveryStats local;
  RecoveryStats& st = stats ? *stats : local;
  st = RecoveryStats{};

  Lsn replay_from = 1;
  SnapshotFileView view;
  st.snapshot_status = view.open(snap_path_);
  if (st.snapshot_status == StoreStatus::kOk) {
    if (!restore(view)) {
      if (error) *error = "recover: snapshot sections failed to restore";
      return false;
    }
    st.snapshot_loaded = true;
    st.snapshot_bytes = view.file_size();
    st.recovered_lsn = view.meta().next_lsn - 1;
    replay_from = view.meta().next_lsn;
  } else if (st.snapshot_status != StoreStatus::kNotFound) {
    if (error)
      *error = std::string("recover: snapshot unreadable: ") +
               store_status_name(st.snapshot_status);
    return false;
  }
  view.close();  // unmap before replay; the restored state owns its copies

  return replay_wal_tail(replay_from, replay, st, error);
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
