// R2 — durability: the WAL + snapshot store under the cost microscope.
//
// The paper's bank "keeps accounts" but never says how those books survive
// a crash; src/store adds the standard systems answer (write-ahead logging
// with group commit + snapshot checkpointing) and this bench prices it and
// proves the recovery path.
//
// Regenerates:
//   R2.a  WAL append throughput across group-commit sizes, fsync on/off:
//         the batching curve that motivates group commit
//   R2.b  checkpoint latency: state serialize/deserialize time and the
//         on-disk snapshot size as the party state grows
//   R2.c  recovery time vs WAL length: replay cost grows with the log, and
//         a checkpoint restarts it empty (the file keeps its extent; the
//         scan stops at the new terminator)
//   R2.e  snapshot bytes written per email: an ISP checkpoint after the
//         first writes a differential of the rows changed since its last
//         full image, against the full image every checkpoint used to be
//
// Crash recovery mid-scenario (an ISP, then the bank, with real state
// wipes) is the R2.d row of tests/core_chaos_test.cpp.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/system.hpp"
#include "net/address.hpp"
#include "store/checkpoint.hpp"
#include "store/wal.hpp"
#include "util/table.hpp"

using namespace zmail;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// ---------------------------------------------------------------------------
// R2.a  WAL append throughput x group commit x fsync
// ---------------------------------------------------------------------------

void r2a_wal_throughput(bench::Bench& harness) {
  const bench::Options& opt = harness.options();
  const crypto::Bytes payload(64, 0xAB);

  Table t({"group commit", "fsync", "records", "wall", "krec/s", "MB/s",
           "fsyncs"});
  json::Value rows = json::Value::array();
  double krps_fsync_1 = 0.0, krps_fsync_512 = 0.0;
  for (const bool fsync_data : {false, true}) {
    for (const std::uint32_t group : {1u, 8u, 64u, 512u}) {
      // fsync-per-record is milliseconds per append on a real disk; keep
      // the synced runs short and let the buffered runs stretch out.
      const std::size_t records =
          fsync_data ? (opt.smoke ? 256 : 2'048) : (opt.smoke ? 20'000 : 100'000);
      const std::string path = "r2a_wal_bench.zwal";
      std::remove(path.c_str());
      store::WalWriter w;
      std::string err;
      if (!w.open(path, group, fsync_data, &err)) {
        bench::check(false, "r2a: WAL open failed: " + err);
        return;
      }
      const auto t0 = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < records; ++i) w.append_record(1, payload);
      w.sync();  // flush the final partial group so every run is durable
      const double wall = seconds_since(t0);
      const double krps = static_cast<double>(records) / wall / 1e3;
      const double mbps =
          static_cast<double>(w.stats().bytes_appended) / wall / 1e6;
      if (fsync_data && group == 1) krps_fsync_1 = krps;
      if (fsync_data && group == 512) krps_fsync_512 = krps;
      t.add_row({Table::num(std::uint64_t{group}), fsync_data ? "yes" : "no",
                 Table::num(std::uint64_t{records}),
                 Table::num(wall * 1e3, 1) + " ms", Table::num(krps, 1),
                 Table::num(mbps, 1),
                 Table::num(w.stats().fsyncs)});
      json::Value row = json::Value::object();
      row["group_commit"] = std::uint64_t{group};
      row["fsync"] = fsync_data;
      row["records"] = std::uint64_t{records};
      row["wall_seconds"] = wall;
      row["krecords_per_second"] = krps;
      row["mb_per_second"] = mbps;
      rows.push_back(std::move(row));
      w.close();
      std::remove(path.c_str());
    }
  }
  t.print("R2.a  WAL append throughput (64-byte payloads)");
  harness.metrics()["r2a_wal_throughput"] = std::move(rows);

  bench::check(krps_fsync_512 > krps_fsync_1,
               "group commit amortizes the fsync barrier (512 >> 1)");
}

// ---------------------------------------------------------------------------
// Shared scenario plumbing for the system-level sections.
// ---------------------------------------------------------------------------

core::ZmailParams store_params(const std::string& dir,
                               std::size_t users_per_isp) {
  core::ZmailParams p;
  p.n_isps = 3;
  p.users_per_isp = users_per_isp;
  p.initial_user_balance = 10'000;
  p.default_daily_limit = 100'000;
  p.record_inboxes = false;
  p.store.enabled = true;
  p.store.dir = dir;
  return p;
}

void drive_traffic(core::ZmailSystem& sys, std::uint64_t seed, int sends) {
  Rng rng(seed);
  const core::ZmailParams& p = sys.params();
  for (int i = 0; i < sends; ++i) {
    const std::size_t src = rng.next_below(p.n_isps);
    std::size_t dst = rng.next_below(p.n_isps - 1);
    if (dst >= src) ++dst;
    sys.send_email(net::make_user_address(src, rng.next_below(p.users_per_isp)),
                   net::make_user_address(dst, rng.next_below(p.users_per_isp)),
                   "r2", std::string("m").append(std::to_string(i)));
    sys.run_for(sim::kMinute);
  }
}

// ---------------------------------------------------------------------------
// R2.b  checkpoint latency and snapshot size vs party state size
// ---------------------------------------------------------------------------

void r2b_checkpoint_latency(bench::Bench& harness) {
  const bench::Options& opt = harness.options();
  Table t({"users/ISP", "state bytes", "serialize", "deserialize",
           "checkpoint (write+truncate)", "snapshot on disk"});
  json::Value rows = json::Value::array();
  double small_bytes = 0.0, large_bytes = 0.0;
  const std::vector<std::size_t> sizes =
      opt.smoke ? std::vector<std::size_t>{5, 40}
                : std::vector<std::size_t>{5, 40, 160};
  for (const std::size_t users : sizes) {
    const std::string dir = "r2b_store";
    std::filesystem::remove_all(dir);
    core::ZmailSystem sys(store_params(dir, users), 201);
    sys.enable_bank_trading();
    drive_traffic(sys, 202, opt.smoke ? 40 : 120);
    sys.start_snapshot();
    sys.run_for(sim::kHour);

    // Serialize to the encoded image and restore from it (the sections
    // borrow the live columns, which a restore resets).
    auto t0 = std::chrono::steady_clock::now();
    crypto::Bytes scalars;
    store::SnapshotData snap;
    sys.isp(0).serialize_sections(scalars, snap.sections);
    const crypto::Bytes state = store::encode_snapshot(snap);
    const double ser = seconds_since(t0);

    t0 = std::chrono::steady_clock::now();
    const bool restored =
        store::decode_snapshot(state, snap) == store::StoreStatus::kOk &&
        sys.isp(0).restore_snapshot(snap);
    const double deser = seconds_since(t0);

    t0 = std::chrono::steady_clock::now();
    sys.checkpoint_host(0);
    const double ckpt = seconds_since(t0);

    const store::Checkpointer* cp = sys.host_store(0);
    const std::uint64_t disk_bytes = cp->stats().last_snapshot_bytes;
    if (users == sizes.front()) small_bytes = static_cast<double>(disk_bytes);
    if (users == sizes.back()) large_bytes = static_cast<double>(disk_bytes);
    if (!restored) bench::check(false, "r2b: self-restore must succeed");

    t.add_row({Table::num(std::uint64_t{users}),
               Table::num(std::uint64_t{state.size()}),
               Table::num(ser * 1e6, 1) + " us",
               Table::num(deser * 1e6, 1) + " us",
               Table::num(ckpt * 1e6, 1) + " us",
               Table::num(disk_bytes) + " B"});
    json::Value row = json::Value::object();
    row["users_per_isp"] = std::uint64_t{users};
    row["state_bytes"] = std::uint64_t{state.size()};
    row["serialize_seconds"] = ser;
    row["deserialize_seconds"] = deser;
    row["checkpoint_seconds"] = ckpt;
    row["snapshot_disk_bytes"] = disk_bytes;
    rows.push_back(std::move(row));
    std::filesystem::remove_all(dir);
  }
  t.print("R2.b  checkpoint cost vs party state size (ISP 0)");
  harness.metrics()["r2b_checkpoint"] = std::move(rows);

  bench::check(large_bytes > small_bytes,
               "snapshot size grows with the user population");
}

// ---------------------------------------------------------------------------
// R2.c  recovery time vs WAL length
// ---------------------------------------------------------------------------

void r2c_recovery_scaling(bench::Bench& harness) {
  const bench::Options& opt = harness.options();
  Table t({"commands sent", "WAL records", "WAL bytes", "recovery",
           "after checkpoint"});
  json::Value rows = json::Value::array();
  std::vector<double> recovery_walls;
  const std::vector<int> volumes = opt.smoke ? std::vector<int>{30, 120}
                                             : std::vector<int>{50, 200, 800};
  for (const int sends : volumes) {
    const std::string dir = "r2c_store";
    std::filesystem::remove_all(dir);
    // No snapshot round opens, so nothing checkpoints: the WAL carries the
    // party's entire history, and recovery cost is pure replay that scales
    // with the log.
    core::ZmailSystem sys(store_params(dir, 6), 203);
    sys.enable_bank_trading();
    drive_traffic(sys, 204, sends);
    sys.run_for(sim::kHour);

    const store::WalWriter::Stats ws = sys.host_store(0)->wal().stats();
    auto t0 = std::chrono::steady_clock::now();
    sys.recover_host(0);
    const double recover_wall = seconds_since(t0);
    recovery_walls.push_back(recover_wall);

    // A checkpoint restarts the log empty; recovery becomes snapshot
    // restore plus an (empty) tail.
    sys.checkpoint_host(0);
    t0 = std::chrono::steady_clock::now();
    sys.recover_host(0);
    const double after_ckpt_wall = seconds_since(t0);

    t.add_row({Table::num(std::uint64_t(sends)),
               Table::num(ws.records_appended),
               Table::num(ws.bytes_appended),
               Table::num(recover_wall * 1e3, 2) + " ms",
               Table::num(after_ckpt_wall * 1e3, 2) + " ms"});
    json::Value row = json::Value::object();
    row["sends"] = std::uint64_t(sends);
    row["wal_records"] = ws.records_appended;
    row["wal_bytes"] = ws.bytes_appended;
    row["recovery_seconds"] = recover_wall;
    row["recovery_after_checkpoint_seconds"] = after_ckpt_wall;
    rows.push_back(std::move(row));
    std::filesystem::remove_all(dir);
  }
  t.print("R2.c  recovery time vs WAL length (full replay vs checkpointed)");
  harness.metrics()["r2c_recovery"] = std::move(rows);

  bench::check(recovery_walls.back() > recovery_walls.front(),
               "full-replay recovery time grows with the WAL");
}

// ---------------------------------------------------------------------------
// R2.e  snapshot bytes written per email: full images vs differentials
// ---------------------------------------------------------------------------

void r2e_differential_bytes(bench::Bench& harness) {
  const bench::Options& opt = harness.options();
  const std::string dir = "r2e_store";
  std::filesystem::remove_all(dir);
  constexpr std::size_t kUsers = 100'000;
  const int rounds = 6;
  const int sends = opt.smoke ? 500 : 3'000;
  core::ZmailSystem sys(store_params(dir, kUsers), 205);
  sys.enable_bank_trading();
  sys.checkpoint_all();  // the base images, written either way

  const auto written = [&] { return sys.store_totals().snapshot_bytes_written; };
  const std::uint64_t base_bytes = written();
  std::uint64_t full_bytes = 0;
  for (int r = 0; r < rounds; ++r) {
    drive_traffic(sys, 206 + static_cast<std::uint64_t>(r), sends);
    for (std::size_t i = 0; i < sys.params().n_isps; ++i) {
      // What this checkpoint would write as a full image.
      crypto::Bytes scalars;
      store::SnapshotData full;
      sys.isp(i).serialize_sections(scalars, full.sections);
      full_bytes += store::encoded_snapshot_size(full);
      sys.checkpoint_host(i);
    }
  }
  const std::uint64_t diff_bytes = written() - base_bytes;
  std::uint64_t differentials = 0;
  for (std::size_t i = 0; i < sys.params().n_isps; ++i)
    differentials += sys.host_store(i)->stats().differentials;
  const double emails = static_cast<double>(rounds) * sends;
  const double ratio = static_cast<double>(full_bytes) /
                       static_cast<double>(std::max<std::uint64_t>(diff_bytes, 1));

  Table t({"users/ISP", "emails", "ISP checkpoints", "differentials",
           "full images B/email", "differentials B/email", "ratio"});
  t.add_row({Table::num(std::uint64_t{kUsers}),
             Table::num(static_cast<std::uint64_t>(emails)),
             Table::num(std::uint64_t(rounds) * sys.params().n_isps),
             Table::num(differentials),
             Table::num(static_cast<double>(full_bytes) / emails, 1),
             Table::num(static_cast<double>(diff_bytes) / emails, 1),
             Table::num(ratio, 1) + "x"});
  t.print("R2.e  snapshot bytes written per email after the base images");
  json::Value row = json::Value::object();
  row["users_per_isp"] = std::uint64_t{kUsers};
  row["emails"] = emails;
  row["isp_checkpoints"] = std::uint64_t(rounds) * sys.params().n_isps;
  row["differentials"] = differentials;
  row["full_image_bytes"] = full_bytes;
  row["differential_bytes"] = diff_bytes;
  row["full_image_bytes_per_email"] = static_cast<double>(full_bytes) / emails;
  row["differential_bytes_per_email"] = static_cast<double>(diff_bytes) / emails;
  harness.metrics()["r2e_differential_bytes"] = std::move(row);
  std::filesystem::remove_all(dir);

  bench::check(ratio >= 5.0,
               "differential checkpoints write >= 5x fewer snapshot bytes "
               "than full images on a 100k-user ISP world");
}

}  // namespace

int main(int argc, char** argv) {
  bench::Bench harness("r2_durability", argc, argv);
  std::printf("=== R2: durability (WAL + snapshot + recovery) ===\n");
  r2a_wal_throughput(harness);
  r2b_checkpoint_latency(harness);
  r2c_recovery_scaling(harness);
  r2e_differential_bytes(harness);
  return harness.finish();
}
