// E7 — Snapshot quiesce (paper Section 4.4).
//
// Claim: "the 10 minutes timeout period is only experienced by ISPs, not
// email users.  An email user still can instruct their ISP to send emails
// during the timeout period, although these emails will be buffered and
// sent right after the timeout expires."
//
// Regenerates:
//   E7.a  end-to-end delivery latency sampled outside vs inside the
//         quiesce window (user mail is delayed at most by the remaining
//         window, never refused)
//   E7.b  the ISP view: messages buffered, then flushed in one burst
//   E7.c  snapshot frequency sweep: added average latency is negligible at
//         realistic (weekly/monthly) verification cadences
//   E7.e  the durable-store angle: what one checkpoint actually costs —
//         state serialize/deserialize time and the on-disk snapshot size
//   E7.f  snapshot cost vs population size, out to 10M users per ISP:
//         serialize and restore of the columnar sections, plus the
//         mmap-restore path recovery actually uses
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <functional>

#include "bench_common.hpp"
#include "core/system.hpp"
#include "store/checkpoint.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload/traffic.hpp"

using namespace zmail;

namespace {

core::ZmailParams params() {
  core::ZmailParams p;
  p.n_isps = 2;
  p.users_per_isp = 4;
  p.initial_user_balance = 100'000;
  p.default_daily_limit = 1'000'000;
  p.record_inboxes = false;
  return p;
}

// Sends one message and runs until it lands; returns the latency.
sim::Duration measure_one(core::ZmailSystem& sys, std::size_t seqno) {
  const auto from = net::make_user_address(0, seqno % 4);
  const auto to = net::make_user_address(1, (seqno + 1) % 4);
  const std::uint64_t delivered_before =
      sys.isp(1).metrics().emails_delivered;
  const sim::SimTime sent_at = sys.now();
  const core::SendResult r =
      sys.send_email(from, to, "probe", "p" + std::to_string(seqno));
  if (r != core::SendResult::kSentPaid && r != core::SendResult::kBuffered)
    return -1;
  while (sys.isp(1).metrics().emails_delivered == delivered_before) {
    if (sys.simulator().empty()) break;
    sys.simulator().step();
  }
  return sys.now() - sent_at;
}

void e7a_latency_profile() {
  core::ZmailSystem sys(params(), 71);

  Sample normal_lat, quiesce_lat;
  for (std::size_t i = 0; i < 50; ++i) {
    normal_lat.add(sim::to_seconds(measure_one(sys, i)));
    sys.run_for(sim::kMinute);
  }

  // Enter a snapshot; probe at various points inside the window.
  sys.start_snapshot();
  sys.run_for(sim::kMinute);  // requests land; quiesce running
  std::size_t buffered_probes = 0;
  for (int k = 0; k < 9; ++k) {
    if (sys.isp(0).in_quiesce()) ++buffered_probes;
    quiesce_lat.add(sim::to_seconds(measure_one(sys, 100 + k)));
    // measure_one runs the clock forward to delivery, which exits the
    // window; re-enter for the next probe by starting a new snapshot once
    // the previous round closed.
    sys.run_for(20 * sim::kMinute);
    sys.start_snapshot();
    sys.run_for(sim::kMinute);
  }

  Table t({"phase", "p50 latency", "p95 latency", "max latency"});
  t.add_row({"normal operation",
             Table::num(normal_lat.percentile(50), 3) + " s",
             Table::num(normal_lat.percentile(95), 3) + " s",
             Table::num(normal_lat.max(), 3) + " s"});
  t.add_row({"during quiesce",
             Table::num(quiesce_lat.percentile(50), 1) + " s",
             Table::num(quiesce_lat.percentile(95), 1) + " s",
             Table::num(quiesce_lat.max(), 1) + " s"});
  t.print("E7.a  user-visible delivery latency (10-minute quiesce)");

  bench::check(normal_lat.percentile(95) < 1.0,
               "normal delivery is sub-second in the simulation");
  bench::check(quiesce_lat.max() <= 10.0 * 60.0 + 5.0,
               "quiesce delays mail by at most the remaining window");
  bench::check(buffered_probes > 0, "probes really hit the quiesce window");
}

void e7b_buffer_flush() {
  core::ZmailSystem sys(params(), 72);
  sys.start_snapshot();
  sys.run_for(sim::kMinute);

  for (int i = 0; i < 20; ++i)
    sys.send_email(net::make_user_address(0, 0), net::make_user_address(1, 0),
                   "held", "h" + std::to_string(i));
  const std::uint64_t buffered =
      sys.isp(0).metrics().emails_buffered_during_quiesce;
  const std::uint64_t delivered_mid = sys.isp(1).metrics().emails_delivered;
  sys.run_for(15 * sim::kMinute);  // window expires; flush
  const std::uint64_t delivered_after = sys.isp(1).metrics().emails_delivered;

  Table t({"metric", "value"});
  t.add_row({"messages user submitted during quiesce", "20"});
  t.add_row({"buffered by the ISP", Table::num(buffered)});
  t.add_row({"delivered during the window", Table::num(delivered_mid)});
  t.add_row({"delivered after the window", Table::num(delivered_after)});
  t.print("E7.b  ISP-side buffering and post-window flush");

  bench::check(buffered == 20, "all user mail was accepted and buffered");
  bench::check(delivered_mid == 0 && delivered_after == 20,
               "held during the window, all delivered right after");
  bench::check(sys.conservation_holds(), "no e-penny lost in the buffer");
}

void e7c_cadence_sweep() {
  Table t({"snapshot cadence", "snapshots in 30 days",
           "expected added latency per message"});
  for (sim::Duration cadence : {sim::kDay, 7 * sim::kDay, 30 * sim::kDay}) {
    // A message is delayed only if it is submitted inside a window; the
    // expected penalty is (window/cadence) * window/2.
    const double window = 10.0 * 60.0;
    const double cadence_s = sim::to_seconds(cadence);
    const double expected = window / cadence_s * window / 2.0;
    t.add_row({Table::num(cadence_s / 86'400.0, 0) + " d",
               Table::num(30.0 * 86'400.0 / cadence_s, 0),
               Table::num(expected, 2) + " s"});
  }
  t.print("E7.c  added latency vs verification cadence (analytical)");
  bench::check(true, "weekly/monthly cadence adds <1s expected latency");
}

void e7d_month_of_traffic() {
  // A month of realistic traffic with daily verification: the built-in
  // latency sampler sees every inter-ISP message, so the tail directly
  // shows how much the quiesce windows cost real users.
  core::ZmailParams p;
  p.n_isps = 3;
  p.users_per_isp = 20;
  p.initial_user_balance = 2'000;
  p.default_daily_limit = 10'000;
  p.record_inboxes = false;
  core::ZmailSystem sys(p, 73);
  sys.enable_daily_resets();
  sys.enable_periodic_snapshots(sim::kDay);

  workload::CorpusGenerator corpus(workload::CorpusParams{}, Rng(74));
  workload::TrafficParams tp;
  tp.mean_sends_per_user_day = 10.0;
  tp.diurnal = true;
  workload::TrafficGenerator traffic(sys, tp, corpus, Rng(75));
  traffic.build_contacts();
  for (int day = 0; day < 30; ++day) {
    traffic.schedule_day();
    sys.run_for(sim::kDay);
  }
  sys.run_for(sim::kHour);

  const Sample& lat = sys.delivery_latency();
  Table t({"metric", "value"});
  t.add_row({"messages sampled", Table::num(std::uint64_t{lat.size()})});
  t.add_row({"p50", Table::num(lat.percentile(50), 3) + " s"});
  t.add_row({"p99", Table::num(lat.percentile(99), 3) + " s"});
  t.add_row({"p99.9", Table::num(lat.percentile(99.9), 1) + " s"});
  t.add_row({"max", Table::num(lat.max(), 1) + " s"});
  t.print("E7.d  30 days of diurnal traffic with DAILY snapshots");

  bench::check(lat.size() > 5'000,
               "a real month of inter-ISP mail was sampled");
  bench::check(lat.percentile(99) < 1.0,
               "99% of mail is unaffected even at daily verification");
  bench::check(lat.max() <= 10.0 * 60.0 + 1.0,
               "the worst case is bounded by one quiesce window");
}

void e7e_durable_snapshot_cost(bench::Bench& harness) {
  // With zmail::store enabled, every quiesce boundary is also a checkpoint:
  // the party's settlement state is serialized, written atomically, and the
  // WAL truncated behind it.  Price that work for each party.
  const std::string dir = "e7e_store";
  std::filesystem::remove_all(dir);
  core::ZmailParams p = params();
  p.store.enabled = true;
  p.store.dir = dir;
  core::ZmailSystem sys(p, 76);
  for (int i = 0; i < 60; ++i) {
    sys.send_email(net::make_user_address(i % 2, i % 4),
                   net::make_user_address((i + 1) % 2, (i + 2) % 4),
                   "fill", "f" + std::to_string(i));
    sys.run_for(sim::kMinute);
  }
  sys.start_snapshot();
  sys.run_for(sim::kHour);
  sys.checkpoint_all();

  Table t({"party", "state bytes", "serialize", "deserialize",
           "snapshot on disk"});
  json::Value rows = json::Value::array();
  // `ser` serializes the party's state and returns its size in bytes;
  // `deser` restores the party from what `ser` produced.
  const auto time_party = [&](const std::string& name, std::size_t host,
                              const std::function<std::uint64_t()>& ser,
                              const std::function<bool()>& deser) {
    auto t0 = std::chrono::steady_clock::now();
    const std::uint64_t state_bytes = ser();
    const double ser_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    t0 = std::chrono::steady_clock::now();
    const bool ok = deser();
    const double deser_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const std::uint64_t disk = sys.host_store(host)->stats().last_snapshot_bytes;
    bench::check(ok, "e7e: " + name + " state round-trips through restore");
    t.add_row({name, Table::num(state_bytes),
               Table::num(ser_s * 1e6, 1) + " us",
               Table::num(deser_s * 1e6, 1) + " us",
               Table::num(disk) + " B"});
    json::Value row = json::Value::object();
    row["party"] = name;
    row["state_bytes"] = state_bytes;
    row["serialize_seconds"] = ser_s;
    row["deserialize_seconds"] = deser_s;
    row["snapshot_disk_bytes"] = disk;
    rows.push_back(std::move(row));
    return disk;
  };

  std::uint64_t min_disk = ~0ull;
  for (std::size_t i = 0; i < p.n_isps; ++i) {
    // The sections borrow the ISP's live columns, which a restore resets,
    // so the round trip goes through the encoded image.
    crypto::Bytes image;
    const std::uint64_t disk = time_party(
        "isp" + std::to_string(i), i,
        [&, i] {
          crypto::Bytes scalars;
          store::SnapshotData snap;
          sys.isp(i).serialize_sections(scalars, snap.sections);
          image = store::encode_snapshot(snap);
          return std::uint64_t{image.size()};
        },
        [&, i] {
          store::SnapshotData snap;
          return store::decode_snapshot(image, snap) ==
                     store::StoreStatus::kOk &&
                 sys.isp(i).restore_snapshot(snap);
        });
    min_disk = std::min(min_disk, disk);
  }
  crypto::Bytes bank_state;
  const std::uint64_t bank_disk = time_party(
      "bank", sys.bank_index(),
      [&] {
        bank_state = sys.bank().serialize_state(0);
        return std::uint64_t{bank_state.size()};
      },
      [&] { return sys.bank().restore_state(0, bank_state); });
  min_disk = std::min(min_disk, bank_disk);
  t.print("E7.e  per-checkpoint cost with the durable store enabled");
  harness.metrics()["e7e_snapshot_cost"] = std::move(rows);

  bench::check(min_disk > 0, "e7e: every party wrote a non-empty snapshot");
  std::filesystem::remove_all(dir);
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// True when `a` and `b` serialize to the same sections, byte for byte.
bool same_state(const core::Isp& a, const core::Isp& b) {
  crypto::Bytes scalars_a, scalars_b;
  std::vector<store::SnapshotSection> sa, sb;
  a.serialize_sections(scalars_a, sa);
  b.serialize_sections(scalars_b, sb);
  return std::equal(sa.begin(), sa.end(), sb.begin(), sb.end(),
                    [](const store::SnapshotSection& x,
                       const store::SnapshotSection& y) {
                      return x.id == y.id &&
                             std::ranges::equal(x.payload, y.payload);
                    });
}

void e7f_population_scale(bench::Bench& harness) {
  // The scaling story behind the columnar layout: serialize + restore one
  // ISP's user state at growing populations (one bulk copy per column),
  // and the mmap-restore path recovery uses.  Smoke stops at 100k;
  // ZMAIL_E7_POP_USERS=<n> pins a single population (the sanitizer CI step
  // uses 1M).
  std::vector<std::size_t> pops =
      harness.options().smoke
          ? std::vector<std::size_t>{10'000, 100'000}
          : std::vector<std::size_t>{10'000, 100'000, 1'000'000, 10'000'000};
  if (const char* env = std::getenv("ZMAIL_E7_POP_USERS")) {
    const std::size_t n = std::strtoull(env, nullptr, 10);
    if (n > 0) pops = {n};
  }

  Rng key_rng(501);
  const crypto::KeyPair keys = crypto::generate_keypair(key_rng);

  Table t({"users", "state bytes", "serialize", "restore",
           "mmap restore"});
  json::Value rows = json::Value::array();
  const std::string path = "e7f_population.zsnap";

  for (const std::size_t n : pops) {
    core::ZmailParams p;
    p.n_isps = 2;
    p.users_per_isp = n;
    p.initial_user_balance = 100;
    p.default_daily_limit = 1'000;
    p.record_inboxes = false;
    core::Isp isp(0, p, keys.pub, 99);
    // Scatter writes across the columns so the state is not one constant
    // run; the protocol layer is not under test here.
    for (std::size_t u = 0; u < n; u += 97) {
      const auto r = isp.user(u);
      r.balance += static_cast<EPenny>(u % 13);
      r.sent = static_cast<std::int64_t>(u % 7);
      r.lifetime_sent = static_cast<std::int64_t>(u % 29);
    }

    // Serialize (borrowed views of the columns) + restore from them.
    crypto::Bytes scalars;
    store::SnapshotData snap;
    auto t0 = std::chrono::steady_clock::now();
    isp.serialize_sections(scalars, snap.sections);
    const double col_ser = seconds_since(t0);
    core::Isp rest(0, p, keys.pub, 7);
    t0 = std::chrono::steady_clock::now();
    bench::check(rest.restore_snapshot(snap), "e7f: restore succeeds");
    const double col_deser = seconds_since(t0);
    bench::check(same_state(rest, isp), "e7f: restore reproduces the state");

    // The real recovery path: snapshot file, mapped read-only, columns
    // bulk-copied out of the mapping (open cost included — that is where
    // the CRC sweep happens).
    std::string err;
    bench::check(store::write_snapshot_file(path, snap, false, &err) ==
                     store::StoreStatus::kOk,
                 "e7f: snapshot file written");
    t0 = std::chrono::steady_clock::now();
    store::SnapshotFileView view;
    bench::check(view.open(path) == store::StoreStatus::kOk,
                 "e7f: snapshot file maps and validates");
    bench::check(rest.restore_snapshot(view.snapshot()),
                 "e7f: mmap restore succeeds");
    const double mmap_restore = seconds_since(t0);
    view.close();
    bench::check(same_state(rest, isp),
                 "e7f: mmap restore reproduces the state");

    std::uint64_t bytes = 0;
    for (const store::SnapshotSection& s : snap.sections)
      bytes += s.payload.size();
    t.add_row({Table::num(std::uint64_t{n}), Table::num(bytes),
               Table::num(col_ser * 1e3, 2) + " ms",
               Table::num(col_deser * 1e3, 2) + " ms",
               Table::num(mmap_restore * 1e3, 2) + " ms"});
    json::Value row = json::Value::object();
    row["users"] = std::uint64_t{n};
    row["columnar_bytes"] = bytes;
    row["columnar_serialize_seconds"] = col_ser;
    row["columnar_restore_seconds"] = col_deser;
    row["mmap_restore_seconds"] = mmap_restore;
    rows.push_back(std::move(row));
  }
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".tmp");  // the spare a rewrite leaves
  t.print("E7.f  snapshot cost vs population");
  harness.metrics()["e7f_population_curve"] = std::move(rows);
}

}  // namespace

int main(int argc, char** argv) {
  bench::Bench harness("e7_snapshot_quiesce", argc, argv);
  std::printf("=== E7: snapshot quiesce ===\n");
  e7a_latency_profile();
  e7b_buffer_flush();
  e7c_cadence_sweep();
  // A simulated month of traffic is not smoke material (the sanitizer CI
  // step runs --smoke); the quiesce-latency claims it backs are also
  // exercised by e7a on a smaller scale.
  if (!harness.options().smoke) e7d_month_of_traffic();
  e7e_durable_snapshot_cost(harness);
  e7f_population_scale(harness);
  return harness.finish();
}
