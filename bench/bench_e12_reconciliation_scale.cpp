// E12 — Reconciliation scalability (paper Sections 1.3 / 4.4).
//
// Claim: Zmail "is an accounting relationship among compliant ISPs, which
// reconcile payments to and from their users" — the bank's work is per-ISP,
// not per-message, so verification stays cheap as the system grows.
//
// Regenerates:
//   E12.a  snapshot-round cost vs the number of ISPs: messages exchanged,
//          report bytes, verify wall-clock — run as a parallel sweep with
//          --replicas replicas per deployment size
//   E12.b  the per-message amortization: reconciliation bytes per email as
//          volume grows
//   E12.c  verify-matrix wall-clock at bank scale (pure computation)
//   E12.d  the sweep harness itself: merged statistics must be bit-identical
//          at 1 thread and --threads, and the wall-clock speedup of an
//          8-replica sweep is recorded in BENCH_e12_reconciliation_scale.json
#include <chrono>
#include <thread>

#include "bench_common.hpp"
#include "core/system.hpp"
#include "util/table.hpp"
#include "workload/traffic.hpp"

using namespace zmail;

namespace {

// One replica of the snapshot-round workload: n ISPs exchange a burst of
// mail, then the bank runs a full snapshot round.  All randomness descends
// from the sweep-derived seed.
sweep::MetricBag snapshot_round_replica(const sweep::Point& point,
                                        std::uint64_t seed) {
  const auto n = static_cast<std::size_t>(point.param("isps"));
  core::ZmailParams p;
  p.n_isps = n;
  p.users_per_isp = 4;
  p.initial_user_balance = 1'000;
  p.record_inboxes = false;
  core::ZmailSystem sys(p, seed);
  Rng seeder(seed ^ 0x517EED5ULL);
  workload::CorpusGenerator corpus(workload::CorpusParams{}, seeder.split());
  workload::TrafficGenerator traffic(sys, workload::TrafficParams{}, corpus,
                                     seeder.split());
  traffic.build_contacts();
  traffic.burst(static_cast<std::size_t>(point.param("burst", 200)));
  sys.run_for(sim::kHour);

  const std::uint64_t dg_before = sys.network().datagrams_sent();
  const auto t0 = std::chrono::steady_clock::now();
  sys.start_snapshot();
  sys.run_for(30 * sim::kMinute);
  const auto t1 = std::chrono::steady_clock::now();

  sweep::MetricBag bag;
  bag.stat("round_us").add(
      std::chrono::duration<double, std::micro>(t1 - t0).count());
  bag.stat("round_msgs").add(
      static_cast<double>(sys.network().datagrams_sent() - dg_before));
  bag.count("events", static_cast<double>(sys.simulator().events_executed()));
  bag.count("emails_delivered",
            static_cast<double>(sys.total_isp_metrics().emails_delivered));
  return bag;
}

void e12a_isp_sweep(bench::Bench& harness) {
  const std::vector<std::size_t> sizes =
      harness.options().smoke ? std::vector<std::size_t>{2, 4}
                              : std::vector<std::size_t>{2, 4, 8, 16, 32};
  std::vector<sweep::Point> grid;
  for (std::size_t n : sizes)
    grid.push_back(
        {"isps=" + std::to_string(n), {{"isps", static_cast<double>(n)}}});

  const sweep::SweepResult result = harness.run_sweep(
      "e12a_isp_sweep", grid,
      [](const sweep::Point& pt, std::uint64_t seed, std::size_t) {
        return snapshot_round_replica(pt, seed);
      });

  Table t({"ISPs", "request+reply msgs", "report bytes",
           "round wall-clock (us)"});
  double us_small = 0, us_large = 0;
  for (const auto& pr : result.points) {
    const auto n = static_cast<std::size_t>(pr.point.param("isps"));
    // A report is one credit vector: n * 8 bytes + envelope overhead.
    const std::uint64_t report_bytes = n * (n * 8 + 64);
    const double us = pr.merged.find_stat("round_us")->mean();
    t.add_row({Table::num(std::uint64_t{n}),
               Table::num(pr.merged.find_stat("round_msgs")->mean(), 0),
               Table::num(report_bytes), Table::num(us, 0)});
    if (n == sizes.front()) us_small = us;
    if (n == sizes.back()) us_large = us;
  }
  t.print("E12.a  snapshot-round cost vs deployment size (" +
          std::to_string(result.replicas) + " replica(s)/point)");
  bench::check(us_large < us_small * 400,
               "round cost grows polynomially in ISPs, not explosively");
}

void e12b_amortization() {
  Table t({"emails in the billing period", "reconciliation bytes",
           "bytes per email"});
  double per_email_small = 0, per_email_large = 0;
  for (std::size_t volume : {1'000u, 10'000u, 100'000u}) {
    // 8 ISPs; reconciliation data is independent of volume.
    const std::size_t n = 8;
    const double bytes = static_cast<double>(n) * (n * 8 + 64) + n * 72.0;
    const double per_email = bytes / static_cast<double>(volume);
    t.add_row({Table::num(std::uint64_t{volume}), Table::num(bytes, 0),
               Table::num(per_email, 4)});
    if (volume == 1'000) per_email_small = per_email;
    if (volume == 100'000) per_email_large = per_email;
  }
  t.print("E12.b  reconciliation overhead amortized per email (8 ISPs)");
  bench::check(per_email_large < per_email_small / 50,
               "per-email reconciliation cost vanishes with volume");
}

void e12c_verify_wallclock() {
  Table t({"ISPs", "verify pairs", "verify wall-clock (us)"});
  for (std::size_t n : {64u, 256u, 1'024u}) {
    // Pure bank computation: fill a synthetic antisymmetric matrix and
    // time the pairwise check, as BankFederation::verify_owned_pairs
    // performs it.
    std::vector<std::vector<EPenny>> verify(n, std::vector<EPenny>(n, 0));
    Rng rng(124);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        const EPenny v = rng.uniform_int(-1'000, 1'000);
        verify[j][i] = v;
        verify[i][j] = -v;
      }
    }
    const auto t0 = std::chrono::steady_clock::now();
    std::size_t violations = 0;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i + 1; j < n; ++j)
        if (verify[j][i] + verify[i][j] != 0) ++violations;
    const auto t1 = std::chrono::steady_clock::now();
    const double us =
        std::chrono::duration<double, std::micro>(t1 - t0).count();
    t.add_row({Table::num(std::uint64_t{n}),
               Table::num(std::uint64_t{n * (n - 1) / 2}),
               Table::num(us, 0)});
    bench::check(violations == 0, "synthetic honest matrix verifies clean");
  }
  t.print("E12.c  bank verify wall-clock at scale");
}

// True when two merged bags carry bit-identical statistics (exact double
// equality — the determinism contract of the sweep harness, not a
// tolerance comparison).  Stats named *_us are wall-clock measurements and
// legitimately differ run to run, so they are excluded.
bool bags_identical(const sweep::MetricBag& a, const sweep::MetricBag& b) {
  if (a.counters() != b.counters()) return false;
  if (a.stats().size() != b.stats().size()) return false;
  for (const auto& [name, s] : a.stats()) {
    if (name.size() >= 3 && name.compare(name.size() - 3, 3, "_us") == 0)
      continue;
    const OnlineStats* o = b.find_stat(name);
    if (!o) return false;
    if (s.count() != o->count() || s.mean() != o->mean() ||
        s.variance() != o->variance() || s.min() != o->min() ||
        s.max() != o->max())
      return false;
  }
  return true;
}

void e12d_parallel_speedup(bench::Bench& harness) {
  // The acceptance workload: an 8-replica sweep of the 8-ISP snapshot
  // round, once on 1 thread and once on --threads.  Merged statistics must
  // match bit-for-bit; the wall-clock ratio is the harness speedup.
  const std::size_t replicas =
      harness.options().smoke
          ? 2
          : std::max<std::size_t>(8, harness.options().replicas);
  const std::size_t threads =
      std::max<std::size_t>(1, harness.options().threads);
  const sweep::Point point{"isps=8", {{"isps", 8.0}, {"burst", 400}}};
  const auto fn = [](const sweep::Point& pt, std::uint64_t seed,
                     std::size_t) { return snapshot_round_replica(pt, seed); };

  sweep::SweepOptions serial;
  serial.base_seed = harness.options().seed;
  serial.replicas = replicas;
  serial.threads = 1;
  const auto r1 = harness.run_sweep("e12d_threads_1", {point}, serial, fn);

  sweep::SweepOptions parallel = serial;
  parallel.threads = threads;
  const auto rn = harness.run_sweep("e12d_threads_n", {point}, parallel, fn);

  const double speedup =
      rn.wall_seconds > 0 ? r1.wall_seconds / rn.wall_seconds : 0.0;
  const unsigned hw = std::thread::hardware_concurrency();
  Table t({"threads", "wall (s)", "speedup"});
  t.add_row({"1", Table::num(r1.wall_seconds, 3), "1.00"});
  t.add_row({Table::num(std::uint64_t{threads}),
             Table::num(rn.wall_seconds, 3), Table::num(speedup, 2)});
  t.print("E12.d  " + std::to_string(replicas) +
          "-replica sweep wall-clock (hardware threads: " +
          std::to_string(hw) + ")");

  json::Value& m = harness.metrics();
  m["e12d_replicas"] = static_cast<std::uint64_t>(replicas);
  m["e12d_threads"] = static_cast<std::uint64_t>(threads);
  m["e12d_wall_seconds_1_thread"] = r1.wall_seconds;
  m["e12d_wall_seconds_n_threads"] = rn.wall_seconds;
  m["e12d_speedup"] = speedup;
  m["hardware_concurrency"] = static_cast<std::uint64_t>(hw);

  bench::check(bags_identical(r1.points[0].merged, rn.points[0].merged),
               "merged statistics bit-identical at 1 and " +
                   std::to_string(threads) + " thread(s)");
  // The >= 3x target needs real cores to spread over; below 4 hardware
  // threads (or a 1-thread invocation) the ratio is recorded in the JSON
  // but not asserted.
  if (threads >= 4 && hw >= 4) {
    bench::check(speedup >= 3.0, "8-replica sweep >= 3x faster at " +
                                     std::to_string(threads) + " threads");
  } else {
    std::printf("note: speedup check skipped (threads=%zu, hardware=%u)\n",
                threads, hw);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::Bench harness("e12_reconciliation_scale", argc, argv);
  std::printf("=== E12: reconciliation scalability ===\n");
  e12a_isp_sweep(harness);
  e12b_amortization();
  e12c_verify_wallclock();
  e12d_parallel_speedup(harness);
  return harness.finish();
}
