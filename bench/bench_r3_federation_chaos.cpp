// R3 — federation chaos sweep: durable member banks under a hostile
// inter-bank plane.
//
// The Section 5 collaborating-banks extension turns the bank into a
// federation whose column exchange and netted clearing ride real
// datagrams.  This bench attacks exactly that plane: a deterministic
// FaultInjector drops/duplicates/corrupts the settlement wires (mail
// itself is left alone — the facade's paid-mail plane is r1's subject),
// cuts bank pairs apart, and crashes member banks outright mid-round,
// while every bank's WAL + checkpoint pair and the RetryPolicy-backed
// wires have to bring every settlement round to a close with the books
// intact.
//
// Regenerates:
//   R3.a  bank-count x fault-rate grid: settlement throughput and round
//         latency at 1/2/4/8 banks, every round closed, zero violations
//   R3.b  a partition between two bank hosts spanning a round opening:
//         clearing wires retransmit across the heal, the round completes
//   R3.c  member-bank crashes mid-round (store-backed rebuild from
//         snapshot + WAL replay): the round completes after recovery,
//         the federation drains idle, zero conservation violations
//
// `--audit` additionally runs the InvariantAuditor *continuously*
// (every 10 simulated minutes) inside each replica instead of only at
// the end.
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/invariants.hpp"
#include "core/system.hpp"
#include "net/address.hpp"
#include "net/faults.hpp"
#include "net/msg_type.hpp"
#include "util/table.hpp"

using namespace zmail;

namespace {

// The hardened federated configuration: durable per-bank stores and
// retrying inter-bank wires.  store.dir is filled per replica.
core::ZmailParams federated_params() {
  core::ZmailParams p;
  p.n_isps = 8;
  p.users_per_isp = 4;
  p.initial_user_balance = 10'000;
  p.default_daily_limit = 100'000;
  p.record_inboxes = false;
  p.retry.enabled = true;  // ISP<->bank and bank<->bank wires retransmit
  p.store.enabled = true;  // every member bank gets a WAL + checkpoint pair
  return p;
}

// The settlement plane: every datagram type the federation's money flow
// rides on.  Fault rates are restricted to these so the chaos lands on
// the subsystem under test (the mail plane and its acknowledged transport
// are swept by bench_r1).
std::vector<net::MsgType> settlement_plane() {
  return {net::kMsgBuy,
          net::kMsgBuyReply,
          net::kMsgSell,
          net::kMsgSellReply,
          net::kMsgRequest,
          net::kMsgReply,
          net::MsgType::intern("fed-columns"),
          net::MsgType::intern("fed-columns-ack"),
          net::MsgType::intern("fed-clearing"),
          net::MsgType::intern("fed-clearing-ack")};
}

struct Scenario {
  net::FaultPlan plan;
  std::size_t banks = 4;
  int rounds = 3;           // settlement rounds driven
  int sends_per_round = 30; // one cross-ISP email per simulated minute
  int crash_round = -1;     // crash `crash_bank` right after this round opens
  std::size_t crash_bank = 1;
  int crash_round2 = -1;    // optional second, staggered crash
  std::size_t crash_bank2 = 2;
  bool audit_continuous = false;
  std::string store_slug;   // unique store dir per (point, seed, replica)
};

// One replica: `rounds` settlement rounds, each preceded by a chunk of
// cross-ISP mail with bank trading, all under the scenario's fault plan.
// Each round is timed from start_snapshot() to the global round close, so
// crashed banks' recovery latency lands in the measurement.  A drain
// window (faults still injecting) must leave the federation idle.
sweep::MetricBag run_fed_chaos(const Scenario& sc, std::uint64_t seed,
                               std::size_t replica) {
  const std::string dir = "r3_store/" + sc.store_slug + "_s" +
                          std::to_string(seed) + "_r" +
                          std::to_string(replica);
  std::filesystem::remove_all(dir);
  core::ZmailParams p = federated_params();
  p.store.dir = dir;
  p.n_banks = sc.banks;

  sweep::MetricBag bag;
  {
    core::ZmailSystem sys(p, seed);
    sys.enable_bank_trading();

    // Independent fault stream: the same (plan, seed) replays
    // bit-identically.
    net::FaultInjector inj(sc.plan, seed ^ 0x5DEECE66Dull);
    sys.attach_faults(&inj);

    core::InvariantAuditor auditor(sys);
    if (sc.audit_continuous) auditor.run_continuously(10 * sim::kMinute);

    Rng traffic(seed + 17);
    for (int r = 0; r < sc.rounds; ++r) {
      for (int i = 0; i < sc.sends_per_round; ++i) {
        const std::size_t src = traffic.next_below(p.n_isps);
        std::size_t dst = traffic.next_below(p.n_isps - 1);
        if (dst >= src) ++dst;
        sys.send_email(
            net::make_user_address(src, traffic.next_below(p.users_per_isp)),
            net::make_user_address(dst, traffic.next_below(p.users_per_isp)),
            "chaos", "m" + std::to_string(i));
        sys.run_for(sim::kMinute);
      }
      const sim::SimTime t0 = sys.now();
      sys.start_snapshot();
      // A true mid-round crash: the bank opened its round (kStartRound is
      // in its WAL), sealed its requests, and dies before the reports
      // land.  Recovery replays the WAL, re-seals, and rejoins.
      if (r == sc.crash_round)
        sys.crash_host(sys.bank_host(sc.crash_bank), 20 * sim::kMinute);
      if (r == sc.crash_round2)
        sys.crash_host(sys.bank_host(sc.crash_bank2), 20 * sim::kMinute);
      int guard = 0;
      while (sys.bank().round_open() && guard++ < 16 * 60)
        sys.run_for(sim::kMinute);
      if (!sys.bank().round_open())
        bag.stat("round_latency_min")
            .add(static_cast<double>(sys.now() - t0) /
                 static_cast<double>(sim::kMinute));
    }

    // Drain with the faults still injecting: recovery under fire.
    sys.run_for(sim::kHour);
    for (int k = 0; k < 24 && !sys.bank().idle(); ++k)
      sys.run_for(15 * sim::kMinute);
    sys.attach_faults(nullptr);

    auditor.check_now();
    if (!auditor.report().ok())
      for (const std::string& msg : auditor.report().messages)
        std::fprintf(stderr, "r3 seed=%llu: INVARIANT: %s\n",
                     static_cast<unsigned long long>(seed), msg.c_str());

    const core::BankMetrics fm = sys.bank().metrics();
    bag.count("replica", 1);
    bag.count("rounds", static_cast<double>(fm.snapshot_rounds));
    bag.count("rounds_target", static_cast<double>(sc.rounds));
    bag.count("settled", static_cast<double>(fm.settlement_transfers));
    bag.count("clearing_transfers", static_cast<double>(fm.clearing_transfers));
    bag.count("interbank_msgs",
              static_cast<double>(fm.interbank_messages + fm.clearing_messages +
                                  fm.interbank_acks));
    bag.count("interbank_kb", static_cast<double>(fm.interbank_bytes) / 1024.0);
    bag.count("interbank_retries", static_cast<double>(fm.interbank_retries));
    bag.count("rerequests", static_cast<double>(fm.snapshot_rerequests));
    bag.count("replays",
              static_cast<double>(fm.duplicate_buys + fm.duplicate_sells +
                                  fm.stale_trades + fm.duplicate_interbank +
                                  fm.stale_interbank));
    bag.count("fed_violations",
              static_cast<double>(fm.inconsistent_pairs_found));
    bag.count("violations", static_cast<double>(auditor.report().violations));
    bag.count("idle", sys.bank().idle() ? 1 : 0);
    bag.count("recoveries", static_cast<double>(sys.state_recoveries()));
    bag.count("sim_hours", static_cast<double>(sys.now()) /
                               static_cast<double>(sim::kHour));
    const net::FaultCounters& fc = inj.counters();
    bag.count("injected", static_cast<double>(fc.total_injected()));
    bag.count("partitioned", static_cast<double>(fc.partitioned));
    bag.count("outage_lost", static_cast<double>(fc.outage_lost));
  }
  std::filesystem::remove_all(dir);
  return bag;
}

struct SectionVerdict {
  bool closed = true;   // every driven round completed at every point
  bool drained = true;  // federation idle (no wire pending) at every point
  bool clean = true;    // zero auditor + federation violations everywhere
};

// Prints one row per sweep point and folds the acceptance booleans.
SectionVerdict print_sweep(const sweep::SweepResult& res,
                           const std::string& title) {
  Table t({"scenario", "rounds", "settled", "settle/h", "latency(m)",
           "interbank msgs", "retries", "replays", "recoveries",
           "violations"});
  SectionVerdict v;
  for (const auto& pr : res.points) {
    const auto& b = pr.merged;
    if (b.counter("rounds") != b.counter("rounds_target")) v.closed = false;
    if (b.counter("idle") != b.counter("replica")) v.drained = false;
    if (b.counter("violations") != 0 || b.counter("fed_violations") != 0)
      v.clean = false;
    const double hours = b.counter("sim_hours");
    const OnlineStats* lat = b.find_stat("round_latency_min");
    t.add_row({pr.point.label, Table::num(b.counter("rounds"), 0),
               Table::num(b.counter("settled"), 0),
               Table::num(hours > 0 ? b.counter("settled") / hours : 0, 1),
               Table::num(lat ? lat->mean() : 0.0, 1),
               Table::num(b.counter("interbank_msgs"), 0),
               Table::num(b.counter("interbank_retries"), 0),
               Table::num(b.counter("replays"), 0),
               Table::num(b.counter("recoveries"), 0),
               Table::num(b.counter("violations") +
                              b.counter("fed_violations"),
                          0)});
  }
  t.print(title);
  return v;
}

sweep::SweepOptions sweep_opts(const bench::Options& opt,
                               std::size_t replicas) {
  sweep::SweepOptions so;
  so.base_seed = opt.seed;
  so.threads = opt.threads;
  so.replicas = std::max(opt.replicas, replicas);
  return so;
}

void r3a_grid(bench::Bench& harness) {
  const bench::Options& opt = harness.options();
  struct Fault {
    const char* label;
    double drop, dup, corrupt;
  };
  const std::vector<Fault> faults =
      opt.smoke ? std::vector<Fault>{{"fault-free", 0, 0, 0},
                                     {"drop=5%", 0.05, 0, 0}}
                : std::vector<Fault>{{"fault-free", 0, 0, 0},
                                     {"drop=5%", 0.05, 0, 0},
                                     {"drop=10% dup=5% corrupt=1%", 0.10,
                                      0.05, 0.01}};
  const std::vector<std::size_t> bank_counts =
      opt.smoke ? std::vector<std::size_t>{2, 4}
                : std::vector<std::size_t>{1, 2, 4, 8};

  std::vector<sweep::Point> grid;
  for (std::size_t banks : bank_counts)
    for (std::size_t f = 0; f < faults.size(); ++f)
      grid.push_back(sweep::Point{
          "banks=" + std::to_string(banks) + " " + faults[f].label,
          {{"banks", static_cast<double>(banks)},
           {"fault", static_cast<double>(f)},
           {"idx", static_cast<double>(grid.size())}}});

  // The acceptance point must hold over >= 3 independent seeds.
  const auto so = sweep_opts(opt, opt.smoke ? 1 : 3);
  const sweep::SweepResult res = harness.run_sweep(
      "r3a_grid", grid, so,
      [&](const sweep::Point& q, std::uint64_t seed, std::size_t replica) {
        const Fault& f = faults[static_cast<std::size_t>(q.param("fault"))];
        Scenario sc;
        sc.banks = static_cast<std::size_t>(q.param("banks"));
        sc.rounds = opt.smoke ? 2 : 3;
        sc.sends_per_round = opt.smoke ? 15 : 40;
        sc.audit_continuous = opt.audit;
        sc.plan.rates.drop = f.drop;
        sc.plan.rates.duplicate = f.dup;
        sc.plan.rates.corrupt = f.corrupt;
        sc.plan.only_types = settlement_plane();
        sc.store_slug = "a" + std::to_string(
                                  static_cast<std::size_t>(q.param("idx")));
        return run_fed_chaos(sc, seed, replica);
      });

  const SectionVerdict v = print_sweep(
      res, "R3.a  bank-count x fault-rate grid (" +
               std::to_string(so.replicas) + " seed(s) per point)");
  bench::check(v.closed,
               "every settlement round closed at every bank count and rate");
  bench::check(v.drained, "no inter-bank wire left pending after the drain");
  bench::check(v.clean, "the invariant auditor found zero violations");

  bool faultfree_quiet = true, injected = true;
  double msgs1 = 0, msgs2 = 0, msgs8 = 0;
  for (const auto& pr : res.points) {
    const bool fault_free = pr.point.param("fault") == 0;
    const auto& b = pr.merged;
    if (fault_free && (b.counter("interbank_retries") != 0 ||
                       b.counter("recoveries") != 0 ||
                       b.counter("replays") != 0))
      faultfree_quiet = false;
    if (!fault_free && b.counter("injected") == 0) injected = false;
    if (fault_free && pr.point.param("banks") == 1)
      msgs1 = b.counter("interbank_msgs");
    if (fault_free && pr.point.param("banks") == 2)
      msgs2 = b.counter("interbank_msgs");
    if (fault_free && pr.point.param("banks") == 8)
      msgs8 = b.counter("interbank_msgs");
  }
  bench::check(faultfree_quiet,
               "fault-free points never retransmit, replay, or recover");
  bench::check(injected, "every faulty point actually injected faults");
  if (!opt.smoke) {
    bench::check(msgs1 == 0, "a single bank exchanges no inter-bank traffic");
    bench::check(msgs8 > msgs2,
                 "inter-bank traffic grows with the bank count");
  }
}

void r3b_partition(bench::Bench& harness) {
  const bench::Options& opt = harness.options();
  const int sends = opt.smoke ? 15 : 40;
  const std::size_t n_isps = federated_params().n_isps;

  const sweep::SweepResult res = harness.run_sweep(
      "r3b_partition",
      {sweep::Point{"bank0 <-> bank1 cut across a round opening", {}}},
      sweep_opts(opt, opt.smoke ? 1 : 3),
      [&](const sweep::Point&, std::uint64_t seed, std::size_t replica) {
        Scenario sc;
        sc.banks = 4;
        sc.rounds = opt.smoke ? 2 : 3;
        sc.sends_per_round = sends;
        sc.audit_continuous = opt.audit;
        // Round 0 opens at exactly `sends` minutes; cut the two banks
        // apart across it so their column/clearing wires must back off
        // and retransmit through the heal.
        const sim::SimTime open_at =
            static_cast<sim::SimTime>(sends) * sim::kMinute;
        sc.plan.partitions.push_back(
            net::Partition{static_cast<net::HostId>(n_isps + 0),
                           static_cast<net::HostId>(n_isps + 1),
                           open_at - 5 * sim::kMinute,
                           open_at + 30 * sim::kMinute});
        sc.store_slug = "b0";
        return run_fed_chaos(sc, seed, replica);
      });

  const SectionVerdict v = print_sweep(res, "R3.b  bank partition and heal");
  const auto& b = res.points.front().merged;
  bench::check(b.counter("partitioned") > 0,
               "the partition swallowed live inter-bank wires");
  bench::check(b.counter("interbank_retries") > 0,
               "clearing wires backed off and retransmitted across the heal");
  bench::check(v.closed && v.drained,
               "every round closed and drained despite the partition");
  bench::check(v.clean, "no invariant violated by the partition");
}

void r3c_bank_crash(bench::Bench& harness) {
  const bench::Options& opt = harness.options();
  std::vector<sweep::Point> grid = {
      sweep::Point{"banks=4, bank1 crashes mid-round", {{"banks", 4}}}};
  if (!opt.smoke)
    grid.push_back(sweep::Point{
        "banks=8, bank1 then bank2 crash mid-round",
        {{"banks", 8}, {"second", 1}}});

  const sweep::SweepResult res = harness.run_sweep(
      "r3c_bank_crash", grid, sweep_opts(opt, opt.smoke ? 1 : 3),
      [&](const sweep::Point& q, std::uint64_t seed, std::size_t replica) {
        Scenario sc;
        sc.banks = static_cast<std::size_t>(q.param("banks"));
        sc.rounds = opt.smoke ? 2 : 3;
        sc.sends_per_round = opt.smoke ? 15 : 40;
        sc.audit_continuous = opt.audit;
        // Crash immediately after the round opens: kStartRound is on the
        // bank's WAL, its sealed requests are in flight, and the reports
        // racing back are lost with the host.  Rebuild + replay must
        // re-seal and close the round.
        sc.crash_round = 0;
        sc.crash_bank = 1;
        if (q.param("second") != 0) {
          sc.crash_round2 = 1;
          sc.crash_bank2 = 2;
        }
        sc.store_slug = "c" + std::to_string(sc.banks);
        return run_fed_chaos(sc, seed, replica);
      });

  const SectionVerdict v =
      print_sweep(res, "R3.c  member-bank crash mid-round");
  bool recovered = true;
  for (const auto& pr : res.points) {
    const double want = 1.0 + pr.point.param("second");
    if (pr.merged.counter("recoveries") <
        want * pr.merged.counter("replica"))
      recovered = false;
  }
  bench::check(recovered,
               "every planned crash ended in a snapshot + WAL rebuild");
  bench::check(res.points.front().merged.counter("outage_lost") > 0,
               "the crashes really destroyed in-flight datagrams");
  bench::check(v.closed,
               "every interrupted round completed after recovery");
  bench::check(v.drained, "the federation drained idle after the crashes");
  bench::check(v.clean, "zero conservation violations across the crashes");
}

}  // namespace

int main(int argc, char** argv) {
  bench::Bench harness("r3_federation_chaos", argc, argv);
  std::printf("=== R3: federation chaos sweep ===\n");
  r3a_grid(harness);
  r3b_partition(harness);
  r3c_bank_crash(harness);
  std::filesystem::remove_all("r3_store");
  return harness.finish();
}
