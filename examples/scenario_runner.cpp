// Scenario runner: executes a Zmail scenario script (see
// src/core/scenario.hpp for the language) from a file or stdin.
//
//   ./scenario_runner path/to/script.zs
//   echo "world isps=2 users=2" | ./scenario_runner -
//
//   ./scenario_runner script.zs --replicas 8 --threads 4 --json out.json
//   ./scenario_runner crashy.zs --store-dir /tmp/zs --checkpoint-interval 1h
//
// With no script argument, runs a built-in demo script.  With --replicas N
// the script runs N times on the sweep harness (seed varied per replica via
// sweep::derive_seed) and the merged counters land in the JSON report; the
// script's own expectations are checked in every replica.
//
// --store-dir DIR switches the durable store on (replica k persists under
// DIR/r<k>), which also unlocks the script's `crash` verb: a crashed host's
// in-memory state is wiped and rebuilt from its snapshot + WAL tail.  A
// DIR that already holds a WAL or snapshot from an earlier run is resumed,
// not started afresh, and the runner says so on stderr; a run stopped
// mid-round or mid-trade cannot be resumed (see ZmailSystem).
// --checkpoint-interval adds time-based checkpoints on top of the default
// quiesce-boundary ones.  --banks N splits the bank into N member banks;
// --audit runs the invariant auditor throughout the run.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <optional>
#include <sstream>

#include "core/invariants.hpp"
#include "core/obs.hpp"
#include "core/scenario.hpp"
#include "sim/sweep.hpp"
#include "telemetry/export.hpp"
#include "telemetry/probes.hpp"
#include "trace/analyze.hpp"
#include "trace/export.hpp"
#include "trace/trace.hpp"
#include "util/log.hpp"

using namespace zmail;

namespace {

const char* kDemoScript = R"(# Zmail demo: two compliant ISPs, one legacy.
world isps=3 users=4 balance=25 limit=50 compliant=110 seed=2005

# Normal correspondence.
send 0.0 1.1 subject Hello
send 1.1 0.0 subject Re:Hello
run 10m

# A legacy-world spam blast; compliant receivers are not paid for it,
# but it is free to send -- the unprotected corner of the deployment.
spam 2.0 count=12
run 1h

# A user tops up and the day rolls over.
buy 0.2 15
day
run 5m

# First billing period: verification + settlement.
snapshot
run 30m
expect violations 0
expect conservation

# The legacy ISP adopts Zmail; its spammer now pays like everyone else.
flip 2
spam 2.0 count=12
run 1h
expect conservation
print balances
)";

struct Args {
  std::string script;  // empty = demo, "-" = stdin
  std::size_t replicas = 1;
  std::size_t threads = 1;
  std::size_t banks = 0;   // >0 = params.n_banks (member banks)
  bool audit = false;      // continuous InvariantAuditor
  std::uint64_t seed = 0;
  bool seed_given = false;
  std::string json_path;
  std::string store_dir;  // non-empty enables the durable store
  sim::Duration checkpoint_interval = 0;
  std::string trace_path;  // non-empty enables the flight recorder
  // Telemetry (any non-empty output path enables the sampling engine).
  std::string telemetry_path;  // obs v3 snapshot (timeseries + probes)
  std::string telemetry_prom;  // Prometheus exposition, rewritten per tick
  sim::Duration telemetry_period = sim::kMinute;

  bool telemetry_on() const {
    return !telemetry_path.empty() || !telemetry_prom.empty();
  }
};

// True when `dir` or a replica directory under it already holds a WAL or
// a snapshot, which the run will recover instead of starting fresh.
bool holds_store_state(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    const fs::path ext = it->path().extension();
    if (ext == ".zwal" || ext == ".zsnap") return true;
  }
  return false;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [script.zs|-] [--replicas N] [--threads N]"
               " [--seed S] [--json PATH]\n"
               "       [--banks N] [--audit] [--store-dir DIR]"
               " [--checkpoint-interval DUR] [--trace PATH]\n"
               "  --banks N                 split the bank into N >= 1\n"
               "                            member banks (ISP i is homed\n"
               "                            on bank i %% N; `crash bank<k>\n"
               "                            DUR` crashes member bank k)\n"
               "  --audit                   run the invariant auditor every\n"
               "                            10 simulated minutes and fail\n"
               "                            on any violation\n"
               "  --store-dir DIR           enable the durable store (WAL +\n"
               "                            snapshots) under DIR; replica k\n"
               "                            writes to DIR/r<k>.  Unlocks the\n"
               "                            script's `crash` verb.  State\n"
               "                            already in DIR is resumed.\n"
               "  --checkpoint-interval DUR also checkpoint every DUR of\n"
               "                            simulated time (30m, 2h, ...),\n"
               "                            not just at quiesce boundaries\n"
               "  --trace PATH              record per-message lifecycle spans\n"
               "                            and export them to PATH as\n"
               "                            Chrome/Perfetto trace-event\n"
               "                            JSON (trace_report reads it).\n"
               "                            Single replica only.\n"
               "  --telemetry PATH          sample time series during the run\n"
               "                            and write an obs v3 snapshot with\n"
               "                            the timeseries + probe sections\n"
               "                            (zmail_top renders it).  Single\n"
               "                            replica only.\n"
               "  --telemetry-prom PATH     rewrite PATH with the Prometheus\n"
               "                            text exposition at each sampling\n"
               "                            tick\n"
               "  --telemetry-period DUR    sampling cadence in sim time\n"
               "                            (default 1m)\n",
               argv0);
  return 2;
}

telemetry::TelemetryConfig telemetry_config(const Args& args) {
  telemetry::TelemetryConfig cfg;
  cfg.enabled = true;
  cfg.sample_period = args.telemetry_period;
  cfg.prom_path = args.telemetry_prom;
  return cfg;
}

// Post-run telemetry export (single replica): the stock probe rules
// evaluated retrospectively over the merged series (each fire logged as a
// warning under the "probe" tag) with a console summary, and optionally the
// world's obs snapshot.  Returns 0 or the process exit code.
int export_telemetry(const Args& args, const core::ZmailSystem& world) {
  telemetry::DeriveSpec spec;
  spec.endowment_epennies = static_cast<double>(world.initial_endowment());
  const std::vector<telemetry::Series> merged =
      telemetry::merge_series(*world.telemetry(), spec);
  std::size_t points = 0;
  for (const auto& s : merged) points += s.points.size();

  const telemetry::ProbeReport report = telemetry::evaluate_probes(merged);
  std::size_t transitions = 0;
  for (const auto& p : report.probes) {
    transitions += p.transitions.size();
    for (const telemetry::ProbeTransition& t : p.transitions)
      if (t.fired)
        ZMAIL_LOG(LogLevel::kWarn, "probe",
                  "%s FIRING at t=%lld us: %s > %g (value %g)",
                  p.rule.name.c_str(), static_cast<long long>(t.t_us),
                  telemetry::agg_name(p.rule.agg), p.rule.threshold, t.value);
  }
  std::printf(
      "telemetry: %zu series, %zu points; probes: %zu evaluated, %zu "
      "firing, %zu transition(s)\n",
      merged.size(), points, report.evaluated_count(), report.firing_count(),
      transitions);

  if (!args.telemetry_path.empty()) {
    std::string err;
    json::Value file = json::Value::object();
    file["schema"] = "zmail-obs-v3";
    file["scenario"] = obs::snapshot(world);
    if (!json::write_file(args.telemetry_path, file, &err)) {
      std::fprintf(stderr, "telemetry export failed: %s\n", err.c_str());
      return 2;
    }
    std::printf("wrote %s\n", args.telemetry_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    // Numeric flags take a whole non-negative decimal token; anything else
    // ("abc", "3x", "-1", "") is a usage error.
    const auto count = [&]() -> std::optional<std::uint64_t> {
      const char* v = value();
      return v ? core::parse_count(v) : std::nullopt;
    };
    if (std::strcmp(a, "--replicas") == 0) {
      const auto n = count();
      if (!n) return usage(argv[0]);
      args.replicas = std::max<std::size_t>(1, *n);
    } else if (std::strcmp(a, "--threads") == 0) {
      const auto n = count();
      if (!n) return usage(argv[0]);
      args.threads = *n;
    } else if (std::strcmp(a, "--banks") == 0) {
      const auto n = count();
      if (!n || *n == 0) return usage(argv[0]);
      args.banks = *n;
    } else if (std::strcmp(a, "--audit") == 0) {
      args.audit = true;
    } else if (std::strcmp(a, "--seed") == 0) {
      const auto n = count();
      if (!n) return usage(argv[0]);
      args.seed = *n;
      args.seed_given = true;
    } else if (std::strcmp(a, "--json") == 0) {
      const char* v = value();
      if (!v) return usage(argv[0]);
      args.json_path = v;
    } else if (std::strcmp(a, "--store-dir") == 0) {
      const char* v = value();
      if (!v || !*v) return usage(argv[0]);
      args.store_dir = v;
    } else if (std::strcmp(a, "--checkpoint-interval") == 0) {
      const char* v = value();
      const auto d = v ? core::parse_duration(v) : std::nullopt;
      if (!d) return usage(argv[0]);
      args.checkpoint_interval = *d;
    } else if (std::strcmp(a, "--trace") == 0) {
      const char* v = value();
      if (!v || !*v) return usage(argv[0]);
      args.trace_path = v;
    } else if (std::strcmp(a, "--telemetry") == 0) {
      const char* v = value();
      if (!v || !*v) return usage(argv[0]);
      args.telemetry_path = v;
    } else if (std::strcmp(a, "--telemetry-prom") == 0) {
      const char* v = value();
      if (!v || !*v) return usage(argv[0]);
      args.telemetry_prom = v;
    } else if (std::strcmp(a, "--telemetry-period") == 0) {
      const char* v = value();
      const auto d = v ? core::parse_duration(v) : std::nullopt;
      if (!d || *d <= 0) return usage(argv[0]);
      args.telemetry_period = *d;
    } else if (a[0] == '-' && std::strcmp(a, "-") != 0) {
      return usage(argv[0]);
    } else if (args.script.empty()) {
      args.script = a;
    } else {
      return usage(argv[0]);
    }
  }

  std::string text;
  if (args.script.empty()) {
    std::printf("(no script given; running the built-in demo)\n\n%s\n---\n",
                kDemoScript);
    text = kDemoScript;
  } else if (args.script == "-") {
    std::stringstream ss;
    ss << std::cin.rdbuf();
    text = ss.str();
  } else {
    std::ifstream f(args.script);
    if (!f) {
      std::fprintf(stderr, "cannot open %s\n", args.script.c_str());
      return 2;
    }
    std::stringstream ss;
    ss << f.rdbuf();
    text = ss.str();
  }

  if (!args.trace_path.empty()) {
    if (args.replicas > 1) {
      // One recorder, one causal stream: replicas would interleave their
      // spans into a single unreadable trace.
      std::fprintf(stderr, "--trace requires --replicas 1\n");
      return 2;
    }
    trace::set_enabled(true);
  }

  core::ScenarioError err;
  const auto scenario = core::Scenario::parse(text, &err);
  if (!scenario) {
    std::fprintf(stderr, "parse error at line %zu: %s\n", err.line,
                 err.message.c_str());
    return 2;
  }

  if (args.telemetry_on() && args.replicas > 1) {
    // One world, one set of series: replicas would overwrite each other's
    // output files.
    std::fprintf(stderr, "--telemetry requires --replicas 1\n");
    return 2;
  }

  if (!args.store_dir.empty() && holds_store_state(args.store_dir))
    std::fprintf(stderr, "store: %s already holds state; resuming it\n",
                 args.store_dir.c_str());

  // Replica runs go through the sweep harness; the default invocation is a
  // 1-replica sweep with the script's own seed, which reproduces the
  // historical behaviour exactly.
  const std::uint64_t base_seed =
      args.seed_given ? args.seed : scenario->seed();
  const bool vary_seed = args.seed_given || args.replicas > 1;

  std::vector<std::string> first_output;
  std::vector<core::ScenarioError> first_failures;
  std::mutex first_mutex;
  int telemetry_rc = 0;  // only written with --telemetry (replicas == 1)

  sweep::SweepOptions so;
  so.base_seed = base_seed;
  so.replicas = args.replicas;
  so.threads = args.threads;
  const sweep::SweepResult result = sweep::run(
      sweep::Point{"scenario", {}}, so,
      [&](const sweep::Point&, std::uint64_t seed, std::size_t replica) {
        core::Scenario copy = *scenario;
        if (vary_seed) copy.set_seed(seed);
        if (!args.store_dir.empty()) {
          // Per-replica subdirectories: replicas run concurrently and must
          // not share WAL/snapshot files.
          store::StoreConfig& st = copy.mutable_params().store;
          st.enabled = true;
          st.dir = args.store_dir + "/r" + std::to_string(replica);
          st.checkpoint_interval_us = args.checkpoint_interval;
        }
        if (args.banks > 0) copy.mutable_params().n_banks = args.banks;
        sweep::MetricBag bag;
        core::ScenarioRunner runner(copy);
        core::InvariantAuditor auditor(runner.world());
        if (args.audit) auditor.run_continuously(10 * sim::kMinute);
        if (args.telemetry_on())
          runner.world().enable_telemetry(telemetry_config(args));
        core::ScenarioResult r = runner.run();
        if (args.audit) {
          auditor.check_now();
          for (const auto& msg : auditor.report().messages)
            r.failures.push_back(core::ScenarioError{0, "audit: " + msg});
        }
        // Protocol counters under their obs-snapshot paths.
        const core::IspMetrics m = runner.world().total_isp_metrics();
        const core::BankMetrics bm = runner.world().bank().metrics();
        core::IspMetrics::fields([&](const char* name, auto p) {
          bag.count(std::string("isp_totals.") + name,
                    static_cast<double>(m.*p));
        });
        core::BankMetrics::fields([&](const char* name, auto p) {
          bag.count(std::string("bank.") + name, static_cast<double>(bm.*p));
        });
        bag.count("audit_violations",
                  static_cast<double>(auditor.report().violations));
        bag.count("state_recoveries",
                  static_cast<double>(runner.world().state_recoveries()));
        if (args.telemetry_on()) {
          telemetry_rc = export_telemetry(args, runner.world());
        }
        bag.count("commands_executed", static_cast<double>(r.commands_executed));
        bag.count("failures", static_cast<double>(r.failures.size()));
        bag.count("replicas_ok", r.ok() ? 1.0 : 0.0);
        if (replica == 0) {
          std::lock_guard<std::mutex> lock(first_mutex);
          first_output = r.output;
          first_failures = r.failures;
        }
        return bag;
      });

  for (const auto& line : first_output) std::printf("%s\n", line.c_str());
  const sweep::MetricBag& merged = result.points.front().merged;
  const auto failures = static_cast<std::uint64_t>(merged.counter("failures"));
  std::printf("executed %llu commands across %zu replica(s), %llu failure(s)\n",
              static_cast<unsigned long long>(
                  merged.counter("commands_executed")),
              args.replicas, static_cast<unsigned long long>(failures));
  for (const auto& f : first_failures)
    std::fprintf(stderr, "  line %zu: %s\n", f.line, f.message.c_str());

  if (!args.trace_path.empty()) {
    const auto events = trace::collect();
    std::string terr;
    if (!trace::export_chrome(args.trace_path, events, &terr)) {
      std::fprintf(stderr, "trace export failed: %s\n", terr.c_str());
      return 2;
    }
    const trace::ValidationResult v = trace::validate(events);
    std::printf("wrote trace %s (%zu events, %zu spans, %zu chains%s)\n",
                args.trace_path.c_str(), events.size(), v.spans_total,
                v.chains_total, v.ok ? "" : ", INVALID");
    for (const auto& p : v.problems)
      std::fprintf(stderr, "  trace: %s\n", p.c_str());
  }

  if (!args.json_path.empty()) {
    json::Value j = json::Value::object();
    j["schema"] = "zmail-scenario-v1";
    j["script"] = args.script.empty() ? std::string("<demo>") : args.script;
    j["commands_in_script"] =
        static_cast<std::uint64_t>(scenario->command_count());
    j["sweep"] = result.to_json();
    std::string werr;
    if (!json::write_file(args.json_path, j, &werr)) {
      std::fprintf(stderr, "JSON export failed: %s\n", werr.c_str());
      return 2;
    }
    std::printf("wrote %s\n", args.json_path.c_str());
  }
  if (telemetry_rc != 0) return telemetry_rc;
  return failures == 0 ? 0 : 1;
}
