// Shared harness for the experiment benches.
//
// Every bench prints its tables through util::Table and finishes with a
// CHECK line per "shape" assertion — the qualitative claim from the paper
// that the regenerated numbers must reproduce (who wins, roughly by how
// much, where the crossover sits).  A failed check exits non-zero so the
// bench sweep doubles as a regression suite for EXPERIMENTS.md.
//
// Since the sweep/obs layer landed, every bench also routes through a
// Bench instance that
//   - parses the common flags:
//       --threads N    worker threads for sweep sections        (default 1)
//       --replicas N   replicas per sweep point                 (default 1)
//       --seed S       base seed for sweep::derive_seed         (default 42)
//       --smoke        cut volumes for CI smoke runs
//       --json PATH    output path                (default BENCH_<name>.json)
//       --no-json      skip the JSON file
//       --trace PATH   enable the flight recorder; export to PATH at finish
//                      as Chrome/Perfetto trace-event JSON
//       --telemetry    benches that support it run an instrumented overlay
//                      world and embed its time-series in the JSON (off by
//                      default so JSON output stays byte-stable)
//   - runs parameter grids on the parallel sweep harness (run_sweep), and
//   - emits BENCH_<name>.json (wall time, checks, merged sweep statistics)
//     alongside the stdout tables.
//
// The free check()/finish() helpers route to the active Bench, so the
// experiment functions themselves did not have to change shape.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "sim/sweep.hpp"
#include "trace/analyze.hpp"
#include "trace/export.hpp"
#include "trace/trace.hpp"
#include "util/json.hpp"

namespace zmail::bench {

struct Options {
  std::size_t threads = 1;
  std::size_t replicas = 1;
  std::uint64_t seed = 42;
  bool smoke = false;
  bool telemetry = false;  // run the bench's telemetry-overlay section
  bool write_json = true;
  std::string json_path;   // empty: BENCH_<name>.json in the working dir
  std::string trace_path;  // empty: flight recorder stays off
};

class Bench;
inline Bench* g_current = nullptr;
inline int g_failures = 0;  // still counted when no Bench is active

class Bench {
 public:
  explicit Bench(std::string name, int argc = 0, char** argv = nullptr)
      : name_(std::move(name)), start_(std::chrono::steady_clock::now()) {
    parse_args(argc, argv);
    if (!options_.trace_path.empty()) trace::set_enabled(true);
    json_ = json::Value::object();
    json_["schema"] = "zmail-bench-v1";
    json_["bench"] = name_;
    json_["seed"] = options_.seed;
    json_["threads"] = static_cast<std::uint64_t>(options_.threads);
    json_["replicas"] = static_cast<std::uint64_t>(options_.replicas);
    json_["smoke"] = options_.smoke;
    json_["checks"] = json::Value::array();
    g_current = this;
  }

  ~Bench() {
    if (g_current == this) g_current = nullptr;
  }

  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  const Options& options() const noexcept { return options_; }
  const std::string& name() const noexcept { return name_; }

  void check(bool ok, const std::string& claim) {
    std::printf("CHECK %-4s %s\n", ok ? "ok" : "FAIL", claim.c_str());
    if (!ok) ++failures_;
    json::Value e = json::Value::object();
    e["claim"] = claim;
    e["ok"] = ok;
    json_["checks"].push_back(std::move(e));
  }

  // Free-form additions to the JSON "metrics" object (headline numbers the
  // tables print, environment notes, ...).
  json::Value& metrics() { return json_["metrics"]; }

  // Extra top-level JSON section (e.g. the --telemetry overlay).  Only call
  // when actually writing something: merely naming a key creates it.
  json::Value& section(const std::string& key) { return json_[key]; }

  // Runs a parameter grid through the parallel sweep harness with this
  // bench's --threads/--replicas/--seed and records the merged result under
  // "sweeps"."<section>" in the JSON file.
  sweep::SweepResult run_sweep(const std::string& section,
                               const std::vector<sweep::Point>& grid,
                               const sweep::ReplicaFn& fn) {
    sweep::SweepOptions so;
    so.base_seed = options_.seed;
    so.replicas = options_.replicas;
    so.threads = options_.threads;
    return record_sweep(section, sweep::run(grid, so, fn));
  }

  // Same, but with explicit sweep options (the e12 speedup section runs one
  // sweep at 1 thread and one at --threads to compare).
  sweep::SweepResult run_sweep(const std::string& section,
                               const std::vector<sweep::Point>& grid,
                               const sweep::SweepOptions& so,
                               const sweep::ReplicaFn& fn) {
    return record_sweep(section, sweep::run(grid, so, fn));
  }

  // Prints the failure summary, writes BENCH_<name>.json, returns the
  // process exit code.
  int finish() {
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    json_["wall_seconds"] = wall;
    json_["failures"] = failures_;
    if (!options_.trace_path.empty()) {
      std::string terr;
      if (trace::export_current(options_.trace_path, &terr))
        std::printf("wrote trace %s (%zu events)\n",
                    options_.trace_path.c_str(), trace::collect().size());
      else
        std::fprintf(stderr, "trace export failed: %s\n", terr.c_str());
      json_["trace_breakdown"] =
          trace::breakdown_to_json(trace::breakdown(trace::collect()));
      json_["profiles"] = trace::profiles_to_json();
    }
    if (options_.write_json) {
      const std::string path = options_.json_path.empty()
                                   ? "BENCH_" + name_ + ".json"
                                   : options_.json_path;
      std::string err;
      if (json::write_file(path, json_, &err))
        std::printf("wrote %s\n", path.c_str());
      else
        std::fprintf(stderr, "JSON export failed: %s\n", err.c_str());
    }
    if (failures_ > 0) {
      std::fprintf(stderr, "%d shape check(s) failed\n", failures_);
      return 1;
    }
    return 0;
  }

 private:
  sweep::SweepResult record_sweep(const std::string& section,
                                  sweep::SweepResult result) {
    json_["sweeps"][section] = result.to_json();
    return result;
  }

  [[noreturn]] static void usage_exit(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s [--threads N] [--replicas N] [--seed S] [--smoke]"
                 " [--telemetry] [--json PATH] [--no-json]"
                 " [--trace PATH]\n",
                 argv0);
    std::exit(2);
  }

  void parse_args(int argc, char** argv) {
    const char* argv0 = argc > 0 ? argv[0] : "bench";
    const auto need_value = [&](int& i, const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        usage_exit(argv0);
      }
      return argv[++i];
    };
    // Whole non-negative decimal token; "abc", "3x", "-1" and "" exit 2.
    const auto need_count = [&](int& i, const char* flag) -> std::uint64_t {
      const auto n = core::parse_count(need_value(i, flag));
      if (!n) {
        std::fprintf(stderr, "%s needs a non-negative integer\n", flag);
        usage_exit(argv0);
      }
      return *n;
    };
    for (int i = 1; i < argc; ++i) {
      const char* a = argv[i];
      if (std::strcmp(a, "--threads") == 0) {
        options_.threads = static_cast<std::size_t>(need_count(i, a));
      } else if (std::strcmp(a, "--replicas") == 0) {
        options_.replicas = static_cast<std::size_t>(need_count(i, a));
        if (options_.replicas == 0) options_.replicas = 1;
      } else if (std::strcmp(a, "--seed") == 0) {
        options_.seed = need_count(i, a);
      } else if (std::strcmp(a, "--smoke") == 0) {
        options_.smoke = true;
      } else if (std::strcmp(a, "--telemetry") == 0) {
        options_.telemetry = true;
      } else if (std::strcmp(a, "--json") == 0) {
        options_.json_path = need_value(i, a);
      } else if (std::strcmp(a, "--no-json") == 0) {
        options_.write_json = false;
      } else if (std::strcmp(a, "--trace") == 0) {
        options_.trace_path = need_value(i, a);
      } else if (std::strncmp(a, "--benchmark_", 12) == 0) {
        // google-benchmark flags pass through to the micro benches.
      } else {
        std::fprintf(stderr, "unknown flag %s\n", a);
        usage_exit(argv0);
      }
    }
  }

  std::string name_;
  Options options_;
  std::chrono::steady_clock::time_point start_;
  json::Value json_;
  int failures_ = 0;
};

// Back-compat free functions: route to the active Bench.
inline void check(bool ok, const std::string& claim) {
  if (g_current) {
    g_current->check(ok, claim);
    return;
  }
  std::printf("CHECK %-4s %s\n", ok ? "ok" : "FAIL", claim.c_str());
  if (!ok) ++g_failures;
}

inline int finish() {
  if (g_current) return g_current->finish();
  if (g_failures > 0) {
    std::fprintf(stderr, "%d shape check(s) failed\n", g_failures);
    return 1;
  }
  return 0;
}

}  // namespace zmail::bench
