// Scenario DSL: a line-oriented script language over ZmailSystem.
//
// Lets examples, tests, and bug reports describe a reproducible Zmail run
// as text instead of C++:
//
//     world isps=3 users=4 balance=50 compliant=110
//     send 0.0 1.2 subject Hello there
//     spam 2.0 count=20
//     buy 0.1 25
//     run 2h
//     snapshot
//     crash 1 20m        # durable store only: kill isp1, recover after 20m
//     crash bank1 20m    # ... or member bank 1 (`bank` = `bank0`)
//     run 30m
//     day
//     flip 2
//     expect balance 1.2 51
//     expect violations 0
//     expect conservation
//     print balances
//
// Users are written `isp.user` (e.g. `1.2`) or as full simulated addresses
// (`u2@isp1.example`).  Durations take s/m/h/d suffixes.  The `world` line
// takes only key=value pairs with the keys shown above plus `limit`, `seed`,
// `retry` and `reliable` (0 or 1); any other token, a value that is not a
// count >= 0, or a world ZmailParams::validate() refuses is a parse error.
// `subject` takes the rest of the send line (its words, single-spaced).
// `day`, `snapshot` and `expect conservation` take no further tokens, `run`
// exactly one duration, `print` nothing or `balances`, and `spam`
// `<from> count=N`; any other form of those verbs is a parse error too.
// `expect` lines turn the script into a checked regression;
// `ScenarioResult::ok()` is false if any expectation failed.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/system.hpp"

namespace zmail::core {

struct ScenarioError {
  std::size_t line = 0;
  std::string message;
};

// A parsed script: opaque command list plus the world parameters.
class Scenario {
 public:
  // Parses the script text; returns nullopt and fills `error` on the first
  // syntax problem.
  static std::optional<Scenario> parse(const std::string& text,
                                       ScenarioError* error = nullptr);

  const ZmailParams& params() const noexcept { return params_; }
  // Harnesses overlay configuration the script language does not cover
  // (e.g. scenario_runner --store-dir enables the durable store, --banks
  // sets n_banks) before handing the scenario to a ScenarioRunner.
  ZmailParams& mutable_params() noexcept { return params_; }
  std::size_t command_count() const noexcept { return commands_.size(); }

  // The world seed (from the script's `seed=` key, default 1).  Writable so
  // harnesses can run replica variations of one script (the scenario_runner
  // --replicas sweep derives one seed per replica).
  std::uint64_t seed() const noexcept { return seed_; }
  void set_seed(std::uint64_t s) noexcept { seed_ = s; }

 private:
  friend class ScenarioRunner;

  struct Command {
    std::size_t line = 0;
    std::string verb;
    std::vector<std::string> args;
  };

  ZmailParams params_;
  std::uint64_t seed_ = 1;
  std::vector<Command> commands_;
};

struct ScenarioResult {
  std::vector<std::string> output;       // lines from `print` commands
  std::vector<ScenarioError> failures;   // failed `expect`s / runtime errors
  std::uint64_t commands_executed = 0;

  bool ok() const noexcept { return failures.empty(); }
};

// Executes a parsed scenario against a fresh ZmailSystem.
class ScenarioRunner {
 public:
  explicit ScenarioRunner(const Scenario& scenario);

  ScenarioResult run();

  // The world outlives run() so tests can inspect final state.
  ZmailSystem& world() noexcept { return world_; }

 private:
  const Scenario& scenario_;
  ZmailSystem world_;
};

// --- Parsing helpers exposed for reuse and direct testing -----------------

// "1.2" or "u2@isp1.example" -> (isp, user).
std::optional<std::pair<std::size_t, std::size_t>> parse_user_ref(
    const std::string& token);

// "90s" / "15m" / "2h" / "1d" -> simulated duration.
std::optional<sim::Duration> parse_duration(const std::string& token);

// Strict whole-token decimal integer: "42" or "-7".  Empty input, trailing
// junk ("3x"), non-numbers ("abc") and out-of-range values are nullopt.
std::optional<std::int64_t> parse_int(const std::string& token);

// parse_int restricted to values >= 0; the numeric command-line flags
// (--replicas, --threads, --banks, --seed) all go through this.
std::optional<std::uint64_t> parse_count(const std::string& token);

}  // namespace zmail::core
