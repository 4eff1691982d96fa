// HealthProbe layer: declarative SLO/anomaly rules evaluated over recorded
// telemetry windows.
//
// A ProbeRule names one series (by "<scope>.<name>" key), an aggregator
// over a sliding window of its most recent points, a comparator against a
// threshold, and fire/clear hysteresis in consecutive evaluations.  Rules
// are evaluated retrospectively over the full recorded series at export
// time — a pure function of the (deterministic) series data, so the same
// probe fires and clears at the same sim-times on every replay of a seed.
// Each transition is logged through the "probe" component, and the
// summary ProbeReport is what auditors and CI assert on.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/series.hpp"
#include "util/json.hpp"

namespace zmail::telemetry {

enum class Agg : std::uint8_t {
  kLast,         // newest point in the window
  kMean,         // arithmetic mean over the window
  kMax,
  kMin,
  kSum,
  kSlopePerSec,  // (last - first) / elapsed seconds across the window
};

enum class Cmp : std::uint8_t { kGt, kGe, kLt, kLe };

const char* agg_name(Agg a) noexcept;
const char* cmp_name(Cmp c) noexcept;

struct ProbeRule {
  std::string name;    // "wal_backlog_growth", "conservation_drift", ...
  std::string series;  // target key, e.g. "store.bank.wal_backlog_records"
  Agg agg = Agg::kLast;
  Cmp cmp = Cmp::kGt;
  double threshold = 0.0;
  std::size_t window = 5;     // points per evaluation (>= 1)
  std::size_t fire_for = 2;   // consecutive breaches before firing
  std::size_t clear_for = 2;  // consecutive OKs before clearing
};

struct ProbeTransition {
  std::int64_t t_us = 0;
  bool fired = false;  // true: OK -> FIRING, false: FIRING -> OK
  double value = 0.0;  // aggregate that crossed (or recrossed) the line
};

struct ProbeStatus {
  ProbeRule rule;
  bool evaluated = false;  // the target series existed and had points
  bool firing = false;     // state after the last point
  std::uint64_t evaluations = 0;
  std::uint64_t breaches = 0;
  double last_value = 0.0;
  std::vector<ProbeTransition> transitions;

  std::uint64_t times_fired() const noexcept {
    std::uint64_t n = 0;
    for (const auto& t : transitions) n += t.fired ? 1 : 0;
    return n;
  }
};

struct ProbeReport {
  std::vector<ProbeStatus> probes;

  // Healthy = none of the evaluated probes is currently firing.  Rules
  // whose series never materialized (a facade without that signal, e.g.
  // no latency histograms on federated worlds) count as "no data", not
  // failure — evaluated_count() exposes them for stricter auditors.
  bool ok() const noexcept {
    for (const auto& p : probes)
      if (p.firing) return false;
    return true;
  }
  std::size_t firing_count() const noexcept {
    std::size_t n = 0;
    for (const auto& p : probes) n += p.firing ? 1 : 0;
    return n;
  }
  std::size_t evaluated_count() const noexcept {
    std::size_t n = 0;
    for (const auto& p : probes) n += p.evaluated ? 1 : 0;
    return n;
  }
};

class ProbeEngine {
 public:
  void add_rule(ProbeRule rule) { rules_.push_back(std::move(rule)); }
  const std::vector<ProbeRule>& rules() const noexcept { return rules_; }

  // Evaluates every rule over the recorded series (see file comment).
  // `log_transitions` emits one "probe" log line per fire/clear — pass
  // false for re-evaluations that would duplicate the record.
  ProbeReport evaluate(const std::vector<Series>& series,
                       bool log_transitions = true) const;

 private:
  std::vector<ProbeRule> rules_;
};

// Evaluates one rule against one series (exposed for unit tests).
ProbeStatus evaluate_rule(const ProbeRule& rule, const Series& s);

// The stock rule set the scenario runner and zmail_top use: WAL backlog
// growth per durable party, conservation-gap drift, and settlement/delivery
// latency p99.  Rules whose series never registered simply report
// evaluated == false.
std::vector<ProbeRule> default_rules();

json::Value to_json(const ProbeReport& report);

}  // namespace zmail::telemetry
