// zmail::obs — observability layer: structured (JSON) export of the
// counters the protocol code already keeps.
//
// Nothing here adds instrumentation; it serializes what IspMetrics,
// BankMetrics, and the stats types record, in a stable machine-readable
// schema ("zmail-obs-v1") that BENCH_*.json files and the sweep harness
// embed.  Key order is fixed (struct field order / sorted names), so two
// runs of the same experiment diff cleanly.
#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/metrics.hpp"
#include "core/system.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"

namespace zmail::obs {

// Snapshot schema version.  kV1 reproduces the original "zmail-obs-v1"
// output byte-for-byte (the BENCH_*.json baselines diff against it); kV2
// ("zmail-obs-v2") folds in the PR3 fault-recovery counters, the PR4 bank
// idempotency counters, durable-store totals, and — when the flight
// recorder is enabled — the span-derived per-stage latency breakdown.
// kV3 ("zmail-obs-v3") is kV2 plus, when the system ran with telemetry
// enabled, the recorded time series: "timeseries" (deterministic series, a
// pure function of the simulated world), "timeseries_engine" (execution
// series such as event backlogs), and "probes" (the default health rules
// evaluated over the run).
enum class Schema { kV1, kV2, kV3 };

// "zmail-obs-v1" / "zmail-obs-v2" / "zmail-obs-v3".
const char* schema_name(Schema v) noexcept;

json::Value to_json(const core::IspMetrics& m, Schema v = Schema::kV1);
json::Value to_json(const core::BankMetrics& m, Schema v = Schema::kV1);
json::Value to_json(const core::LegacyHostStats& s);
json::Value to_json(const OnlineStats& s);
json::Value to_json(const Histogram& h);
// Samples export summary percentiles, not raw observations (raw data can be
// millions of points; the consumers in EXPERIMENTS.md only read quantiles).
json::Value to_json(const Sample& s);

// Whole-system snapshot: aggregate + per-ISP metrics, bank metrics,
// delivery latency, network totals, conservation status.  kV2 appends the
// "store", and (when tracing is on) "trace_breakdown" + "profiles"
// sections; kV1 is the legacy layout, unchanged.  With several member
// banks a "federation" section follows the bank metrics (inter-bank
// traffic, cross-bank settlements, clearing, and per-bank seq/clearing
// positions; kV2 adds the inter-bank robustness counters).
json::Value snapshot(const core::ZmailSystem& sys, Schema v = Schema::kV1);

// Named lazy metric sources.  Providers are invoked at snapshot() time, so
// a registry built before a run observes the state at export, not at
// registration.  Registration order is serialization order.
class MetricsRegistry {
 public:
  using Provider = std::function<json::Value()>;

  // False (with an error log) on a duplicate name: the first registration
  // wins, the new provider is dropped.  Silently shadowing the first in
  // the JSON output was the old behaviour, and it hid wiring bugs.
  bool add(std::string name, Provider provider);
  // Convenience: registers obs::snapshot(sys, <registry schema>); the
  // schema is read at snapshot() time, so set_schema() may follow.  The
  // system must outlive the registry's last snapshot() call.
  bool add_system(std::string name, const core::ZmailSystem& sys);

  // Selects the export schema (default kV1, the legacy byte-stable
  // layout).  Affects the top-level "schema" string and every provider
  // registered via add_system().
  void set_schema(Schema v) noexcept { schema_ = v; }
  Schema schema() const noexcept { return schema_; }

  std::size_t size() const noexcept { return providers_.size(); }

  // {"schema": "zmail-obs-v<N>", "<name>": <provider()>, ...}
  json::Value snapshot() const;
  bool write_file(const std::string& path, std::string* error = nullptr) const;

 private:
  std::vector<std::pair<std::string, Provider>> providers_;
  Schema schema_ = Schema::kV1;
};

}  // namespace zmail::obs
