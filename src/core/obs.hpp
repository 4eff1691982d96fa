// zmail::obs — observability layer: structured (JSON) export of the
// counters the protocol code already keeps.
//
// Nothing here adds instrumentation; it serializes what IspMetrics,
// BankMetrics and LegacyHostStats record (every counter their fields()
// lists, keyed by field name) plus the stats types, in one schema; a file
// that embeds a snapshot tags it "schema": "zmail-obs-v3".  Key order is
// fixed (declaration order / sorted names), so two runs of the same
// experiment diff cleanly.
#pragma once

#include "core/metrics.hpp"
#include "core/system.hpp"
#include "util/json.hpp"

namespace zmail::obs {

json::Value to_json(const core::IspMetrics& m);
json::Value to_json(const core::BankMetrics& m);
json::Value to_json(const core::LegacyHostStats& s);

// Whole-system snapshot: aggregate + per-ISP metrics, bank metrics
// (summed over member banks), delivery latency, network totals,
// conservation status, durable-store totals and the calendar rebase count.
// With several member banks a "federation" section adds n_banks and the
// per-bank seq/round/clearing positions.  When the flight recorder is live,
// "trace_breakdown" + "profiles" follow; when the system runs with
// telemetry, so do "timeseries" (deterministic series, a pure function of
// the simulated world), "timeseries_engine" (execution series such as
// event backlogs) and "probes" (the default health rules evaluated over
// the run).
json::Value snapshot(const core::ZmailSystem& sys);

}  // namespace zmail::obs
