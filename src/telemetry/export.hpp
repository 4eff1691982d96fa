// Exporters and merge/derive logic for recorded telemetry.
//
// Formats:
//   - JSON: the obs snapshot's "timeseries" / "timeseries_engine" sections
//     (canonically sorted keys; the deterministic section is a pure
//     function of the simulated world).  This is the on-disk form:
//     series_from_json reads it back exactly, and zmail_top renders it.
//   - Prometheus text exposition: current value per series, rewritten at
//     sampling cadence (the scrape surface for the future socket mode).
//
// Merging: the merged view is the registry's series in canonical key order
// plus export-time derived aggregates (integer-exact point-wise sums walked
// in canonical key order).
#pragma once

#include <string>
#include <vector>

#include "telemetry/registry.hpp"
#include "telemetry/series.hpp"
#include "util/json.hpp"

namespace zmail::telemetry {

// Inputs for the derived aggregate series appended by merge.
struct DeriveSpec {
  // Initial e-penny endowment of the whole world (for the conservation-gap
  // series); < 0 skips the gap series.
  double endowment_epennies = -1.0;
};

// The registry's series, canonically sorted by key, with derived aggregates
// appended:
//   econ.total.epennies_held — point-wise sum of per-ISP holdings;
//   econ.total.conservation_gap — supply + endowment - holdings (>= 0:
//     e-pennies in flight; a growing floor is a leak);
//   econ.market.stamp_price_micros — mean of the per-ISP price gauges.
// Fleet-wide counter totals need no derive: the registry samples them
// directly (core.isp_totals.<field>, core.bank.<field>, ...).
// Derived sums only combine series with identical timestamp grids (always
// true within one registry); mismatches are skipped, not guessed.
std::vector<Series> merge_series(const TelemetryRegistry& registry,
                                 const DeriveSpec& spec = {});

// {"<scope>.<name>": {"kind": ..., "points": [[t,value],...] |
//  [[t,count,sum,min,max,p50,p99],...]}} for every series matching
// `engine`.  Keys sorted canonically.
json::Value timeseries_json(const std::vector<Series>& series, bool engine);

// The inverse of timeseries_json: rebuilds the series of the "timeseries"
// and "timeseries_engine" sections of `doc`, an obs snapshot or an obs-v3
// file holding one under "scenario".  World series come first, each
// section in file order; a histogram point's value is its p99, as
// LogHistogram::flush sets it.  false (and `error`) when the sections are
// missing or malformed.
bool series_from_json(const json::Value& doc, std::vector<Series>* out,
                      std::string* error = nullptr);

std::string prometheus_text(const std::vector<Series>& series);
bool write_prometheus(const std::string& path,
                      const std::vector<Series>& series,
                      std::string* error = nullptr);

}  // namespace zmail::telemetry
