// Exporters and merge/derive logic for recorded telemetry.
//
// Formats:
//   - JSON: the obs snapshot's "timeseries" / "timeseries_engine" sections
//     (canonically sorted keys; the deterministic section is a pure
//     function of the simulated world).
//   - CSV (long format): one row per point —
//       section,scope,series,kind,t_us,value,count,sum,min,max,p50,p99
//     the format zmail_top renders and spreadsheets ingest.
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
//   core.total.delivered / core.total.blocked / core.total.refused —
//     point-wise sums of the per-ISP rates;
//   econ.total.epennies_held — point-wise sum of per-ISP holdings;
//   econ.total.conservation_gap — supply + endowment - holdings (>= 0:
//     e-pennies in flight; a growing floor is a leak);
//   econ.market.stamp_price_micros — mean of the per-ISP price gauges.
// Derived sums only combine series with identical timestamp grids (always
// true within one registry); mismatches are skipped, not guessed.
std::vector<Series> merge_series(const TelemetryRegistry& registry,
                                 const DeriveSpec& spec = {});

// Convenience over already-collected series (zmail_top's CSV path).
std::vector<Series> merge_collected(std::vector<Series> series,
                                    const DeriveSpec& spec = {});

// {"<scope>.<name>": {"kind": ..., "points": [[t,value],...] |
//  [[t,count,sum,min,max,p50,p99],...]}} for every series matching
// `engine`.  Keys sorted canonically.
json::Value timeseries_json(const std::vector<Series>& series, bool engine);

std::string csv_string(const std::vector<Series>& series);
bool write_csv(const std::string& path, const std::vector<Series>& series,
               std::string* error = nullptr);
// Parses a CSV written by write_csv (zmail_top's offline input).
bool load_csv(const std::string& path, std::vector<Series>* out,
              std::string* error = nullptr);

std::string prometheus_text(const std::vector<Series>& series);
bool write_prometheus(const std::string& path,
                      const std::vector<Series>& series,
                      std::string* error = nullptr);

}  // namespace zmail::telemetry
