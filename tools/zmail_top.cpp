// zmail_top — terminal dashboard over recorded telemetry.
//
//   ./zmail_top run.json                one render, then exit
//   ./zmail_top run.json --width 64     sparkline width
//
// Input is the obs-v3 file written by `scenario_runner --telemetry` (or an
// obs snapshot): its timeseries and timeseries_engine sections, read back
// by telemetry::series_from_json.  The dashboard renders:
//   - market panel: mean stamp price, per-ISP price range;
//   - mail panel: every fleet-wide ISP counter rate that moved
//     (core.isp_totals.*), then the latency histograms;
//   - health panel: WAL backlogs, quiesce buffers, delivery-latency p99;
//   - engine panel: event backlog and event rate (execution signals);
//   - probe panel: the default health rules re-evaluated over the series,
//     with fire/clear transition history.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "telemetry/export.hpp"
#include "telemetry/probes.hpp"
#include "util/table.hpp"

using namespace zmail;

namespace {

struct Args {
  std::string path;
  std::size_t width = 48;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s TELEMETRY_FILE [--width N]\n"
               "  TELEMETRY_FILE  obs-v3 JSON written by scenario_runner\n"
               "                  --telemetry PATH\n"
               "  --width N       sparkline width (default 48)\n",
               argv0);
  return 2;
}

// Reads the series of an obs-v3 file (or a bare obs snapshot).
bool load_series(const std::string& path,
                 std::vector<telemetry::Series>* out, std::string* error) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    *error = "cannot open " + path;
    return false;
  }
  std::ostringstream text;
  text << f.rdbuf();
  const auto doc = json::parse(text.str(), error);
  return doc && telemetry::series_from_json(*doc, out, error);
}

const telemetry::Series* find(const std::vector<telemetry::Series>& all,
                              const std::string& key) {
  for (const auto& s : all)
    if (s.key() == key) return &s;
  return nullptr;
}

std::vector<double> values_of(const telemetry::Series& s) {
  std::vector<double> v;
  v.reserve(s.points.size());
  for (const auto& p : s.points)
    v.push_back(telemetry::probe_value(s.kind, p));
  return v;
}

double last_of(const telemetry::Series& s) {
  return s.points.empty()
             ? 0.0
             : telemetry::probe_value(s.kind, s.points.back());
}

std::string fmt(double v) {
  char buf[64];
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      std::abs(v) < 1e15) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof buf, "%.3f", v);
  }
  return buf;
}

// One dashboard row: name, last value, sparkline over the whole series.
void panel_row(Table& t, const std::string& name,
               const telemetry::Series& s, std::size_t width) {
  t.add_row({name, fmt(last_of(s)), Table::sparkline(values_of(s), width)});
}

// The file holds the derived aggregates already, world series first and
// each section in canonical key order, so the dashboard renders it as is.
void render(const std::vector<telemetry::Series>& merged, const Args& args) {
  sim::SimTime end_ts = 0;
  for (const auto& s : merged)
    if (!s.points.empty()) end_ts = std::max(end_ts, s.points.back().t_us);
  std::printf("zmail_top — %s — sim time %.1f h\n", args.path.c_str(),
              static_cast<double>(end_ts) / (3600.0 * 1e6));

  // Market panel.
  {
    Table t({"series", "last", "trend"});
    for (const char* key : {"econ.market.stamp_price_micros",
                            "econ.bank.epenny_supply",
                            "econ.total.epennies_held",
                            "econ.total.conservation_gap"})
      if (const telemetry::Series* s = find(merged, key))
        panel_row(t, key, *s, args.width);
    t.print("market");
  }

  // Mail-flow panel: fleet-wide ISP counters that moved, then any per-ISP
  // latency tails.
  {
    Table t({"series", "last", "trend"});
    for (const auto& s : merged) {
      if (s.engine || s.scope != "core" || s.name.rfind("isp_totals.", 0) != 0)
        continue;
      if (std::any_of(s.points.begin(), s.points.end(),
                      [](const telemetry::Point& p) { return p.value != 0.0; }))
        panel_row(t, s.key(), s, args.width);
    }
    for (const auto& s : merged)
      if (!s.engine && s.kind == telemetry::Kind::kHistogram)
        panel_row(t, s.key() + " (p99)", s, args.width);
    t.print("mail flow");
  }

  // Health panel: WAL backlogs and quiesce buffers.
  {
    Table t({"series", "last", "trend"});
    for (const auto& s : merged) {
      if (s.engine) continue;
      const bool wal = s.name.size() > 19 &&
                       s.name.rfind(".wal_backlog_records") ==
                           s.name.size() - 20;
      const bool quiesce =
          s.name.size() > 16 &&
          s.name.rfind(".quiesce_buffered") == s.name.size() - 17;
      if (wal || quiesce) panel_row(t, s.key(), s, args.width);
    }
    t.print("durability & quiesce");
  }

  // Engine panel (execution signals, not world state).
  {
    Table t({"series", "last", "trend"});
    for (const auto& s : merged)
      if (s.engine && s.scope == "sim") panel_row(t, s.key(), s, args.width);
    t.print("engine");
  }

  // Probe panel: re-evaluate the default rules over the recorded series.
  {
    telemetry::ProbeEngine probes;
    for (telemetry::ProbeRule& r : telemetry::default_rules())
      probes.add_rule(std::move(r));
    const telemetry::ProbeReport report =
        probes.evaluate(merged, /*log_transitions=*/false);
    Table t({"probe", "series", "state", "last", "fires", "transitions"});
    for (const auto& p : report.probes) {
      std::string transitions;
      for (const auto& tr : p.transitions) {
        if (!transitions.empty()) transitions += " ";
        transitions += (tr.fired ? "F@" : "c@") +
                       fmt(static_cast<double>(tr.t_us) / 60e6) + "m";
      }
      t.add_row({p.rule.name, p.rule.series,
                 !p.evaluated ? "no-data" : (p.firing ? "FIRING" : "ok"),
                 fmt(p.last_value),
                 fmt(static_cast<double>(p.times_fired())),
                 transitions.empty() ? "-" : transitions});
    }
    t.print(report.ok() ? "probes (ok)" : "probes (UNHEALTHY)");
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (std::strcmp(a, "--width") == 0) {
      const char* v = value();
      if (!v) return usage(argv[0]);
      args.width = std::strtoull(v, nullptr, 10);
      if (args.width == 0) return usage(argv[0]);
    } else if (a[0] == '-') {
      return usage(argv[0]);
    } else if (args.path.empty()) {
      args.path = a;
    } else {
      return usage(argv[0]);
    }
  }
  if (args.path.empty()) return usage(argv[0]);

  std::vector<telemetry::Series> series;
  std::string err;
  if (!load_series(args.path, &series, &err)) {
    std::fprintf(stderr, "cannot read %s: %s\n", args.path.c_str(),
                 err.c_str());
    return 1;
  }
  render(series, args);
  return 0;
}
