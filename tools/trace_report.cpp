// trace_report: offline reader for flight-recorder captures.
//
//   ./trace_report run.json                 per-stage latency breakdown
//   ./trace_report run.json --chains        plus one line per message chain
//   ./trace_report run.json --validate      exit nonzero on span violations
//
// Reads the Chrome trace-event JSON that `--trace PATH` writes,
// reconstructs spans and per-message causal chains, and prints the
// stamp-buy / transit / classify / settle latency table that EXPERIMENTS.md
// quotes.  --validate runs the same span
// invariants as the CI trace-smoke step: every span closed (crash- and
// loss-forgiveness applied), end >= begin, child events inside the root
// message interval, and exactly one root mint per id.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "trace/analyze.hpp"
#include "trace/export.hpp"
#include "util/table.hpp"

using namespace zmail;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s TRACE_FILE [--validate] [--chains]\n"
               "  TRACE_FILE  flight-recorder capture in Chrome trace-event\n"
               "              JSON (as written by --trace PATH)\n"
               "  --validate  check span invariants; exit 1 on violations\n"
               "  --chains    print one line per traced message chain\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  bool validate = false, chains = false;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--validate") == 0) {
      validate = true;
    } else if (std::strcmp(a, "--chains") == 0) {
      chains = true;
    } else if (a[0] == '-') {
      return usage(argv[0]);
    } else if (path.empty()) {
      path = a;
    } else {
      return usage(argv[0]);
    }
  }
  if (path.empty()) return usage(argv[0]);

  std::vector<trace::TraceEvent> events;
  std::string err;
  if (!trace::load(path, &events, &err)) {
    std::fprintf(stderr, "cannot load %s: %s\n", path.c_str(), err.c_str());
    return 2;
  }
  if (events.empty()) {
    std::fprintf(stderr, "%s: no trace events (empty capture?)\n",
                 path.c_str());
    return 2;
  }

  const auto spans = trace::build_spans(events);
  const auto chain_map = trace::build_chains(events);
  std::printf("%s: %zu events, %zu spans, %zu chains\n", path.c_str(),
              events.size(), spans.size(), chain_map.size());

  const auto stages = trace::breakdown(events);
  if (!stages.empty()) {
    Table t({"stage", "count", "sim_mean_us", "sim_min_us", "sim_max_us",
             "sim_total_us", "wall_mean_us", "wall_total_us"});
    for (const auto& [name, s] : stages)
      t.add_row({name, Table::num(s.count), Table::num(s.mean_us(), 1),
                 Table::num(s.min_us), Table::num(s.max_us),
                 Table::num(s.total_us), Table::num(s.wall_mean_us(), 1),
                 Table::num(static_cast<double>(s.wall_total_ns) / 1000.0,
                            1)});
    t.print("per-stage latency (sim-time & wall-time)");
  }

  if (chains) {
    Table t({"id", "events", "transmits", "terminal", "closed", "lost"});
    for (const auto& [id, c] : chain_map) {
      char idbuf[24];
      std::snprintf(idbuf, sizeof idbuf, "0x%llx",
                    static_cast<unsigned long long>(id));
      t.add_row({idbuf, Table::num(static_cast<std::uint64_t>(c.events.size())),
                 Table::num(static_cast<std::uint64_t>(c.transmits)),
                 trace::ev_name(c.terminal), c.root_closed ? "yes" : "no",
                 c.lost ? "yes" : "no"});
    }
    t.print("message chains");
  }

  if (validate) {
    const trace::ValidationResult v = trace::validate(events);
    std::printf(
        "validate: %zu spans (%zu closed, %zu forgiven), %zu chains "
        "(%zu terminal): %s\n",
        v.spans_total, v.spans_closed, v.spans_forgiven, v.chains_total,
        v.chains_terminal, v.ok ? "ok" : "FAIL");
    for (const auto& p : v.problems)
      std::fprintf(stderr, "  violation: %s\n", p.c_str());
    if (!v.ok) return 1;
  }
  return 0;
}
