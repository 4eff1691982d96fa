#include "telemetry/probes.hpp"

#include <algorithm>

#include "util/log.hpp"

namespace zmail::telemetry {

const char* agg_name(Agg a) noexcept {
  switch (a) {
    case Agg::kLast: return "last";
    case Agg::kMean: return "mean";
    case Agg::kMax: return "max";
    case Agg::kMin: return "min";
    case Agg::kSum: return "sum";
    case Agg::kSlopePerSec: return "slope_per_sec";
  }
  return "?";
}

const char* cmp_name(Cmp c) noexcept {
  switch (c) {
    case Cmp::kGt: return ">";
    case Cmp::kGe: return ">=";
    case Cmp::kLt: return "<";
    case Cmp::kLe: return "<=";
  }
  return "?";
}

namespace {

// "store.*.wal_backlog_records" — a single '*' splits the pattern into a
// required prefix and suffix.  No '*': exact match.
bool key_matches(const std::string& pattern, const std::string& key) {
  const std::size_t star = pattern.find('*');
  if (star == std::string::npos) return pattern == key;
  const std::string prefix = pattern.substr(0, star);
  const std::string suffix = pattern.substr(star + 1);
  if (key.size() < prefix.size() + suffix.size()) return false;
  return key.compare(0, prefix.size(), prefix) == 0 &&
         key.compare(key.size() - suffix.size(), suffix.size(), suffix) == 0;
}

double aggregate(const ProbeRule& rule, const Series& s, std::size_t end) {
  // Window = points [begin, end] inclusive, clamped at the series head.
  const std::size_t w = rule.window ? rule.window : 1;
  const std::size_t begin = end + 1 >= w ? end + 1 - w : 0;
  const Kind k = s.kind;
  switch (rule.agg) {
    case Agg::kLast:
      return probe_value(k, s.points[end]);
    case Agg::kMean: {
      double sum = 0.0;
      for (std::size_t i = begin; i <= end; ++i)
        sum += probe_value(k, s.points[i]);
      return sum / static_cast<double>(end - begin + 1);
    }
    case Agg::kMax: {
      double m = probe_value(k, s.points[begin]);
      for (std::size_t i = begin + 1; i <= end; ++i)
        m = std::max(m, probe_value(k, s.points[i]));
      return m;
    }
    case Agg::kMin: {
      double m = probe_value(k, s.points[begin]);
      for (std::size_t i = begin + 1; i <= end; ++i)
        m = std::min(m, probe_value(k, s.points[i]));
      return m;
    }
    case Agg::kSum: {
      double sum = 0.0;
      for (std::size_t i = begin; i <= end; ++i)
        sum += probe_value(k, s.points[i]);
      return sum;
    }
    case Agg::kSlopePerSec: {
      if (begin == end) return 0.0;  // a one-point window has no slope
      const double dv = probe_value(k, s.points[end]) -
                        probe_value(k, s.points[begin]);
      const double dt_sec =
          static_cast<double>(s.points[end].t_us - s.points[begin].t_us) / 1e6;
      return dt_sec > 0.0 ? dv / dt_sec : 0.0;
    }
  }
  return 0.0;
}

bool breaches(Cmp c, double value, double threshold) noexcept {
  switch (c) {
    case Cmp::kGt: return value > threshold;
    case Cmp::kGe: return value >= threshold;
    case Cmp::kLt: return value < threshold;
    case Cmp::kLe: return value <= threshold;
  }
  return false;
}

}  // namespace

ProbeStatus evaluate_rule(const ProbeRule& rule, const Series& s) {
  ProbeStatus st;
  st.rule = rule;
  st.rule.series = s.key();  // concrete key (wildcards resolved)
  if (s.points.empty()) return st;
  st.evaluated = true;

  const std::size_t fire_for = std::max<std::size_t>(1, rule.fire_for);
  const std::size_t clear_for = std::max<std::size_t>(1, rule.clear_for);
  std::size_t breach_streak = 0, ok_streak = 0;
  for (std::size_t i = 0; i < s.points.size(); ++i) {
    const double v = aggregate(rule, s, i);
    ++st.evaluations;
    st.last_value = v;
    const bool breach = breaches(rule.cmp, v, rule.threshold);
    if (breach) {
      ++st.breaches;
      ++breach_streak;
      ok_streak = 0;
      if (!st.firing && breach_streak >= fire_for) {
        st.firing = true;
        st.transitions.push_back({s.points[i].t_us, true, v});
      }
    } else {
      ++ok_streak;
      breach_streak = 0;
      if (st.firing && ok_streak >= clear_for) {
        st.firing = false;
        st.transitions.push_back({s.points[i].t_us, false, v});
      }
    }
  }
  return st;
}

ProbeReport ProbeEngine::evaluate(const std::vector<Series>& series,
                                  bool log_transitions) const {
  ProbeReport report;
  for (const ProbeRule& rule : rules_) {
    bool matched = false;
    for (const Series& s : series) {
      if (!key_matches(rule.series, s.key())) continue;
      matched = true;
      ProbeStatus st = evaluate_rule(rule, s);
      if (log_transitions) {
        for (const ProbeTransition& t : st.transitions)
          ZMAIL_LOG(t.fired ? LogLevel::kWarn : LogLevel::kInfo, "probe",
                    "%s %s at t=%lld us: %s %s %g (value %g)",
                    st.rule.name.c_str(), t.fired ? "FIRING" : "cleared",
                    static_cast<long long>(t.t_us), agg_name(rule.agg),
                    cmp_name(rule.cmp), rule.threshold, t.value);
      }
      report.probes.push_back(std::move(st));
    }
    if (!matched) {
      ProbeStatus st;
      st.rule = rule;
      report.probes.push_back(std::move(st));
    }
  }
  return report;
}

std::vector<ProbeRule> default_rules() {
  std::vector<ProbeRule> rules;
  // WAL backlog: records logged since the last checkpoint truncated the
  // log.  A healthy party checkpoints at quiesce/round boundaries, so the
  // backlog sawtooths; a party that stops checkpointing (crashed, wedged
  // round) climbs through the threshold and fires until recovery.
  rules.push_back(ProbeRule{"wal_backlog_growth",
                            "store.*.wal_backlog_records", Agg::kLast,
                            Cmp::kGt, 400.0, 1, 2, 1});
  // Conservation gap = supply + endowment - holdings = e-pennies riding
  // in-flight mail and unsettled trades.  A sustained positive slope means
  // value is leaking out of the books (lost paid mail never refunded).
  rules.push_back(ProbeRule{"conservation_drift",
                            "econ.total.conservation_gap", Agg::kSlopePerSec,
                            Cmp::kGt, 0.01, 10, 2, 2});
  // Delivery latency p99 per recipient ISP: fires when the tail crosses 15
  // simulated minutes (quiesce buffering tops out at 10; anything beyond
  // means retransmit storms or outage queues).
  rules.push_back(ProbeRule{"delivery_latency_p99",
                            "core.*.delivery_latency_us", Agg::kMax,
                            Cmp::kGt, 9e8, 5, 1, 1});
  return rules;
}

json::Value to_json(const ProbeReport& report) {
  json::Value j = json::Value::object();
  j["probes_total"] = static_cast<std::uint64_t>(report.probes.size());
  j["probes_evaluated"] =
      static_cast<std::uint64_t>(report.evaluated_count());
  j["probes_firing"] = static_cast<std::uint64_t>(report.firing_count());
  j["ok"] = report.ok();
  json::Value& arr = j["results"];
  arr = json::Value::array();
  for (const ProbeStatus& p : report.probes) {
    json::Value e = json::Value::object();
    e["name"] = p.rule.name;
    e["series"] = p.rule.series;
    e["agg"] = agg_name(p.rule.agg);
    e["cmp"] = cmp_name(p.rule.cmp);
    e["threshold"] = p.rule.threshold;
    e["window"] = static_cast<std::uint64_t>(p.rule.window);
    e["evaluated"] = p.evaluated;
    e["firing"] = p.firing;
    e["evaluations"] = p.evaluations;
    e["breaches"] = p.breaches;
    e["last_value"] = p.last_value;
    json::Value& tr = e["transitions"];
    tr = json::Value::array();
    for (const ProbeTransition& t : p.transitions) {
      json::Value te = json::Value::object();
      te["t_us"] = t.t_us;
      te["fired"] = t.fired;
      te["value"] = t.value;
      tr.push_back(std::move(te));
    }
    arr.push_back(std::move(e));
  }
  return j;
}

}  // namespace zmail::telemetry
