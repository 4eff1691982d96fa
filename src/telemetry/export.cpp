#include "telemetry/export.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "util/log.hpp"

namespace zmail::telemetry {

namespace {

bool same_grid(const Series& a, const Series& b) {
  if (a.points.size() != b.points.size()) return false;
  for (std::size_t i = 0; i < a.points.size(); ++i)
    if (a.points[i].t_us != b.points[i].t_us) return false;
  return true;
}

// Gathers the series whose name is "isp<k>.<suffix>" within `scope`,
// keeping input order (already canonical after the caller's sort).
std::vector<const Series*> per_isp(const std::vector<Series>& all,
                                   const char* scope, const char* suffix) {
  std::vector<const Series*> out;
  const std::string suf = std::string(".") + suffix;
  for (const Series& s : all) {
    if (s.engine || s.scope != scope) continue;
    if (s.name.size() <= suf.size() + 3) continue;
    if (s.name.compare(0, 3, "isp") != 0) continue;
    if (s.name.compare(s.name.size() - suf.size(), suf.size(), suf) != 0)
      continue;
    out.push_back(&s);
  }
  return out;
}

// Point-wise sum over same-grid series.  Returns false (and logs) on a
// grid mismatch instead of guessing an alignment.
bool sum_points(const std::vector<const Series*>& parts,
                std::vector<Point>* out) {
  if (parts.empty()) return false;
  for (const Series* s : parts)
    if (!same_grid(*parts.front(), *s)) {
      ZMAIL_LOG(LogLevel::kDebug, "telemetry",
                "derived sum skipped: %s grid differs from %s",
                s->key().c_str(), parts.front()->key().c_str());
      return false;
    }
  out->assign(parts.front()->points.begin(), parts.front()->points.end());
  for (std::size_t k = 1; k < parts.size(); ++k)
    for (std::size_t i = 0; i < out->size(); ++i)
      (*out)[i].value += parts[k]->points[i].value;
  return true;
}

const Series* find_series(const std::vector<Series>& all,
                          const std::string& key) {
  for (const Series& s : all)
    if (s.key() == key) return &s;
  return nullptr;
}

// Every derivation skips when its output key already exists, so merging a
// CSV that was itself written post-merge (zmail_top's input) is a no-op.
void derive_sum(std::vector<Series>& all, const char* scope,
                const char* suffix, Kind kind, const std::string& out_name) {
  if (find_series(all, std::string(scope) + "." + out_name)) return;
  const auto parts = per_isp(all, scope, suffix);
  std::vector<Point> pts;
  if (!sum_points(parts, &pts)) return;
  all.push_back(Series{scope, out_name, kind, false, std::move(pts)});
}

void canonical_sort(std::vector<Series>& all) {
  std::sort(all.begin(), all.end(), [](const Series& a, const Series& b) {
    if (a.engine != b.engine) return !a.engine;
    if (a.scope != b.scope) return a.scope < b.scope;
    return a.name < b.name;
  });
}

void append_csv_double(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

}  // namespace

std::vector<Series> merge_collected(std::vector<Series> all,
                                    const DeriveSpec& spec) {
  canonical_sort(all);

  // Mail-flow totals (point-wise sums of integer window deltas: exact and
  // grouping-independent).
  derive_sum(all, "core", "delivered", Kind::kRate, "total.delivered");
  derive_sum(all, "core", "blocked", Kind::kRate, "total.blocked");
  derive_sum(all, "core", "refused", Kind::kRate, "total.refused");
  derive_sum(all, "econ", "epennies_held", Kind::kGauge,
             "total.epennies_held");

  // Conservation gap: supply + endowment - holdings.  Positive = e-pennies
  // riding in-flight mail or unsettled trades; a climbing floor is a leak.
  if (spec.endowment_epennies >= 0.0 &&
      !find_series(all, "econ.total.conservation_gap")) {
    const Series* held = find_series(all, "econ.total.epennies_held");
    const Series* supply = find_series(all, "econ.bank.epenny_supply");
    if (held && supply && same_grid(*held, *supply)) {
      std::vector<Point> pts = supply->points;
      for (std::size_t i = 0; i < pts.size(); ++i)
        pts[i].value += spec.endowment_epennies - held->points[i].value;
      all.push_back(Series{"econ", "total.conservation_gap", Kind::kGauge,
                           false, std::move(pts)});
    }
  }

  // Market price: mean of the per-ISP effective stamp prices (fixed
  // divisor, canonical order — deterministic).
  if (!find_series(all, "econ.market.stamp_price_micros")) {
    const auto parts = per_isp(all, "econ", "stamp_price_micros");
    std::vector<Point> pts;
    if (sum_points(parts, &pts)) {
      const double n = static_cast<double>(parts.size());
      for (Point& p : pts) p.value /= n;
      all.push_back(Series{"econ", "market.stamp_price_micros", Kind::kGauge,
                           false, std::move(pts)});
    }
  }

  canonical_sort(all);
  return all;
}

std::vector<Series> merge_series(const TelemetryRegistry& registry,
                                 const DeriveSpec& spec) {
  return merge_collected(registry.collect(), spec);
}

json::Value timeseries_json(const std::vector<Series>& series, bool engine) {
  json::Value j = json::Value::object();
  for (const Series& s : series) {
    if (s.engine != engine) continue;
    json::Value e = json::Value::object();
    e["kind"] = kind_name(s.kind);
    json::Value& pts = e["points"];
    pts = json::Value::array();
    for (const Point& p : s.points) {
      json::Value row = json::Value::array();
      row.push_back(p.t_us);
      if (s.kind == Kind::kHistogram) {
        row.push_back(p.count);
        row.push_back(p.sum);
        row.push_back(p.min);
        row.push_back(p.max);
        row.push_back(p.p50);
        row.push_back(p.p99);
      } else {
        row.push_back(p.value);
      }
      pts.push_back(std::move(row));
    }
    j[s.key()] = std::move(e);
  }
  return j;
}

std::string csv_string(const std::vector<Series>& series) {
  std::string out =
      "section,scope,series,kind,t_us,value,count,sum,min,max,p50,p99\n";
  for (const Series& s : series) {
    for (const Point& p : s.points) {
      out += s.engine ? "engine" : "world";
      out += ',';
      out += s.scope;
      out += ',';
      out += s.name;
      out += ',';
      out += kind_name(s.kind);
      out += ',';
      out += std::to_string(p.t_us);
      out += ',';
      append_csv_double(out, p.value);
      out += ',';
      out += std::to_string(p.count);
      out += ',';
      append_csv_double(out, p.sum);
      out += ',';
      append_csv_double(out, p.min);
      out += ',';
      append_csv_double(out, p.max);
      out += ',';
      append_csv_double(out, p.p50);
      out += ',';
      append_csv_double(out, p.p99);
      out += '\n';
    }
  }
  return out;
}

bool write_csv(const std::string& path, const std::vector<Series>& series,
               std::string* error) {
  std::ofstream f(path, std::ios::trunc);
  if (!f) {
    if (error) *error = "cannot open " + path;
    return false;
  }
  f << csv_string(series);
  f.flush();
  if (!f) {
    if (error) *error = "write failed: " + path;
    return false;
  }
  return true;
}

bool load_csv(const std::string& path, std::vector<Series>* out,
              std::string* error) {
  std::ifstream f(path);
  if (!f) {
    if (error) *error = "cannot open " + path;
    return false;
  }
  out->clear();
  std::string line;
  if (!std::getline(f, line) ||
      line.compare(0, 7, "section") != 0) {
    if (error) *error = "not a zmail telemetry CSV: " + path;
    return false;
  }
  std::map<std::string, std::size_t> index;  // key -> out slot
  std::size_t lineno = 1;
  while (std::getline(f, line)) {
    ++lineno;
    if (line.empty()) continue;
    std::vector<std::string> cols;
    std::stringstream ss(line);
    std::string col;
    while (std::getline(ss, col, ',')) cols.push_back(col);
    if (cols.size() != 12) {
      if (error)
        *error = path + ":" + std::to_string(lineno) + ": expected 12 columns";
      return false;
    }
    Kind kind = Kind::kGauge;
    if (cols[3] == "rate") kind = Kind::kRate;
    else if (cols[3] == "histogram") kind = Kind::kHistogram;
    else if (cols[3] != "gauge") {
      if (error)
        *error = path + ":" + std::to_string(lineno) + ": bad kind " + cols[3];
      return false;
    }
    const std::string key = cols[0] + "/" + cols[1] + "." + cols[2];
    auto [it, inserted] = index.emplace(key, out->size());
    if (inserted)
      out->push_back(Series{cols[1], cols[2], kind, cols[0] == "engine", {}});
    Point p;
    p.t_us = std::strtoll(cols[4].c_str(), nullptr, 10);
    p.value = std::strtod(cols[5].c_str(), nullptr);
    p.count = std::strtoull(cols[6].c_str(), nullptr, 10);
    p.sum = std::strtod(cols[7].c_str(), nullptr);
    p.min = std::strtod(cols[8].c_str(), nullptr);
    p.max = std::strtod(cols[9].c_str(), nullptr);
    p.p50 = std::strtod(cols[10].c_str(), nullptr);
    p.p99 = std::strtod(cols[11].c_str(), nullptr);
    (*out)[it->second].points.push_back(p);
  }
  return true;
}

std::string prometheus_text(const std::vector<Series>& series) {
  std::string out;
  std::set<std::string> typed;
  for (const Series& s : series) {
    if (s.points.empty()) continue;
    // "isp3.delivered" -> metric zmail_core_delivered{entity="isp3"}.
    std::string entity, signal = s.name;
    const std::size_t dot = s.name.find('.');
    if (dot != std::string::npos) {
      entity = s.name.substr(0, dot);
      signal = s.name.substr(dot + 1);
    }
    std::string metric = "zmail_" + s.scope + "_" + signal;
    for (char& c : metric)
      if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_'))
        c = '_';
    if (typed.insert(metric).second)
      out += "# TYPE " + metric + " gauge\n";
    std::string labels;
    if (!entity.empty()) labels = "entity=\"" + entity + "\"";
    if (s.engine) labels += (labels.empty() ? "" : ",") +
                            std::string("section=\"engine\"");
    const Point& p = s.points.back();
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g",
                  s.kind == Kind::kHistogram ? p.p99 : p.value);
    out += metric;
    if (!labels.empty()) out += "{" + labels + "}";
    out += ' ';
    out += buf;
    out += ' ';
    out += std::to_string(p.t_us / 1000);  // prom timestamps are millis
    out += '\n';
  }
  return out;
}

bool write_prometheus(const std::string& path,
                      const std::vector<Series>& series, std::string* error) {
  std::ofstream f(path, std::ios::trunc);
  if (!f) {
    if (error) *error = "cannot open " + path;
    return false;
  }
  f << prometheus_text(series);
  f.flush();
  if (!f) {
    if (error) *error = "write failed: " + path;
    return false;
  }
  return true;
}

}  // namespace zmail::telemetry
