#include "telemetry/export.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <set>

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

void canonical_sort(std::vector<Series>& all) {
  std::sort(all.begin(), all.end(), [](const Series& a, const Series& b) {
    if (a.engine != b.engine) return !a.engine;
    if (a.scope != b.scope) return a.scope < b.scope;
    return a.name < b.name;
  });
}

}  // namespace

std::vector<Series> merge_series(const TelemetryRegistry& registry,
                                 const DeriveSpec& spec) {
  std::vector<Series> all = registry.collect();
  canonical_sort(all);

  // Fleet holdings (point-wise sum of integer gauges: exact and
  // grouping-independent).
  {
    std::vector<Point> pts;
    if (sum_points(per_isp(all, "econ", "epennies_held"), &pts))
      all.push_back(Series{"econ", "total.epennies_held", Kind::kGauge, false,
                           std::move(pts)});
  }

  // Conservation gap: supply + endowment - holdings.  Positive = e-pennies
  // riding in-flight mail or unsettled trades; a climbing floor is a leak.
  if (spec.endowment_epennies >= 0.0) {
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
  {
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

namespace {

// Reads one timeseries_json section back into `out`.
bool append_section(const json::Value& section, bool engine,
                    std::vector<Series>* out, std::string* error) {
  const auto bad = [&](const std::string& key, const char* what) {
    if (error) *error = key + ": " + what;
    return false;
  };
  if (section.kind() != json::Value::Kind::kObject)
    return bad(engine ? "timeseries_engine" : "timeseries", "not an object");
  for (const auto& [key, entry] : section.items()) {
    const std::size_t dot = key.find('.');
    const json::Value* kind = entry.find("kind");
    const json::Value* points = entry.find("points");
    if (dot == std::string::npos) return bad(key, "key is not scope.name");
    if (!kind || kind->kind() != json::Value::Kind::kString ||
        !points || points->kind() != json::Value::Kind::kArray)
      return bad(key, "needs a kind string and a points array");
    Series s{key.substr(0, dot), key.substr(dot + 1), Kind::kGauge, engine,
             {}};
    if (kind->as_string() == "rate") s.kind = Kind::kRate;
    else if (kind->as_string() == "histogram") s.kind = Kind::kHistogram;
    else if (kind->as_string() != "gauge") return bad(key, "unknown kind");
    const std::size_t width = s.kind == Kind::kHistogram ? 7 : 2;
    s.points.reserve(points->size());
    for (std::size_t i = 0; i < points->size(); ++i) {
      const json::Value& row = points->at(i);
      if (row.kind() != json::Value::Kind::kArray || row.size() != width)
        return bad(key, "point row has the wrong length");
      for (std::size_t c = 0; c < width; ++c)
        if (!row.at(c).is_number() && !(c > 0 && row.at(c).is_null()))
          return bad(key, "point field is not a number");
      // The writer encodes a non-finite double as null.
      const auto num = [&](std::size_t c) {
        return row.at(c).is_null() ? std::numeric_limits<double>::quiet_NaN()
                                   : row.at(c).as_double();
      };
      Point p;
      p.t_us = row.at(0).as_int64();
      if (s.kind == Kind::kHistogram) {
        p.count = row.at(1).is_null() ? 0 : row.at(1).as_uint64();
        p.sum = num(2);
        p.min = num(3);
        p.max = num(4);
        p.p50 = num(5);
        p.p99 = num(6);
        p.value = p.p99;
      } else {
        p.value = num(1);
      }
      s.points.push_back(p);
    }
    out->push_back(std::move(s));
  }
  return true;
}

}  // namespace

bool series_from_json(const json::Value& doc, std::vector<Series>* out,
                      std::string* error) {
  out->clear();
  // An obs-v3 file holds the snapshot under "scenario".
  const json::Value* snap = doc.find("scenario");
  if (!snap || doc.find("timeseries")) snap = &doc;
  const json::Value* world = snap->find("timeseries");
  if (!world) {
    if (error) *error = "no timeseries section (was telemetry on?)";
    return false;
  }
  if (!append_section(*world, false, out, error)) return false;
  const json::Value* engine = snap->find("timeseries_engine");
  return !engine || append_section(*engine, true, out, error);
}

std::string prometheus_text(const std::vector<Series>& series) {
  std::string out;
  std::set<std::string> typed;
  for (const Series& s : series) {
    if (s.points.empty()) continue;
    // "isp3.till_micros" -> metric zmail_econ_till_micros{entity="isp3"}.
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
