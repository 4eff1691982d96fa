// Unit tests for zmail::telemetry primitives: point merging, downsampling
// rings, log-bucket histograms, probe hysteresis and wildcard matching, the
// timeseries JSON round trip, and merge/derive idempotency — plus the
// end-to-end check that enabling telemetry on a ZmailSystem does not change
// the world.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/obs.hpp"
#include "core/system.hpp"
#include "net/address.hpp"
#include "telemetry/export.hpp"
#include "telemetry/probes.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/series.hpp"

namespace zmail::telemetry {
namespace {

Point pt(std::int64_t t_us, double value) {
  Point p;
  p.t_us = t_us;
  p.value = value;
  return p;
}

Series gauge_series(std::string scope, std::string name,
                    const std::vector<double>& values,
                    std::int64_t step_us = 60'000'000) {
  Series s;
  s.scope = std::move(scope);
  s.name = std::move(name);
  s.kind = Kind::kGauge;
  for (std::size_t i = 0; i < values.size(); ++i)
    s.points.push_back(pt(static_cast<std::int64_t>(i + 1) * step_us,
                          values[i]));
  return s;
}

TEST(MergePoints, GaugeKeepsLaterValue) {
  const Point m = merge_points(Kind::kGauge, pt(60, 5.0), pt(120, 7.0));
  EXPECT_EQ(m.t_us, 120);
  EXPECT_DOUBLE_EQ(m.value, 7.0);
}

TEST(MergePoints, RateSumsWindowDeltas) {
  const Point m = merge_points(Kind::kRate, pt(60, 5.0), pt(120, 7.0));
  EXPECT_EQ(m.t_us, 120);
  EXPECT_DOUBLE_EQ(m.value, 12.0);
}

TEST(MergePoints, HistogramCombinesCountWeighted) {
  Point a = pt(60, 0.0);
  a.count = 1;
  a.sum = 100.0;
  a.min = a.max = 100.0;
  a.p50 = a.p99 = 96.0;
  Point b = pt(120, 0.0);
  b.count = 3;
  b.sum = 900.0;
  b.min = 200.0;
  b.max = 400.0;
  b.p50 = b.p99 = 384.0;
  const Point m = merge_points(Kind::kHistogram, a, b);
  EXPECT_EQ(m.count, 4u);
  EXPECT_DOUBLE_EQ(m.sum, 1000.0);
  EXPECT_DOUBLE_EQ(m.min, 100.0);
  EXPECT_DOUBLE_EQ(m.max, 400.0);
  EXPECT_DOUBLE_EQ(m.p50, (96.0 * 1 + 384.0 * 3) / 4.0);
}

TEST(DownsamplingRing, HalvesResolutionAtCapacity) {
  DownsamplingRing r(Kind::kRate, 4);
  for (int i = 1; i <= 4; ++i) r.append(pt(i * 60, 1.0));
  // Hitting capacity compacts immediately: 4 raw points -> 2 level-1 pairs.
  EXPECT_EQ(r.level(), 1u);
  ASSERT_EQ(r.points().size(), 2u);
  EXPECT_DOUBLE_EQ(r.points()[0].value, 2.0);
  EXPECT_EQ(r.points()[0].t_us, 120);
  // At level 1 each stored point folds two appends; the first append of a
  // pair stays in the accumulator.
  r.append(pt(300, 1.0));
  EXPECT_EQ(r.points().size(), 2u);
  r.append(pt(360, 1.0));
  ASSERT_EQ(r.points().size(), 3u);
  EXPECT_DOUBLE_EQ(r.points()[2].value, 2.0);
  EXPECT_EQ(r.points()[2].t_us, 360);
}

TEST(DownsamplingRing, RateMassPreservedThroughManyLevels) {
  DownsamplingRing r(Kind::kRate, 8);
  const int n = 1000;
  for (int i = 1; i <= n; ++i) r.append(pt(i * 60, 1.0));
  EXPECT_LE(r.points().size(), 8u);
  EXPECT_EQ(r.appended(), static_cast<std::uint64_t>(n));
  double stored = 0.0;
  for (const Point& p : r.points()) stored += p.value;
  // Everything not yet stored sits in the partial fold of the next point,
  // which holds fewer than 2^level samples.
  const double pending = static_cast<double>(n) - stored;
  EXPECT_GE(pending, 0.0);
  EXPECT_LT(pending, static_cast<double>(1u << r.level()));
}

// A compacted registry still exports every tick: the partial fold of the
// current window rides along as the last point of each series.
TEST(TelemetryRegistry, CompactedSeriesKeepTheirTrailingTicks) {
  TelemetryRegistry reg;
  double counter = 0.0, level = 0.0;
  reg.add_rate("core", "x.count", [&] { return counter; });
  reg.add_gauge("core", "x.level", [&] { return level; });
  const std::size_t hist = reg.add_histogram("core", "x.latency_us");
  constexpr int kTicks = 733;  // past 512: the rings sit at level 1
  static_assert(kTicks > static_cast<int>(TelemetryRegistry::kRingCapacity));
  for (int i = 1; i <= kTicks; ++i) {
    counter += static_cast<double>(i % 5);
    level = static_cast<double>(i);
    reg.observe(hist, static_cast<std::uint64_t>(i));
    reg.sample(static_cast<std::int64_t>(i) * 60'000'000);
  }
  std::map<std::string, Series> by_key;
  for (Series& s : reg.collect()) by_key[s.key()] = std::move(s);
  ASSERT_EQ(by_key.size(), 3u);
  constexpr std::int64_t kLast = std::int64_t{kTicks} * 60'000'000;

  double sum = 0.0;
  for (const Point& p : by_key["core.x.count"].points) sum += p.value;
  EXPECT_EQ(sum, counter);
  EXPECT_EQ(by_key["core.x.count"].points.back().t_us, kLast);

  EXPECT_EQ(by_key["core.x.level"].points.back().value, level);
  EXPECT_EQ(by_key["core.x.level"].points.back().t_us, kLast);

  std::uint64_t observed = 0;
  for (const Point& p : by_key["core.x.latency_us"].points) observed += p.count;
  EXPECT_EQ(observed, static_cast<std::uint64_t>(kTicks));
  EXPECT_EQ(by_key["core.x.latency_us"].points.back().t_us, kLast);
}

TEST(DownsamplingRing, ExportedPointsAddThePartialFold) {
  DownsamplingRing r(Kind::kRate, 4);
  for (int i = 1; i <= 5; ++i) r.append(pt(i * 60, 1.0));
  ASSERT_EQ(r.points().size(), 2u);  // the fifth sample is still folding
  const std::vector<Point> out = r.exported_points();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[2], pt(300, 1.0));
  r.append(pt(360, 1.0));  // completes the window: nothing pending
  EXPECT_EQ(r.exported_points(), r.points());
}

TEST(DownsamplingRing, DeterministicFunctionOfAppendStream) {
  DownsamplingRing a(Kind::kGauge, 16), b(Kind::kGauge, 16);
  for (int i = 1; i <= 777; ++i) {
    const Point p = pt(i * 60, static_cast<double>(i % 13));
    a.append(p);
    b.append(p);
  }
  EXPECT_EQ(a.points(), b.points());
  EXPECT_EQ(a.level(), b.level());
}

TEST(LogHistogram, FlushSummarizesAndResets) {
  LogHistogram h;
  h.record(100);   // bucket 6  [64, 128)
  h.record(200);   // bucket 7  [128, 256)
  h.record(1000);  // bucket 9  [512, 1024)
  ASSERT_EQ(h.count(), 3u);
  const Point p = h.flush(60'000'000);
  EXPECT_EQ(p.t_us, 60'000'000);
  EXPECT_EQ(p.count, 3u);
  EXPECT_DOUBLE_EQ(p.sum, 1300.0);
  EXPECT_DOUBLE_EQ(p.min, 100.0);
  EXPECT_DOUBLE_EQ(p.max, 1000.0);
  // Percentiles land on the geometric bucket midpoint 1.5 * 2^b.
  EXPECT_DOUBLE_EQ(p.p50, 1.5 * 128.0);
  EXPECT_DOUBLE_EQ(p.p99, 1.5 * 512.0);
  EXPECT_DOUBLE_EQ(p.value, p.p99);
  EXPECT_TRUE(h.empty());
}

TEST(Probes, FireAndClearHysteresis) {
  // fire_for = 2: one breach is noise, two consecutive fire; clear_for = 2.
  ProbeRule rule{"wal", "store.bank.wal_backlog_records", Agg::kLast,
                 Cmp::kGt, 400.0, 1, 2, 2};
  const Series s = gauge_series("store", "bank.wal_backlog_records",
                                {100, 500, 500, 100, 100, 100});
  const ProbeStatus st = evaluate_rule(rule, s);
  EXPECT_TRUE(st.evaluated);
  EXPECT_EQ(st.evaluations, 6u);
  EXPECT_EQ(st.breaches, 2u);
  ASSERT_EQ(st.transitions.size(), 2u);
  EXPECT_TRUE(st.transitions[0].fired);
  EXPECT_EQ(st.transitions[0].t_us, 3 * 60'000'000);   // second breach
  EXPECT_FALSE(st.transitions[1].fired);
  EXPECT_EQ(st.transitions[1].t_us, 5 * 60'000'000);   // second OK
  EXPECT_FALSE(st.firing);
}

TEST(Probes, SingleBreachBelowFireForNeverFires) {
  ProbeRule rule{"wal", "store.bank.wal_backlog_records", Agg::kLast,
                 Cmp::kGt, 400.0, 1, 2, 2};
  const Series s = gauge_series("store", "bank.wal_backlog_records",
                                {100, 500, 100, 500, 100});
  const ProbeStatus st = evaluate_rule(rule, s);
  EXPECT_EQ(st.breaches, 2u);
  EXPECT_TRUE(st.transitions.empty());
  EXPECT_FALSE(st.firing);
}

TEST(Probes, StillFiringWithoutEnoughClears) {
  ProbeRule rule{"wal", "store.bank.wal_backlog_records", Agg::kLast,
                 Cmp::kGt, 400.0, 1, 2, 2};
  const Series s = gauge_series("store", "bank.wal_backlog_records",
                                {500, 500, 100});  // one OK < clear_for
  const ProbeStatus st = evaluate_rule(rule, s);
  ASSERT_EQ(st.transitions.size(), 1u);
  EXPECT_TRUE(st.firing);
}

TEST(Probes, WindowClampsAtSeriesHead) {
  // Mean over a 3-point window; the first evaluations see shorter windows.
  ProbeRule rule{"m", "econ.isp0.x", Agg::kMean, Cmp::kGt, 100.0, 3, 1, 1};
  const Series s = gauge_series("econ", "isp0.x", {300, 0, 0, 0});
  const ProbeStatus st = evaluate_rule(rule, s);
  // Evaluations: mean(300)=300 breach; mean(300,0)=150 breach;
  // mean(300,0,0)=100 ok; mean(0,0,0)=0 ok.
  EXPECT_EQ(st.evaluations, 4u);
  EXPECT_EQ(st.breaches, 2u);
  ASSERT_EQ(st.transitions.size(), 2u);
}

TEST(Probes, SlopeNeedsTwoPoints) {
  ProbeRule rule{"d", "econ.total.conservation_gap", Agg::kSlopePerSec,
                 Cmp::kGt, 0.01, 10, 1, 1};
  const Series one = gauge_series("econ", "total.conservation_gap", {5});
  EXPECT_TRUE(evaluate_rule(rule, one).transitions.empty());
  // 60 e-pennies per minute = 1/s, way over the 0.01/s drift threshold.
  const Series two =
      gauge_series("econ", "total.conservation_gap", {0, 60, 120});
  const ProbeStatus st = evaluate_rule(rule, two);
  EXPECT_EQ(st.times_fired(), 1u);
  EXPECT_TRUE(st.firing);
}

TEST(Probes, WildcardMatchesEveryConcreteSeries) {
  ProbeEngine engine;
  engine.add_rule(ProbeRule{"wal", "store.*.wal_backlog_records", Agg::kLast,
                            Cmp::kGt, 400.0, 1, 1, 1});
  std::vector<Series> series;
  series.push_back(gauge_series("store", "isp0.wal_backlog_records", {500}));
  series.push_back(gauge_series("store", "isp1.wal_backlog_records", {100}));
  series.push_back(gauge_series("store", "isp0.checkpoints", {1}));
  const ProbeReport r = engine.evaluate(series, /*log_transitions=*/false);
  ASSERT_EQ(r.probes.size(), 2u);  // one status per matching series
  EXPECT_EQ(r.probes[0].rule.series, "store.isp0.wal_backlog_records");
  EXPECT_TRUE(r.probes[0].firing);
  EXPECT_EQ(r.probes[1].rule.series, "store.isp1.wal_backlog_records");
  EXPECT_FALSE(r.probes[1].firing);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.firing_count(), 1u);
}

TEST(Probes, UnmatchedRuleIsNoDataNotFailure) {
  ProbeEngine engine;
  engine.add_rule(ProbeRule{"lat", "core.*.delivery_latency_us", Agg::kMax,
                            Cmp::kGt, 9e8, 5, 1, 1});
  const ProbeReport r = engine.evaluate({}, false);
  ASSERT_EQ(r.probes.size(), 1u);
  EXPECT_FALSE(r.probes[0].evaluated);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.evaluated_count(), 0u);
}

// A small registry with one gauge, one rate, and one histogram channel,
// sampled over a few windows.
std::vector<Series> sampled_registry_series() {
  TelemetryConfig cfg;
  cfg.enabled = true;
  TelemetryRegistry reg(cfg);
  double level = 10.0;
  double counter = 0.0;
  reg.add_gauge("econ", "isp0.stamp_price_micros", [&] { return level; });
  reg.add_rate("core", "isp_totals.emails_delivered", [&] { return counter; });
  const std::size_t ch = reg.add_histogram("core", "isp0.delivery_latency_us");
  for (int w = 1; w <= 5; ++w) {
    level += 1.0;
    counter += static_cast<double>(w);
    reg.observe(ch, static_cast<std::uint64_t>(100 * w));
    reg.sample(static_cast<sim::SimTime>(w) * 60'000'000);
  }
  return reg.collect();
}

TEST(Export, TimeseriesJsonRoundTripsExactly) {
  std::vector<Series> before = sampled_registry_series();
  Series engine = gauge_series("sim", "event_backlog", {3.0, 1e300});
  engine.engine = true;
  before.push_back(engine);
  for (Series& s : before) {
    if (s.kind == Kind::kGauge) s.points.front().value = 0.1 + 0.2;
    if (s.kind != Kind::kHistogram) continue;
    // A downsampled point, and a count past 2^53 (exact only as an integer).
    s.points.push_back(merge_points(Kind::kHistogram, s.points[0],
                                    s.points[1]));
    s.points.back().count = (std::uint64_t{1} << 53) + 1;
  }
  // The file's order: world series first, then by key.
  std::sort(before.begin(), before.end(), [](const Series& a, const Series& b) {
    return std::make_pair(a.engine, a.key()) < std::make_pair(b.engine, b.key());
  });

  json::Value snap = json::Value::object();
  snap["timeseries"] = timeseries_json(before, false);
  snap["timeseries_engine"] = timeseries_json(before, true);
  json::Value file = json::Value::object();
  file["schema"] = "zmail-obs-v3";
  file["scenario"] = snap;
  for (const json::Value& doc : {snap, file}) {
    const auto parsed = json::parse(doc.dump());
    ASSERT_TRUE(parsed.has_value());
    std::vector<Series> after;
    std::string err;
    ASSERT_TRUE(series_from_json(*parsed, &after, &err)) << err;
    EXPECT_EQ(after, before);
  }

  std::vector<Series> none;
  std::string err;
  EXPECT_FALSE(series_from_json(json::Value::object(), &none, &err));
  EXPECT_NE(err.find("no timeseries"), std::string::npos);
}

TEST(Export, MergeSeriesDerivesHeldGapAndPrice) {
  TelemetryConfig cfg;
  cfg.enabled = true;
  TelemetryRegistry reg(cfg);
  double h0 = 50, h1 = 70, p0 = 9000, p1 = 11000;
  reg.add_gauge("econ", "isp0.epennies_held", [&] { return h0; });
  reg.add_gauge("econ", "isp1.epennies_held", [&] { return h1; });
  reg.add_gauge("econ", "isp0.stamp_price_micros", [&] { return p0; });
  reg.add_gauge("econ", "isp1.stamp_price_micros", [&] { return p1; });
  reg.add_gauge("econ", "bank.epenny_supply", [] { return 100.0; });
  for (int w = 1; w <= 3; ++w) {
    h0 += 1;
    p1 += 100;
    reg.sample(static_cast<sim::SimTime>(w) * 60'000'000);
  }
  DeriveSpec spec;
  spec.endowment_epennies = 200.0;
  const std::vector<Series> merged = merge_series(reg, spec);
  std::map<std::string, const Series*> by_key;
  for (const Series& s : merged) by_key[s.key()] = &s;
  EXPECT_EQ(merged.size(), 8u);  // five registered + three derived

  // Each derive is the expected point-wise combination at every window.
  const auto values = [&](const std::string& key) {
    std::vector<double> v;
    if (by_key.count(key))
      for (const Point& p : by_key[key]->points) v.push_back(p.value);
    return v;
  };
  EXPECT_EQ(values("econ.total.epennies_held"),
            (std::vector<double>{121, 122, 123}));
  // gap = supply + endowment - held.
  EXPECT_EQ(values("econ.total.conservation_gap"),
            (std::vector<double>{179, 178, 177}));
  EXPECT_EQ(values("econ.market.stamp_price_micros"),
            (std::vector<double>{10050, 10100, 10150}));

  // Without an endowment there is no gap series.
  for (const Series& s : merge_series(reg))
    EXPECT_NE(s.key(), "econ.total.conservation_gap");
}

TEST(Export, TimeseriesJsonSplitsEngineSeries) {
  TelemetryConfig cfg;
  cfg.enabled = true;
  TelemetryRegistry reg(cfg);
  reg.add_gauge("econ", "isp0.till_micros", [] { return 1.0; });
  reg.add_engine_gauge("sim", "event_backlog", [] { return 7.0; });
  reg.sample(60'000'000);
  const std::vector<Series> all = reg.collect();
  const json::Value det = timeseries_json(all, false);
  const json::Value eng = timeseries_json(all, true);
  EXPECT_NE(det.find("econ.isp0.till_micros"), nullptr);
  EXPECT_EQ(det.find("sim.event_backlog"), nullptr);
  EXPECT_NE(eng.find("sim.event_backlog"), nullptr);
  EXPECT_EQ(eng.find("econ.isp0.till_micros"), nullptr);
}

}  // namespace
}  // namespace zmail::telemetry

namespace zmail::core {
namespace {

ZmailParams world_params() {
  ZmailParams p;
  p.n_isps = 8;
  p.users_per_isp = 3;
  p.initial_user_balance = 200;
  p.default_daily_limit = 1'000;
  p.initial_avail = 300;
  p.minavail = 100;
  p.maxavail = 600;
  p.record_inboxes = false;
  return p;
}

// One fixed verb stream: the draws depend only on the seed, never on world
// state, so every run issues the same verbs.
void drive_mixed_traffic(ZmailSystem& w, std::uint64_t seed, int rounds) {
  Rng rng(seed);
  const std::size_t n = w.params().n_isps;
  const std::size_t u = w.params().users_per_isp;
  for (int i = 0; i < rounds; ++i) {
    const std::size_t src = rng.next_below(n);
    const std::size_t dst = (src + 1 + rng.next_below(n - 1)) % n;
    w.send_email(net::make_user_address(src, rng.next_below(u)),
                 net::make_user_address(dst, rng.next_below(u)), "t",
                 std::string("b").append(std::to_string(i)));
    if (i % 7 == 3)
      w.buy_epennies(net::make_user_address(src, 0),
                     static_cast<EPenny>(1 + rng.next_below(5)));
    if (i % 11 == 6)
      w.sell_epennies(net::make_user_address(dst, 0),
                      static_cast<EPenny>(1 + rng.next_below(3)));
    w.run_for(sim::kMinute);
  }
  w.run_for(sim::kHour);
}

TEST(TelemetryWorldTest, EnablingTelemetryDoesNotChangeTheWorld) {
  // The zero-cost contract's other half: the sampling tick is read-only,
  // so an instrumented run's world state must match an uninstrumented one.
  ZmailSystem off(world_params(), 818);
  drive_mixed_traffic(off, 819, 40);

  ZmailSystem on(world_params(), 818);
  telemetry::TelemetryConfig cfg;
  cfg.enabled = true;
  cfg.sample_period = sim::kMinute;
  on.enable_telemetry(cfg);
  drive_mixed_traffic(on, 819, 40);

  // Every section but the telemetry ones (only `on` has a registry) and
  // the engine-side rebase count (the sampling tick schedules events).
  auto world_sections = [](const json::Value& snap) {
    std::vector<std::pair<std::string, std::string>> out;
    for (const auto& [key, value] : snap.items())
      if (key != "timeseries" && key != "timeseries_engine" &&
          key != "probes" && key != "calendar_rebase_count")
        out.emplace_back(key, value.dump());
    return out;
  };
  const json::Value on_snap = obs::snapshot(on);
  ASSERT_NE(on_snap.find("timeseries"), nullptr);
  EXPECT_EQ(world_sections(obs::snapshot(off)), world_sections(on_snap));
}

TEST(TelemetryWorldTest, CounterRatesSumToTheSnapshotCounters) {
  // Every fields() counter has one fleet-wide rate series named by its
  // obs-snapshot path; the window deltas of a run add up to the counter.
  ZmailParams p = world_params();
  p.n_isps = 3;
  p.compliant = {true, true, false};
  p.n_banks = 2;
  ZmailSystem w(p, 707);
  telemetry::TelemetryConfig cfg;
  cfg.enabled = true;
  cfg.sample_period = sim::kMinute;
  w.enable_telemetry(cfg);
  drive_mixed_traffic(w, 708, 30);
  w.start_snapshot();
  w.run_for(sim::kHour);
  w.telemetry()->sample(w.now());

  std::map<std::string, double> sums;
  for (const telemetry::Series& s : w.telemetry()->collect())
    for (const telemetry::Point& pt : s.points) sums[s.key()] += pt.value;
  const auto expect_sums = [&](const char* prefix, const auto& counters) {
    using M = std::decay_t<decltype(counters)>;
    M::fields([&](const char* name, auto f) {
      const std::string key = std::string("core.") + prefix + "." + name;
      ASSERT_EQ(sums.count(key), 1u) << key;
      EXPECT_EQ(sums[key], static_cast<double>(counters.*f)) << key;
    });
  };
  const IspMetrics isp = w.total_isp_metrics();
  const BankMetrics bank = w.bank().metrics();
  const LegacyHostStats legacy = w.total_legacy_stats();
  expect_sums("isp_totals", isp);
  expect_sums("bank", bank);
  expect_sums("legacy_totals", legacy);

  // The run moved every kind of counter the check leans on.
  EXPECT_GT(isp.emails_delivered, 0u);
  EXPECT_GT(bank.snapshot_rounds, 0u);
  EXPECT_GT(bank.interbank_messages, 0u);
  EXPECT_GT(legacy.emails_received, 0u);
}

}  // namespace
}  // namespace zmail::core
