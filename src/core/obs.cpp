#include "core/obs.hpp"

#include "core/isp.hpp"
#include "telemetry/export.hpp"
#include "telemetry/probes.hpp"
#include "trace/analyze.hpp"
#include "trace/trace.hpp"

namespace zmail::obs {

namespace {

// Every counter fields() lists, keyed by its name.
template <class M>
json::Value counters_to_json(const M& m) {
  json::Value j = json::Value::object();
  M::fields([&](const char* name, auto p) { j[name] = m.*p; });
  return j;
}

// The telemetry sections: merged deterministic series, engine series,
// and the default probe rules evaluated over the run (without re-logging
// transitions the live run already logged).
void append_timeseries(json::Value& j, const core::ZmailSystem& sys) {
  const telemetry::TelemetryRegistry& registry = *sys.telemetry();
  telemetry::DeriveSpec spec;
  spec.endowment_epennies = static_cast<double>(sys.initial_endowment());
  const std::vector<telemetry::Series> merged =
      telemetry::merge_series(registry, spec);
  j["timeseries"] = telemetry::timeseries_json(merged, /*engine=*/false);
  j["timeseries_engine"] = telemetry::timeseries_json(merged, /*engine=*/true);
  telemetry::ProbeEngine probes;
  for (telemetry::ProbeRule& r : telemetry::default_rules())
    probes.add_rule(std::move(r));
  j["probes"] =
      telemetry::to_json(probes.evaluate(merged, /*log_transitions=*/false));
}

}  // namespace

json::Value to_json(const core::IspMetrics& m) { return counters_to_json(m); }

json::Value to_json(const core::BankMetrics& m) { return counters_to_json(m); }

json::Value to_json(const core::LegacyHostStats& s) {
  return counters_to_json(s);
}

json::Value snapshot(const core::ZmailSystem& sys) {
  const core::ZmailParams& p = sys.params();
  json::Value j = json::Value::object();
  j["sim_time"] = static_cast<std::int64_t>(sys.now());
  j["n_isps"] = static_cast<std::uint64_t>(p.n_isps);
  j["users_per_isp"] = static_cast<std::uint64_t>(p.users_per_isp);
  j["compliant_isps"] = static_cast<std::uint64_t>(p.compliant_count());

  j["isp_totals"] = to_json(sys.total_isp_metrics());
  j["legacy_totals"] = to_json(sys.total_legacy_stats());
  const core::BankFederation& bank = sys.bank();
  j["bank"] = to_json(bank.metrics());
  if (bank.bank_count() > 1) {
    json::Value& f = j["federation"];
    f["n_banks"] = static_cast<std::uint64_t>(bank.bank_count());
    json::Value& banks = f["per_bank"];
    banks = json::Value::array();
    for (std::size_t b = 0; b < bank.bank_count(); ++b) {
      json::Value e = json::Value::object();
      e["bank"] = static_cast<std::uint64_t>(b);
      e["seq"] = bank.seq(b);
      e["round_open"] = bank.round_open(b);
      e["clearing_position_micros"] =
          static_cast<std::int64_t>(bank.clearing_position(b).micros());
      banks.push_back(std::move(e));
    }
  }
  j["delivery_latency_seconds"] = to_json(sys.delivery_latency());

  json::Value& net = j["network"];
  net["datagrams_sent"] = sys.network().datagrams_sent();
  net["bytes_sent"] = sys.network().bytes_sent();
  json::Value& smtp = net["smtp_bytes_received"];
  smtp = json::Value::array();
  for (std::size_t i = 0; i < p.n_isps; ++i)
    smtp.push_back(sys.smtp_bytes_received(i));

  json::Value& per_isp = j["per_isp"];
  per_isp = json::Value::array();
  for (std::size_t i = 0; i < p.n_isps; ++i) {
    json::Value e = json::Value::object();
    e["isp"] = static_cast<std::uint64_t>(i);
    e["compliant"] = p.is_compliant(i);
    if (p.is_compliant(i))
      e["metrics"] = to_json(sys.isp(i).metrics());
    else
      e["legacy"] = to_json(sys.legacy_stats(i));
    per_isp.push_back(std::move(e));
  }

  json::Value& cons = j["conservation"];
  cons["total_epennies"] = static_cast<std::int64_t>(sys.total_epennies());
  cons["epennies_in_flight"] =
      static_cast<std::int64_t>(sys.epennies_in_flight());
  cons["holds"] = sys.conservation_holds();

  const core::ZmailSystem::StoreTotals st = sys.store_totals();
  json::Value& store = j["store"];
  store["checkpoints"] = st.checkpoints;
  store["snapshot_bytes"] = st.snapshot_bytes;
  store["wal_records_appended"] = st.wal_records_appended;
  store["wal_records_truncated"] = st.wal_records_truncated;
  store["wal_bytes_appended"] = st.wal_bytes_appended;
  store["wal_syncs"] = st.wal_syncs;
  store["wal_fsyncs"] = st.wal_fsyncs;
  store["state_recoveries"] = sys.state_recoveries();
  store["pending_transfers"] =
      static_cast<std::uint64_t>(sys.pending_transfers());
  // Calendar-queue far-bucket rebases: each one re-sorts the overflow
  // heap into the wheel, so a growing count under a fixed workload is a
  // queue-tuning regression signal.
  j["calendar_rebase_count"] = sys.simulator().calendar_rebases();

  // Flight-recorder sections only when the recorder is live; a snapshot
  // of an untraced run omits them rather than emitting zeros.
  if (trace::enabled()) {
    j["trace_breakdown"] =
        trace::breakdown_to_json(trace::breakdown(trace::collect()));
    j["profiles"] = trace::profiles_to_json();
  }
  if (sys.telemetry()) append_timeseries(j, sys);
  return j;
}

}  // namespace zmail::obs
