#include "core/obs.hpp"

#include "core/isp.hpp"
#include "telemetry/export.hpp"
#include "telemetry/probes.hpp"
#include "trace/analyze.hpp"
#include "trace/trace.hpp"
#include "util/log.hpp"

namespace zmail::obs {

const char* schema_name(Schema v) noexcept {
  switch (v) {
    case Schema::kV1: return "zmail-obs-v1";
    case Schema::kV2: return "zmail-obs-v2";
    case Schema::kV3: return "zmail-obs-v3";
  }
  return "zmail-obs-v1";
}

namespace {

// The kV3 telemetry sections: merged deterministic series, engine series,
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

json::Value to_json(const core::IspMetrics& m, Schema v) {
  json::Value j = json::Value::object();
  j["emails_sent_local"] = m.emails_sent_local;
  j["emails_sent_compliant"] = m.emails_sent_compliant;
  j["emails_sent_noncompliant"] = m.emails_sent_noncompliant;
  j["emails_received_compliant"] = m.emails_received_compliant;
  j["emails_received_noncompliant"] = m.emails_received_noncompliant;
  j["emails_delivered"] = m.emails_delivered;
  j["emails_segregated"] = m.emails_segregated;
  j["emails_discarded"] = m.emails_discarded;
  j["emails_filtered_out"] = m.emails_filtered_out;
  j["refused_no_balance"] = m.refused_no_balance;
  j["refused_daily_limit"] = m.refused_daily_limit;
  j["emails_buffered_during_quiesce"] = m.emails_buffered_during_quiesce;
  j["snapshots_answered"] = m.snapshots_answered;
  j["zombie_warnings_sent"] = m.zombie_warnings_sent;
  j["acks_generated"] = m.acks_generated;
  j["acks_received"] = m.acks_received;
  j["bank_buys_attempted"] = m.bank_buys_attempted;
  j["bank_buys_accepted"] = m.bank_buys_accepted;
  j["bank_sells"] = m.bank_sells;
  j["bad_nonce_replies"] = m.bad_nonce_replies;
  j["bad_envelopes"] = m.bad_envelopes;
  j["stale_requests"] = m.stale_requests;
  if (v != Schema::kV1) {
    // PR3 fault-recovery counters, folded into the snapshot from v2 on.
    j["bank_retries"] = m.bank_retries;
    j["report_retries"] = m.report_retries;
    j["emails_retransmitted"] = m.emails_retransmitted;
    j["emails_refunded"] = m.emails_refunded;
    j["emails_shed"] = m.emails_shed;
    j["duplicate_emails_dropped"] = m.duplicate_emails_dropped;
  }
  return j;
}

json::Value to_json(const core::BankMetrics& m, Schema v) {
  json::Value j = json::Value::object();
  j["buys_received"] = m.buys_received;
  j["buys_accepted"] = m.buys_accepted;
  j["buys_rejected"] = m.buys_rejected;
  j["sells_received"] = m.sells_received;
  j["snapshot_rounds"] = m.snapshot_rounds;
  j["credit_reports_received"] = m.credit_reports_received;
  j["inconsistent_pairs_found"] = m.inconsistent_pairs_found;
  j["bad_envelopes"] = m.bad_envelopes;
  j["stale_reports"] = m.stale_reports;
  if (v != Schema::kV1) {
    // Bank idempotency-shield counters (duplicate/stale trade absorption).
    j["duplicate_buys"] = m.duplicate_buys;
    j["duplicate_sells"] = m.duplicate_sells;
    j["stale_trades"] = m.stale_trades;
    j["snapshot_rerequests"] = m.snapshot_rerequests;
  }
  j["epennies_minted"] = static_cast<std::int64_t>(m.epennies_minted);
  j["epennies_burned"] = static_cast<std::int64_t>(m.epennies_burned);
  j["settlement_transfers"] = m.settlement_transfers;
  j["settlement_bytes"] = m.settlement_bytes;
  return j;
}

json::Value to_json(const core::LegacyHostStats& s) {
  json::Value j = json::Value::object();
  j["emails_sent"] = s.emails_sent;
  j["emails_received"] = s.emails_received;
  j["emails_received_spam"] = s.emails_received_spam;
  return j;
}

json::Value to_json(const OnlineStats& s) {
  json::Value j = json::Value::object();
  j["count"] = s.count();
  j["mean"] = s.mean();
  j["stddev"] = s.stddev();
  j["min"] = s.min();
  j["max"] = s.max();
  j["sum"] = s.sum();
  return j;
}

json::Value to_json(const Histogram& h) {
  json::Value j = json::Value::object();
  j["lo"] = h.lo();
  j["hi"] = h.hi();
  j["total"] = h.total();
  j["p50"] = h.percentile(50);
  j["p90"] = h.percentile(90);
  j["p99"] = h.percentile(99);
  json::Value& counts = j["counts"];
  counts = json::Value::array();
  for (std::uint64_t c : h.buckets()) counts.push_back(c);
  return j;
}

json::Value to_json(const Sample& s) {
  json::Value j = json::Value::object();
  j["count"] = static_cast<std::uint64_t>(s.size());
  if (!s.empty()) {
    j["mean"] = s.mean();
    j["min"] = s.min();
    j["max"] = s.max();
    j["p50"] = s.percentile(50);
    j["p90"] = s.percentile(90);
    j["p99"] = s.percentile(99);
  }
  return j;
}

json::Value snapshot(const core::ZmailSystem& sys, Schema v) {
  const core::ZmailParams& p = sys.params();
  json::Value j = json::Value::object();
  j["sim_time"] = static_cast<std::int64_t>(sys.now());
  j["n_isps"] = static_cast<std::uint64_t>(p.n_isps);
  j["users_per_isp"] = static_cast<std::uint64_t>(p.users_per_isp);
  j["compliant_isps"] = static_cast<std::uint64_t>(p.compliant_count());

  j["isp_totals"] = to_json(sys.total_isp_metrics(), v);
  j["legacy_totals"] = to_json(sys.total_legacy_stats());
  const core::BankFederation& bank = sys.bank();
  const core::BankMetrics bm = bank.metrics();
  j["bank"] = to_json(bm, v);
  if (bank.bank_count() > 1) {
    json::Value& f = j["federation"];
    f["n_banks"] = static_cast<std::uint64_t>(bank.bank_count());
    f["requests_sent"] = bm.requests_sent;
    f["interbank_messages"] = bm.interbank_messages;
    f["interbank_bytes"] = bm.interbank_bytes;
    f["settlements_cross_bank"] = bm.settlements_cross_bank;
    f["clearing_transfers"] = bm.clearing_transfers;
    if (v != Schema::kV1) {
      f["clearing_messages"] = bm.clearing_messages;
      f["interbank_acks"] = bm.interbank_acks;
      f["interbank_retries"] = bm.interbank_retries;
      f["duplicate_interbank"] = bm.duplicate_interbank;
      f["stale_interbank"] = bm.stale_interbank;
    }
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
      e["metrics"] = to_json(sys.isp(i).metrics(), v);
    else
      e["legacy"] = to_json(sys.legacy_stats(i));
    per_isp.push_back(std::move(e));
  }

  json::Value& cons = j["conservation"];
  cons["total_epennies"] = static_cast<std::int64_t>(sys.total_epennies());
  cons["epennies_in_flight"] =
      static_cast<std::int64_t>(sys.epennies_in_flight());
  cons["holds"] = sys.conservation_holds();

  if (v != Schema::kV1) {
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

    // Flight-recorder sections only when the recorder is live; a v2
    // snapshot of an untraced run omits them rather than emitting zeros.
    if (trace::enabled()) {
      j["trace_breakdown"] =
          trace::breakdown_to_json(trace::breakdown(trace::collect()));
      j["profiles"] = trace::profiles_to_json();
    }
  }
  if (v == Schema::kV3 && sys.telemetry()) append_timeseries(j, sys);
  return j;
}

bool MetricsRegistry::add(std::string name, Provider provider) {
  for (const auto& entry : providers_) {
    if (entry.first == name) {
      ZMAIL_LOG(LogLevel::kError, "obs",
                "duplicate metric name \"%s\" rejected: first registration "
                "wins, this provider is dropped",
                name.c_str());
      return false;
    }
  }
  providers_.emplace_back(std::move(name), std::move(provider));
  return true;
}

bool MetricsRegistry::add_system(std::string name,
                                 const core::ZmailSystem& sys) {
  // Captures `this` so the schema chosen via set_schema() — possibly after
  // registration — governs the export.
  return add(std::move(name),
             [this, &sys] { return zmail::obs::snapshot(sys, schema_); });
}

json::Value MetricsRegistry::snapshot() const {
  json::Value j = json::Value::object();
  j["schema"] = schema_name(schema_);
  for (const auto& [name, provider] : providers_) j[name] = provider();
  return j;
}

bool MetricsRegistry::write_file(const std::string& path,
                                 std::string* error) const {
  return json::write_file(path, snapshot(), error);
}

}  // namespace zmail::obs
