#include "core/system.hpp"

#include <charconv>
#include <optional>
#include <span>
#include <string_view>

#include "trace/trace.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"

namespace zmail::core {

namespace {
// Quiesce window of Section 4.4 ("say 10 minutes").
constexpr sim::Duration kQuiesceWindow = 10 * sim::kMinute;

// The X-Zmail-Sent-At stamp as std::stoll read it (an optional sign, the
// leading digits, anything after them ignored; nothing when no digit leads
// or the value overflows), without the copy or the exception.  Header
// values arrive trimmed, so there is no leading space to skip.
std::optional<long long> parse_stamp(std::string_view s) {
  if (!s.empty() && s.front() == '+') {
    s.remove_prefix(1);
    if (!s.empty() && s.front() == '-') return std::nullopt;
  }
  long long v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc()) return std::nullopt;
  return v;
}

// Inter-bank datagram types (interned once), by FedMsg value.
using FedMsg = BankFederation::FedMsg;
net::MsgType fed_msg_type(std::uint8_t kind) {
  static const net::MsgType kColumns = net::MsgType::intern("fed-columns");
  static const net::MsgType kClearing = net::MsgType::intern("fed-clearing");
  ZMAIL_ASSERT(kind == static_cast<std::uint8_t>(FedMsg::kColumns) ||
               kind == static_cast<std::uint8_t>(FedMsg::kClearing));
  return kind == static_cast<std::uint8_t>(FedMsg::kColumns) ? kColumns
                                                             : kClearing;
}

std::uint8_t fed_msg_kind(net::MsgType t) {
  for (const FedMsg k : {FedMsg::kColumns, FedMsg::kClearing})
    if (t == fed_msg_type(static_cast<std::uint8_t>(k)))
      return static_cast<std::uint8_t>(k);
  return 0;
}

// Bank b's party name (store files, telemetry, host name): plain "bank"
// for the central bank, "bank<b>" in a federation.
std::string bank_tag(std::size_t bank, std::size_t n_banks) {
  return n_banks == 1 ? std::string("bank") : "bank" + std::to_string(bank);
}
}  // namespace

ZmailSystem::ZmailSystem(ZmailParams params, std::uint64_t seed)
    : params_(std::move(params)),
      rng_(seed),
      seed_(seed),
      sim_(),
      net_(sim_, Rng(seed ^ 0x4E455455ULL), net::LatencyModel{}),
      link_(sim_, net_,
            [this](const Link::Frame& f) { on_link_timeout(f); }) {
  const auto problems = params_.validate();
  ZMAIL_ASSERT_MSG(problems.empty(),
                   problems.empty() ? "" : problems.front().c_str());

  // Bank keys come first off the world stream (bank 0's first).
  std::vector<crypto::KeyPair> bank_keys;
  for (std::size_t b = 0; b < params_.n_banks; ++b)
    bank_keys.push_back(crypto::generate_keypair(rng_));
  bank_ = std::make_unique<BankFederation>(params_, std::move(bank_keys),
                                           seed ^ 0xB0B0ULL);

  legacy_.resize(params_.n_isps);
  smtp_bytes_in_.assign(params_.n_isps, 0);
  isp_domains_.reserve(params_.n_isps);
  smtp_sessions_.reserve(params_.n_isps);
  for (std::size_t i = 0; i < params_.n_isps; ++i) {
    isp_domains_.push_back(net::isp_domain(i));
    smtp_sessions_.emplace_back(
        isp_domains_[i],
        [this](net::EmailMessage&& m) { std::swap(received_, m); });
  }
  isps_.resize(params_.n_isps);
  isp_ctor_seed_.assign(params_.n_isps, 0);
  for (std::size_t i = 0; i < params_.n_isps; ++i) {
    // Per-ISP construction seed, a function of (seed, i) only; recovery
    // rebuilds ISP i from the same seed.
    isp_ctor_seed_[i] = seed * 0x5851F42D4C957F2DULL + i;
    if (params_.is_compliant(i))
      isps_[i] = std::make_unique<Isp>(i, params_, bank_->public_key_for(i),
                                       isp_ctor_seed_[i]);
    const net::HostId h = net_.add_host(
        isp_domains_[i],
        [this, i](const net::Datagram& d) { on_datagram(i, d); });
    ZMAIL_ASSERT(h == i);
  }
  for (std::size_t b = 0; b < params_.n_banks; ++b) {
    const net::HostId h = net_.add_host(
        bank_tag(b, params_.n_banks) + ".example",
        [this, b](const net::Datagram& d) { on_datagram(bank_host(b), d); });
    ZMAIL_ASSERT(h == bank_host(b));
  }
  bank_ckpt_seq_.assign(params_.n_banks, 0);
  quiesce_deadline_.assign(params_.n_isps, 0);

  // The inter-bank plane travels between bank hosts (a single bank has no
  // inter-bank traffic at all).
  bank_->set_interbank_sink([this](std::size_t from, std::size_t to,
                                   std::uint8_t kind, crypto::Bytes wire) {
    send_wire(bank_host(from), bank_host(to), fed_msg_type(kind),
              std::move(wire));
  });

  if (params_.store.enabled) {
    std::string err;
    ZMAIL_ASSERT_MSG(store::ensure_dir(params_.store.dir, &err), err.c_str());
    stores_.resize(params_.n_isps + params_.n_banks);
    for (std::size_t i = 0; i < params_.n_isps; ++i)
      if (isps_[i]) open_store(i);
    for (std::size_t b = 0; b < params_.n_banks; ++b) open_store(bank_host(b));
    // The link's frames are not persisted, so a store resumes only from a
    // quiet point: a round or a trade it left open would wait for ever on
    // wires that are gone.
    bool mid_protocol = bank_->round_open();
    for (const auto& isp : isps_)
      mid_protocol = mid_protocol || (isp && isp->bank_exchange_pending());
    ZMAIL_ASSERT_MSG(!mid_protocol,
                     "the store holds a run stopped mid-round or mid-trade; "
                     "it can only be resumed from a quiet point");
    if (params_.store.checkpoint_interval_us > 0) {
      sim_.schedule_every(
          static_cast<sim::Duration>(params_.store.checkpoint_interval_us),
          [this] {
            checkpoint_all();
            return true;
          });
    }
  }
}

Isp& ZmailSystem::isp(IspId i) {
  ZMAIL_ASSERT_MSG(isps_.at(i.index()) != nullptr,
                   "ISP is non-compliant (legacy)");
  return *isps_[i.index()];
}

const Isp& ZmailSystem::isp(IspId i) const {
  ZMAIL_ASSERT_MSG(isps_.at(i.index()) != nullptr,
                   "ISP is non-compliant (legacy)");
  return *isps_[i.index()];
}

const LegacyHostStats& ZmailSystem::legacy_stats(IspId i) const {
  return legacy_.at(i.index());
}

IspMetrics ZmailSystem::total_isp_metrics() const {
  IspMetrics total;
  for (const auto& isp : isps_)
    if (isp) total.merge(isp->metrics());
  return total;
}

LegacyHostStats ZmailSystem::total_legacy_stats() const {
  LegacyHostStats total;
  for (std::size_t i = 0; i < legacy_.size(); ++i) {
    if (params_.is_compliant(i)) continue;
    LegacyHostStats::fields(
        [&](const char*, auto p) { total.*p += legacy_[i].*p; });
  }
  return total;
}

SendOutcome ZmailSystem::send_email(const net::EmailAddress& from,
                                    const net::EmailAddress& to,
                                    std::string subject, std::string body,
                                    net::MailClass truth) {
  return send_email(
      net::make_email(from, to, std::move(subject), std::move(body), truth));
}

SendOutcome ZmailSystem::send_email(net::EmailMessage msg) {
  // Submission timestamp for the latency sample (survives quiesce
  // buffering; an ordinary header, so it rides plain SMTP).
  msg.set_header("X-Zmail-Sent-At", std::to_string(sim_.now()));
  std::size_t from_isp = 0, from_user = 0, to_isp = 0, to_user = 0;
  ZMAIL_ASSERT_MSG(!msg.to.empty(), "message needs a recipient");
  ZMAIL_ASSERT_MSG(
      net::decode_user_address(msg.from, from_isp, from_user) &&
          net::decode_user_address(msg.to.front(), to_isp, to_user),
      "addresses must be simulated user addresses (u<k>@isp<i>.example)");
  ZMAIL_ASSERT(from_isp < params_.n_isps && to_isp < params_.n_isps);

  // Root lifecycle span: minted here at submission, ended at a terminal
  // (deliver / discard / refuse), possibly on another host.  The
  // id rides the email's optional serialized tail, so the wire bytes are
  // unchanged whenever tracing is off (next_id() returns 0).
  if (trace::enabled()) trace::set_sim_now(sim_.now());
  if (msg.trace_id == 0) msg.trace_id = trace::next_id();
  const std::uint64_t tid = msg.trace_id;
  if (tid != 0)
    trace::begin(trace::Ev::kMessage, tid, static_cast<std::uint16_t>(from_isp),
                 static_cast<std::uint64_t>(to_isp));
  trace::Scope tscope(tid);

  if (params_.is_compliant(from_isp)) {
    const SendResult r =
        isps_[from_isp]->user_send(from_user, to_isp, to_user, std::move(msg));
    if (tid != 0) {
      const auto h = static_cast<std::uint16_t>(from_isp);
      trace::instant(trace::Ev::kSubmit, tid, h,
                     static_cast<std::uint64_t>(r));
      if (SendOutcome::counts_as_refused(r) || r == SendResult::kQuarantined) {
        trace::instant(trace::Ev::kRefuse, tid, h,
                       static_cast<std::uint64_t>(r));
        trace::end(trace::Ev::kMessage, tid, h);
      }
    }
    pump_isp(from_isp);
    return SendOutcome::from(r);
  }

  // Legacy sender: plain SMTP, free, no accounting.
  ++legacy_[from_isp].emails_sent;
  if (to_isp == from_isp) {
    ++legacy_[from_isp].emails_received;
    if (msg.truth == net::MailClass::kSpam)
      ++legacy_[from_isp].emails_received_spam;
    if (tid != 0) {
      const auto h = static_cast<std::uint16_t>(from_isp);
      trace::instant(trace::Ev::kDeliver, tid, h, 0,
                     msg.truth == net::MailClass::kSpam ? 1u : 0u);
      trace::end(trace::Ev::kMessage, tid, h);
    }
    return SendOutcome::from(SendResult::kDeliveredLocally);
  }
  if (tid != 0)
    trace::instant(trace::Ev::kSubmit, tid,
                   static_cast<std::uint16_t>(from_isp),
                   static_cast<std::uint64_t>(SendResult::kSentFree));
  net_.send(from_isp, to_isp, kMsgEmail, msg.serialize());
  return SendOutcome::from(SendResult::kSentFree);
}

void ZmailSystem::make_compliant(IspId isp) {
  const std::size_t isp_index = isp.index();
  ZMAIL_ASSERT(isp_index < params_.n_isps);
  if (params_.is_compliant(isp_index)) return;
  ZMAIL_ASSERT_MSG(in_flight_paid_ == 0,
                   "flip compliance only while no paid mail is in flight");
  // The bank flips compliant[j] and broadcasts; the shared params object
  // makes the new array visible to every party at once.
  if (params_.compliant.empty())
    params_.compliant.assign(params_.n_isps, true);
  params_.compliant[isp_index] = true;
  isp_ctor_seed_[isp_index] =
      seed_ * 0x5851F42D4C957F2DULL + isp_index + 0x9E37ULL;
  isps_[isp_index] = std::make_unique<Isp>(
      isp_index, params_, bank_->public_key_for(isp_index),
      isp_ctor_seed_[isp_index]);
  if (params_.store.enabled) open_store(isp_index);
  // Join the home bank's current billing period.
  isps_[isp_index]->set_seq(bank_->seq(bank_->home_bank(isp_index)));
  // set_seq is a harness-side fixup, not a logged command; baseline the
  // flipped ISP with an immediate checkpoint so recovery starts from a
  // snapshot that already carries the adopted seq.
  if (params_.store.enabled) checkpoint_host(isp_index);
}

bool ZmailSystem::buy_epennies(const net::EmailAddress& user, EPenny n) {
  std::size_t i = 0, u = 0;
  if (!net::decode_user_address(user, i, u) || !params_.is_compliant(i))
    return false;
  if (trace::enabled()) trace::set_sim_now(sim_.now());
  const bool ok = isps_[i]->user_buy(u, n);
  pump_isp(i);
  return ok;
}

bool ZmailSystem::sell_epennies(const net::EmailAddress& user, EPenny n) {
  std::size_t i = 0, u = 0;
  if (!net::decode_user_address(user, i, u) || !params_.is_compliant(i))
    return false;
  if (trace::enabled()) trace::set_sim_now(sim_.now());
  const bool ok = isps_[i]->user_sell(u, n);
  pump_isp(i);
  return ok;
}

void ZmailSystem::enable_daily_resets() {
  sim_.schedule_every(sim::kDay, [this] {
    for (auto& isp : isps_)
      if (isp) isp->end_of_day();
    return true;
  });
}

void ZmailSystem::enable_bank_trading(sim::Duration poll) {
  sim_.schedule_every(poll, [this] {
    for (std::size_t i = 0; i < isps_.size(); ++i) {
      if (!isps_[i]) continue;
      isps_[i]->maybe_trade_with_bank();
      pump_isp(i);
    }
    return true;
  });
}

void ZmailSystem::quiesce_timeout(std::size_t i) {
  if (isps_[i] && isps_[i]->in_quiesce()) {
    isps_[i]->on_quiesce_timeout();
    pump_isp(i);
    checkpoint_host(i);
  }
}

void ZmailSystem::enable_periodic_snapshots(sim::Duration period) {
  snapshots_enabled_ = true;
  sim_.schedule_every(period, [this] {
    start_snapshot();
    return true;
  });
}

void ZmailSystem::enable_telemetry(const telemetry::TelemetryConfig& cfg) {
  ZMAIL_ASSERT_MSG(!telemetry_, "telemetry already enabled");
  telemetry_ = std::make_unique<telemetry::TelemetryRegistry>(cfg);
  telemetry::TelemetryRegistry& t = *telemetry_;
  telem_latency_.assign(params_.n_isps,
                        telemetry::TelemetryRegistry::kNoChannel);

  // WAL backlog (records logged since the last truncating checkpoint; a
  // party that stops checkpointing climbs steadily) + checkpoint rate.
  auto add_store_series = [&t](const std::string& tag,
                               const store::Checkpointer* cp) {
    t.add_gauge("store", tag + ".wal_backlog_records", [cp] {
      return static_cast<double>(cp->wal().stats().records_appended -
                                 cp->stats().wal_records_truncated);
    });
    t.add_rate("store", tag + ".checkpoints", [cp] {
      return static_cast<double>(cp->stats().checkpoints);
    });
  };

  // Samplers read through isps_[i] / bank_ at tick time, never a cached
  // Isp pointer: crash recovery replaces the object under the same slot.
  // During an outage window they read the party's last pre-crash state,
  // which is itself sim-deterministic.
  for (std::size_t i = 0; i < params_.n_isps; ++i) {
    if (!isps_[i]) continue;  // legacy hosts only feed legacy_totals
    const std::string tag = "isp" + std::to_string(i);
    auto get = [this, i]() -> const Isp& { return *isps_[i]; };
    // econ — the market view of this ISP.
    // Effective stamp price: till micros moved per net e-penny traded over
    // the window; carries the last observed price (the paper's $0.01 par
    // until the first trade) through windows with no net trade.
    t.add_gauge("econ", tag + ".stamp_price_micros",
                [get, last_price = double(Money::from_epennies(1).micros()),
                 prev_till = std::int64_t{0}, prev_bought = double(0),
                 prev_sold = double(0)]() mutable {
                  const auto bought = static_cast<double>(get().users_bought());
                  const auto sold = static_cast<double>(get().users_sold());
                  const std::int64_t till = get().till().micros();
                  const double net =
                      (bought - prev_bought) - (sold - prev_sold);
                  if (net != 0.0)
                    last_price = static_cast<double>(till - prev_till) / net;
                  prev_till = till;
                  prev_bought = bought;
                  prev_sold = sold;
                  return last_price;
                });
    t.add_gauge("econ", tag + ".till_micros", [get] {
      return static_cast<double>(get().till().micros());
    });
    t.add_gauge("econ", tag + ".avail_epennies",
                [get] { return static_cast<double>(get().avail()); });
    // Everything resident at this ISP: user balances + avail pool +
    // quiesce-buffered stamps.  Σ over ISPs + in-flight wire = supply.
    // Reads the running balance total (the auditor checks it against the
    // column), not a per-tick column scan.
    t.add_gauge("econ", tag + ".epennies_held", [get] {
      return static_cast<double>(get().avail() + get().users_balance() +
                                 get().buffered_paid());
    });
    t.add_rate("econ", tag + ".user_epennies_bought", [get] {
      return static_cast<double>(get().users_bought());
    });
    // core — quiesce health.
    t.add_gauge("core", tag + ".quiesce_buffered", [get] {
      return static_cast<double>(get().buffered_count());
    });
    telem_latency_[i] = t.add_histogram("core", tag + ".delivery_latency_us");
    if (store::Checkpointer* cp = host_store(i)) add_store_series(tag, cp);
  }

  t.add_gauge("econ", "bank.epenny_supply", [this] {
    return static_cast<double>(bank_->epennies_outstanding());
  });
  t.add_gauge("econ", "bank.drift_pairs", [this] {
    return static_cast<double>(bank_->persistent_drift_pairs());
  });
  for (std::size_t b = 0; b < bank_->bank_count(); ++b) {
    const std::string tag = bank_tag(b, bank_->bank_count());
    if (bank_->bank_count() > 1)
      t.add_gauge("econ", tag + ".clearing_position_micros", [this, b] {
        return static_cast<double>(bank_->clearing_position(b).micros());
      });
    if (store::Checkpointer* cp = host_store(bank_host(b)))
      add_store_series(tag, cp);
  }

  // Counter rates: one fleet-wide series per fields() entry, keyed by the
  // counter's obs-snapshot path, so each counter is named exactly once.
  IspMetrics::fields([&](const char* name, auto p) {
    t.add_rate("core", std::string("isp_totals.") + name, [this, p] {
      std::uint64_t sum = 0;
      for (const auto& isp : isps_)
        if (isp) sum += isp->metrics().*p;
      return static_cast<double>(sum);
    });
  });
  BankMetrics::fields([&](const char* name, auto p) {
    t.add_rate("core", std::string("bank.") + name, [this, p] {
      return static_cast<double>(bank_->metrics().*p);
    });
  });
  LegacyHostStats::fields([&](const char* name, auto p) {
    t.add_rate("core", std::string("legacy_totals.") + name, [this, p] {
      return static_cast<double>(total_legacy_stats().*p);
    });
  });

  // engine — execution signals (backlogs, engine totals); these describe
  // this process, not the simulated world, so they live outside the
  // deterministic section.
  t.add_engine_gauge("sim", "event_backlog", [this] {
    return static_cast<double>(sim_.pending());
  });
  t.add_engine_rate("sim", "events", [this] {
    return static_cast<double>(sim_.events_executed());
  });
  t.add_engine_rate("sim", "calendar_rebases", [this] {
    return static_cast<double>(sim_.calendar_rebases());
  });
  t.add_engine_rate("net", "datagrams", [this] {
    return static_cast<double>(net_.datagrams_sent());
  });
  t.add_engine_rate("net", "bytes", [this] {
    return static_cast<double>(net_.bytes_sent());
  });
  t.add_engine_gauge("net", "in_flight_transfers", [this] {
    return static_cast<double>(link_.pending());
  });

  sim_.schedule_every(telemetry_->config().sample_period, [this] {
    telemetry_->sample(sim_.now());
    return true;
  });
}

void ZmailSystem::start_snapshot() {
  // All ISPs share one absolute report deadline.  If each ISP instead timed
  // its own 10 minutes from request *arrival*, the earliest-served ISP
  // would resume sending one network-latency before the latest-served ISP
  // reports, and its first new-period email could contaminate that peer's
  // still-open period (the timed twin of the AP resume barrier; the fuzz
  // suite caught exactly this).  A common deadline — "everyone reports at
  // 00:10" — removes the skew.
  auto requests = bank_->start_snapshot();
  if (requests.empty()) return;
  if (trace::enabled()) {
    trace::set_sim_now(sim_.now());
    // Host-scoped (id 0) span over the whole round: request fan-out through
    // the last report; closed by after_bank_step when the round closes.
    trace::begin(trace::Ev::kSnapshotRound, 0,
                 static_cast<std::uint16_t>(bank_index()), bank_->seq());
  }
  const sim::SimTime deadline = sim_.now() + kQuiesceWindow;
  for (auto& [isp_index, wire] : requests) {
    send_wire(bank_host(bank_->home_bank(isp_index)), isp_index, kMsgRequest,
              std::move(wire));
    quiesce_deadline_[isp_index] = deadline;
    sim_.schedule_at(deadline, [this, i = isp_index] { quiesce_timeout(i); });
  }
}

void ZmailSystem::attach_faults(net::FaultInjector* injector) {
  faults_ = injector;
  net_.attach_faults(injector);
  if (!injector || stores_.empty()) return;
  // With the durable store on, each planned outage is a real crash: the
  // party restarts with wiped memory and recovers from snapshot + WAL.
  for (const net::HostOutage& o : injector->plan().outages) {
    if (o.host >= stores_.size() || !stores_[o.host]) continue;
    sim_.schedule_at(o.until, [this, h = o.host] { recover_host(h); });
  }
}

void ZmailSystem::open_store(std::size_t host) {
  auto cp = std::make_unique<store::Checkpointer>();
  std::string err;
  const std::string party =
      host >= params_.n_isps
          ? bank_tag(host - params_.n_isps, params_.n_banks)
          : "isp" + std::to_string(host);
  ZMAIL_ASSERT_MSG(cp->open(params_.store, party, &err), err.c_str());
  stores_[host] = std::move(cp);
  // Recover-at-open makes reopening an existing store directory resume the
  // persisted state (the constructor then checks it is a quiet point); on a
  // fresh directory both files are absent and this is a no-op (neither
  // callback fires).  Not counted as a crash recovery.
  rebuild_from_store(host);
}

void ZmailSystem::checkpoint_host(std::size_t host) {
  if (host >= stores_.size() || !stores_[host]) return;
  if (trace::enabled()) trace::set_sim_now(sim_.now());
  trace::SpanScope ckpt_span(trace::Ev::kCheckpoint, 0,
                             static_cast<std::uint16_t>(host));
  std::string err;
  const auto sim_us = static_cast<std::uint64_t>(sim_.now());
  store::Checkpointer& cp = *stores_[host];
  // Both parties write the same container: a bank its state blob as one
  // section, an ISP a full image or a differential streamed from the live
  // columns (Isp::write_checkpoint), its dirty rows gathered into the one
  // buffer every host reuses.
  crypto::Bytes state;
  bool ok = false;
  if (host >= params_.n_isps) {
    state = bank_->serialize_state(host - params_.n_isps);
    ok = cp.checkpoint({store::SnapshotSection{store::kBankStateSection, state}},
                       sim_us, &err);
  } else {
    ok = isps_[host]->write_checkpoint(cp, sim_us, state, checkpoint_rows_,
                                       &err);
  }
  ZMAIL_ASSERT_MSG(ok, err.c_str());
  ckpt_span.set_end_arg0(cp.stats().last_snapshot_bytes);
}

void ZmailSystem::checkpoint_all() {
  for (std::size_t h = 0; h < stores_.size(); ++h)
    if (stores_[h]) checkpoint_host(h);
}

void ZmailSystem::crash_host(std::size_t host, sim::Duration down_for) {
  ZMAIL_ASSERT_MSG(!stores_.empty(), "crash_host requires params.store.enabled");
  ZMAIL_ASSERT(host < stores_.size() && stores_[host] != nullptr);
  if (!faults_) {
    // An outage-only injector: empty rates draw no RNG per datagram, so
    // attaching it perturbs nothing but the crashed host's traffic.
    crash_faults_ = std::make_unique<net::FaultInjector>(net::FaultPlan{},
                                                         seed_ ^ 0xC4A5ULL);
    faults_ = crash_faults_.get();
    net_.attach_faults(faults_);
  }
  faults_->add_outage({host, sim_.now(), sim_.now() + down_for});
  sim_.schedule_at(sim_.now() + down_for,
                   [this, host] { recover_host(host); });
}

void ZmailSystem::recover_host(std::size_t host) {
  ZMAIL_ASSERT(host < stores_.size() && stores_[host] != nullptr);
  // Process death first: whatever the WAL buffered but never synced is
  // gone (always empty: every party's WAL syncs each record as it is
  // appended).
  stores_[host]->simulate_crash();
  rebuild_from_store(host);
  ++state_recoveries_;
  if (faults_) faults_->note_state_recovery();
}

void ZmailSystem::rebuild_from_store(std::size_t host) {
  store::Checkpointer* cp = stores_[host].get();
  store::RecoveryStats rs;
  std::string err;
  bool ok = false;
  if (trace::enabled()) trace::set_sim_now(sim_.now());
  // Span first, guard second: the guard's destructor runs before the
  // span's, so the kRecovery end still emits.  While the guard lives, WAL
  // replay can neither mint ids nor emit — a replayed send must not
  // re-open spans the original execution already recorded.
  trace::SpanScope recovery_span(trace::Ev::kRecovery, 0,
                                 static_cast<std::uint16_t>(host));
  trace::ReplayGuard replay_guard;
  if (host >= params_.n_isps) {
    const std::size_t b = host - params_.n_isps;
    BankFederation* fed = bank_.get();
    fed->reset_bank(b);
    ok = cp->recover(
        [fed, b](const store::SnapshotFileView& v) {
          const store::SnapshotSection* s = v.find(store::kBankStateSection);
          return s != nullptr && fed->restore_state(b, s->payload);
        },
        [fed, b](std::uint8_t t, std::span<const std::uint8_t> p) {
          fed->apply_wal_record(b, t, p);
        },
        &rs, &err);
    fed->attach_wal(b, &cp->wal());
  } else {
    // With a base image on disk the restore overwrites every column, so
    // the crashed ISP's arena is handed over rather than a new one mapped,
    // faulted in and filled.  Without one, the WAL replays over a fresh
    // population.
    Population arena;
    if (cp->has_base() && isps_[host]) arena = std::move(isps_[host]->users());
    isps_[host] = std::make_unique<Isp>(host, params_,
                                        bank_->public_key_for(host),
                                        isp_ctor_seed_[host], std::move(arena));
    Isp* isp = isps_[host].get();
    // recover maps the base, then the differential over it, read-only;
    // restore_snapshot bulk-copies the columns out of the mapping.
    ok = isp->recover(*cp, &rs, &err);
    isp->attach_wal(&cp->wal());
  }
  ZMAIL_ASSERT_MSG(ok, err.c_str());
  recovery_span.set_end_arg0(rs.wal_records_replayed);
}

void ZmailSystem::run_for(sim::Duration d) { sim_.run(sim_.now() + d); }

void ZmailSystem::pump_isp(std::size_t i) {
  ZMAIL_ASSERT(isps_[i] != nullptr);
  std::vector<Outbound> batch;
  batch.swap(outbox_spare_);
  isps_[i]->take_outbox(batch);
  for (Outbound& o : batch) {
    // Restore the causal context the ISP captured when it queued this
    // outbound, so the datagram (and any ARQ transfer) inherits it even
    // when the send happens long after submission (quiesce flush, retry).
    trace::Scope tscope(o.trace_id);
    if (o.dest == Outbound::Dest::kBank) {
      send_wire(i, bank_host(bank_->home_bank(i)), o.type,
                std::move(o.payload));
      continue;
    }
    if (o.type == kMsgEmail && params_.is_compliant(o.isp_index)) {
      in_flight_paid_ += 1;  // the e-penny rides inside the message
      if (params_.reliable_email_transport) {
        start_transfer(i, o.isp_index, std::move(o.payload));
        continue;
      }
    }
    net_.send(i, o.isp_index, std::move(o.type), std::move(o.payload));
  }
  batch.clear();
  outbox_spare_.swap(batch);
}

void ZmailSystem::send_wire(std::size_t from, std::size_t to,
                            net::MsgType type, crypto::Bytes&& payload) {
  if (!params_.retry.enabled) {
    net_.send(from, to, type, std::move(payload));
    return;
  }
  Link::Frame f;
  f.from = from;
  f.to = to;
  f.type = type;
  f.payload = std::move(payload);
  f.trace_id = trace::current();
  link_.send(std::move(f));
}

void ZmailSystem::start_transfer(std::size_t from_isp, std::size_t to_isp,
                                 crypto::Bytes&& email) {
  Link::Frame f;
  f.from = from_isp;
  f.to = to_isp;
  f.type = Link::email_frame();
  f.payload = std::move(email);
  f.trace_id = trace::current();
  if (f.trace_id != 0) {
    const auto h = static_cast<std::uint16_t>(from_isp);
    trace::begin(trace::Ev::kTransit, f.trace_id, h,
                 static_cast<std::uint64_t>(to_isp));
    trace::instant(trace::Ev::kTransmit, f.trace_id, h, 1);
  }
  link_.send(std::move(f));
}

void ZmailSystem::on_link_timeout(const Link::Frame& f) {
  if (f.from < params_.n_isps)
    isps_[f.from]->note_retransmit(f.type);
  else
    bank_->note_retransmit(f.from - params_.n_isps, f.type);
  if (f.type == Link::email_frame() && f.trace_id != 0)
    trace::instant(trace::Ev::kTransmit, f.trace_id,
                   static_cast<std::uint16_t>(f.from), f.attempts + 1);
}

void ZmailSystem::deliver_via_smtp(std::size_t to_isp, std::size_t from_isp,
                                   std::span<const std::uint8_t> payload) {
  // decoded_ and received_ are shared by every delivery; nothing on this
  // path may start another one before it returns.
  ZMAIL_ASSERT_MSG(!delivering_, "deliver_via_smtp re-entered");
  delivering_ = true;
  struct Done {
    bool& flag;
    ~Done() { flag = false; }
  } done{delivering_};

  // Decode the message and play a real SMTP dialogue into the destination
  // host, so every inter-ISP email exercises RFC-821 framing and the byte
  // counters reflect true protocol overhead.  The client half renders from
  // views into `payload`, which outlives the transfer; the message the
  // server parses is the one the ISP receives.
  if (!net::EmailView::decode_into(payload, decoded_)) return;
  const net::EmailView& msg = decoded_;

  trace::Scope tscope(msg.trace_id);
  std::optional<trace::SpanScope> smtp_span;
  if (msg.trace_id != 0)
    smtp_span.emplace(trace::Ev::kSmtp, msg.trace_id,
                      static_cast<std::uint16_t>(to_isp));

  const net::SmtpTransferResult xfer = net::smtp_transfer(
      msg, isp_domains_.at(from_isp), smtp_sessions_.at(to_isp));
  smtp_bytes_in_.at(to_isp) +=
      xfer.bytes_client_to_server + xfer.bytes_server_to_client;
  if (smtp_span)
    smtp_span->set_end_arg0(xfer.bytes_client_to_server +
                            xfer.bytes_server_to_client);
  // An accepted transfer is one whose "." the session answered with 250,
  // right after swapping the parsed message into received_.
  if (!xfer.accepted) return;

  // SMTP does not carry the simulation's ground-truth label — or the trace
  // id, which lives in the serialized tail the dialogue re-parses away;
  // restore both.
  net::EmailMessage& received = received_;
  received.truth = msg.truth;
  received.trace_id = msg.trace_id;

  if (const std::string* stamp = received.find_header("X-Zmail-Sent-At")) {
    if (const auto parsed = parse_stamp(*stamp)) {
      const auto sent_at = static_cast<sim::SimTime>(*parsed);
      if (sent_at >= 0 && sent_at <= sim_.now()) {
        latency_.add(sim::to_seconds(sim_.now() - sent_at));
        if (telemetry_ && to_isp < telem_latency_.size())
          telemetry_->observe(telem_latency_[to_isp],
                              static_cast<std::uint64_t>(sim_.now() - sent_at));
      }
    }
    // Otherwise a foreign or corrupted stamp: not a latency sample.
  }

  if (isps_[to_isp]) {
    isps_[to_isp]->on_email(from_isp, received);
    pump_isp(to_isp);  // acknowledgments may have been generated
  } else {
    ++legacy_[to_isp].emails_received;
    if (received.truth == net::MailClass::kSpam)
      ++legacy_[to_isp].emails_received_spam;
    if (received.trace_id != 0) {
      const auto h = static_cast<std::uint16_t>(to_isp);
      trace::instant(trace::Ev::kDeliver, received.trace_id, h, 0,
                     received.truth == net::MailClass::kSpam ? 1u : 0u);
      trace::end(trace::Ev::kMessage, received.trace_id, h);
    }
  }
}

void ZmailSystem::handle_bank(std::size_t bank, std::size_t from,
                              net::MsgType type,
                              std::span<const std::uint8_t> payload) {
  const bool was_open = bank_->round_open();
  if (from >= params_.n_isps) {
    // A peer bank's wire on the inter-bank plane.
    const std::uint8_t kind = fed_msg_kind(type);
    if (kind == 0 || from - params_.n_isps >= bank_->bank_count()) return;
    bank_->on_interbank(bank, from - params_.n_isps, kind, payload);
  } else if (type == kMsgBuy || type == kMsgSell) {
    const bool buy = type == kMsgBuy;
    crypto::Bytes reply =
        buy ? bank_->on_buy(from, payload) : bank_->on_sell(from, payload);
    if (!reply.empty())
      send_wire(bank_host(bank), from, buy ? kMsgBuyReply : kMsgSellReply,
                std::move(reply));
    return;
  } else if (type == kMsgReply) {
    bank_->on_reply(from, payload);
  } else {
    return;
  }
  after_bank_step(bank, was_open);
}

void ZmailSystem::after_bank_step(std::size_t bank, bool round_was_open) {
  if (round_was_open && !bank_->round_open() && trace::enabled()) {
    const auto bh = static_cast<std::uint16_t>(bank_index());
    trace::instant(trace::Ev::kSettle, 0, bh, bank_->seq());
    trace::end(trace::Ev::kSnapshotRound, 0, bh, bank_->seq());
  }
  // A round that just closed at this bank (seq advanced, no round open) is
  // its snapshot-quiesce boundary: checkpoint once per round.
  if (!stores_.empty() && !bank_->round_open(bank) &&
      bank_->seq(bank) != bank_ckpt_seq_[bank]) {
    checkpoint_host(bank_host(bank));
    bank_ckpt_seq_[bank] = bank_->seq(bank);
  }
}

void ZmailSystem::on_datagram(std::size_t host, const net::Datagram& d) {
  const bool retry = params_.retry.enabled;
  if (retry || params_.reliable_email_transport) {
    if (d.type == Link::email_ack() || d.type == Link::control_ack()) {
      const std::optional<Link::Frame> t = link_.on_ack(host, d);
      if (t && t->type == Link::email_frame() && t->trace_id != 0) {
        const auto h = static_cast<std::uint16_t>(t->from);
        trace::instant(trace::Ev::kAck, t->trace_id, h, t->attempts);
        trace::end(trace::Ev::kTransit, t->trace_id, h, 0);  // 0 = acked
      }
      return;
    }
    if (d.type == Link::email_frame() || (retry && d.type != kMsgEmail)) {
      const Link::Rx rx = link_.receive(host, d);
      if (rx.status == Link::Rx::kDuplicate && d.type == Link::email_frame()) {
        if (isps_[host]) isps_[host]->note_duplicate_email();
        if (trace::current() != 0)
          trace::instant(trace::Ev::kDuplicateDrop, trace::current(),
                         static_cast<std::uint16_t>(host), rx.seq);
      }
      // The ack leaves in the event that logged the handler's WAL record.
      if (rx.status == Link::Rx::kNew) {
        handle(host, d.from, d.type, rx.payload);
        link_.accept(host, d, rx.seq);
      }
      return;
    }
  }
  handle(host, d.from, d.type, d.payload);
}

void ZmailSystem::handle(std::size_t host, std::size_t from, net::MsgType type,
                         std::span<const std::uint8_t> payload) {
  if (type == kMsgEmail || type == Link::email_frame()) {
    if (from < params_.n_isps && params_.is_compliant(from) &&
        params_.is_compliant(host))
      in_flight_paid_ -= 1;
    deliver_via_smtp(host, from, payload);
    return;
  }
  if (host >= params_.n_isps) {
    handle_bank(host - params_.n_isps, from, type, payload);
    return;
  }
  if (!isps_[host]) return;  // legacy hosts ignore protocol traffic
  Isp& isp = *isps_[host];
  if (type == kMsgBuyReply) {
    isp.on_buyreply(payload);
  } else if (type == kMsgSellReply) {
    isp.on_sellreply(payload);
  } else if (type == kMsgRequest) {
    // The matching quiesce-timeout event was scheduled (at the round's
    // common deadline) when the request was sent.  A request the link
    // delivered after that deadline (it was lost, or this ISP was down)
    // quiesces the ISP now, for a window of its own.
    isp.on_request(payload);
    if (isp.in_quiesce() && sim_.now() >= quiesce_deadline_[host]) {
      quiesce_deadline_[host] = sim_.now() + kQuiesceWindow;
      sim_.schedule_at(quiesce_deadline_[host],
                       [this, host] { quiesce_timeout(host); });
    }
  }
  pump_isp(host);
}

ZmailSystem::StoreTotals ZmailSystem::store_totals() const {
  StoreTotals t;
  for (const auto& cp : stores_) {
    if (!cp) continue;
    const store::Checkpointer::Stats& cs = cp->stats();
    t.checkpoints += cs.checkpoints;
    t.snapshot_bytes += cs.last_snapshot_bytes;
    t.snapshot_bytes_written += cs.bytes_written;
    t.wal_records_truncated += cs.wal_records_truncated;
    const store::WalWriter::Stats& ws = cp->wal().stats();
    t.wal_records_appended += ws.records_appended;
    t.wal_bytes_appended += ws.bytes_appended;
    t.wal_syncs += ws.syncs;
    t.wal_fsyncs += ws.fsyncs;
  }
  return t;
}

EPenny ZmailSystem::total_epennies() const {
  EPenny total = in_flight_paid_;
  for (const auto& isp : isps_)
    if (isp) total += isp->epennies_held() + isp->buffered_paid();
  return total;
}

Money ZmailSystem::total_real_money() const {
  Money total = Money::zero();
  for (std::size_t i = 0; i < params_.n_isps; ++i) {
    total += bank_->account(i);
    if (!isps_[i]) continue;
    total += isps_[i]->till();
    for (const Money a : isps_[i]->users().accounts()) total += a;
  }
  return total;
}

EPenny ZmailSystem::initial_endowment() const {
  EPenny initial = 0;
  for (std::size_t i = 0; i < params_.n_isps; ++i) {
    if (!params_.is_compliant(i) || !isps_[i]) continue;
    initial += params_.initial_avail +
               static_cast<EPenny>(params_.users_per_isp) *
                   params_.initial_user_balance;
  }
  return initial;
}

bool ZmailSystem::conservation_holds() const {
  // Initial endowment + net minted must equal current holdings.
  return total_epennies() ==
         initial_endowment() + bank_->epennies_outstanding();
}

}  // namespace zmail::core
