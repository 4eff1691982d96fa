// ZmailSystem — the timed, end-to-end rendition of the protocol and the
// library's main public facade.
//
// It wires together:
//   - one core::Isp per compliant ISP and a lightweight legacy host per
//     non-compliant ISP (plain SMTP, no accounting),
//   - the bank: a core::BankFederation of params.n_banks member banks on
//     their own network hosts (1 = the central bank); each ISP trades and
//     reports with its home bank, and with several banks the inter-bank
//     column exchange and clearing ride the network too, as datagrams
//     between bank hosts,
//   - a latency-modelled Network over the discrete-event Simulator,
//   - real SMTP dialogues for every inter-ISP message (the byte counts feed
//     the ISP-overhead experiment),
//   - periodic machinery: daily `sent` resets, bank-trade polling, and the
//     Section 4.4 snapshot with its 10-minute quiesce.
//
// Typical use (see examples/full_simulation.cpp):
//   ZmailSystem sys(params, seed);
//   sys.enable_daily_resets();
//   sys.send_email(addr_a, addr_b, "hi", "body");
//   sys.run_for(sim::kHour);
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/federation.hpp"
#include "core/isp.hpp"
#include "core/link.hpp"
#include "net/network.hpp"
#include "net/smtp.hpp"
#include "sim/simulator.hpp"
#include "telemetry/registry.hpp"
#include "util/stats.hpp"

namespace zmail::core {

// Observed state of a non-compliant (legacy, plain-SMTP) ISP.
struct LegacyHostStats {
  std::uint64_t emails_sent = 0;
  std::uint64_t emails_received = 0;
  std::uint64_t emails_received_spam = 0;  // by ground truth

  // Every counter, in declaration order (see IspMetrics::fields).
  template <class F>
  static void fields(F&& f) {
    f("emails_sent", &LegacyHostStats::emails_sent);
    f("emails_received", &LegacyHostStats::emails_received);
    f("emails_received_spam", &LegacyHostStats::emails_received_spam);
  }
};

// Result of a facade send: the protocol outcome enum plus accepted/refused
// counts (one of them 1).  Converts implicitly to SendResult, which keeps
// `switch (sys.send_email(...))` and `r == SendResult::kNoBalance` call
// sites compiling unchanged.  A multi-recipient message is one send_email
// per recipient.
struct SendOutcome {
  SendResult result = SendResult::kDeliveredLocally;
  std::size_t sent = 0;     // paid, free, buffered, or delivered locally
  std::size_t refused = 0;  // no balance / daily limit

  bool all_sent() const noexcept { return refused == 0; }
  constexpr operator SendResult() const noexcept { return result; }

  // Whether a send left the sender.  Callers that count sends (mailing
  // lists, the traffic generator, the zombie outbreak) read `sent`, which
  // is 1 exactly for these.
  static constexpr bool counts_as_sent(SendResult r) noexcept {
    return r == SendResult::kDeliveredLocally ||
           r == SendResult::kSentPaid || r == SendResult::kSentFree ||
           r == SendResult::kBuffered;
  }
  // Quarantine blocks the sender before the recipient is considered, so
  // it is neither sent nor counted as a refusal; the enum still reports it.
  static constexpr bool counts_as_refused(SendResult r) noexcept {
    return r == SendResult::kNoBalance || r == SendResult::kDailyLimit;
  }
  static constexpr SendOutcome from(SendResult r) noexcept {
    return SendOutcome{r, counts_as_sent(r) ? 1u : 0u,
                       counts_as_refused(r) ? 1u : 0u};
  }
};

class ZmailSystem {
 public:
  explicit ZmailSystem(ZmailParams params, std::uint64_t seed = 42);
  // Network hosts and SMTP sessions call back into `this`: not copyable,
  // and so not movable either.
  ZmailSystem(const ZmailSystem&) = delete;
  ZmailSystem& operator=(const ZmailSystem&) = delete;

  // --- Mail ----------------------------------------------------------------
  // Sends from any user (compliant or legacy) to any user.  For compliant
  // senders this runs the full Section 4.1 action; for legacy senders the
  // mail is free.  Returns the protocol outcome.
  SendOutcome send_email(const net::EmailAddress& from,
                         const net::EmailAddress& to, std::string subject,
                         std::string body,
                         net::MailClass truth = net::MailClass::kLegitimate);
  SendOutcome send_email(net::EmailMessage msg);

  // --- User e-penny trades (Section 4.2) -----------------------------------
  bool buy_epennies(const net::EmailAddress& user, EPenny n);
  bool sell_epennies(const net::EmailAddress& user, EPenny n);

  // --- Deployment dynamics (Section 5) --------------------------------------
  // Flips a legacy ISP to compliant at runtime: the bank updates the
  // published compliant array (visible to all parties immediately — the
  // paper's broadcast) and the ISP starts running Zmail with fresh state.
  // Must be called while no mail is in flight (e.g. between simulated
  // days); billing-period boundaries are where real deployments would do
  // this, and it keeps the first snapshot after the flip consistent.
  void make_compliant(IspId isp);

  // --- Periodic machinery ---------------------------------------------------
  void enable_daily_resets();
  void enable_bank_trading(sim::Duration poll = 5 * sim::kMinute);
  void enable_periodic_snapshots(sim::Duration period);
  // One snapshot round now (requests go out over the network).
  void start_snapshot();

  // --- Telemetry (src/telemetry; off by default, like tracing) --------------
  // Registers one time-series sampler per entity signal (econ, core, store
  // scopes plus engine-only sim/net series) and schedules a read-only
  // sampling tick every cfg.sample_period of simulated time.  The tick draws
  // no randomness and mutates nothing, so enabling telemetry never changes
  // what the world does.  Call once, before the run.
  void enable_telemetry(const telemetry::TelemetryConfig& cfg);
  telemetry::TelemetryRegistry* telemetry() noexcept {
    return telemetry_.get();
  }
  const telemetry::TelemetryRegistry* telemetry() const noexcept {
    return telemetry_.get();
  }

  // --- Fault tolerance ------------------------------------------------------
  // Attaches a deterministic fault injector to the network (nullptr
  // detaches).  Not owned; must outlive the system or be detached.  For the
  // zero-sum invariants to survive lossy plans, enable
  // params.reliable_email_transport and params.retry first: both put their
  // wires on the acknowledged link.  With the durable store on
  // (params.store.enabled), every HostOutage in the plan becomes a real
  // crash: at the window's end the party's in-memory state is wiped and
  // rebuilt from its latest snapshot plus WAL-tail replay.
  void attach_faults(net::FaultInjector* injector);
  // Frames on the acknowledged link still awaiting their ack: paid email,
  // and with retry.enabled every ISP<->bank and inter-bank wire (0 when
  // idle, and always 0 with both switches off).
  std::size_t pending_transfers() const noexcept { return link_.pending(); }
  const Link& link() const noexcept { return link_; }

  // --- Durable store (params.store; see src/store) --------------------------
  // Crashes `host` (a compliant ISP index or any bank_host(b)) for
  // `down_for`: the network isolates it for the window, and at restart its
  // state is rebuilt from disk.  Requires params.store.enabled.  Attaches an
  // internal outage-only fault injector when none is attached yet.
  void crash_host(std::size_t host, sim::Duration down_for);
  // Wipes and rebuilds one party from snapshot + WAL replay, right now.
  // Normally invoked by the crash machinery; public for tests/benches.
  void recover_host(std::size_t host);
  // Forces a checkpoint (snapshot + WAL truncation) of one party / all
  // parties.  No-ops for hosts without a store.
  void checkpoint_host(std::size_t host);
  void checkpoint_all();
  // The party's Checkpointer, or nullptr when the store is off (or the
  // host is legacy).  Member bank b lives at bank_host(b).
  store::Checkpointer* host_store(std::size_t host) noexcept {
    return host < stores_.size() ? stores_[host].get() : nullptr;
  }
  // Network host of member bank b (banks live after the ISPs).
  std::size_t bank_host(std::size_t bank) const noexcept {
    return params_.n_isps + bank;
  }
  std::size_t bank_index() const noexcept { return bank_host(0); }
  // Crash recoveries performed via the durable store.
  std::uint64_t state_recoveries() const noexcept { return state_recoveries_; }

  // Field-wise sum of every open store's checkpoint + WAL counters (all
  // zeros when the durable store is off).  Feeds the obs snapshot.
  struct StoreTotals {
    std::uint64_t checkpoints = 0;
    std::uint64_t snapshot_bytes = 0;  // Σ last_snapshot_bytes over stores
    std::uint64_t snapshot_bytes_written = 0;  // Σ bytes_written
    std::uint64_t wal_records_truncated = 0;
    std::uint64_t wal_records_appended = 0;
    std::uint64_t wal_bytes_appended = 0;
    std::uint64_t wal_syncs = 0;   // sync points that stored records
    std::uint64_t wal_fsyncs = 0;  // fdatasync(2) barriers
  };
  StoreTotals store_totals() const;

  // --- Time ----------------------------------------------------------------
  void run_for(sim::Duration d);
  sim::SimTime now() const { return sim_.now(); }
  sim::Simulator& simulator() noexcept { return sim_; }
  const sim::Simulator& simulator() const noexcept { return sim_; }

  // --- Introspection ---------------------------------------------------------
  const ZmailParams& params() const noexcept { return params_; }
  bool is_compliant(IspId i) const { return params_.is_compliant(i.index()); }
  Isp& isp(IspId i);
  const Isp& isp(IspId i) const;
  // Typed row view of one user at one compliant ISP — shorthand for
  // isp(i).user(u); both ids convert implicitly from indices.
  UserRef user(IspId i, UserId u) { return isp(i).user(u); }
  ConstUserRef user(IspId i, UserId u) const { return isp(i).user(u); }
  BankFederation& bank() noexcept { return *bank_; }
  const BankFederation& bank() const noexcept { return *bank_; }
  net::Network& network() noexcept { return net_; }
  const net::Network& network() const noexcept { return net_; }
  const LegacyHostStats& legacy_stats(IspId i) const;
  Rng& rng() noexcept { return rng_; }

  // Per-compliant-ISP SMTP bytes processed (inbound), for E3.
  std::uint64_t smtp_bytes_received(IspId isp) const {
    return smtp_bytes_in_.at(isp.index());
  }

  // --- Metrics snapshot (obs layer; see src/core/obs.hpp) -------------------
  // Field-wise sum of every compliant ISP's counters.
  IspMetrics total_isp_metrics() const;
  // Aggregate of the legacy (non-compliant) hosts.
  LegacyHostStats total_legacy_stats() const;

  // End-to-end delivery latency of every inter-ISP email, in seconds
  // (submission at the sender's ISP to delivery at the recipient's ISP;
  // includes quiesce buffering).  Populated automatically.
  const Sample& delivery_latency() const noexcept { return latency_; }

  // --- Conservation invariants (checked by tests once the world is quiet) --
  // All e-pennies everywhere: user balances + avail pools + buffered sends +
  // e-pennies travelling inside in-flight paid emails.
  EPenny total_epennies() const;
  EPenny epennies_in_flight() const noexcept { return in_flight_paid_; }
  // Σ ISP bank accounts + Σ user real-money accounts + Σ ISP tills.
  Money total_real_money() const;
  // Initial e-penny endowment of the compliant ISPs (the conservation
  // baseline telemetry's derived gap series subtracts from).
  EPenny initial_endowment() const;
  // True when supply equals holdings: minted - burned == total_epennies().
  bool conservation_holds() const;

 private:
  // Every host's datagram handler: link acks and frames first, then
  // handle() for the payload.
  void on_datagram(std::size_t host, const net::Datagram& d);
  // Runs `host`'s handler for one message.
  void handle(std::size_t host, std::size_t from, net::MsgType type,
              std::span<const std::uint8_t> payload);
  void handle_bank(std::size_t bank, std::size_t from, net::MsgType type,
                   std::span<const std::uint8_t> payload);
  // Round-close bookkeeping after a bank handler ran: closes the round's
  // trace span and checkpoints the bank once per closed round.
  void after_bank_step(std::size_t bank, bool round_was_open);
  void deliver_via_smtp(std::size_t to_isp, std::size_t from_isp,
                        std::span<const std::uint8_t> payload);
  void pump_isp(std::size_t i);

  // Durable store plumbing (all no-ops when params_.store.enabled is off).
  void open_store(std::size_t host);
  void rebuild_from_store(std::size_t host);

  // ISP<->bank and inter-bank wires: a link frame under retry.enabled, a
  // plain datagram otherwise.
  void send_wire(std::size_t from, std::size_t to, net::MsgType type,
                 crypto::Bytes&& payload);
  // A paid email on the link (reliable_email_transport).
  void start_transfer(std::size_t from_isp, std::size_t to_isp,
                      crypto::Bytes&& email);
  // The link's timeout hook: counts the retransmission at the sending party.
  void on_link_timeout(const Link::Frame& f);
  void quiesce_timeout(std::size_t isp_index);

  ZmailParams params_;
  Rng rng_;
  std::uint64_t seed_;
  sim::Simulator sim_;
  net::Network net_;
  Link link_;

  std::vector<std::unique_ptr<Isp>> isps_;       // null for legacy slots
  std::vector<LegacyHostStats> legacy_;          // indexed like isps_
  std::unique_ptr<BankFederation> bank_;

  std::vector<std::uint64_t> smtp_bytes_in_;
  std::vector<std::string> isp_domains_;  // net::isp_domain(i), built once
  // Inter-ISP delivery state, reused by every deliver_via_smtp call so a
  // warm delivery allocates nothing: one SMTP server session per receiving
  // host (its callback swaps the parsed message into received_), the
  // view of the message decoded from the datagram, and the spare outbox
  // pump_isp trades with the ISP.  delivering_ guards the pair against
  // re-entry.
  std::vector<net::SmtpServerSession> smtp_sessions_;
  net::EmailView decoded_;
  net::EmailMessage received_;
  bool delivering_ = false;
  std::vector<Outbound> outbox_spare_;
  Sample latency_;
  // Telemetry (null when off — the off path constructs and schedules
  // nothing).  telem_latency_[i]: histogram channel for deliveries INTO
  // ISP i, kNoChannel for legacy slots.
  std::unique_ptr<telemetry::TelemetryRegistry> telemetry_;
  std::vector<std::size_t> telem_latency_;
  EPenny in_flight_paid_ = 0;
  bool snapshots_enabled_ = false;

  // Durable store state (all empty/null when params_.store.enabled is off,
  // so disabled runs construct nothing and schedule nothing extra).
  std::vector<std::unique_ptr<store::Checkpointer>> stores_;  // banks last
  // An ISP differential's dirty rows, gathered here for every host in turn.
  RowBuffer checkpoint_rows_;
  std::vector<std::uint64_t> isp_ctor_seed_;  // per-slot construction seeds
  net::FaultInjector* faults_ = nullptr;  // whatever attach_faults() saw last
  std::unique_ptr<net::FaultInjector> crash_faults_;  // crash_host() fallback
  std::uint64_t state_recoveries_ = 0;
  std::vector<std::uint64_t> bank_ckpt_seq_;  // per bank: round checkpointed
  // Per ISP: when its armed quiesce timeout fires.  A request accepted
  // after that gets a timeout of its own.
  std::vector<sim::SimTime> quiesce_deadline_;
};

}  // namespace zmail::core
