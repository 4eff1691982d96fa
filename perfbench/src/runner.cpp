#include "runner.hpp"

#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>

#include "core/invariants.hpp"
#include "core/system.hpp"
#include "net/address.hpp"
#include "net/faults.hpp"
#include "net/smtp.hpp"
#include "sim/simulator.hpp"
#include "store/wal.hpp"
#include "telemetry/registry.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace zmail;
using Clock = std::chrono::steady_clock;

namespace {

// Section 4.4's quiesce window, which a replayed snapshot round waits out.
constexpr sim::Duration kQuiesceWindow = 10 * sim::kMinute;
constexpr sim::Duration kDrainStep = 10 * sim::kMinute;
constexpr int kMaxDrainSteps = 144;  // one simulated day past the horizon
constexpr std::size_t kSliceOps = 100;
// Replays time this many inputs per pass and keep the median of 3 passes.
constexpr std::size_t kReplayInputs = 2'000;
constexpr int kReplayPasses = 3;
// Replay results land here so the compiler cannot drop the timed work.
volatile std::size_t g_replay_sink = 0;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

// Nothing in flight, no round open, no buffered or pending exchange.
bool quiet(const core::ZmailSystem& sys) {
  if (sys.pending_transfers() != 0 || sys.epennies_in_flight() != 0 ||
      sys.bank().round_open())
    return false;
  for (std::size_t i = 0; i < sys.params().n_isps; ++i) {
    const core::Isp& isp = sys.isp(i);
    if (isp.bank_exchange_pending() || isp.in_quiesce() ||
        isp.buffered_count() != 0)
      return false;
  }
  return true;
}

net::EmailAddress user_address(const WorkloadSpec& spec, std::uint32_t g) {
  return net::make_user_address(g / spec.params.users_per_isp,
                                g % spec.params.users_per_isp);
}

// Median, 99th percentile and count of a span's durations, under `name`,
// `name.p99` and `name.count`.
void add_span_metrics(std::vector<Metric>& out, const std::string& name,
                      const std::vector<double>& ns) {
  const std::uint64_t n = ns.size();
  out.push_back({name, n ? percentile(ns, 50) : 0.0, "ns", n});
  out.push_back({name + ".p99", n ? percentile(ns, 99) : 0.0, "ns", n});
  out.push_back({name + ".count", static_cast<double>(n), "count", n});
}

// Percentile of a log2-bucketed profile histogram, interpolated inside the
// bucket that holds the rank (bucket i covers [2^i, 2^(i+1)) ns).
double profile_percentile(const trace::ProfileHistogram::Snapshot& s,
                          double p) {
  if (s.count == 0) return 0.0;
  const double target = p / 100.0 * static_cast<double>(s.count);
  double seen = 0.0;
  for (std::size_t i = 0; i < trace::ProfileHistogram::kBuckets; ++i) {
    const auto in_bucket = static_cast<double>(s.buckets[i]);
    if (in_bucket > 0 && seen + in_bucket >= target) {
      const double lo = i == 0 ? 0.0 : static_cast<double>(1ULL << i);
      const double hi = static_cast<double>(1ULL << (i + 1));
      const double v = lo + (hi - lo) * (target - seen) / in_bucket;
      return std::clamp(v, static_cast<double>(s.min_ns),
                        static_cast<double>(s.max_ns));
    }
    seen += in_bucket;
  }
  return static_cast<double>(s.max_ns);
}

void add_profile_metrics(std::vector<Metric>& out, const std::string& name,
                         const char* scope) {
  const auto s = trace::profile(scope).snapshot();
  out.push_back({name, profile_percentile(s, 50), "ns", s.count});
  out.push_back({name + ".p99", profile_percentile(s, 99), "ns", s.count});
  out.push_back({name + ".count", static_cast<double>(s.count), "count",
                 s.count});
}

// Median over passes of the mean ns per call of `fn(i)` over `n` inputs.
template <typename Fn>
double replay_ns(std::size_t n, Fn&& fn) {
  std::vector<double> passes;
  for (int p = 0; p < kReplayPasses; ++p) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) fn(i);
    passes.push_back(ns_between(t0, Clock::now()) / static_cast<double>(n));
  }
  return percentile(passes, 50);
}

// A world plus the fault injector it holds a pointer to (declared first,
// so it is destroyed last).
struct World {
  std::unique_ptr<net::FaultInjector> faults;
  std::unique_ptr<core::ZmailSystem> sys;
};

World build_world(const WorkloadSpec& spec, const RepOptions& opt,
                  SpanLog* spans, std::uint32_t parent) {
  World w;
  core::ZmailParams p = spec.params;
  if (p.store.enabled) p.store.dir = opt.store_dir;
  w.sys = std::make_unique<core::ZmailSystem>(p, opt.seed);
  core::ZmailSystem& sys = *w.sys;
  sys.enable_bank_trading();
  if (spec.daily_resets) sys.enable_daily_resets();
  if (spec.snapshot_period > 0)
    sys.enable_periodic_snapshots(spec.snapshot_period);
  if (spec.telemetry_period > 0) {
    telemetry::TelemetryConfig tc;
    tc.enabled = true;
    tc.sample_period = spec.telemetry_period;
    sys.enable_telemetry(tc);
  }
  if (spec.fault_rate > 0) {
    net::FaultPlan plan;
    plan.rates.drop = spec.fault_rate;
    plan.rates.duplicate = spec.fault_rate;
    plan.rates.reorder = spec.fault_rate;
    // Snapshot requests and credit reports are exempt: a re-sent request
    // lets a peer's next-period mail land in a late-quiescing ISP's old
    // period, which the bank rightly flags as an inconsistent pair, and the
    // gate requires none.  Mail and trades still see every fault.
    plan.only_types = {net::MsgType::intern("email-rel"),
                       net::MsgType::intern("email-ack"),
                       net::kMsgBuy,
                       net::kMsgBuyReply,
                       net::kMsgSell,
                       net::kMsgSellReply};
    w.faults = std::make_unique<net::FaultInjector>(plan, opt.seed ^ 0xFA17ULL);
    sys.attach_faults(w.faults.get());
  }
  if (p.store.enabled) {
    const std::uint32_t s =
        spans ? spans->begin(SpanName::kCheckpointAll, parent) : 0;
    sys.checkpoint_all();
    if (spans) spans->end(s, static_cast<std::uint32_t>(p.n_isps + 1));
  }
  return w;
}

void tear_down(World& w, const WorkloadSpec& spec, const RepOptions& opt) {
  w.sys.reset();
  w.faults.reset();
  // Hand freed pages back to the kernel so every repetition builds its
  // world on cold memory, as a fresh process would.
  ::malloc_trim(0);
  if (spec.params.store.enabled) std::filesystem::remove_all(opt.store_dir);
}

struct Counts {
  std::uint64_t refused_sends = 0;
  std::uint64_t trades_ok = 0;
  std::uint64_t trades_refused = 0;
  std::vector<double> queue_depth;  // traced rep: pending events per op
};

// Runs `sys` forward to `t`, recording a span when tracing.
void run_to(core::ZmailSystem& sys, sim::SimTime t, SpanLog* spans,
            std::uint32_t parent) {
  if (t <= sys.now()) return;
  if (!spans) {
    sys.run_for(t - sys.now());
    return;
  }
  const std::uint32_t s = spans->begin(SpanName::kRunFor, parent);
  sys.run_for(t - sys.now());
  spans->end(s);
}

// Returns the start of the last, still open slice.
Clock::time_point replay_ops(core::ZmailSystem& sys, const WorkloadSpec& spec,
                             const OpStream& ops, SpanLog* spans,
                             std::uint32_t parent, Counts& c, RepResult& r) {
  Clock::time_point mark = Clock::now();
  std::size_t done = 0;
  for (const Op& op : ops.ops) {
    if (++done % kSliceOps == 0) {
      const Clock::time_point now = Clock::now();
      r.slice_ns.push_back(ns_between(mark, now));
      mark = now;
    }
    run_to(sys, op.at, spans, parent);
    if (spans)
      c.queue_depth.push_back(static_cast<double>(sys.simulator().pending()));
    switch (op.kind) {
      case OpKind::kSend:
      case OpKind::kSpam: {
        const std::uint32_t s =
            spans ? spans->begin(SpanName::kSend, parent) : 0;
        const core::SendOutcome out = sys.send_email(
            user_address(spec, op.from), user_address(spec, op.to),
            ops.subjects[op.body], ops.bodies[op.body], ops.classes[op.body]);
        if (spans) spans->end(s);
        if (!out.all_sent() || out.result == core::SendResult::kQuarantined ||
            out.result == core::SendResult::kShed)
          ++c.refused_sends;
        break;
      }
      case OpKind::kBuy:
      case OpKind::kSell: {
        const std::uint32_t s =
            spans ? spans->begin(SpanName::kTrade, parent) : 0;
        const net::EmailAddress who = user_address(spec, op.from);
        const bool ok = op.kind == OpKind::kBuy
                            ? sys.buy_epennies(who, op.to)
                            : sys.sell_epennies(who, op.to);
        if (spans) spans->end(s);
        ++(ok ? c.trades_ok : c.trades_refused);
        break;
      }
      case OpKind::kRecoverIsp:
      case OpKind::kRecoverBank: {
        const bool bank = op.kind == OpKind::kRecoverBank;
        const std::uint32_t s =
            spans ? spans->begin(bank ? SpanName::kRecoverBank
                                      : SpanName::kRecoverIsp,
                                 parent)
                  : 0;
        const auto t0 = Clock::now();
        sys.recover_host(bank ? sys.bank_index() : op.from);
        const auto t1 = Clock::now();
        if (spans) spans->end(s);
        if (!bank) r.recover_isp_ms.push_back(ns_between(t0, t1) / 1e6);
        break;
      }
    }
  }
  return mark;
}

// The correctness gate; each violation counts as one failed op.
void check_world(core::ZmailSystem& sys, core::InvariantAuditor& auditor,
                 RepResult& r) {
  auto fail = [&r](std::uint64_t n, std::string msg) {
    if (n == 0) return;
    r.failed += n;
    r.failures.push_back(std::move(msg));
  };
  fail(quiet(sys) ? 0 : 1,
       "not quiet after the drain (mail in flight, round open, buffered "
       "send or ISP<->bank trade never completed)");
  fail(sys.conservation_holds() ? 0 : 1, "e-penny conservation broken");
  auditor.check_now();
  const core::InvariantReport& rep = auditor.report();
  fail(rep.violations,
       "invariant: " + (rep.messages.empty() ? std::string("?")
                                             : rep.messages.front()));
  fail(sys.pending_transfers(), "transfers pending after the drain");
  const core::IspMetrics m = sys.total_isp_metrics();
  const std::uint64_t accepted =
      m.emails_sent_local + m.emails_sent_compliant + m.zombie_warnings_sent;
  const std::uint64_t settled = m.emails_delivered + m.emails_refunded;
  fail(accepted > settled ? accepted - settled : settled - accepted,
       "accepted emails not settled exactly once (delivered or refunded)");
  fail(sys.bank().metrics().inconsistent_pairs_found,
       "bank found inconsistent credit pairs");
  fail(sys.network().send_errors(), "network send errors");
}

std::string digest_of(const core::ZmailSystem& sys, const Counts& c,
                      const RepResult& r) {
  const core::IspMetrics m = sys.total_isp_metrics();
  const core::BankMetrics& b = sys.bank().metrics();
  const Sample& lat = sys.delivery_latency();
  char buf[640];
  std::snprintf(
      buf, sizeof buf,
      "sent_local=%llu sent_remote=%llu delivered=%llu refunded=%llu "
      "refused=%llu buffered=%llu trades_ok=%llu trades_refused=%llu "
      "bank_buys=%llu bank_sells=%llu rounds=%llu latency_n=%zu "
      "latency_sum=%a latency_p50=%a latency_p99=%a",
      static_cast<unsigned long long>(m.emails_sent_local),
      static_cast<unsigned long long>(m.emails_sent_compliant),
      static_cast<unsigned long long>(m.emails_delivered),
      static_cast<unsigned long long>(m.emails_refunded),
      static_cast<unsigned long long>(c.refused_sends),
      static_cast<unsigned long long>(m.emails_buffered_during_quiesce),
      static_cast<unsigned long long>(c.trades_ok),
      static_cast<unsigned long long>(c.trades_refused),
      static_cast<unsigned long long>(b.buys_accepted),
      static_cast<unsigned long long>(b.sells_received),
      static_cast<unsigned long long>(b.snapshot_rounds), lat.size(),
      lat.empty() ? 0.0 : lat.sum(), r.latency_p50_s, r.latency_p99_s);
  return buf;
}

// Per-layer counters of the finished (drained, checked) traced world.
void collect_layer_counts(core::ZmailSystem& sys, const World& w,
                          RepResult& r, const Counts& c,
                          std::uint64_t trace_events, SpanLog& spans) {
  std::vector<Metric>& out = r.layers;
  const auto emails = static_cast<double>(r.emails);
  const core::IspMetrics m = sys.total_isp_metrics();
  const core::BankMetrics& b = sys.bank().metrics();
  const std::uint64_t n = r.emails;

  const sim::Simulator& sim = sys.simulator();
  out.push_back({"sim.events_per_email",
                 static_cast<double>(sim.events_executed()) / emails, "count",
                 n});
  out.push_back({"sim.calendar_rebases",
                 static_cast<double>(sim.calendar_rebases()), "count", 1});
  double run_ns = 0.0;
  const std::vector<double> runs = spans.durations_ns(SpanName::kRunFor);
  for (double d : runs) run_ns += d;
  out.push_back({"sim.run_ns_per_email", run_ns / emails, "ns", runs.size()});

  const net::Network& net = sys.network();
  std::uint64_t smtp_bytes = 0;
  for (std::size_t i = 0; i < sys.params().n_isps; ++i)
    smtp_bytes += sys.smtp_bytes_received(i);
  out.push_back({"net.datagrams_per_email",
                 static_cast<double>(net.datagrams_sent()) / emails, "count",
                 n});
  out.push_back({"net.bytes_per_email",
                 static_cast<double>(net.bytes_sent()) / emails, "B", n});
  out.push_back({"net.smtp_bytes_per_email",
                 static_cast<double>(smtp_bytes) / emails, "B", n});
  out.push_back({"net.send_errors", static_cast<double>(net.send_errors()),
                 "count", n});
  out.push_back({"net.faults_injected",
                 w.faults ? static_cast<double>(
                                w.faults->counters().total_injected())
                          : 0.0,
                 "count", net.datagrams_sent()});
  out.push_back({"net.retransmits",
                 static_cast<double>(m.emails_retransmitted + m.bank_retries +
                                     m.report_retries),
                 "count", n});
  const std::uint64_t transmissions =
      m.emails_sent_compliant + m.emails_retransmitted;
  out.push_back({"net.arq_useful_ratio",
                 transmissions ? static_cast<double>(
                                     m.emails_received_compliant) /
                                     static_cast<double>(transmissions)
                               : 1.0,
                 "ratio", transmissions});

  add_profile_metrics(out, "crypto.seal_ns", "crypto.seal");
  add_profile_metrics(out, "crypto.unseal_ns", "crypto.unseal");

  add_span_metrics(out, "core.send_ns", spans.durations_ns(SpanName::kSend));
  add_span_metrics(out, "core.trade_ns", spans.durations_ns(SpanName::kTrade));
  out.push_back({"core.accept_ratio",
                 1.0 - static_cast<double>(c.refused_sends) / emails, "ratio",
                 n});
  out.push_back({"core.refused",
                 static_cast<double>(m.refused_no_balance +
                                     m.refused_daily_limit),
                 "count", n});
  out.push_back({"core.buffered_in_quiesce",
                 static_cast<double>(m.emails_buffered_during_quiesce),
                 "count", n});

  out.push_back({"bank.rounds", static_cast<double>(b.snapshot_rounds),
                 "count", 1});
  out.push_back({"bank.credit_reports",
                 static_cast<double>(b.credit_reports_received), "count", 1});
  out.push_back({"bank.trades",
                 static_cast<double>(b.buys_accepted + b.sells_received),
                 "count", 1});
  out.push_back({"bank.inconsistent_pairs",
                 static_cast<double>(b.inconsistent_pairs_found), "count", 1});

  const core::ZmailSystem::StoreTotals st = sys.store_totals();
  out.push_back({"store.wal_records_per_email",
                 static_cast<double>(st.wal_records_appended) / emails,
                 "count", n});
  out.push_back({"store.wal_bytes_per_email",
                 static_cast<double>(st.wal_bytes_appended) / emails, "B", n});
  out.push_back({"store.checkpoints", static_cast<double>(st.checkpoints),
                 "count", 1});
  out.push_back({"store.snapshot_bytes",
                 static_cast<double>(st.snapshot_bytes), "B", 1});
  const std::vector<double> ckpt = spans.durations_ns(SpanName::kCheckpointAll);
  const double hosts = static_cast<double>(sys.params().n_isps + 1);
  out.push_back({"store.checkpoint_ns",
                 ckpt.empty() ? 0.0 : percentile(ckpt, 50) / hosts, "ns",
                 ckpt.size()});
  const std::vector<double> risp = spans.durations_ns(SpanName::kRecoverIsp);
  const std::vector<double> rbank = spans.durations_ns(SpanName::kRecoverBank);
  out.push_back({"store.recover_isp_ns",
                 risp.empty() ? 0.0 : percentile(risp, 50), "ns", risp.size()});
  out.push_back({"store.recover_bank_ns",
                 rbank.empty() ? 0.0 : percentile(rbank, 50), "ns",
                 rbank.size()});

  const telemetry::TelemetryRegistry* t = sys.telemetry();
  out.push_back({"telemetry.series",
                 t ? static_cast<double>(t->series_count()) : 0.0, "count", 1});
  out.push_back({"telemetry.ticks", t ? static_cast<double>(t->ticks()) : 0.0,
                 "count", 1});
  out.push_back({"trace.events_per_email",
                 static_cast<double>(trace_events) / emails, "count", n});
}

// Replay timings on inputs captured from the run, with tracing off.
void replay_layers(core::ZmailSystem& sys, const WorkloadSpec& spec,
                   const OpStream& ops, const Counts& c,
                   const RepOptions& opt, std::vector<Metric>& out) {
  // Inputs: the first sends of the stream, as the facade would build them.
  std::vector<net::EmailMessage> msgs;
  std::vector<crypto::Bytes> wires;
  std::vector<std::uint16_t> bodies;
  for (const Op& op : ops.ops) {
    if (msgs.size() == kReplayInputs) break;
    if (op.kind != OpKind::kSend && op.kind != OpKind::kSpam) continue;
    net::EmailMessage m = net::make_email(
        user_address(spec, op.from), user_address(spec, op.to),
        ops.subjects[op.body], ops.bodies[op.body], ops.classes[op.body]);
    m.set_header("X-Zmail-Sent-At", std::to_string(op.at));
    wires.push_back(m.serialize());
    msgs.push_back(std::move(m));
    bodies.push_back(op.body);
  }
  const std::size_t n = msgs.size();

  std::size_t sink = 0;
  out.push_back({"net.make_email_ns", replay_ns(n, [&](std::size_t i) {
                   sink += net::make_email(msgs[i].from, msgs[i].to.front(),
                                           ops.subjects[bodies[i]],
                                           ops.bodies[bodies[i]])
                               .body.size();
                 }),
                 "ns", n});
  out.push_back({"net.serialize_ns", replay_ns(n, [&](std::size_t i) {
                   sink += msgs[i].serialize().size();
                 }),
                 "ns", n});
  out.push_back({"net.deserialize_ns", replay_ns(n, [&](std::size_t i) {
                   const auto m = net::EmailMessage::deserialize(wires[i]);
                   sink += m->body.size();
                 }),
                 "ns", n});
  out.push_back(
      {"net.smtp_transfer_ns", replay_ns(n, [&](std::size_t i) {
         const std::size_t to_isp = i % spec.params.n_isps;
         net::SmtpServerSession session(
             net::isp_domain(to_isp),
             [&sink](const net::EmailMessage& m) { sink += m.body.size(); });
         sink += net::smtp_transfer(msgs[i], net::isp_domain(0), session)
                     .bytes_client_to_server;
       }),
       "ns", n});

  // Calendar cost at the queue depth the run saw (median over ops).
  {
    const auto depth = static_cast<std::size_t>(
        c.queue_depth.empty() ? 0.0 : percentile(c.queue_depth, 50));
    sim::Simulator replay_sim;
    Rng rng(opt.seed);
    std::vector<sim::Duration> offsets(1 << 16);
    for (auto& o : offsets)
      o = 1 + static_cast<sim::Duration>(rng.next_below(sim::kHour));
    for (std::size_t i = 0; i < depth; ++i)
      replay_sim.schedule_at(offsets[i % offsets.size()], [] {});
    const std::size_t events = 200'000;
    out.push_back({"sim.event_ns", replay_ns(events, [&](std::size_t i) {
                     replay_sim.schedule_at(
                         replay_sim.now() + offsets[i % offsets.size()], [] {});
                     replay_sim.step();
                   }),
                   "ns", events});
  }

  // WAL appends with the run's record-size mix (a send's record carries
  // the serialized email).
  {
    std::filesystem::create_directories(opt.scratch_dir);
    const std::string path = opt.scratch_dir + "/replay.zwal";
    std::filesystem::remove(path);
    store::WalWriter wal;
    std::string err;
    double ns = 0.0;
    if (wal.open(path, 1, /*fsync_data=*/false, &err)) {
      std::vector<crypto::Bytes> records;
      for (const crypto::Bytes& w : wires) {
        crypto::Bytes rec(24, 0);
        rec.insert(rec.end(), w.begin(), w.end());
        records.push_back(std::move(rec));
      }
      ns = replay_ns(n, [&](std::size_t i) { wal.append(1, records[i]); });
      wal.close();
    }
    std::filesystem::remove(path);
    out.push_back({"store.wal_append_ns", ns, "ns", n});
  }

  // Daily sweep of one ISP's population.
  out.push_back({"core.end_of_day_ns",
                 replay_ns(5, [&](std::size_t) { sys.isp(0).end_of_day(); }),
                 "ns", 5 * kReplayPasses});

  // Telemetry tick over the final world (only where telemetry is on).
  if (telemetry::TelemetryRegistry* t = sys.telemetry()) {
    out.push_back({"telemetry.tick_ns", replay_ns(20, [&](std::size_t i) {
                     t->sample(sys.now() + static_cast<sim::SimTime>(i));
                   }),
                   "ns", 20 * kReplayPasses});
  } else {
    out.push_back({"telemetry.tick_ns", 0.0, "ns", 0});
  }

  // One snapshot round: request fan-out, quiesce, reports, settlement.
  std::vector<double> rounds;
  for (int k = 0; k < 5; ++k) {
    const auto t0 = Clock::now();
    sys.start_snapshot();
    sys.run_for(kQuiesceWindow + sim::kMinute);
    rounds.push_back(ns_between(t0, Clock::now()));
  }
  out.push_back({"bank.round_ns", percentile(rounds, 50), "ns",
                 rounds.size()});
  g_replay_sink = sink;
}

}  // namespace

const char* span_name(SpanName n) noexcept {
  switch (n) {
    case SpanName::kRep: return "rep";
    case SpanName::kSetup: return "setup";
    case SpanName::kCheckpointAll: return "checkpoint_all";
    case SpanName::kTimed: return "timed";
    case SpanName::kRunFor: return "run_for";
    case SpanName::kSend: return "send_email";
    case SpanName::kTrade: return "trade";
    case SpanName::kRecoverIsp: return "recover_isp";
    case SpanName::kRecoverBank: return "recover_bank";
    case SpanName::kDrain: return "drain";
  }
  return "?";
}

std::uint64_t SpanLog::now_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           origin_)
          .count());
}

std::uint32_t SpanLog::begin(SpanName name, std::uint32_t parent) {
  Span s;
  s.start_ns = now_ns();
  s.parent = parent;
  s.name = name;
  spans_.push_back(s);
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

void SpanLog::end(std::uint32_t id, std::uint32_t count) {
  spans_[id].end_ns = now_ns();
  spans_[id].count = count;
}

std::vector<double> SpanLog::durations_ns(SpanName name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.name == name)
      out.push_back(static_cast<double>(s.end_ns - s.start_ns));
  return out;
}

bool SpanLog::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fputs("id,name,parent,start_ns,end_ns,count\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu,%s,%lld,%llu,%llu,%u\n", i, span_name(s.name),
                 s.parent == kNoParent ? -1LL
                                       : static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns), s.count);
  }
  return std::fclose(f) == 0;
}

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (rank - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

RepResult run_rep(const WorkloadSpec& spec, const OpStream& ops,
                  const RepOptions& opt) {
  RepResult r;
  r.ops = ops.ops.size();
  r.emails = ops.emails;
  SpanLog* spans = opt.spans;
  if (spec.params.store.enabled) std::filesystem::remove_all(opt.store_dir);
  if (spans) {
    trace::clear();
    trace::reset_profiles();
    trace::set_enabled(true);
  }
  const std::uint32_t rep =
      spans ? spans->begin(SpanName::kRep, SpanLog::kNoParent) : 0;

  const auto t_setup = Clock::now();
  const std::uint32_t setup = spans ? spans->begin(SpanName::kSetup, rep) : 0;
  World w = build_world(spec, opt, spans, setup);
  if (spans) spans->end(setup);
  const auto t_setup_end = Clock::now();
  core::ZmailSystem& sys = *w.sys;
  // The auditor's real-money baseline is harness work, outside both phases.
  core::InvariantAuditor auditor(sys);

  Counts c;
  const auto t_timed = Clock::now();
  const std::uint32_t timed = spans ? spans->begin(SpanName::kTimed, rep) : 0;
  const Clock::time_point slice =
      replay_ops(sys, spec, ops, spans, timed, c, r);
  const std::uint32_t drain = spans ? spans->begin(SpanName::kDrain, timed) : 0;
  run_to(sys, spec.horizon, spans, drain);
  for (int k = 0; k < kMaxDrainSteps && !quiet(sys); ++k)
    run_to(sys, sys.now() + kDrainStep, spans, drain);
  if (spans) {
    spans->end(drain);
    spans->end(timed, static_cast<std::uint32_t>(r.ops));
  }
  const auto t_end = Clock::now();
  r.slice_ns.push_back(ns_between(slice, t_end));
  std::uint64_t trace_events = 0;
  if (spans) {
    trace::set_enabled(false);
    trace::set_profiling_enabled(false);
    trace_events = trace::collect().size() + trace::dropped();
    spans->end(rep);
  }

  r.setup_s = seconds_between(t_setup, t_setup_end);
  r.timed_s = seconds_between(t_timed, t_end);
  const Sample& lat = sys.delivery_latency();
  r.latency_samples = lat.size();
  if (!lat.empty()) {
    r.latency_p50_s = lat.percentile(50);
    r.latency_p99_s = lat.percentile(99);
  }
  r.refused = c.refused_sends;
  check_world(sys, auditor, r);
  r.digest = digest_of(sys, c, r);

  if (spans) {
    collect_layer_counts(sys, w, r, c, trace_events, *spans);
    replay_layers(sys, spec, ops, c, opt, r.layers);
  }
  tear_down(w, spec, opt);
  return r;
}

double time_setup(const WorkloadSpec& spec, const RepOptions& opt) {
  if (spec.params.store.enabled) std::filesystem::remove_all(opt.store_dir);
  const auto t0 = Clock::now();
  World w = build_world(spec, opt, nullptr, SpanLog::kNoParent);
  const double s = seconds_between(t0, Clock::now());
  tear_down(w, spec, opt);
  return s;
}

}  // namespace perfbench
