#include "ops.hpp"

#include <algorithm>
#include <cmath>

#include "util/rng.hpp"
#include "workload/corpus.hpp"

namespace perfbench {

using namespace zmail;

namespace {

constexpr std::size_t kHamBodies = 192;
constexpr std::size_t kNewsletterBodies = 32;
constexpr std::size_t kSpamBodies = 32;

WorkloadSpec mail_day() {
  WorkloadSpec w;
  w.name = "mail_day";
  w.why = "1M users, one diurnal day of mostly inter-ISP mail: the per-email "
          "path (SMTP, codec, network, calendar) dominates";
  w.params.n_isps = 16;
  w.params.users_per_isp = 62'500;
  w.params.record_inboxes = false;
  // Wide avail bounds: bank trading polls run but never fire a trade.
  w.params.minavail = 0;
  w.params.maxavail = 1'000'000'000;
  w.horizon = sim::kDay;
  w.ops = 300'000;
  w.local_share = 0.30;
  return w;
}

WorkloadSpec market_month() {
  WorkloadSpec w;
  w.name = "market_month";
  w.why = "64 ISPs over 30 days with snapshot rounds, trades, spam and "
          "telemetry: the bank market and daily sweeps dominate";
  w.params.n_isps = 64;
  w.params.users_per_isp = 10'000;
  w.params.record_inboxes = false;
  // A narrow avail band, so user trades push ISPs into bank trades.
  w.params.initial_avail = 2'000;
  w.params.minavail = 1'500;
  w.params.maxavail = 2'500;
  w.horizon = 30 * sim::kDay;
  w.ops = 150'000;
  w.local_share = 0.80;
  w.spam_share = 0.20;
  w.trade_share = 0.10;
  w.spammers_per_isp = 2;
  w.daily_resets = true;
  w.snapshot_period = 2 * sim::kHour;
  w.telemetry_period = 4 * sim::kHour;
  return w;
}

WorkloadSpec crash_recovery() {
  WorkloadSpec w;
  w.name = "crash_recovery";
  w.why = "800k users under 1% faults with WAL, checkpoints and recover_host "
          "rebuilds: the durable store and the ARQ transport dominate";
  w.params.n_isps = 8;
  w.params.users_per_isp = 100'000;
  w.params.record_inboxes = false;
  w.params.retry.enabled = true;
  w.params.reliable_email_transport = true;
  w.params.store.enabled = true;
  w.params.store.fsync_data = false;
  w.horizon = 12 * sim::kHour;
  w.ops = 100'000;
  w.local_share = 0.20;
  w.isp_recoveries = 12;
  w.bank_recoveries = 3;
  w.snapshot_period = 2 * sim::kHour;
  w.fault_rate = 0.01;
  return w;
}

// Arrival time with a diurnal rate: lowest at midnight, 4x higher at noon.
sim::SimTime diurnal_time(Rng& rng, sim::Duration horizon) {
  constexpr double kTwoPi = 6.283185307179586;
  for (;;) {
    const auto t = static_cast<sim::SimTime>(
        rng.next_below(static_cast<std::uint64_t>(horizon)));
    const double phase = kTwoPi * static_cast<double>(t % sim::kDay) /
                         static_cast<double>(sim::kDay);
    if (rng.next_double() * 1.6 < 1.0 - 0.6 * std::cos(phase)) return t;
  }
}

void fnv(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001B3ULL;
  }
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"mail_day", "market_month",
                                                 "crash_recovery"};
  return names;
}

std::optional<WorkloadSpec> workload_spec(const std::string& name) {
  if (name == "mail_day") return mail_day();
  if (name == "market_month") return market_month();
  if (name == "crash_recovery") return crash_recovery();
  return std::nullopt;
}

OpStream generate_ops(const WorkloadSpec& spec, std::uint64_t seed) {
  OpStream s;
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + spec.ops);

  workload::CorpusGenerator corpus(workload::CorpusParams{}, rng.split());
  for (std::size_t i = 0; i < kHamBodies + kNewsletterBodies + kSpamBodies;
       ++i) {
    net::MailClass c = net::MailClass::kLegitimate;
    if (i >= kHamBodies) c = net::MailClass::kNewsletter;
    if (i >= kHamBodies + kNewsletterBodies) c = net::MailClass::kSpam;
    s.classes.push_back(c);
    s.subjects.push_back("note " + std::to_string(i));
    s.bodies.push_back(c == net::MailClass::kSpam ? corpus.spam_body()
                       : c == net::MailClass::kNewsletter
                           ? corpus.newsletter_body()
                           : corpus.ham_body());
  }

  const std::size_t n_isps = spec.params.n_isps;
  const std::size_t users = spec.params.users_per_isp;
  auto user_at = [&](std::size_t isp) {
    return static_cast<std::uint32_t>(isp * users + rng.next_below(users));
  };
  auto recipient = [&](std::size_t from_isp) {
    std::size_t isp = from_isp;
    if (!rng.bernoulli(spec.local_share)) {
      isp = rng.next_below(n_isps - 1);
      if (isp >= from_isp) ++isp;
    }
    return user_at(isp);
  };

  s.ops.reserve(spec.ops + spec.isp_recoveries + spec.bank_recoveries);
  for (std::size_t i = 0; i < spec.ops; ++i) {
    Op op;
    op.at = diurnal_time(rng, spec.horizon);
    const double u = rng.next_double();
    if (u < spec.spam_share) {
      const std::size_t isp = rng.next_below(n_isps);
      op.kind = OpKind::kSpam;
      op.from = static_cast<std::uint32_t>(
          isp * users + rng.next_below(spec.spammers_per_isp));
      op.to = user_at(rng.next_below(n_isps));
      op.body = static_cast<std::uint16_t>(kHamBodies + kNewsletterBodies +
                                           rng.next_below(kSpamBodies));
      ++s.emails;
    } else if (u < spec.spam_share + spec.trade_share) {
      const bool buy = rng.bernoulli(0.6);
      op.kind = buy ? OpKind::kBuy : OpKind::kSell;
      op.from = user_at(rng.next_below(n_isps));
      op.to = static_cast<std::uint32_t>(buy ? rng.uniform_int(20, 100)
                                             : rng.uniform_int(10, 60));
      ++s.trades;
    } else {
      const std::size_t isp = rng.next_below(n_isps);
      op.kind = OpKind::kSend;
      op.from = user_at(isp);
      op.to = recipient(isp);
      op.body = static_cast<std::uint16_t>(
          rng.next_below(kHamBodies + kNewsletterBodies));
      ++s.emails;
    }
    s.ops.push_back(op);
  }

  // Rebuilds are spread evenly; the bank's are offset so they never share
  // a timestamp with an ISP's.
  for (std::size_t k = 0; k < spec.isp_recoveries; ++k) {
    Op op;
    op.kind = OpKind::kRecoverIsp;
    op.at = static_cast<sim::SimTime>((2 * k + 1) * spec.horizon /
                                      (2 * spec.isp_recoveries));
    op.from = static_cast<std::uint32_t>(k % n_isps);
    s.ops.push_back(op);
  }
  for (std::size_t k = 0; k < spec.bank_recoveries; ++k) {
    Op op;
    op.kind = OpKind::kRecoverBank;
    op.at = static_cast<sim::SimTime>((2 * k + 1) * spec.horizon /
                                      (2 * spec.bank_recoveries)) +
            7 * sim::kMinute;
    op.from = static_cast<std::uint32_t>(n_isps);
    s.ops.push_back(op);
  }

  std::stable_sort(s.ops.begin(), s.ops.end(),
                   [](const Op& a, const Op& b) { return a.at < b.at; });
  return s;
}

std::uint64_t stream_digest(const OpStream& s) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const Op& op : s.ops) {
    fnv(h, static_cast<std::uint64_t>(op.at));
    fnv(h, op.from);
    fnv(h, op.to);
    fnv(h, op.body);
    fnv(h, static_cast<std::uint64_t>(op.kind));
  }
  for (const std::string& b : s.bodies)
    for (const char c : b) fnv(h, static_cast<unsigned char>(c));
  return h;
}

}  // namespace perfbench
