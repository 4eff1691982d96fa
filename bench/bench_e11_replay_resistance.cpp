// E11 — Replay and tamper resistance (paper Section 4.3/4.4).
//
// Claim: "we add nonces to prevent message replay attacks" (buy/sell) and
// "each request message from the bank has a sequence number, which is used
// to prevent message replay attacks."
//
// Regenerates:
//   E11.a  replay storm against the ISP's buy/sell replies: zero state
//          drift at any replay factor
//   E11.b  replay of snapshot requests and credit reports
//   E11.c  random tampering of sealed envelopes: rejection rate
//   E11.d  transport-level duplication: the network (not a hand-rolled
//          harness) duplicates datagrams of every type; the bank's nonce
//          ledger and the sequence checks absorb the settlement wires'
//          copies, and the link's receive window the paid mail's
#include "bench_common.hpp"
#include "core/federation.hpp"
#include "core/invariants.hpp"
#include "core/isp.hpp"
#include "core/system.hpp"
#include "net/faults.hpp"
#include "util/table.hpp"

using namespace zmail;

namespace {

core::ZmailParams small() {
  core::ZmailParams p;
  p.n_isps = 2;
  p.users_per_isp = 2;
  p.minavail = 50;
  p.maxavail = 200;
  p.initial_avail = 100;
  return p;
}

void e11a_trade_replay() {
  Table t({"replays of each reply", "avail drift", "rejected replays"});
  bool no_drift = true;
  for (int replays : {1, 10, 100}) {
    Rng rng(111);
    const crypto::KeyPair keys = crypto::generate_keypair(rng);
    core::ZmailParams p = small();
    core::Isp isp(0, p, keys.pub, 7);
    core::BankFederation bank(p, {keys}, 8);

    // One legitimate buy...
    isp.set_avail(10);
    isp.maybe_trade_with_bank();
    crypto::Bytes buyreply;
    for (const auto& o : isp.take_outbox())
      buyreply = bank.on_buy(0, o.payload);
    isp.on_buyreply(buyreply);
    // ...and one legitimate sell.
    isp.set_avail(300);
    isp.maybe_trade_with_bank();
    crypto::Bytes sellreply;
    for (const auto& o : isp.take_outbox())
      sellreply = bank.on_sell(0, o.payload);
    isp.on_sellreply(sellreply);

    const EPenny settled = isp.avail();
    for (int k = 0; k < replays; ++k) {
      isp.on_buyreply(buyreply);
      isp.on_sellreply(sellreply);
    }
    const EPenny drift = isp.avail() - settled;
    if (drift != 0) no_drift = false;
    t.add_row({Table::num(std::int64_t{replays}), Table::num(drift),
               Table::num(isp.metrics().bad_nonce_replies)});
  }
  t.print("E11.a  replayed buy/sell replies (nonce check)");
  bench::check(no_drift, "replayed trade replies never change state");
}

void e11b_snapshot_replay() {
  Rng rng(112);
  const crypto::KeyPair keys = crypto::generate_keypair(rng);
  core::ZmailParams p = small();
  core::Isp isp(0, p, keys.pub, 9);
  core::BankFederation bank(p, {keys}, 10);

  // Round 0, legitimately.
  auto requests = bank.start_snapshot();
  crypto::Bytes request0;
  for (auto& [idx, wire] : requests)
    if (idx == 0) request0 = wire;
  isp.on_request(request0);
  isp.on_quiesce_timeout();
  crypto::Bytes report0;
  for (const auto& o : isp.take_outbox())
    if (o.type == core::kMsgReply) report0 = o.payload;
  bank.on_reply(0, report0);
  // Complete the round with isp1's (empty) report.
  core::Isp isp1(1, p, keys.pub, 11);
  for (auto& [idx, wire] : requests)
    if (idx == 1) isp1.on_request(wire);
  isp1.on_quiesce_timeout();
  for (const auto& o : isp1.take_outbox())
    if (o.type == core::kMsgReply) bank.on_reply(1, o.payload);

  const std::uint64_t seq_after = isp.seq();
  const std::uint64_t rounds_after = bank.metrics().snapshot_rounds;

  // Replay storm.
  for (int k = 0; k < 50; ++k) {
    isp.on_request(request0);   // stale seq
    bank.on_reply(0, report0);  // closed round
  }

  Table t({"metric", "after round", "after 50 replays"});
  t.add_row({"isp seq", Table::num(seq_after), Table::num(isp.seq())});
  t.add_row({"bank rounds", Table::num(rounds_after),
             Table::num(bank.metrics().snapshot_rounds)});
  t.add_row({"isp stale requests ignored", "0",
             Table::num(isp.metrics().stale_requests)});
  t.add_row({"bank stale reports ignored", "0",
             Table::num(bank.metrics().stale_reports)});
  t.print("E11.b  replayed snapshot requests and credit reports");

  bench::check(isp.seq() == seq_after && !isp.in_quiesce(),
               "replayed requests never re-quiesce the ISP");
  bench::check(bank.metrics().snapshot_rounds == rounds_after,
               "replayed reports never advance or corrupt a round");
}

void e11c_tampering() {
  Rng rng(113);
  const crypto::KeyPair keys = crypto::generate_keypair(rng);
  Rng seal_rng(114);
  Rng flip_rng(115);

  const int trials = 2'000;
  int rejected = 0;
  for (int i = 0; i < trials; ++i) {
    const core::SnapshotRequest req{static_cast<std::uint64_t>(i)};
    crypto::Bytes wire = core::seal(keys.priv, req.serialize(), seal_rng);
    // Flip one random bit.
    const std::size_t byte = flip_rng.next_below(wire.size());
    wire[byte] ^= static_cast<std::uint8_t>(1u << flip_rng.next_below(8));
    const auto plain = core::unseal(keys.pub, wire);
    if (!plain || !core::SnapshotRequest::deserialize(*plain) ||
        core::SnapshotRequest::deserialize(*plain)->seq !=
            static_cast<std::uint64_t>(i))
      ++rejected;
  }

  Table t({"tampered envelopes", "rejected or detected", "rate"});
  t.add_row({Table::num(std::int64_t{trials}),
             Table::num(std::int64_t{rejected}),
             Table::pct(static_cast<double>(rejected) / trials, 3)});
  t.print("E11.c  single-bit tampering of sealed envelopes");
  bench::check(rejected == trials,
               "every tampered envelope is rejected (HMAC over ciphertext)");
}

void e11d_transport_duplication() {
  // The replays above are hand-rolled; here the *network itself* duplicates
  // ~45% of all datagrams — emails (link frames and acks), buy/sell wires,
  // snapshot requests, credit reports — over a full timed run with bank
  // trading and a snapshot round in the middle.  The settlement plane stays
  // off the link: duplication loses nothing, and as bare datagrams every
  // copy of a trade wire, request or report reaches the protocol's own
  // checks instead of the link's dedupe.
  core::ZmailParams p = small();
  p.n_isps = 3;
  p.users_per_isp = 3;
  p.initial_user_balance = 500;
  p.default_daily_limit = 1'000;
  p.retry.enabled = false;
  p.reliable_email_transport = true;  // the link dedupes duplicated mail
  core::ZmailSystem sys(p, 116);
  sys.enable_bank_trading(sim::kMinute);

  net::FaultPlan plan;
  plan.rates.duplicate = 0.45;
  net::FaultInjector inj(plan, 117);
  sys.attach_faults(&inj);

  core::InvariantAuditor auditor(sys);
  auditor.run_continuously(5 * sim::kMinute);

  Rng rng(118);
  const int sends = 240;
  for (int i = 0; i < sends; ++i) {
    const auto src = static_cast<std::size_t>(rng.next_below(p.n_isps));
    const auto hop = 1 + rng.next_below(p.n_isps - 1);
    const auto dst = (src + static_cast<std::size_t>(hop)) % p.n_isps;
    sys.send_email(
        net::make_user_address(src, rng.next_below(p.users_per_isp)),
        net::make_user_address(dst, rng.next_below(p.users_per_isp)), "dup",
        std::string("m").append(std::to_string(i)));
    // Keep the ISP pools churning so duplicated buy/sell wires hit the bank.
    if (i % 16 == 3)
      sys.buy_epennies(net::make_user_address(src, 0), 40);
    if (i % 16 == 11)
      sys.sell_epennies(net::make_user_address(src, 0), 20);
    if (i == sends / 2) sys.start_snapshot();  // duplicated requests/reports
    sys.run_for(sim::kMinute);
  }
  sys.start_snapshot();
  sys.run_for(sim::kHour);
  sys.attach_faults(nullptr);
  sys.run_for(sim::kHour);  // drain with a clean network

  const core::IspMetrics m = sys.total_isp_metrics();
  const core::BankMetrics& bm = sys.bank().metrics();
  const std::uint64_t absorbed = bm.duplicate_buys + bm.duplicate_sells +
                                 bm.stale_trades + bm.stale_reports +
                                 m.stale_requests + m.duplicate_emails_dropped;
  auditor.check_now();

  Table t({"metric", "value"});
  t.add_row({"datagrams duplicated in flight",
             Table::num(inj.counters().duplicated)});
  t.add_row({"emails sent / received / refunded",
             Table::num(m.emails_sent_compliant) + " / " +
                 Table::num(m.emails_received_compliant) + " / " +
                 Table::num(m.emails_refunded)});
  t.add_row({"duplicate emails dropped (link dedupe)",
             Table::num(m.duplicate_emails_dropped)});
  t.add_row({"duplicate buy/sell wires absorbed (bank ledger)",
             Table::num(bm.duplicate_buys + bm.duplicate_sells)});
  t.add_row({"duplicate buy/sell replies ignored (ISP nonce)",
             Table::num(m.bad_nonce_replies)});
  t.add_row({"stale requests/reports ignored",
             Table::num(m.stale_requests + bm.stale_reports)});
  t.add_row({"invariant violations", Table::num(auditor.report().violations)});
  t.print("E11.d  transport-level duplication (fault-injected)");

  bench::check(inj.counters().duplicated > 0 && absorbed > 0,
               "the network really duplicated traffic and shields absorbed it");
  bench::check(bm.duplicate_buys + bm.duplicate_sells > 0,
               "duplicated buy/sell wires reached the bank's nonce ledger");
  bench::check(m.emails_received_compliant + m.emails_refunded ==
                   m.emails_sent_compliant,
               "every paid email delivered (or refunded) exactly once");
  bench::check(sys.pending_transfers() == 0 && sys.conservation_holds(),
               "no e-penny minted, destroyed, or stranded by duplication");
  bench::check(auditor.report().ok(),
               "continuous audit saw zero invariant violations");
}

}  // namespace

int main(int argc, char** argv) {
  bench::Bench harness("e11_replay_resistance", argc, argv);
  std::printf("=== E11: replay and tamper resistance ===\n");
  e11a_trade_replay();
  e11b_snapshot_replay();
  e11c_tampering();
  e11d_transport_duplication();
  return harness.finish();
}
