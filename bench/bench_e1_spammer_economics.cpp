// E1 — Spammer economics (paper Section 1.2, claim 1).
//
// Claim: "The cost of sending spam will increase by at least two orders of
// magnitude ... The response rate required to break even will increase
// similarly."
//
// Regenerates:
//   E1.a  campaign P&L across regimes and response rates (analytical)
//   E1.b  break-even response rate per regime and the zmail/smtp ratio
//   E1.c  profitable-campaign frontier under partial deployment
//   E1.d  a simulated blast: spam volume actually delivered per dollar of
//         spammer budget, SMTP-world vs Zmail-world
#include "bench_common.hpp"
#include "core/system.hpp"
#include "econ/spammer.hpp"
#include "telemetry/export.hpp"
#include "telemetry/registry.hpp"
#include "util/table.hpp"
#include "workload/traffic.hpp"

using namespace zmail;

namespace {

void e1a_campaign_pnl() {
  econ::Campaign base;
  base.messages = 1'000'000;
  base.revenue_per_response = Money::from_dollars(25);

  Table t({"response rate", "smtp profit", "zmail profit",
           "zmail(50% deployed) profit"});
  bool crossover_seen = false;
  double zmail_profit_at_1e5 = 0, smtp_profit_at_1e5 = 0;
  for (double rr : {1e-6, 1e-5, 1e-4, 4e-4, 1e-3, 1e-2}) {
    econ::Campaign c = base;
    c.response_rate = rr;
    const double smtp = econ::evaluate(c, econ::smtp_regime()).profit.dollars();
    const double zm = econ::evaluate(c, econ::zmail_regime()).profit.dollars();
    const double zm50 =
        econ::evaluate(c, econ::zmail_partial_regime(0.5)).profit.dollars();
    t.add_row({Table::sci(rr, 0), Table::num(smtp, 0), Table::num(zm, 0),
               Table::num(zm50, 0)});
    if (rr == 1e-5) {
      smtp_profit_at_1e5 = smtp;
      zmail_profit_at_1e5 = zm;
    }
    if (smtp > 0 && zm < 0) crossover_seen = true;
  }
  t.print("E1.a  1M-message campaign profit vs response rate ($25/sale)");

  bench::check(smtp_profit_at_1e5 > 0 && zmail_profit_at_1e5 < 0,
               "typical 1e-5 campaign: profitable on SMTP, loss under Zmail");
  bench::check(crossover_seen,
               "profitability crossover exists between the regimes");
}

void e1b_break_even() {
  econ::Campaign c;
  c.messages = 1'000'000;
  c.revenue_per_response = Money::from_dollars(25);
  c.fixed_costs = Money::zero();

  Table t({"regime", "cost/message", "break-even response rate"});
  for (const auto& regime : {econ::smtp_regime(), econ::zmail_regime()}) {
    t.add_row({regime.name, regime.cost_per_message.str(),
               Table::sci(econ::break_even_response_rate(c, regime))});
  }
  t.print("E1.b  break-even response rates");

  const double ratio = econ::break_even_ratio(c);
  std::printf("break-even ratio (zmail/smtp): %.0fx\n", ratio);
  bench::check(ratio >= 100.0,
               "break-even response rate rises >= 2 orders of magnitude");
  const double cost_ratio = econ::zmail_regime().cost_per_message.dollars() /
                            econ::smtp_regime().cost_per_message.dollars();
  bench::check(cost_ratio >= 100.0,
               "per-message cost rises >= 2 orders of magnitude");
}

void e1c_partial_deployment_frontier() {
  econ::Campaign c;
  c.messages = 1'000'000;
  c.response_rate = 1e-5;
  c.revenue_per_response = Money::from_dollars(25);

  Table t({"compliant share", "cost/message", "campaign profit"});
  double first_unprofitable = -1.0;
  for (double share : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0}) {
    const auto regime = econ::zmail_partial_regime(share);
    const auto out = econ::evaluate(c, regime);
    t.add_row({Table::pct(share, 0), regime.cost_per_message.str(),
               Table::num(out.profit.dollars(), 0)});
    if (out.profit.dollars() < 0 && first_unprofitable < 0)
      first_unprofitable = share;
  }
  t.print("E1.c  spam profitability vs Zmail deployment share");
  bench::check(first_unprofitable >= 0.0 && first_unprofitable <= 0.25,
               "spam turns unprofitable early in the deployment curve");
}

void e1d_simulated_blast(bench::Bench& harness) {
  // A spammer with a $5 budget (500 e-pennies) blasts a compliant world vs
  // a fully non-compliant world.  Runs as a two-point sweep so --replicas
  // averages over independent campaigns and --threads runs them in
  // parallel.
  const std::vector<sweep::Point> grid = {
      {"all-Zmail", {{"compliant", 1}}},
      {"all-SMTP", {{"compliant", 0}}},
  };
  const auto result = harness.run_sweep(
      "e1d_simulated_blast", grid,
      [&](const sweep::Point& pt, std::uint64_t seed, std::size_t) {
        core::ZmailParams p;
        p.n_isps = 4;
        p.users_per_isp = 100;
        p.initial_user_balance = 500;
        p.default_daily_limit = 100'000;
        p.record_inboxes = false;
        if (pt.param("compliant") == 0)
          p.compliant = {false, false, false, false};
        core::ZmailSystem sys(p, seed);
        Rng seeder(seed ^ 0xB1A57ULL);
        workload::CorpusGenerator corpus(workload::CorpusParams{},
                                         seeder.split());
        workload::SpamCampaignParams cp;
        cp.messages = 5'000;
        Rng rng = seeder.split();
        const auto r = workload::run_spam_campaign(sys, cp, corpus, rng);
        sys.run_for(sim::kHour);
        sweep::MetricBag bag;
        bag.count("attempted", static_cast<double>(r.attempted));
        bag.count("sent", static_cast<double>(r.sent));
        bag.count("refused_balance", static_cast<double>(r.refused_balance));
        bag.count("events",
                  static_cast<double>(sys.simulator().events_executed()));
        return bag;
      });

  const sweep::MetricBag& smtp = result.at_label("all-SMTP").merged;
  const sweep::MetricBag& zmail = result.at_label("all-Zmail").merged;
  Table t({"world", "attempted", "delivered/accepted", "refused (no funds)"});
  t.add_row({"all-SMTP", Table::num(smtp.counter("attempted"), 0),
             Table::num(smtp.counter("sent"), 0),
             Table::num(smtp.counter("refused_balance"), 0)});
  t.add_row({"all-Zmail", Table::num(zmail.counter("attempted"), 0),
             Table::num(zmail.counter("sent"), 0),
             Table::num(zmail.counter("refused_balance"), 0)});
  t.print("E1.d  simulated blast, 500 e-pennies of budget (" +
          std::to_string(result.replicas) + " replica(s)/world)");

  bench::check(smtp.counter("sent") == smtp.counter("attempted"),
               "SMTP world delivers the whole blast for free");
  bench::check(zmail.counter("sent") < smtp.counter("sent") / 5,
               "Zmail world stops the blast when the budget runs dry");
}

void e1e_price_sensitivity() {
  // What should an e-penny cost?  The paper picks $0.01 "for simplicity";
  // this sweep shows the deterrence frontier.  A normal user's float cost
  // is ~price x monthly volume (returned on receipt), so the table also
  // shows the buffer a 240-message/month user must park.
  econ::Campaign c;
  c.messages = 1'000'000;
  c.response_rate = 1e-5;
  c.revenue_per_response = Money::from_dollars(25);

  Table t({"e-penny price", "campaign profit", "break-even response",
           "user monthly float (240 msgs)"});
  double profit_at_tenth_cent = 0, profit_at_cent = 0;
  for (const Money price :
       {Money::from_micros(100), Money::from_micros(1'000),
        Money::from_cents(1), Money::from_cents(10)}) {
    const auto regime = econ::zmail_priced_regime(price);
    const auto out = econ::evaluate(c, regime);
    t.add_row({price.str(), Table::num(out.profit.dollars(), 0),
               Table::sci(econ::break_even_response_rate(c, regime)),
               (price * std::int64_t{240}).str()});
    if (price == Money::from_micros(1'000))
      profit_at_tenth_cent = out.profit.dollars();
    if (price == Money::from_cents(1)) profit_at_cent = out.profit.dollars();
  }
  t.print("E1.e  e-penny price sensitivity");

  bench::check(profit_at_tenth_cent < 0,
               "even a tenth of a cent already sinks the bulk campaign");
  bench::check(profit_at_cent < profit_at_tenth_cent,
               "the paper's $0.01 adds a wide safety margin");
}

void e1f_market_equilibrium() {
  // "Market forces will control the volume of spam": with campaign
  // response rates lognormal across the industry, the surviving spam share
  // is the profitability tail at each stamp price.
  econ::CampaignPopulation pop;
  Table t({"stamp price", "surviving spam share"});
  for (const Money price :
       {Money::zero(), Money::from_micros(100), Money::from_micros(1'000),
        Money::from_cents(1), Money::from_cents(10)}) {
    t.add_row({price.str(),
               Table::pct(econ::surviving_spam_share(pop, price), 2)});
  }
  t.print("E1.f  equilibrium spam volume vs stamp price");

  const Money p95 = econ::price_for_spam_reduction(pop, 0.05);
  std::printf("price for a 95%% spam reduction: %s\n", p95.str().c_str());
  bench::check(econ::surviving_spam_share(pop, Money::from_cents(1)) < 0.05,
               "the paper's $0.01 kills >95% of spam volume at equilibrium");
  bench::check(p95 <= Money::from_cents(1),
               "$0.01 is at or above the 95%-reduction price point");
  bench::check(econ::surviving_spam_share(pop, Money::from_cents(1)) > 0.0,
               "well-targeted advertising survives, as intended");
}

void e1g_telemetry_overlay(bench::Bench& harness) {
  // --telemetry: replay the E1.d compliant-world blast with the telemetry
  // registry attached and embed the market + mail-flow series in the bench
  // JSON, so the campaign's economic footprint (stamp price, delivery and
  // refusal rates, e-penny supply) can be plotted straight from
  // BENCH_e1_spammer_economics.json.  Off by default: the extra section
  // would break byte-for-byte JSON comparisons between runs.
  core::ZmailParams p;
  p.n_isps = 4;
  p.users_per_isp = 100;
  p.initial_user_balance = 500;
  p.default_daily_limit = 100'000;
  p.record_inboxes = false;
  core::ZmailSystem sys(p, harness.options().seed);
  telemetry::TelemetryConfig tc;
  tc.enabled = true;
  tc.sample_period = sim::kMinute;
  sys.enable_telemetry(tc);

  Rng seeder(harness.options().seed ^ 0xB1A57ULL);
  workload::CorpusGenerator corpus(workload::CorpusParams{}, seeder.split());
  workload::SpamCampaignParams cp;
  cp.messages = 5'000;
  Rng rng = seeder.split();
  (void)workload::run_spam_campaign(sys, cp, corpus, rng);
  sys.run_for(sim::kHour);

  telemetry::DeriveSpec spec;
  spec.endowment_epennies = static_cast<double>(sys.initial_endowment());
  std::vector<telemetry::Series> merged =
      telemetry::merge_series(*sys.telemetry(), spec);
  // Keep the economics-relevant slice: every econ series plus the
  // fleet-wide ISP counters.
  std::vector<telemetry::Series> overlay;
  for (auto& s : merged) {
    const bool fleet_counter =
        s.scope == "core" && s.name.rfind("isp_totals.", 0) == 0;
    if (!s.engine && (s.scope == "econ" || fleet_counter))
      overlay.push_back(std::move(s));
  }
  json::Value j = json::Value::object();
  j["sample_period_us"] = static_cast<std::uint64_t>(sim::kMinute);
  j["series"] = telemetry::timeseries_json(overlay, /*engine=*/false);
  harness.section("telemetry") = std::move(j);
  std::printf("telemetry overlay: %zu series embedded in JSON\n",
              overlay.size());
}

}  // namespace

int main(int argc, char** argv) {
  bench::Bench harness("e1_spammer_economics", argc, argv);
  std::printf("=== E1: spammer economics ===\n");
  e1a_campaign_pnl();
  e1b_break_even();
  e1c_partial_deployment_frontier();
  e1d_simulated_blast(harness);
  e1e_price_sensitivity();
  e1f_market_equilibrium();
  if (harness.options().telemetry) e1g_telemetry_overlay(harness);
  return harness.finish();
}
