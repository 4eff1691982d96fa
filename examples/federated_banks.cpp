// Federated banks (paper Section 5, "Bank Setup"): the central bank's role
// split across three collaborating banks, each serving a share of the
// ISPs; buy/sell and snapshots run over the network against the home bank,
// and a billing round ends with netted inter-bank clearing.
//
//   ./federated_banks
#include <cstdio>

#include "core/system.hpp"
#include "util/table.hpp"

using namespace zmail;

int main() {
  core::ZmailParams params;
  params.n_isps = 6;
  params.users_per_isp = 4;
  params.initial_user_balance = 40;
  params.n_banks = 3;

  core::ZmailSystem sys(params, /*seed=*/2005);

  std::printf("6 ISPs served by 3 collaborating banks (round-robin homes)\n");
  Table homes({"ISP", "home bank"});
  for (std::size_t i = 0; i < params.n_isps; ++i)
    homes.add_row({net::isp_domain(i),
                   "bank" + std::to_string(sys.bank().home_bank(i)) +
                       ".example"});
  homes.print("home-bank assignment");

  // Cross-bank mail in a ring plus a hot pair.
  for (std::size_t i = 0; i < params.n_isps; ++i)
    sys.send_email(net::make_user_address(i, 0),
                   net::make_user_address((i + 1) % params.n_isps, 0),
                   "ring", "hello neighbour");
  for (int k = 0; k < 5; ++k)
    sys.send_email(net::make_user_address(0, 1),
                   net::make_user_address(4, 1), "hot", "pair");
  sys.run_for(sim::kHour);

  std::printf("\nrunning one federated billing round...\n");
  sys.start_snapshot();
  sys.run_for(30 * sim::kMinute);

  const core::BankMetrics m = sys.bank().metrics();
  Table round({"metric", "value"});
  round.add_row({"reports gathered", Table::num(m.credit_reports_received)});
  round.add_row({"inter-bank column-exchange messages",
                 Table::num(m.interbank_messages)});
  round.add_row({"inter-bank bytes", Table::num(m.interbank_bytes)});
  round.add_row(
      {"intra-bank settlements",
       Table::num(m.settlement_transfers - m.settlements_cross_bank)});
  round.add_row({"cross-bank settlements",
                 Table::num(m.settlements_cross_bank)});
  round.add_row({"netted clearing transfers",
                 Table::num(m.clearing_transfers)});
  round.add_row({"violations", Table::num(m.inconsistent_pairs_found)});
  round.print("federated snapshot round");

  Table clearing({"bank", "net clearing position"});
  for (std::size_t b = 0; b < 3; ++b)
    clearing.add_row({"bank" + std::to_string(b) + ".example",
                      sys.bank().clearing_position(b).str()});
  clearing.print("inter-bank clearing (sums to $0)");

  std::printf("\nconservation holds: %s\n",
              sys.conservation_holds() ? "yes" : "NO");
  return 0;
}
