#include "core/invariants.hpp"

#include "util/assert.hpp"

namespace zmail::core {

namespace {
constexpr std::size_t kMaxMessages = 16;
}  // namespace

InvariantAuditor::InvariantAuditor(ZmailSystem& sys)
    : sys_(&sys),
      initial_real_money_(
          sys.total_real_money() +
          Money::from_epennies(sys.bank().epennies_outstanding())),
      initial_compliant_(sys.params().compliant_count()) {}

void InvariantAuditor::fail(std::string msg) {
  ++report_.violations;
  if (report_.messages.size() < kMaxMessages)
    report_.messages.push_back(std::move(msg));
}

void InvariantAuditor::check_now() {
  const ZmailSystem& sys = *sys_;
  const ZmailParams& params = sys.params();

  // 1. e-penny conservation: holdings == endowment + net mint.
  if (!sys.conservation_holds())
    fail("e-penny conservation broken: holdings != initial + minted - burned");
  if (sys.epennies_in_flight() < 0)
    fail("negative in-flight escrow");

  // 2. real money is only ever moved, never created.  A mint swaps dollars
  //    out of the measured accounts into the bank's vault (where they back
  //    the outstanding e-pennies) and a burn swaps them back, so the
  //    conserved quantity is accounts + vault, not accounts alone.  An ISP
  //    that adopted Zmail (make_compliant) brings its users' fresh accounts
  //    into the measured set.
  const auto joined =
      static_cast<std::int64_t>(params.compliant_count() - initial_compliant_);
  const Money joined_accounts =
      params.initial_user_account *
      (joined * static_cast<std::int64_t>(params.users_per_isp));
  if (!(sys.total_real_money() +
            Money::from_epennies(sys.bank().epennies_outstanding()) ==
        initial_real_money_ + joined_accounts))
    fail("real-money total (accounts + e-penny backing) drifted from its"
         " initial value");

  // 3. per-user limit safety, non-negative pools, and the ISP's running
  //    balance and trade totals agree with its balance and lifetime
  //    bought/sold columns.
  for (std::size_t i = 0; i < params.n_isps; ++i) {
    if (!params.is_compliant(i)) continue;
    const Isp& isp = sys.isp(i);
    if (isp.avail() < 0) fail("negative avail pool at isp " + std::to_string(i));
    if (isp.buffered_paid() < 0)
      fail("negative buffered-paid escrow at isp " + std::to_string(i));
    EPenny balance = 0, bought = 0, sold = 0;
    isp.users().for_each_active([&](UserId u, ConstUserRef acc) {
      if (acc.balance < 0)
        fail("negative balance: user " + std::to_string(u.slot()) +
             " at isp " + std::to_string(i));
      if (acc.sent > acc.limit)
        fail("daily limit exceeded: user " + std::to_string(u.slot()) +
             " at isp " + std::to_string(i));
      balance += acc.balance;
      bought += acc.lifetime_epennies_bought;
      sold += acc.lifetime_epennies_sold;
    });
    if (isp.users_balance() != balance)
      fail("running balance total drifted from the balance column at isp " +
           std::to_string(i));
    if (isp.users_bought() != bought || isp.users_sold() != sold)
      fail("running trade totals drifted from the user columns at isp " +
           std::to_string(i));
  }

  // 4. nonce non-reuse: duplicates were absorbed, not re-applied.  A
  //    re-applied nonce mints or burns twice, which invariant (1) catches;
  //    here we tally how much duplication the shields ate.
  const BankFederation& bank = sys.bank();
  const BankMetrics bm = bank.metrics();
  report_.replays_absorbed = bm.duplicate_buys + bm.duplicate_sells +
                             bm.stale_trades + bm.stale_reports +
                             bm.duplicate_interbank + bm.stale_interbank +
                             sys.total_isp_metrics().duplicate_emails_dropped;
  if (bank.epennies_outstanding() < 0)
    fail("bank burned more e-pennies than it minted");

  // 5. credit consistency (unless misbehaviour was injected on purpose).
  //    Persistent drift only: a snapshot recovered after a lost request
  //    legitimately skews one pair by +/-d across two adjacent rounds, and
  //    that skew nets out; a dishonest pair keeps drifting and is counted.
  if (expect_consistent_ && bank.persistent_drift_pairs() != 0)
    fail("bank saw " + std::to_string(bank.persistent_drift_pairs()) +
         " ISP pair(s) in persistent credit drift without injected"
         " misbehaviour");

  // 6-7. clearing zero-sum and agreed round counts at globally idle cuts.
  if (!bank.round_open()) {
    const std::size_t k = bank.bank_count();
    Money net_sum = Money::zero();
    for (std::size_t b = 0; b < k; ++b) net_sum += bank.clearing_position(b);
    if (!(net_sum == Money::zero()))
      fail("clearing positions do not sum to zero across the banks");
    for (std::size_t a = 0; a < k; ++a)
      for (std::size_t b = a + 1; b < k; ++b)
        if (!(bank.clearing_pair(a, b) + bank.clearing_pair(b, a) ==
              Money::zero()))
          fail("clearing pair (" + std::to_string(a) + "," +
               std::to_string(b) + ") is not antisymmetric");
    for (std::size_t b = 1; b < k; ++b)
      if (bank.seq(b) != bank.seq(0))
        fail("bank " + std::to_string(b) + " round seq " +
             std::to_string(bank.seq(b)) + " != bank 0 seq " +
             std::to_string(bank.seq(0)));
  }

  ++report_.checks;
}

void InvariantAuditor::run_continuously(sim::Duration period) {
  sys_->simulator().schedule_every(period, [this] {
    check_now();
    return true;
  });
}

}  // namespace zmail::core
