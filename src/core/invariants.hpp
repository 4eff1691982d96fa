// Cross-system invariant auditor: the zero-sum safety net.
//
// The paper's correctness argument is that no sequence of sends, trades,
// snapshots, or *faults* can create or destroy value.  The auditor turns
// that argument into executable checks over a live ZmailSystem:
//
//   1. e-penny conservation — every e-penny everywhere (user balances,
//      avail pools, quiesce buffers, in-flight escrow) equals the initial
//      endowment plus the bank's net mint.  Any double-mint from a replayed
//      NCR, double-burn from a duplicated DCR, or double-credit from a
//      duplicated email breaks this equation.
//   2. real-money conservation — dollars only move between accounts
//      (user <-> till <-> bank) or into the bank's vault as backing for
//      outstanding e-pennies; accounts + backing is constant.
//   3. limit safety — no user exceeds the daily limit or goes negative;
//      pools and escrows never go negative.
//   4. nonce non-reuse — the bank never applies the same trade nonce twice;
//      absorbed duplicates are reported (replays_absorbed) and any
//      re-application would surface in (1).
//   5. credit consistency (optional) — no ISP pair sits in *persistent*
//      credit drift (cumulative pairwise inconsistency nonzero for two or
//      more consecutive rounds).  Single-round skew is legitimate under
//      faults — a re-sent snapshot request makes one ISP quiesce late, so a
//      peer's new-epoch mail lands in its old-epoch array and the pair reads
//      -d then +d across adjacent rounds.  Disable via
//      expect_consistent(false) when a bench injects misbehaviour on purpose.
//   6. clearing zero-sum (several member banks) — at every globally idle
//      cut (every bank closed its round, so every clearing wire was
//      applied) the pairwise clearing entries are antisymmetric and the net
//      positions sum to zero across banks.  Mid-round a pair is
//      legitimately lopsided (one side combined its partials, the other
//      still awaits a clearing wire), so this check is gated on
//      !bank().round_open().
//   7. no round double-applies — at idle cuts every member bank agrees on
//      how many rounds settled, even across crash + WAL replay.
//
// Run it continuously in tests (`run_continuously`) or behind `--audit` in
// benches; failures are collected, not thrown, so a sweep can report the
// violation count (which must be zero).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/system.hpp"

namespace zmail::core {

struct InvariantReport {
  std::uint64_t checks = 0;       // check_now() passes completed
  std::uint64_t violations = 0;   // individual failed assertions
  std::uint64_t replays_absorbed = 0;  // duplicate trades/emails deduped
  std::vector<std::string> messages;   // first few failures, for humans

  bool ok() const noexcept { return violations == 0; }
};

class InvariantAuditor {
 public:
  // Captures the real-money baseline now; the system must outlive the
  // auditor.
  explicit InvariantAuditor(ZmailSystem& sys);

  // A bench that injects ISP misbehaviour *expects* flagged pairs.
  void expect_consistent(bool v) noexcept { expect_consistent_ = v; }

  // Runs every invariant once, recording failures in the report.
  void check_now();

  // Schedules check_now on the system's simulator every `period`.
  void run_continuously(sim::Duration period);

  const InvariantReport& report() const noexcept { return report_; }

 private:
  void fail(std::string msg);

  ZmailSystem* sys_;
  Money initial_real_money_;
  std::size_t initial_compliant_;
  bool expect_consistent_ = true;
  InvariantReport report_;
};

}  // namespace zmail::core
