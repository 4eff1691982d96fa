// Configuration shared by every Zmail party.
//
// Mirrors the constants and inputs of the paper's process definitions
// (Section 4): n, m, the `compliant` array published by the bank, per-user
// daily `limit`, and the avail-pool thresholds minavail/maxavail.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "store/checkpoint.hpp"
#include "util/money.hpp"

namespace zmail::core {

// Strong identifier for an ISP in the public facade.  Implicitly
// constructible from a plain index so call sites stay terse
// (`sys.isp(2)`), but it does not convert back silently — reading the
// index is an explicit `.index()`, which stops an IspId from leaking into
// user-slot or byte-count arithmetic unnoticed.
class IspId {
 public:
  constexpr IspId(std::size_t index = 0) noexcept : index_(index) {}
  constexpr std::size_t index() const noexcept { return index_; }

  friend constexpr bool operator==(IspId a, IspId b) noexcept {
    return a.index_ == b.index_;
  }
  friend constexpr bool operator!=(IspId a, IspId b) noexcept {
    return a.index_ != b.index_;
  }
  friend constexpr bool operator<(IspId a, IspId b) noexcept {
    return a.index_ < b.index_;
  }

 private:
  std::size_t index_;
};

// How a compliant ISP's user treats mail arriving from non-compliant ISPs
// (Section 5, Incremental Deployment: "segregate or discard email from
// non-compliant ISPs, or require any email from a non-compliant ISP to pass
// a spam filter").  The filter option is not modelled (SPEC.md lists it as
// a divergence).  The values are persisted in the ISP image, so they are
// pinned; 1 was the filter option and is invalid.
enum class NonCompliantPolicy : std::uint8_t {
  kAccept = 0,     // deliver normally (no e-penny changes hands)
  kSegregate = 2,  // deliver to a junk folder
  kDiscard = 3,    // drop
};

// Starting real-money endowments: each user's account with its ISP and
// each ISP's account with its bank.
inline constexpr Money kInitialUserAccount = Money::from_dollars(5.0);
inline constexpr Money kInitialIspBankAccount = Money::from_dollars(1'000.0);

// Whether the settlement plane rides the acknowledged link (core::Link):
// buy and sell requests and their replies, snapshot requests, credit
// reports and the inter-bank column and clearing wires.  Each is framed,
// acked by its receiver once its handler accepts it, and retransmitted on
// the link's RTO until then; the bank's nonce and round checks still
// absorb anything delivered twice.  Disabled by default: acks and timers
// add datagrams and scheduled events and would perturb the deterministic
// (at, seq) event interleaving that the bit-identical sweeps depend on.
struct RetryPolicy {
  bool enabled = false;
};

struct ZmailParams {
  // Population shape (paper constants n and m).
  std::size_t n_isps = 2;
  std::size_t users_per_isp = 10;

  // Which ISPs run Zmail; published by the bank.  Defaults to all-compliant
  // when empty.
  std::vector<bool> compliant;

  // Member banks sharing the bank's role (paper Section 5: "a set of
  // distributed banks").  1 is the central bank; ISP i's home bank is
  // i % n_banks.
  std::size_t n_banks = 1;

  // Paper input limit[j]: max # of paid emails sent per user per day.
  std::int64_t default_daily_limit = 100;

  // Avail-pool thresholds (paper inputs minavail / maxavail).
  EPenny minavail = 1'000;
  EPenny maxavail = 10'000;

  // Starting e-penny endowments: the paper's "initial balances with their
  // ISPs to buffer the fluctuations".
  EPenny initial_user_balance = 50;
  EPenny initial_avail = 5'000;

  // Policy toward non-compliant senders.
  NonCompliantPolicy noncompliant_policy = NonCompliantPolicy::kAccept;

  // Whether receiving ISPs auto-acknowledge mailing-list mail (Section 5).
  bool auto_acknowledge_lists = true;

  // Section 5 extension ("detecting, limiting, and disinfecting zombie
  // PCs"): after this many limit warnings on different days, the ISP
  // suspends the account entirely until release_user() (0 = disabled).
  std::int64_t quarantine_after_warnings = 0;

  // Record full inboxes (tests/examples) or count-only (large benches).
  bool record_inboxes = true;

  // --- Fault tolerance (all default-off: zero scheduled events, zero RNG
  // draws, bit-identical behaviour when a run never sees a fault plan). ---

  // The settlement plane on the acknowledged link; see RetryPolicy above.
  RetryPolicy retry;

  // Paid inter-ISP email on the same link ("email-rel" frames): receivers
  // dedupe and ack, senders retransmit on the RTO until acked, so each
  // email is delivered exactly once.  Required for liveness under a lossy
  // FaultPlan; off by default for bit-identical fault-free runs.
  bool reliable_email_transport = false;

  // Durable settlement store (src/store): WAL + snapshot checkpointing per
  // party.  Off by default — disabled runs construct no store objects,
  // schedule no events, and stay bit-identical to a build without the
  // subsystem.  With store.enabled, a host crash (FaultPlan outage or
  // ZmailSystem::crash_host) wipes the party's in-memory state and recovery
  // rebuilds it from the latest snapshot plus WAL-tail replay.
  store::StoreConfig store;

  bool is_compliant(std::size_t isp) const {
    return compliant.empty() ? true : compliant.at(isp);
  }

  std::size_t compliant_count() const {
    if (compliant.empty()) return n_isps;
    std::size_t c = 0;
    for (bool b : compliant)
      if (b) ++c;
    return c;
  }

  // Configuration sanity check; returns one message per problem (empty =
  // valid).  ZmailSystem and ApZmailWorld refuse invalid parameter sets.
  std::vector<std::string> validate() const {
    std::vector<std::string> problems;
    if (n_isps < 1) problems.push_back("n_isps must be >= 1");
    if (users_per_isp < 1) problems.push_back("users_per_isp must be >= 1");
    if (n_banks < 1) problems.push_back("n_banks must be >= 1");
    if (!compliant.empty() && compliant.size() != n_isps)
      problems.push_back("compliant array length must equal n_isps");
    if (default_daily_limit < 0)
      problems.push_back("default_daily_limit must be >= 0");
    if (minavail < 0 || maxavail < 0)
      problems.push_back("avail thresholds must be >= 0");
    if (minavail > maxavail)
      problems.push_back("minavail must be <= maxavail");
    if (initial_user_balance < 0)
      problems.push_back("initial_user_balance must be >= 0");
    if (initial_avail < 0) problems.push_back("initial_avail must be >= 0");
    if (store.enabled) {
      if (store.dir.empty())
        problems.push_back("store.dir must be set when store.enabled");
      if (store.checkpoint_interval_us < 0)
        problems.push_back("store.checkpoint_interval_us must be >= 0");
    }
    return problems;
  }
};

}  // namespace zmail::core
