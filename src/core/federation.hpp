// The bank state machine (paper Section 4, process bank), run as a
// federation of params.n_banks collaborating member banks (Section 5,
// "Bank Setup").
//
// The bank (1) exchanges e-pennies against the real-money accounts of
// compliant ISPs (Section 4.3), and (2) periodically gathers every
// compliant ISP's credit array and checks pairwise antisymmetry
// (Section 4.4), flagging misbehaving/colluding ISPs.  The paper leaves
// inter-ISP settlement implicit ("an accounting relationship among
// compliant ISPs, which reconcile payments"); we make it concrete: after a
// consistent snapshot the bank performs a *bulk* transfer per ISP pair
// equal to the netted credit — one ledger operation per pair per billing
// period, which is the whole point of E5's comparison with per-message
// schemes.
//
// "In fact, the role of the bank in the Zmail protocol can be implemented
//  as a set of distributed banks or a hierarchy of banks."  The central
// bank is the k = 1 case; with k > 1 (the paper leaves the design open, we
// make the natural choice concrete):
//   - every ISP has one *home bank* (round-robin assignment); its
//     real-money account and its buy/sell traffic live there;
//   - a snapshot round: each bank sends requests to its member ISPs and
//     gathers their credit reports;
//   - banks then exchange the gathered report columns all-to-all (counted
//     as inter-bank messages/bytes — the cost the E12 federation bench
//     measures);
//   - pair (i, j) is verified by the home bank of min(i, j); a consistent
//     pair settles.  Settlement between ISPs of different banks moves
//     money through inter-bank clearing accounts, netted per bank pair per
//     round (bulk, like everything else in Zmail).
//
// Crash tolerance: each member bank is a self-contained state machine —
// its own RNG, report gathering, verify matrix, drift streaks, trade
// idempotency ledgers and clearing ledgers — so it can be serialized,
// WAL-logged, crashed, and rebuilt independently of its peers.  The
// inter-bank column exchange and the netted clearing transfers carry a
// round id; a per-peer ledger absorbs duplicated or stale deliveries, so a
// wire delivered twice (or a WAL replayed after a crash) never
// double-applies a settlement.
//
// One inter-bank transport: every wire is handed to the installed sink
// (ZmailSystem sends it over the latency-modelled network, on the
// acknowledged link under retry.enabled; tests queue it) and comes back
// through on_interbank.  A single bank sends no inter-bank wires, so a k = 1 federation needs no
// sink.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/audit.hpp"
#include "core/config.hpp"
#include "core/messages.hpp"
#include "core/metrics.hpp"
#include "crypto/rsa.hpp"
#include "store/wal.hpp"

namespace zmail::core {

// A detected antisymmetry violation: credit_i[j] + credit_j[i] != 0.
struct CreditViolation {
  std::size_t isp_i = 0;
  std::size_t isp_j = 0;
  EPenny discrepancy = 0;  // credit_i[j] + credit_j[i]
};

class BankFederation {
 public:
  // Wire kinds on the inter-bank plane.  Values are stable: they appear in
  // WAL records and on sealed wires.
  enum class FedMsg : std::uint8_t {
    kColumns = 1,   // a bank's gathered member credit columns
    kClearing = 3,  // per-round foreign account deltas + netted position
  };

  // Logical WAL command log (one log per member bank).  Values are stable
  // on disk.
  enum class WalOp : std::uint8_t {
    kOnBuy = 1,
    kOnSell = 2,
    kStartRound = 3,
    kOnReply = 4,
    kOnInterbank = 5,
    kNoteRetransmit = 8,  // 6 and 7 were the retry polls
  };

  // `params` is held by reference and must outlive the federation (see
  // Isp); it supplies the member count params.n_banks.  `keys[b]` is bank
  // b's keypair (construction input, not serialized state); bank b seals
  // with its own stream derived from `seed`.
  BankFederation(const ZmailParams& params, std::vector<crypto::KeyPair> keys,
                 std::uint64_t seed);

  std::size_t bank_count() const noexcept { return keys_.size(); }
  // Home-bank assignment (round-robin over ISP indices).
  std::size_t home_bank(std::size_t isp) const;
  // Key the ISP seals its traffic with (its home bank's public key).
  const crypto::RsaKey& public_key_for(std::size_t isp) const;

  // --- Section 4.3: e-penny trade, at the ISP's home bank ------------------
  // Returns the sealed reply wire bytes to send back to the ISP (empty when
  // the request is dropped).  Both handlers are idempotent under
  // duplication: a request whose nonce was already applied re-sends the
  // cached reply without minting/burning again, and a delayed duplicate of
  // an older exchange is dropped — so a request delivered twice, by the
  // network or by a replay, can never double-credit (NCR/DCR replay
  // safety).
  crypto::Bytes on_buy(std::size_t isp, std::span<const std::uint8_t> wire);
  crypto::Bytes on_sell(std::size_t isp, std::span<const std::uint8_t> wire);

  // --- Section 4.4: snapshot / verification ---------------------------------
  // `canrequest ->` action at every bank: one sealed request per compliant
  // ISP (from its home bank), in ISP order.  Empty when a round is open.
  std::vector<std::pair<std::size_t, crypto::Bytes>> start_snapshot();
  // Opens the round at one bank only: the WAL replay of its kStartRound
  // record, which regenerates the same request wires.
  std::vector<std::pair<std::size_t, crypto::Bytes>> start_snapshot_for(
      std::size_t bank);
  // `rcv reply` action.  When a bank's last outstanding report arrives it
  // ships its columns, verifies the pairs it owns and settles.  A
  // duplicated, replayed or out-of-round report counts stale and is
  // ignored; a malformed one counts as a bad envelope.
  void on_reply(std::size_t isp, std::span<const std::uint8_t> wire);
  // Inter-bank plane: deliver a peer bank's sealed wire to `bank`.  A
  // duplicated or out-of-round wire is counted and ignored.
  void on_interbank(std::size_t bank, std::size_t from_bank,
                    std::uint8_t kind, std::span<const std::uint8_t> wire);
  // Counts one wire of `type` that the link re-sent from `bank`: a
  // snapshot request, a trade reply or an inter-bank wire.
  void note_retransmit(std::size_t bank, net::MsgType type);

  // Any bank mid-round.  False is the globally consistent cut the
  // auditor's pairwise checks need: a bank closes its round only once every
  // peer's clearing transfer has been applied.
  bool round_open() const noexcept;
  bool round_open(std::size_t bank) const;
  std::uint64_t seq() const noexcept;            // min over member banks
  std::uint64_t seq(std::size_t bank) const;

  // Violations found by each bank's most recent verification, by pair.
  const std::vector<CreditViolation>& last_violations() const noexcept {
    return last_violations_;
  }
  // ISP pairs whose *cumulative* inconsistency has been nonzero for two or
  // more consecutive rounds.  Single-round skew (an ISP that quiesced late
  // because its snapshot request had to be re-sent) self-cancels in the
  // next round; a free-riding pair drifts monotonically and stays counted.
  std::uint64_t persistent_drift_pairs() const noexcept;

  // Attaches an audit journal; every member bank records its monetary and
  // verification events there (nullptr detaches).  The journal must
  // outlive the federation.  WAL replay does not re-record.
  void attach_journal(AuditJournal* journal) noexcept { journal_ = journal; }

  // --- Accounts and metrics -------------------------------------------------
  Money account(std::size_t isp) const { return accounts_.at(isp); }
  void set_account(std::size_t isp, Money v) { accounts_.at(isp) = v; }
  // Net clearing position of bank b toward the rest of the federation
  // (positive: the federation owes b).
  Money clearing_position(std::size_t bank) const;
  // Cumulative netted flow recorded at `bank` against `peer` (negative:
  // bank's members paid peer's members net).  Antisymmetric at idle cuts.
  Money clearing_pair(std::size_t bank, std::size_t peer) const;

  // Summed across member banks, except snapshot_rounds, which is the
  // minimum (a round counts when *every* bank closed it).
  BankMetrics metrics() const;
  const BankMetrics& metrics(std::size_t bank) const;
  // Net e-pennies currently minted into the ISP world.
  EPenny epennies_outstanding() const;

  // --- Durability (src/store) & the networked inter-bank plane --------------
  // Mirror of the Isp durability contract (see isp.hpp): with a sink
  // attached every mutating handler logs its inputs, and replay re-invokes
  // the handler with the sink, the journal and wire emission suppressed,
  // discarding returned reply wires (they were sent pre-crash, and the
  // link still holds any that were not acked).
  //
  // Every inter-bank wire is handed to the sink, which must be installed
  // before a k > 1 federation emits one.  The sink must not call back into
  // the federation synchronously: it queues or sends the wire, and the
  // transport delivers it later through on_interbank.
  using InterbankSink = std::function<void(
      std::size_t from, std::size_t to, std::uint8_t kind, crypto::Bytes wire)>;
  void set_interbank_sink(InterbankSink sink) { sink_ = std::move(sink); }

  void attach_wal(std::size_t bank, store::WalSink* wal);
  crypto::Bytes serialize_state(std::size_t bank) const;
  bool restore_state(std::size_t bank, std::span<const std::uint8_t> state);
  void apply_wal_record(std::size_t bank, std::uint8_t op,
                        std::span<const std::uint8_t> payload);
  // Drops one bank's in-memory state (fresh-construct) ahead of recovery.
  void reset_bank(std::size_t bank);

 private:
  struct PeerLedger {
    bool any_applied = false;
    std::uint64_t applied_hi = 0;  // highest round applied from this peer
  };
  // Idempotency record for one ISP's most recent applied trade.  ISP nonces
  // carry a strictly increasing counter (crypto::NonceGenerator), and each
  // ISP has at most one buy and one sell outstanding, so "counter <= the
  // highest applied" identifies every duplicate; a duplicate of the latest
  // one is answered with its cached reply.
  struct TradeLedger {
    bool any_applied = false;
    std::uint64_t applied_hi = 0;  // highest applied nonce counter
    crypto::Nonce last_nonce;      // nonce of the cached reply
    crypto::Bytes last_reply;      // sealed wire, replayed on duplicate
  };
  // One self-contained member bank: everything a crash must not lose.
  struct MemberBank {
    Rng rng{0};
    std::uint64_t seq = 0;
    bool canrequest = true;
    std::vector<bool> reported;     // per ISP; only members meaningful
    std::size_t outstanding = 0;
    std::vector<std::vector<EPenny>> verify;  // verify[i][g] = credit_g[i]
    // Cumulative per-pair inconsistency across rounds (owned pairs,
    // drift[i][j] for i < j) and how many consecutive rounds it has been
    // nonzero.  A recovered snapshot (one ISP quiesced late after a lost
    // request) skews a pair by +/-d across two adjacent rounds, which nets
    // to zero here; genuine misbehaviour accumulates and keeps the streak.
    std::vector<std::vector<EPenny>> drift;
    std::vector<std::vector<std::uint32_t>> drift_streak;
    std::uint64_t persistent_drift_pairs = 0;
    std::vector<bool> colset_from;  // per bank; self ⇔ gather complete
    bool verified = false;          // owned pairs checked this round
    std::vector<Money> partial_net;   // per peer: my net flow me→peer
    std::vector<Money> peer_partial;  // per peer: peer's net peer→me
    std::vector<bool> transfer_from;  // per peer: clearing applied
    std::vector<bool> pair_netted;    // per peer: both partials combined
    Money clearing_pos = Money::zero();
    std::vector<Money> clearing_pair;   // cumulative per peer
    std::vector<PeerLedger> col_ledger;
    std::vector<PeerLedger> clr_ledger;
    std::vector<TradeLedger> buy_ledger;   // per ISP
    std::vector<TradeLedger> sell_ledger;  // per ISP
    std::vector<CreditViolation> violations;  // owned pairs, last verify
    BankMetrics metrics;
    store::WalSink* wal = nullptr;  // not serialized; reattached on rebuild
    crypto::Bytes wal_buf;  // WAL payload encode buffer, reused per record
  };

  // Starts a WAL payload in `bank`'s reused encode buffer (emptied,
  // capacity kept); log_op hands it, or any other span, to the bank's sink.
  crypto::Bytes& wal_payload(std::size_t bank);
  void log_op(std::size_t bank, WalOp op,
              std::span<const std::uint8_t> payload = {});
  void log_wire(std::size_t bank, WalOp op, std::uint64_t who,
                std::span<const std::uint8_t> wire);
  void audit(std::size_t bank, AuditKind kind, std::size_t a,
             std::size_t b = 0, std::int64_t amount = 0);
  crypto::Bytes seal_from(std::size_t bank, const crypto::RsaKey& key,
                          const crypto::Bytes& plain);
  crypto::Bytes apply_trade(std::size_t isp, TradeLedger& led,
                            const crypto::Nonce& nonce,
                            const crypto::Bytes& reply);
  void init_bank(std::size_t bank);
  void open_round(std::size_t bank);
  std::size_t compliant_members(std::size_t bank) const;
  void gather_complete(std::size_t bank);
  void maybe_verify(std::size_t bank);
  void verify_owned_pairs(std::size_t bank);
  void combine_pair(std::size_t bank, std::size_t peer);
  void try_close_round(std::size_t bank);
  // Apply a wire of `bank`'s open round.
  void handle_columns(std::size_t bank, std::size_t from,
                      crypto::ByteReader& r, std::uint64_t round);
  void handle_clearing(std::size_t bank, std::size_t from,
                       crypto::ByteReader& r, std::uint64_t round);
  void emit(std::size_t from, std::size_t to, FedMsg kind,
            const crypto::Bytes& plain);
  void rebuild_violations();

  const ZmailParams& params_;
  std::vector<crypto::KeyPair> keys_;
  std::uint64_t seed_ = 0;
  AuditJournal* journal_ = nullptr;

  std::vector<Money> accounts_;  // per ISP, held at its home bank
  std::vector<MemberBank> banks_;

  InterbankSink sink_;
  bool replaying_ = false;  // WAL replay: suppress wire emission + journal

  std::vector<CreditViolation> last_violations_;
  // Scratch envelope/plaintext reused across every seal/unseal (see
  // core::seal_into) so message handling stops reallocating.
  crypto::Envelope env_scratch_;
  crypto::Bytes plain_scratch_;
  CreditReport report_scratch_;  // decoded credit reports, reused
};

}  // namespace zmail::core
