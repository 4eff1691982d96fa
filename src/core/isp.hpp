// Compliant-ISP state machine (paper Section 4, process isp[i]).
//
// The class is I/O-free: every action that would "send" pushes an Outbound
// record into an outbox which the harness drains — the AP rendition drains
// it into AP channels, the timed rendition into SMTP sessions over the
// simulated network.  This keeps one copy of the accounting semantics under
// both execution models.
//
// Responsibilities, mapped to the paper:
//   - zero-sum email send/receive with the credit array        (Section 4.1)
//   - user e-penny purchases/sales against the avail pool      (Section 4.2)
//   - nonce-protected buy/sell against the bank                (Section 4.3)
//   - snapshot quiesce, credit report, reset                   (Section 4.4)
//   - per-user daily limit, zombie warnings                    (Section 5)
//   - mailing-list acknowledgment generation                   (Section 5)
//   - policy toward mail from non-compliant ISPs               (Section 5)
#pragma once

#include <deque>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/messages.hpp"
#include "core/metrics.hpp"
#include "core/population.hpp"
#include "core/user_id.hpp"
#include "crypto/nonce.hpp"
#include "net/email.hpp"

namespace zmail::store {
class Checkpointer;
class WalSink;
struct RecoveryStats;
struct SnapshotSection;
struct SnapshotData;
}  // namespace zmail::store

namespace zmail::core {

// A message the ISP wants transported; the harness owns actual delivery.
struct Outbound {
  enum class Dest : std::uint8_t { kIsp, kBank };
  Dest dest = Dest::kIsp;
  std::size_t isp_index = 0;  // meaningful when dest == kIsp
  net::MsgType type;
  crypto::Bytes payload;
  // The local user whose e-penny paid for this email (kInvalidUser when
  // unpaid); lets the harness refund the right account if the transfer is
  // abandoned.
  UserId sender_user = kInvalidUser;
  // Causal trace id of the message or bank exchange this record transports
  // (zmail::trace); 0 when untracked.  The harness pins it around the
  // network send so the datagram inherits the chain.
  std::uint64_t trace_id = 0;
};

enum class SendResult : std::uint8_t {
  kDeliveredLocally,  // i == j: settled inside this ISP
  kSentPaid,          // queued to a compliant ISP, 1 e-penny committed
  kSentFree,          // queued to a non-compliant ISP, no payment
  kBuffered,          // quiesce in progress; committed and held (Section 4.4)
  kNoBalance,         // balance[s] = 0 branch
  kDailyLimit,        // sent[s] >= limit[s] branch
  kQuarantined,       // account suspended after repeated zombie warnings
  kShed,              // quiesce buffer full (max_buffered_sends); refunded
};

const char* send_result_name(SendResult r) noexcept;

// One delivered message in a user's inbox.
struct Delivery {
  net::EmailMessage msg;
  bool junk = false;       // segregated (Section 5 policy)
  EPenny paid = 0;         // e-pennies this delivery earned the user
};

class Isp {
 public:
  // `params` is held by reference and must outlive the Isp; sharing one
  // params object across all parties lets the bank's compliant-array
  // updates (Section 4: "broadcast this new compliant array to every
  // compliant ISP") take effect everywhere at once.
  //
  // `arena`, when it holds users_per_isp rows, is adopted as it is instead
  // of mapping and filling a new population: a rebuild hands over the
  // crashed ISP's arena right before restore_snapshot() overwrites every
  // column of it from a full image.  Its rows are meaningless until then.
  Isp(std::size_t index, const ZmailParams& params, crypto::RsaKey bank_pub,
      std::uint64_t secret_seed, Population arena = {});

  std::size_t index() const noexcept { return index_; }

  // --- Section 4.1: sending (the `cansend ->` action) -------------------
  // User `s` of this ISP sends `msg` to user `r` of ISP `dest_isp`.
  SendResult user_send(UserId s, std::size_t dest_isp, UserId r,
                       net::EmailMessage msg);

  // --- Section 4.1: receiving (the `rcv email` action) ------------------
  // `from_isp` is the sending ISP's index; `msg` is addressed to one of our
  // users (the SMTP layer hands over the message it parsed).  Nothing of
  // `msg` is kept beyond the call unless an inbox records it.
  void on_email(std::size_t from_isp, const net::EmailMessage& msg);
  // The same for a serialized net::EmailMessage (WAL replay, tests).  Both
  // overloads log the same kOnEmail record: this one logs `payload` as
  // given, the other encodes the message straight into the record.
  void on_email(std::size_t from_isp, std::span<const std::uint8_t> payload);

  // --- Section 4.2: user <-> ISP e-penny trades --------------------------
  bool user_buy(UserId t, EPenny x);
  bool user_sell(UserId t, EPenny x);

  // --- Section 4.3: ISP <-> bank trades ----------------------------------
  // The two `canbuy ->` / `cansell ->` actions; call periodically.
  void maybe_trade_with_bank();
  void on_buyreply(std::span<const std::uint8_t> wire);
  void on_sellreply(std::span<const std::uint8_t> wire);
  // True while a buy or sell exchange awaits its reply.
  bool bank_exchange_pending() const noexcept {
    return ns1_.has_value() || ns2_.has_value();
  }

  // --- Section 4.4: snapshot ---------------------------------------------
  void on_request(std::span<const std::uint8_t> wire);
  // The `timeout expired ->` action; the harness fires it (10 simulated
  // minutes in the timed rendition; channels-empty in the AP rendition).
  void on_quiesce_timeout();
  bool in_quiesce() const noexcept { return quiescing_; }

  // Undoes one paid remote send whose transfer the harness abandoned (all
  // retransmits exhausted): the payer gets the e-penny and daily-limit slot
  // back.  `same_epoch` must be true iff no snapshot reset happened between
  // transmission and abandonment — only then is the credit entry still in
  // the live array and reversed here.  (Abandoning across a snapshot
  // boundary is indistinguishable from ISP misbehaviour to the bank; the
  // default retry-forever transport never abandons.)
  void refund_lost_email(UserId sender_user, std::size_t dest_isp,
                         bool same_epoch);

  // --- Section 5: daily reset + zombie guard -----------------------------
  void end_of_day();
  // Lifts a quarantine (the user cleaned their machine) and resets the
  // warning counter.
  void release_user(UserId u);

  // --- Harness interface --------------------------------------------------
  // Moves the queued outbound messages into `out`, which must be empty;
  // the outbox keeps `out`'s capacity for the next ones.
  void take_outbox(std::vector<Outbound>& out);
  // The same into a fresh vector.
  std::vector<Outbound> take_outbox();
  bool outbox_empty() const noexcept { return outbox_.empty(); }

  // --- Introspection -------------------------------------------------------
  const ZmailParams& params() const noexcept { return params_; }
  std::size_t user_count() const noexcept { return users_.size(); }
  // Typed row access (UserId converts implicitly from an index).  The
  // proxy's members alias the population's columns: do not hold one across
  // a restore.  A balance written through it bypasses add_balance(), so the
  // running users_balance() no longer matches and the auditor says so.
  UserRef user(UserId u) { return users_.at(u); }
  ConstUserRef user(UserId u) const { return users_.at(u); }
  // The whole population: visitation (for_each_active) and column spans
  // for audit/invariants and benches; per-user policy overrides live here
  // too (set_policy_override / policy_override).
  Population& users() noexcept { return users_; }
  const Population& users() const noexcept { return users_; }
  EPenny avail() const noexcept { return avail_; }
  const std::vector<EPenny>& credit() const noexcept { return credit_; }
  bool cansend() const noexcept { return cansend_; }
  Money till() const noexcept { return till_; }
  std::uint64_t seq() const noexcept { return seq_; }
  const IspMetrics& metrics() const noexcept { return metrics_; }
  // A user's delivered mail; always empty unless params.record_inboxes
  // (the inbox table is only allocated then).
  const std::vector<Delivery>& inbox(UserId u) const;
  void clear_inbox(UserId u);
  // E-pennies committed by buffered (not yet transported) sends; free sends
  // to non-compliant destinations buffer without committing an e-penny.
  EPenny buffered_paid() const noexcept { return buffered_paid_; }
  std::size_t buffered_count() const noexcept { return buffer_.size(); }

  // Spam filter consulted for mail from non-compliant ISPs when the policy
  // is kFilter; returns true when the message should be dropped as spam.
  void set_filter(std::function<bool(const net::EmailMessage&)> is_spam) {
    filter_ = std::move(is_spam);
  }

  // Observer for automatically processed acknowledgments (they never reach
  // an inbox); the mailing-list distributor uses this to track which
  // subscribers acknowledged (Section 5).
  void set_ack_sink(
      std::function<void(UserId user, const net::EmailMessage&)> sink) {
    ack_sink_ = std::move(sink);
  }
  // Sum of user balances + avail pool (for conservation checks).  A real
  // pass over the balance column, so conservation never trusts a cached
  // total.
  EPenny epennies_held() const noexcept;
  // Running totals of the balance and lifetime_epennies_bought/sold
  // columns: every balance change goes through add_balance(), user_buy and
  // user_sell add to the trade totals, and every restore recounts all
  // three, so the telemetry held and trade gauges read them in O(1).  Not
  // persisted; the invariant auditor checks them against the columns.
  EPenny users_balance() const noexcept { return users_balance_; }
  EPenny users_bought() const noexcept { return users_bought_; }
  EPenny users_sold() const noexcept { return users_sold_; }

  // Transport-layer events attributed to this ISP's counters (the harness
  // owns the acknowledged link but the metrics live here so obs snapshots
  // and sweep merges pick them up).  A retransmitted frame of `type` bumps
  // bank_retries (buy, sell), report_retries (reply) or
  // emails_retransmitted (paid email).
  void note_retransmit(net::MsgType type);
  void note_duplicate_email() {
    ++metrics_.duplicate_emails_dropped;
    log_op(WalOp::kNoteDupEmail);
  }

  // --- Durability (src/store) ---------------------------------------------
  // The ISP is a deterministic state machine: with a WAL sink attached,
  // every mutating command logs its inputs before applying, and
  // apply_wal_record() re-invokes the same method with the sink detached
  // (so replay does not re-log) and the outbox discarded (replayed output
  // was already transported pre-crash).  The snapshot sections
  // (serialize_sections()/restore_snapshot()) capture everything replay
  // depends on — including the RNG and nonce streams — except
  // construction-time inputs (params, bank key, seeds) and the user-facing
  // inbox spool, which is mail storage, not settlement state.  The filter
  // and ack sink callbacks must be re-installed by the harness after
  // restore.
  enum class WalOp : std::uint8_t {
    kUserSend = 1,
    kOnEmail,
    kUserBuy,
    kUserSell,
    kTradePoll,
    kBuyReply,
    kSellReply,
    kSnapshotRequest,
    kQuiesceTimeout,
    kRefundLost = 11,  // 10 was a retry poll
    kEndOfDay,
    kReleaseUser,
    kNoteRetransmit,
    kNoteDupEmail,
    kSetMisbehavior,
  };
  // Every record's payload is encoded into one member buffer the ISP
  // reuses (wal_payload()), and a sent or received email is serialized
  // straight into it; the sender's outbox payload is copied from those
  // bytes rather than serialized again.  Replay reads each payload as a
  // span into the WAL image.
  void attach_wal(store::WalSink* wal) noexcept { wal_ = wal; }
  store::WalSink* wal() const noexcept { return wal_; }
  void apply_wal_record(std::uint8_t op,
                        std::span<const std::uint8_t> payload);

  // Snapshot encoding ("ZSNP" sections): one scalar-state section plus one
  // raw little-endian section per user column, each with its own CRC.
  // Checkpoints write these sections, and recovery restores them
  // column-direct from a read-only mapping of the snapshot file.
  //
  // serialize_sections copies nothing: the scalar section borrows
  // `scalars` (filled here) and each column section borrows the live
  // Population column, so the sections are valid until `scalars` dies or
  // the population next changes.
  void serialize_sections(crypto::Bytes& scalars,
                          std::vector<store::SnapshotSection>& out) const;
  // A differential over the base image tagged `base_lsn`: the scalar
  // section, each column dirty as a whole, and one row-delta section that
  // borrows `rows` (filled here with the tag and the dirty rows).
  void serialize_differential(std::uint64_t base_lsn, crypto::Bytes& scalars,
                              RowBuffer& rows,
                              std::vector<store::SnapshotSection>& out) const;
  // Restores from a snapshot's sections (a decoded buffer or
  // SnapshotFileView::snapshot()), reading the scalar section in place and
  // bulk-copying the columns.  A full image must carry every column; a
  // differential (it has a row-delta section) applies over the state its
  // base restored, and marks its rows and columns dirty.  False on a
  // missing or malformed section.
  bool restore_snapshot(const store::SnapshotData& snap);
  // One checkpoint through `cp`, the store's checkpoint step for an ISP.
  // It writes a differential while `cp` holds a base and the differential
  // carries at most half the user bytes of a full image (it grows with
  // every row dirtied since the base), and a full image otherwise, which
  // becomes the new base and clears the dirty marks.  `scalars` and `rows`
  // are the caller's reused buffers; `rows` is released once written.
  bool write_checkpoint(store::Checkpointer& cp, std::uint64_t sim_time_us,
                        crypto::Bytes& scalars, RowBuffer& rows,
                        std::string* error);
  // Rebuilds this ISP from `cp`: the base image, the differential over it,
  // then the WAL tail (Checkpointer::recover).  The base is what later
  // differentials are taken against, so its restore clears the dirty
  // marks; the differential's rows and the replayed ones are marked again,
  // so a recovery never forces the next checkpoint to be full.
  bool recover(store::Checkpointer& cp, store::RecoveryStats* stats,
               std::string* error);

  // Testing hooks.
  void set_avail(EPenny v) noexcept { avail_ = v; }
  void force_cansend(bool v) noexcept { cansend_ = v; }
  // Bootstrap hook: an ISP joining mid-deployment adopts the bank's
  // current snapshot sequence number so it accepts the next request.
  void set_seq(std::uint64_t s) noexcept { seq_ = s; }

  // Misbehavior injection for the Section 4.4 detection experiment: a
  // colluding ISP lets (its spammers') mail out without charging the sender
  // or recording the credit entry.  The receiving ISP still decrements its
  // credit, so the bank's antisymmetry check exposes the pair.
  enum class Misbehavior : std::uint8_t { kNone = 0, kFreeRide };
  void set_misbehavior(Misbehavior m) {
    misbehavior_ = m;
    log_misbehavior(m);
  }
  Misbehavior misbehavior() const noexcept { return misbehavior_; }

 private:
  struct BufferedSend {
    std::size_t dest_isp;
    net::EmailMessage msg;
    bool paid = false;  // carries a committed e-penny
    UserId sender_user = kInvalidUser;
  };

  // user_send after its WAL record: `wire` is the record's serialized email
  // (empty without a WAL); WAL replay enters here with the logged bytes.
  SendResult apply_user_send(UserId s, std::size_t dest_isp, UserId r,
                             net::EmailMessage msg,
                             std::span<const std::uint8_t> wire);
  void receive_email(std::size_t from_isp, const net::EmailMessage& msg);
  void deliver_locally(UserId r, const net::EmailMessage& msg,
                       EPenny paid, bool junk);
  // `wire` is msg.serialize() when the caller has it already (empty
  // otherwise); the outbox payload is copied from it.
  void transport_paid_email(std::size_t dest_isp, const net::EmailMessage& msg,
                            UserId sender_user,
                            std::span<const std::uint8_t> wire = {});
  void maybe_generate_ack(UserId recipient, const net::EmailMessage& msg);
  void send_zombie_warning(UserId s);
  bool commit_paid_send(UserId s);  // balance/limit check + decrement
  // The one writer of the balance column: keeps users_balance_ in step.
  void add_balance(const UserRef& u, EPenny delta) noexcept {
    u.balance += delta;
    users_balance_ += delta;
  }
  bool buffer_full() const noexcept {
    return params_.max_buffered_sends > 0 &&
           buffer_.size() >= params_.max_buffered_sends;
  }
  // WAL logging helpers (no-ops when no sink is attached; isp_persist.cpp).
  // wal_payload() starts a record payload in wal_buf_ (emptied, capacity
  // kept).
  crypto::Bytes& wal_payload();
  void log_op(WalOp op, std::span<const std::uint8_t> payload = {});
  void log_misbehavior(Misbehavior m);
  // The scalar section: user count, policy table and the scalar tail.
  void serialize_scalars(crypto::Bytes& b) const;
  // The scalar section after the per-user state (avail/till/credit,
  // protocol flags, buffers, metrics, RNG/nonce streams).
  void serialize_scalar_tail(crypto::Bytes& b) const;
  bool restore_scalar_tail(crypto::ByteReader& r);
  // Re-derives users_balance_/users_bought_/users_sold_ from the restored
  // columns.
  void recount_running_totals() noexcept;

  std::size_t index_;
  const ZmailParams& params_;
  crypto::RsaKey bank_pub_;
  Rng rng_;
  crypto::NonceGenerator nonce_gen_;

  Population users_;
  EPenny users_balance_ = 0;  // Σ balance
  EPenny users_bought_ = 0;  // Σ lifetime_epennies_bought
  EPenny users_sold_ = 0;    // Σ lifetime_epennies_sold
  // Per-user inboxes; empty (no table at all) unless params.record_inboxes.
  std::vector<std::vector<Delivery>> inboxes_;
  EPenny avail_ = 0;
  Money till_;  // real money received from users buying e-pennies
  std::vector<EPenny> credit_;

  bool cansend_ = true;
  bool canbuy_ = true;
  bool cansell_ = true;
  bool quiescing_ = false;
  EPenny buyvalue_ = 0;
  EPenny sellvalue_ = 0;
  std::uint64_t seq_ = 0;
  std::optional<crypto::Nonce> ns1_;  // outstanding buy nonce
  std::optional<crypto::Nonce> ns2_;  // outstanding sell nonce

  std::deque<BufferedSend> buffer_;  // held during quiesce
  EPenny buffered_paid_ = 0;
  std::vector<Outbound> outbox_;
  std::function<bool(const net::EmailMessage&)> filter_;
  std::function<void(UserId, const net::EmailMessage&)> ack_sink_;
  Misbehavior misbehavior_ = Misbehavior::kNone;
  store::WalSink* wal_ = nullptr;
  crypto::Bytes wal_buf_;  // WAL payload encode buffer, reused per record
  IspMetrics metrics_;
  // Open bank-exchange trace spans (zmail::trace).  Deliberately NOT part
  // of the snapshot: a crash orphans the open span, and the validator's
  // crash-forgives rule accounts for it; the reply handlers skip the end
  // emission when the id is 0 (fresh or recovered instance).
  std::uint64_t buy_trace_ = 0;
  std::uint64_t sell_trace_ = 0;
  // Scratch buffers for the bank-message envelope path (see
  // core::seal_into): reused across messages so steady-state traffic stops
  // reallocating.
  crypto::Envelope env_scratch_;
  crypto::Bytes plain_scratch_;
};

}  // namespace zmail::core
