#include "core/isp.hpp"

#include "trace/trace.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"

namespace zmail::core {

namespace {
// Header that requests an automatic e-penny acknowledgment (Section 5,
// mailing lists).  Value is the distributor address the ack returns to.
constexpr const char* kAckHeader = "X-Zmail-Ack-To";
// Marks a message as an automatically processed acknowledgment.
constexpr const char* kAckFlagHeader = "X-Zmail-Acknowledgment";

// Appends msg.serialize() with its u32 length prefix, the bytes
// crypto::put_bytes would write, without the temporary; returns the offset
// of the message bytes.
std::size_t put_email(crypto::Bytes& b, const net::EmailMessage& msg) {
  const std::size_t at = b.size();
  crypto::put_u32(b, 0);
  msg.serialize_append(b);
  crypto::store_be(b.data() + at, b.size() - at - 4, 4);
  return at + 4;
}

// The outbox payload of `msg`: a copy of `wire` when the caller already
// serialized the message, a fresh serialize() otherwise.
crypto::Bytes email_payload(const net::EmailMessage& msg,
                            std::span<const std::uint8_t> wire) {
  if (wire.empty()) return msg.serialize();
  return crypto::Bytes(wire.begin(), wire.end());
}
}  // namespace

Isp::Isp(std::size_t index, const ZmailParams& params,
         crypto::RsaKey bank_pub, std::uint64_t secret_seed, Population arena)
    : index_(index),
      params_(params),
      bank_pub_(bank_pub),
      rng_(secret_seed ^ (0x1517ULL * (index + 1))),
      nonce_gen_(secret_seed * 0x9E3779B97F4A7C15ULL + index) {
  ZMAIL_ASSERT(index < params_.n_isps);
  if (arena.size() != 0 && arena.size() == params_.users_per_isp)
    users_ = std::move(arena);
  else
    users_.reset(params_.users_per_isp, kInitialUserAccount,
                 params_.initial_user_balance, params_.default_daily_limit);
  users_balance_ = static_cast<EPenny>(params_.users_per_isp) *
                   params_.initial_user_balance;
  if (params_.record_inboxes) inboxes_.resize(params_.users_per_isp);
  avail_ = params_.initial_avail;
  credit_.assign(params_.n_isps, 0);
}

const std::vector<Delivery>& Isp::inbox(UserId u) const {
  static const std::vector<Delivery> kNone;
  ZMAIL_ASSERT(u.slot() < users_.size());
  return inboxes_.empty() ? kNone : inboxes_[u.slot()];
}

EPenny Isp::epennies_held() const noexcept {
  EPenny total = avail_;
  for (const EPenny b : users_.balances()) total += b;
  return total;
}

std::optional<SendResult> Isp::commit_paid_send(UserId s) {
  const UserRef u = users_.at(s);
  // Paper guard: balance[s] >= 1 AND sent[s] < limit[s].
  if (u.balance < 1) {
    ++metrics_.refused_no_balance;
    return SendResult::kNoBalance;
  }
  if (u.sent >= u.limit) {
    ++metrics_.refused_daily_limit;
    if (!u.blocked_today) {
      u.blocked_today = true;
      send_zombie_warning(s);
    }
    return SendResult::kDailyLimit;
  }
  add_balance(u, -1);
  u.sent += 1;
  u.lifetime_sent += 1;
  return std::nullopt;
}

SendResult Isp::user_send(UserId s, std::size_t dest_isp, UserId r,
                          net::EmailMessage msg) {
  // With a WAL the message is serialized once, into the record; a remote
  // send's outbox payload is copied from those bytes.
  std::span<const std::uint8_t> wire;
  if (wal_) {
    crypto::Bytes& p = wal_payload();
    crypto::put_u64(p, user_to_wire(s));
    crypto::put_u64(p, dest_isp);
    crypto::put_u64(p, user_to_wire(r));
    const std::size_t at = put_email(p, msg);
    log_op(WalOp::kUserSend, p);
    wire = std::span<const std::uint8_t>(p).subspan(at);
  }
  return apply_user_send(s, dest_isp, r, std::move(msg), wire);
}

SendResult Isp::apply_user_send(UserId s, std::size_t dest_isp, UserId r,
                                net::EmailMessage msg,
                                std::span<const std::uint8_t> wire) {
  // Checked here so a replayed record is held to the live call's bounds.
  ZMAIL_ASSERT(s.slot() < users_.size());
  ZMAIL_ASSERT(dest_isp < params_.n_isps);
  if (users_.at(s).quarantined) return SendResult::kQuarantined;

  if (dest_isp == index_) {
    // Local delivery: the e-penny moves from sender to receiver without
    // touching any channel or the credit array.
    if (const auto refused = commit_paid_send(s)) return *refused;
    ZMAIL_ASSERT(r.slot() < users_.size());
    const UserRef rcpt = users_.at(r);
    add_balance(rcpt, 1);
    rcpt.lifetime_received_paid += 1;
    ++metrics_.emails_sent_local;
    deliver_locally(r, msg, /*paid=*/1, /*junk=*/false);
    maybe_generate_ack(r, msg);
    return SendResult::kDeliveredLocally;
  }

  if (!params_.is_compliant(dest_isp)) {
    // "~compliant[j] -> send email(s, r) to isp[j]": free, unpaid.
    if (!cansend_) {
      ++metrics_.emails_sent_noncompliant;
      if (msg.trace_id != 0)
        trace::begin(trace::Ev::kQuiesceBuffer, msg.trace_id,
                     static_cast<std::uint16_t>(index_));
      buffer_.push_back(BufferedSend{dest_isp, std::move(msg), false});
      ++metrics_.emails_buffered_during_quiesce;
      return SendResult::kBuffered;
    }
    ++metrics_.emails_sent_noncompliant;
    outbox_.push_back(Outbound{Outbound::Dest::kIsp, dest_isp, kMsgEmail,
                               email_payload(msg, wire), msg.trace_id});
    return SendResult::kSentFree;
  }

  if (misbehavior_ == Misbehavior::kFreeRide) {
    // Colluding ISP: ship the mail without charging the sender and without
    // the credit entry.  Detected by the bank's verification (Section 4.4).
    ++metrics_.emails_sent_compliant;
    outbox_.push_back(Outbound{Outbound::Dest::kIsp, dest_isp, kMsgEmail,
                               email_payload(msg, wire), msg.trace_id});
    return SendResult::kSentPaid;
  }

  // Paid remote send.
  if (const auto refused = commit_paid_send(s)) return *refused;
  if (!cansend_) {
    // Section 4.4: "these emails will be buffered and sent right after the
    // timeout expires".  Payment is committed now; the credit entry is
    // recorded at actual transmission so the snapshot stays consistent.
    if (msg.trace_id != 0)
      trace::begin(trace::Ev::kQuiesceBuffer, msg.trace_id,
                   static_cast<std::uint16_t>(index_));
    buffer_.push_back(BufferedSend{dest_isp, std::move(msg), true});
    buffered_paid_ += 1;
    ++metrics_.emails_buffered_during_quiesce;
    return SendResult::kBuffered;
  }
  ++metrics_.emails_sent_compliant;
  transport_paid_email(dest_isp, msg, wire);
  return SendResult::kSentPaid;
}

void Isp::transport_paid_email(std::size_t dest_isp,
                               const net::EmailMessage& msg,
                               std::span<const std::uint8_t> wire) {
  credit_.at(dest_isp) += 1;
  outbox_.push_back(Outbound{Outbound::Dest::kIsp, dest_isp, kMsgEmail,
                             email_payload(msg, wire), msg.trace_id});
}

void Isp::deliver_locally(UserId r, const net::EmailMessage& msg,
                          EPenny paid, bool junk) {
  ZMAIL_ASSERT(r.slot() < users_.size());
  // Acknowledgments are "processed automatically, rather than being
  // delivered to the receiver's inbox for human attention" (Section 5).
  if (msg.find_header(kAckFlagHeader)) {
    ++metrics_.acks_received;
    if (msg.trace_id != 0) {
      // Terminal for the acknowledgment's own chain (arg1 = 2 marks
      // auto-processed, never spooled to an inbox).
      trace::instant(trace::Ev::kDeliver, msg.trace_id,
                     static_cast<std::uint16_t>(index_),
                     static_cast<std::uint64_t>(paid), 2);
      trace::end(trace::Ev::kMessage, msg.trace_id,
                 static_cast<std::uint16_t>(index_));
    }
    if (ack_sink_) ack_sink_(r, msg);
    return;
  }
  ++metrics_.emails_delivered;
  if (junk) ++metrics_.emails_segregated;
  if (msg.trace_id != 0) {
    trace::instant(trace::Ev::kDeliver, msg.trace_id,
                   static_cast<std::uint16_t>(index_),
                   static_cast<std::uint64_t>(paid), junk ? 1 : 0);
    trace::end(trace::Ev::kMessage, msg.trace_id,
               static_cast<std::uint16_t>(index_));
  }
  if (!inboxes_.empty())
    inboxes_[r.slot()].push_back(Delivery{msg, junk, paid});
}

void Isp::maybe_generate_ack(UserId recipient,
                             const net::EmailMessage& msg) {
  if (!params_.auto_acknowledge_lists) return;
  const std::string* ack_to = msg.find_header(kAckHeader);
  if (!ack_to) return;
  const auto dist = net::parse_address(*ack_to);
  if (!dist) return;
  std::size_t dist_isp = 0, dist_user = 0;
  if (!net::decode_user_address(*dist, dist_isp, dist_user)) return;
  if (dist_isp >= params_.n_isps) return;

  // The receiving ISP generates the acknowledgment on the user's behalf;
  // it costs the e-penny the list message just delivered, returning it to
  // the distributor.  ISP-generated acks do not count against the user's
  // daily limit (they are bounded by mail *received*, not sent).
  const UserRef u = users_.at(recipient);
  if (u.balance < 1) return;  // cannot happen right after a paid delivery

  net::EmailMessage ack = net::make_email(
      net::make_user_address(index_, recipient.slot()), *dist, "Ack",
      msg.header("Message-ID").value_or(""), net::MailClass::kAcknowledgment);
  ack.set_header(kAckFlagHeader, "1");
  // The acknowledgment is a new message with its own lifecycle span; the
  // triggering message's id rides in arg0 as the causal parent link (the
  // parent's root span ends at delivery, which happens before this runs,
  // so the ack cannot live inside the parent interval).
  ack.trace_id = trace::next_id();
  if (ack.trace_id != 0)
    trace::begin(trace::Ev::kMessage, ack.trace_id,
                 static_cast<std::uint16_t>(index_), msg.trace_id);

  add_balance(u, -1);
  ++metrics_.acks_generated;

  if (dist_isp == index_) {
    const UserRef d = users_.at(dist_user);
    add_balance(d, 1);
    d.lifetime_received_paid += 1;
    deliver_locally(dist_user, ack, 1, false);
    return;
  }
  if (!cansend_) {
    if (ack.trace_id != 0)
      trace::begin(trace::Ev::kQuiesceBuffer, ack.trace_id,
                   static_cast<std::uint16_t>(index_));
    buffer_.push_back(BufferedSend{dist_isp, std::move(ack), true});
    buffered_paid_ += 1;
    ++metrics_.emails_buffered_during_quiesce;
    return;
  }
  transport_paid_email(dist_isp, ack);
}

void Isp::send_zombie_warning(UserId s) {
  // "the user is sent a warning message to check for viruses" (Section 5).
  // Generated by the ISP itself, free, delivered locally.
  net::EmailMessage warn = net::make_email(
      net::EmailAddress{"postmaster", net::isp_domain(index_)},
      net::make_user_address(index_, s.slot()), "Daily sending limit reached",
      "Your account hit its daily outgoing-mail limit. If you did not send "
      "this volume of mail, your machine may be infected; please run a "
      "virus scan.",
      net::MailClass::kLegitimate);
  ++metrics_.zombie_warnings_sent;
  const UserRef u = users_.at(s);
  u.warnings += 1;
  deliver_locally(s, warn, 0, false);
  // Repeat offenders are suspended outright: the account stays blocked
  // across days until the ISP releases it (after disinfection).
  if (params_.quarantine_after_warnings > 0 &&
      u.warnings >= params_.quarantine_after_warnings)
    u.quarantined = true;
}

void Isp::on_email(std::size_t from_isp, const net::EmailMessage& msg) {
  if (wal_) {
    crypto::Bytes& p = wal_payload();
    crypto::put_u64(p, from_isp);
    put_email(p, msg);
    log_op(WalOp::kOnEmail, p);
  }
  receive_email(from_isp, msg);
}

void Isp::on_email(std::size_t from_isp,
                   std::span<const std::uint8_t> payload) {
  if (wal_) {
    crypto::Bytes& p = wal_payload();
    crypto::put_u64(p, from_isp);
    crypto::put_bytes(p, payload);
    log_op(WalOp::kOnEmail, p);
  }
  net::EmailMessage msg;
  if (!net::EmailMessage::deserialize_into(payload, msg)) {
    ++metrics_.bad_envelopes;
    return;
  }
  receive_email(from_isp, msg);
}

void Isp::receive_email(std::size_t from_isp, const net::EmailMessage& msg) {
  // Resolve the recipient among our users.
  std::size_t rcpt_isp = 0, rcpt_user = 0;
  if (msg.to.empty() ||
      !net::decode_user_address(msg.to.front(), rcpt_isp, rcpt_user) ||
      rcpt_isp != index_ || rcpt_user >= users_.size()) {
    ++metrics_.bad_envelopes;
    return;
  }

  // Receive/classify span: covers payment accounting, policy, and the
  // delivery (or drop) decision for this message.
  std::optional<trace::SpanScope> classify;
  if (msg.trace_id != 0)
    classify.emplace(trace::Ev::kClassify, msg.trace_id,
                     static_cast<std::uint16_t>(index_));

  if (params_.is_compliant(from_isp)) {
    // "compliant[g] -> balance[r] := balance[r] + 1; credit[g] -= 1".
    const UserRef rcpt = users_.at(rcpt_user);
    add_balance(rcpt, 1);
    rcpt.lifetime_received_paid += 1;
    credit_.at(from_isp) -= 1;
    ++metrics_.emails_received_compliant;
    deliver_locally(rcpt_user, msg, 1, false);
    maybe_generate_ack(rcpt_user, msg);
    return;
  }

  // Mail from a non-compliant ISP: no payment; apply the Section 5 policy
  // (the recipient's own choice when set, the ISP default otherwise).
  ++metrics_.emails_received_noncompliant;
  const NonCompliantPolicy policy =
      users_.policy_or(rcpt_user, params_.noncompliant_policy);
  switch (policy) {
    case NonCompliantPolicy::kAccept:
      deliver_locally(rcpt_user, msg, 0, false);
      break;
    case NonCompliantPolicy::kSegregate:
      deliver_locally(rcpt_user, msg, 0, true);
      break;
    case NonCompliantPolicy::kDiscard:
      ++metrics_.emails_discarded;
      if (msg.trace_id != 0) {
        trace::instant(trace::Ev::kDiscard, msg.trace_id,
                       static_cast<std::uint16_t>(index_));
        trace::end(trace::Ev::kMessage, msg.trace_id,
                   static_cast<std::uint16_t>(index_));
      }
      break;
  }
}

bool Isp::user_buy(UserId t, EPenny x) {
  ZMAIL_ASSERT(t.slot() < users_.size());
  if (wal_) {
    crypto::Bytes& p = wal_payload();
    crypto::put_u64(p, user_to_wire(t));
    crypto::put_i64(p, x);
    log_op(WalOp::kUserBuy, p);
  }
  if (x <= 0) return false;
  const UserRef u = users_.at(t);
  const Money cost = Money::from_epennies(x);
  // Paper guard: account[t] >= x AND avail >= x.
  if (u.account < cost || avail_ < x) return false;
  u.account -= cost;
  till_ += cost;
  add_balance(u, x);
  u.lifetime_epennies_bought += x;
  users_bought_ += x;
  avail_ -= x;
  return true;
}

bool Isp::user_sell(UserId t, EPenny x) {
  ZMAIL_ASSERT(t.slot() < users_.size());
  if (wal_) {
    crypto::Bytes& p = wal_payload();
    crypto::put_u64(p, user_to_wire(t));
    crypto::put_i64(p, x);
    log_op(WalOp::kUserSell, p);
  }
  if (x <= 0) return false;
  const UserRef u = users_.at(t);
  if (u.balance < x) return false;
  const Money value = Money::from_epennies(x);
  add_balance(u, -x);
  u.account += value;
  till_ -= value;
  u.lifetime_epennies_sold += x;
  users_sold_ += x;
  avail_ += x;
  return true;
}

void Isp::maybe_trade_with_bank() {
  // Logged only when a guard will fire: this poll runs on every trading
  // tick for every ISP and almost always no-ops, which would otherwise
  // dominate the WAL.  The predicate mirrors the guards below exactly, so
  // replaying the logged polls re-fires the same trades.
  if ((canbuy_ && avail_ < params_.minavail) ||
      (cansell_ && avail_ > params_.maxavail))
    log_op(WalOp::kTradePoll);
  if (canbuy_ && avail_ < params_.minavail) {
    canbuy_ = false;
    buyvalue_ = params_.maxavail - avail_;  // refill to the upper bound
    ns1_ = nonce_gen_.next();
    BuyRequest req{buyvalue_, *ns1_};
    ++metrics_.bank_buys_attempted;
    buy_trace_ = trace::next_id();
    if (buy_trace_ != 0)
      trace::begin(trace::Ev::kBankBuy, buy_trace_,
                   static_cast<std::uint16_t>(index_),
                   static_cast<std::uint64_t>(buyvalue_));
    Outbound o{Outbound::Dest::kBank, 0, kMsgBuy, {}};
    o.trace_id = buy_trace_;
    seal_into(bank_pub_, req.serialize(), rng_, env_scratch_, o.payload);
    outbox_.push_back(std::move(o));
  }
  if (cansell_ && avail_ > params_.maxavail) {
    cansell_ = false;
    sellvalue_ = avail_ - params_.maxavail;
    // Divergence from the paper's pseudocode, on purpose: the paper leaves
    // `avail` untouched until the sellreply arrives, so concurrent user
    // purchases could drive it below `sellvalue` and the later decrement
    // would mint a negative pool.  We reserve the amount at initiation.
    // (The AP rendition in ap_spec.cpp keeps the paper's literal behaviour
    // so the latent race is demonstrable; see EXPERIMENTS.md.)
    avail_ -= sellvalue_;
    ns2_ = nonce_gen_.next();
    SellRequest req{sellvalue_, *ns2_};
    ++metrics_.bank_sells;
    sell_trace_ = trace::next_id();
    if (sell_trace_ != 0)
      trace::begin(trace::Ev::kBankSell, sell_trace_,
                   static_cast<std::uint16_t>(index_),
                   static_cast<std::uint64_t>(sellvalue_));
    Outbound o{Outbound::Dest::kBank, 0, kMsgSell, {}};
    o.trace_id = sell_trace_;
    seal_into(bank_pub_, req.serialize(), rng_, env_scratch_, o.payload);
    outbox_.push_back(std::move(o));
  }
}

void Isp::on_buyreply(std::span<const std::uint8_t> wire) {
  log_op(WalOp::kBuyReply, wire);
  if (!unseal_into(bank_pub_, wire, env_scratch_, plain_scratch_)) {
    ++metrics_.bad_envelopes;
    return;
  }
  const auto reply = BuyReply::deserialize(plain_scratch_);
  if (!reply) {
    ++metrics_.bad_envelopes;
    return;
  }
  // Paper: "if ns1 = nr1 -> ..." — replayed or stale replies are ignored.
  if (!ns1_ || !(reply->nonce == *ns1_)) {
    ++metrics_.bad_nonce_replies;
    return;
  }
  ns1_.reset();
  canbuy_ = true;
  if (buy_trace_ != 0) {
    trace::end(trace::Ev::kBankBuy, buy_trace_,
               static_cast<std::uint16_t>(index_), reply->accepted ? 1 : 0);
    buy_trace_ = 0;
  }
  if (reply->accepted) {
    avail_ += buyvalue_;
    ++metrics_.bank_buys_accepted;
  }
  buyvalue_ = 0;
}

void Isp::on_sellreply(std::span<const std::uint8_t> wire) {
  log_op(WalOp::kSellReply, wire);
  if (!unseal_into(bank_pub_, wire, env_scratch_, plain_scratch_)) {
    ++metrics_.bad_envelopes;
    return;
  }
  const auto reply = SellReply::deserialize(plain_scratch_);
  if (!reply) {
    ++metrics_.bad_envelopes;
    return;
  }
  if (!ns2_ || !(reply->nonce == *ns2_)) {
    ++metrics_.bad_nonce_replies;
    return;
  }
  ns2_.reset();
  cansell_ = true;
  if (sell_trace_ != 0) {
    trace::end(trace::Ev::kBankSell, sell_trace_,
               static_cast<std::uint16_t>(index_), 1);
    sell_trace_ = 0;
  }
  sellvalue_ = 0;  // already deducted at initiation (see maybe_trade_with_bank)
}

void Isp::on_request(std::span<const std::uint8_t> wire) {
  log_op(WalOp::kSnapshotRequest, wire);
  if (!unseal_into(bank_pub_, wire, env_scratch_, plain_scratch_)) {
    ++metrics_.bad_envelopes;
    return;
  }
  const auto req = SnapshotRequest::deserialize(plain_scratch_);
  if (!req) {
    ++metrics_.bad_envelopes;
    return;
  }
  // Paper: "if seq = seq' -> cansend := false; timeout after 10 minutes".
  if (req->seq != seq_) {
    ++metrics_.stale_requests;
    return;
  }
  cansend_ = false;
  quiescing_ = true;
}

void Isp::on_quiesce_timeout() {
  if (!quiescing_) return;
  log_op(WalOp::kQuiesceTimeout);
  quiescing_ = false;

  // send reply(NCR(B_b, credit)) to bank
  Outbound o{Outbound::Dest::kBank, 0, kMsgReply, {}};
  o.trace_id = trace::next_id();
  if (o.trace_id != 0)
    trace::instant(trace::Ev::kCreditReport, o.trace_id,
                   static_cast<std::uint16_t>(index_), seq_);
  CreditReport::encode_into(seq_, credit_, plain_scratch_);
  seal_into(bank_pub_, plain_scratch_, rng_, env_scratch_, o.payload);
  outbox_.push_back(std::move(o));
  ++metrics_.snapshots_answered;

  // credit := 0; cansend := true; seq := seq + 1
  credit_.assign(params_.n_isps, 0);
  cansend_ = true;
  seq_ += 1;

  // Flush mail buffered during the quiesce window.
  while (!buffer_.empty()) {
    BufferedSend b = std::move(buffer_.front());
    buffer_.pop_front();
    if (b.msg.trace_id != 0)
      trace::end(trace::Ev::kQuiesceBuffer, b.msg.trace_id,
                 static_cast<std::uint16_t>(index_));
    if (b.paid) {
      // Payment was committed at buffer time; the credit entry and the
      // transmission happen now.  A user's send counts as sent here; an
      // acknowledgment counted in acks_generated when it was made.
      buffered_paid_ -= 1;
      if (!b.msg.find_header(kAckFlagHeader)) ++metrics_.emails_sent_compliant;
      transport_paid_email(b.dest_isp, b.msg);
    } else {
      outbox_.push_back(Outbound{Outbound::Dest::kIsp, b.dest_isp, kMsgEmail,
                                 b.msg.serialize(), b.msg.trace_id});
    }
  }
}

void Isp::note_retransmit(net::MsgType type) {
  if (wal_) {
    crypto::Bytes& p = wal_payload();
    crypto::put_string(p, type.name());
    log_op(WalOp::kNoteRetransmit, p);
  }
  if (type == kMsgBuy || type == kMsgSell)
    ++metrics_.bank_retries;
  else if (type == kMsgReply)
    ++metrics_.report_retries;
  else
    ++metrics_.emails_retransmitted;
}

void Isp::release_user(UserId u) {
  if (wal_) {
    crypto::Bytes& p = wal_payload();
    crypto::put_u64(p, user_to_wire(u));
    log_op(WalOp::kReleaseUser, p);
  }
  const UserRef acc = users_.at(u);
  acc.quarantined = false;
  acc.warnings = 0;
  acc.blocked_today = false;
}

void Isp::end_of_day() {
  log_op(WalOp::kEndOfDay);
  // "At the end of every day, array sent is reset to 0."  The sent and
  // blocked_today columns share the population's day arena, so this is one
  // memset, not a walk over every user.
  users_.reset_day();
}

void Isp::take_outbox(std::vector<Outbound>& out) {
  ZMAIL_ASSERT(out.empty());
  out.swap(outbox_);
}

std::vector<Outbound> Isp::take_outbox() {
  std::vector<Outbound> out;
  take_outbox(out);
  return out;
}

}  // namespace zmail::core
