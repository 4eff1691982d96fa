#include "core/ap_spec.hpp"

#include "util/assert.hpp"

namespace zmail::core {

namespace {

// AP-world email payload: just (s, r) — the sending and receiving user.
crypto::Bytes encode_ap_email(std::size_t s, std::size_t r) {
  crypto::Bytes b;
  crypto::put_u32(b, static_cast<std::uint32_t>(s));
  crypto::put_u32(b, static_cast<std::uint32_t>(r));
  return b;
}

bool decode_ap_email(const crypto::Bytes& b, std::size_t& s, std::size_t& r) {
  crypto::ByteReader reader(b);
  s = reader.get_u32();
  r = reader.get_u32();
  return reader.ok() && reader.at_end();
}

}  // namespace

// ---------------------------------------------------------------------------
// ApIspProcess
// ---------------------------------------------------------------------------

ApIspProcess::ApIspProcess(ApZmailWorld& world, std::size_t index,
                           std::uint64_t seed)
    : world_(world),
      index_(index),
      rng_(seed ^ (index * 0x9E3779B97F4A7C15ULL)),
      nnc_(seed * 31 + index) {
  const ZmailParams& p = world_.params();
  avail = p.initial_avail;
  account.assign(p.users_per_isp,
                 kInitialUserAccount.micros() / Money::kMicrosPerEPenny);
  balance.assign(p.users_per_isp, p.initial_user_balance);
  sent.assign(p.users_per_isp, 0);
  limit.assign(p.users_per_isp, p.default_daily_limit);
  credit.assign(p.n_isps, 0);

  const bool compliant = p.is_compliant(index_);

  // O cansend -> (Section 4.1, sending)
  add_action(
      "send", [this] { return cansend && send_budget > 0; },
      [this] { act_send(); });

  // O rcv email(s,r) from isp[g]
  add_receive(kMsgEmail, [this](const ap::Message& m) { act_rcv_email(m); });

  // O true -> {execute at the end of every day}
  add_action(
      "daily-reset", [this] { return day_pending; },
      [this] { act_daily_reset(); });

  if (compliant) {
    // O canbuy -> ... (guard hoists the paper's inner `avail < minavail`)
    add_action(
        "buy",
        [this, &p = world_.params()] {
          return canbuy && avail < p.minavail;
        },
        [this] { act_buy(); });
    add_receive(kMsgBuyReply,
                [this](const ap::Message& m) { act_rcv_buyreply(m); });

    // O cansell -> ... (paper-literal: avail not reserved here)
    add_action(
        "sell",
        [this, &p = world_.params()] {
          return cansell && avail > p.maxavail;
        },
        [this] { act_sell(); });
    add_receive(kMsgSellReply,
                [this](const ap::Message& m) { act_rcv_sellreply(m); });

    // O timeout expired -> resend buy / resend sell (Section 3 recovery).
    //
    // The paper's channels are reliable, but an adversarial harness (or the
    // faulty zmail::net substitution) can lose a reply; the exchange then
    // deadlocks with canbuy/cansell stuck false.  The AP counterpart of the
    // timed rendition's acknowledged link is a timeout guard: the exchange is
    // outstanding (nonce held) yet neither the request nor its reply is in
    // the channel — the message was lost, so resend the *same* sealed wire.
    // The bank's nonce cache makes the duplicate idempotent, so a retry
    // racing a slow (not lost) reply is harmless; under reliable channels
    // atomic receive-and-reply keeps one of the two messages in flight and
    // this guard is never true.
    const auto exchange_stalled = [this](const ap::GlobalView& g,
                                         const net::MsgType& req,
                                         const net::MsgType& reply) {
      const ap::Channel* out =
          g.scheduler().find_channel(id(), world_.bank_pid());
      if (out)
        for (const auto& m : out->contents())
          if (m.type == req.name()) return false;
      const ap::Channel* in =
          g.scheduler().find_channel(world_.bank_pid(), id());
      if (in)
        for (const auto& m : in->contents())
          if (m.type == reply.name()) return false;
      return true;
    };
    add_timeout(
        "buy-retry",
        [this, exchange_stalled](const ap::GlobalView& g) {
          return !canbuy && ns1_.has_value() &&
                 exchange_stalled(g, kMsgBuy, kMsgBuyReply);
        },
        [this] {
          ++buy_retries;
          send(world_.bank_pid(), kMsgBuy, crypto::Bytes(buy_wire_));
        });
    add_timeout(
        "sell-retry",
        [this, exchange_stalled](const ap::GlobalView& g) {
          return !cansell && ns2_.has_value() &&
                 exchange_stalled(g, kMsgSell, kMsgSellReply);
        },
        [this] {
          ++sell_retries;
          send(world_.bank_pid(), kMsgSell, crypto::Bytes(sell_wire_));
        });

    // User <-> ISP e-penny trade (Section 4.2), budgeted.
    add_action(
        "user-trade", [this] { return user_trade_budget > 0; },
        [this] {
          --user_trade_budget;
          const ZmailParams& par = world_.params();
          const auto t = static_cast<std::size_t>(
              rng_.next_below(par.users_per_isp));
          const EPenny x = rng_.uniform_int(1, 20);
          if (rng_.bernoulli(0.5)) {
            // user t wants to buy x e-pennies
            if (account[t] >= x && avail >= x) {
              account[t] -= x;
              balance[t] += x;
              avail -= x;
            }
          } else {
            // user t wants to sell x e-pennies
            if (balance[t] >= x) {
              account[t] += x;
              balance[t] -= x;
              avail += x;
            }
          }
        });

    // O rcv request(x) from bank (Section 4.4)
    add_receive(kMsgRequest,
                [this](const ap::Message& m) { act_rcv_request(m); });

    // O timeout expired -> send reply(credit)
    //
    // The paper realizes this with a 10-minute wall-clock wait, long enough
    // that (a) every compliant ISP has received the bank's request and
    // stopped sending, and (b) all in-flight mail has landed.  The untimed
    // AP equivalent is a timeout guard over global state (Section 3 allows
    // exactly this): every compliant peer is quiescing or has already
    // reported this round, and no email is still in flight toward us.
    add_timeout(
        "quiesce-timeout",
        [this](const ap::GlobalView& g) {
          if (!quiescing) return false;
          const ZmailParams& par = world_.params();
          for (std::size_t j = 0; j < par.n_isps; ++j) {
            if (j == index_ || !par.is_compliant(j)) continue;
            const ApIspProcess& other = world_.isp(j);
            const bool reported = other.seq == seq + 1;
            if (!other.quiescing && !reported) return false;
            const ap::Channel* ch =
                g.scheduler().find_channel(world_.isp_pid(j), id());
            if (ch) {
              for (const auto& m : ch->contents())
                if (m.type == kMsgEmail.name()) return false;
            }
          }
          return true;
        },
        [this] { act_timeout_expired(); });

    // Resume sending only when every compliant peer has also reported.
    // In the timed protocol this barrier is implicit: all ISPs receive the
    // request within seconds and hold the same 10-minute window, so nobody
    // resumes while a peer is still collecting.  Under arbitrary
    // interleavings an early resumer could slip a new-period email into a
    // peer's still-open period and fake an inconsistency, so the barrier
    // must be explicit here.
    add_timeout(
        "resume-send",
        [this](const ap::GlobalView&) {
          if (cansend || quiescing) return false;
          const ZmailParams& par = world_.params();
          for (std::size_t j = 0; j < par.n_isps; ++j) {
            if (j == index_ || !par.is_compliant(j)) continue;
            if (world_.isp(j).seq < seq) return false;
          }
          return true;
        },
        [this] { cansend = true; });
  }
}

void ApIspProcess::act_send() {
  --send_budget;
  const ZmailParams& p = world_.params();
  const auto s = static_cast<std::size_t>(rng_.next_below(p.users_per_isp));
  const auto j = static_cast<std::size_t>(rng_.next_below(p.n_isps));
  const auto r = static_cast<std::size_t>(rng_.next_below(p.users_per_isp));

  if (!p.is_compliant(index_)) {
    // Legacy ISP: plain mail, no accounting, always free.
    if (j == index_) {
      ++emails_delivered;
    } else {
      send(world_.isp_pid(j), kMsgEmail, encode_ap_email(s, r));
      ++emails_sent_out;
    }
    return;
  }

  if (j == index_) {
    // i = j branch: local delivery.
    if (balance[s] >= 1 && sent[s] < limit[s]) {
      balance[s] -= 1;
      balance[r] += 1;
      sent[s] += 1;
      ++emails_delivered;  // {deliver email(s,r) to user r}
    }
    return;
  }
  if (p.is_compliant(j)) {
    if (cheat_free_ride) {
      // Misbehaving ISP: mail goes out, no charge, no credit entry.
      send(world_.isp_pid(j), kMsgEmail, encode_ap_email(s, r));
      ++emails_sent_out;
      return;
    }
    if (balance[s] >= 1 && sent[s] < limit[s]) {
      balance[s] -= 1;
      credit[j] += 1;
      sent[s] += 1;
      send(world_.isp_pid(j), kMsgEmail, encode_ap_email(s, r));
      ++emails_sent_out;
    }
    return;
  }
  // ~compliant[j] -> send email(s, r) to isp[j] (free).
  send(world_.isp_pid(j), kMsgEmail, encode_ap_email(s, r));
  ++emails_sent_out;
}

void ApIspProcess::act_rcv_email(const ap::Message& m) {
  ++emails_received;
  std::size_t s = 0, r = 0;
  if (!decode_ap_email(m.payload, s, r)) return;
  const ZmailParams& p = world_.params();
  const std::size_t g = world_.isp_of_pid(m.from);
  if (!p.is_compliant(index_)) {
    ++emails_delivered;  // legacy ISPs accept everything
    return;
  }
  if (p.is_compliant(g)) {
    if (r < balance.size()) {
      balance[r] += 1;
      credit[g] -= 1;
    }
    ++emails_delivered;
  } else {
    ++emails_delivered;  // {deliver to r or discard it}: we deliver
  }
}

void ApIspProcess::act_daily_reset() {
  for (auto& x : sent) x = 0;
  day_pending = false;
}

void ApIspProcess::act_buy() {
  const ZmailParams& p = world_.params();
  canbuy = false;
  buyvalue = rng_.uniform_int(1, p.maxavail - avail);  // buyvalue := any
  ns1_ = nnc_.next();
  BuyRequest req{buyvalue, *ns1_};
  buy_wire_ = seal(world_.bank_keys().pub, req.serialize(), rng_);
  send(world_.bank_pid(), kMsgBuy, crypto::Bytes(buy_wire_));
}

void ApIspProcess::act_rcv_buyreply(const ap::Message& m) {
  const auto plain = unseal(world_.bank_keys().pub, m.payload);
  if (!plain) {
    ++bad_nonce_replies;
    return;
  }
  const auto reply = BuyReply::deserialize(*plain);
  if (!reply) {
    ++bad_nonce_replies;
    return;
  }
  if (ns1_ && reply->nonce == *ns1_) {
    canbuy = true;
    ns1_.reset();
    if (reply->accepted) avail += buyvalue;
  } else {
    ++bad_nonce_replies;  // ns1 != nr1 -> skip
  }
}

void ApIspProcess::act_sell() {
  const ZmailParams& p = world_.params();
  cansell = false;
  sellvalue = rng_.uniform_int(1, avail - p.maxavail);  // sellvalue := any
  ns2_ = nnc_.next();
  SellRequest req{sellvalue, *ns2_};
  sell_wire_ = seal(world_.bank_keys().pub, req.serialize(), rng_);
  send(world_.bank_pid(), kMsgSell, crypto::Bytes(sell_wire_));
  // NOTE: paper-literal behaviour — `avail` is NOT reduced here; the
  // decrement happens in act_rcv_sellreply, which admits a race with
  // concurrent user purchases (demonstrated in ap_spec_test.cpp).
}

void ApIspProcess::act_rcv_sellreply(const ap::Message& m) {
  const auto plain = unseal(world_.bank_keys().pub, m.payload);
  if (!plain) {
    ++bad_nonce_replies;
    return;
  }
  const auto reply = SellReply::deserialize(*plain);
  if (!reply) {
    ++bad_nonce_replies;
    return;
  }
  if (ns2_ && reply->nonce == *ns2_) {
    avail -= sellvalue;  // paper-literal: may underflow under the race
    cansell = true;
    ns2_.reset();
  } else {
    ++bad_nonce_replies;
  }
}

void ApIspProcess::act_rcv_request(const ap::Message& m) {
  const auto plain = unseal(world_.bank_keys().pub, m.payload);
  if (!plain) return;
  const auto req = SnapshotRequest::deserialize(*plain);
  if (!req) return;
  if (req->seq == seq) {
    cansend = false;
    quiescing = true;  // "timeout after 10 minutes"
  }
}

void ApIspProcess::act_timeout_expired() {
  CreditReport report{seq, credit};
  send(world_.bank_pid(), kMsgReply,
       seal(world_.bank_keys().pub, report.serialize(), rng_));
  for (auto& c : credit) c = 0;
  seq += 1;
  quiescing = false;
  // cansend stays false until the resume-send barrier (see constructor) —
  // unless the ablation disabled the barrier, in which case this is the
  // paper-literal `cansend := true`.
  if (!use_resume_barrier) cansend = true;
}

// ---------------------------------------------------------------------------
// ApBankProcess
// ---------------------------------------------------------------------------

ApBankProcess::ApBankProcess(ApZmailWorld& world, std::uint64_t seed)
    : world_(world), rng_(seed ^ 0xBA2CULL) {
  const ZmailParams& p = world_.params();
  account.assign(p.n_isps,
                 kInitialIspBankAccount.micros() / Money::kMicrosPerEPenny);
  verify.assign(p.n_isps, std::vector<EPenny>(p.n_isps, 0));
  last_buy_nonce_.resize(p.n_isps);
  last_sell_nonce_.resize(p.n_isps);
  last_buy_reply_.resize(p.n_isps);
  last_sell_reply_.resize(p.n_isps);

  add_action(
      "request", [this] { return canrequest && snapshot_budget > 0; },
      [this] { act_request(); });
  add_receive(kMsgBuy, [this](const ap::Message& m) { act_rcv_buy(m); });
  add_receive(kMsgSell, [this](const ap::Message& m) { act_rcv_sell(m); });
  add_receive(kMsgReply, [this](const ap::Message& m) { act_rcv_reply(m); });
  add_action(
      "verify", [this] { return total == 0 && !canrequest; },
      [this] { act_verify(); });
}

void ApBankProcess::act_request() {
  --snapshot_budget;
  const ZmailParams& p = world_.params();
  total = 0;
  SnapshotRequest req{seq};
  for (std::size_t i = 0; i < p.n_isps; ++i) {
    if (!p.is_compliant(i)) continue;
    ++total;
    send(world_.isp_pid(i), kMsgRequest,
         seal(world_.bank_keys().priv, req.serialize(), rng_));
  }
  canrequest = false;
  if (total == 0) canrequest = true;
}

void ApBankProcess::act_rcv_buy(const ap::Message& m) {
  const std::size_t g = world_.isp_of_pid(m.from);
  const auto plain = unseal(world_.bank_keys().priv, m.payload);
  if (!plain) return;
  const auto req = BuyRequest::deserialize(*plain);
  if (!req || req->buyvalue <= 0) return;
  if (last_buy_nonce_[g] && *last_buy_nonce_[g] == req->nonce) {
    // A retried wire: the trade was already applied, so replay the cached
    // reply byte-for-byte instead of minting a second time.
    ++duplicate_buys;
    send(m.from, kMsgBuyReply, crypto::Bytes(last_buy_reply_[g]));
    return;
  }
  BuyReply reply;
  reply.nonce = req->nonce;
  if (account[g] >= req->buyvalue) {
    account[g] -= req->buyvalue;
    world_.note_minted(req->buyvalue);
    reply.accepted = true;
  } else {
    reply.accepted = false;
  }
  last_buy_nonce_[g] = req->nonce;
  last_buy_reply_[g] = seal(world_.bank_keys().priv, reply.serialize(), rng_);
  send(m.from, kMsgBuyReply, crypto::Bytes(last_buy_reply_[g]));
}

void ApBankProcess::act_rcv_sell(const ap::Message& m) {
  const std::size_t g = world_.isp_of_pid(m.from);
  const auto plain = unseal(world_.bank_keys().priv, m.payload);
  if (!plain) return;
  const auto req = SellRequest::deserialize(*plain);
  if (!req || req->sellvalue <= 0) return;
  if (last_sell_nonce_[g] && *last_sell_nonce_[g] == req->nonce) {
    ++duplicate_sells;
    send(m.from, kMsgSellReply, crypto::Bytes(last_sell_reply_[g]));
    return;
  }
  account[g] += req->sellvalue;
  world_.note_burned(req->sellvalue);
  SellReply reply{req->nonce};
  last_sell_nonce_[g] = req->nonce;
  last_sell_reply_[g] = seal(world_.bank_keys().priv, reply.serialize(), rng_);
  send(m.from, kMsgSellReply, crypto::Bytes(last_sell_reply_[g]));
}

void ApBankProcess::act_rcv_reply(const ap::Message& m) {
  const ZmailParams& p = world_.params();
  const std::size_t g = world_.isp_of_pid(m.from);
  if (!p.is_compliant(g)) return;
  const auto plain = unseal(world_.bank_keys().priv, m.payload);
  if (!plain) return;
  const auto report = CreditReport::deserialize(*plain);
  if (!report || report->credit.size() != p.n_isps) return;
  if (canrequest || report->seq != seq) return;  // stale
  for (std::size_t i = 0; i < p.n_isps; ++i)
    verify[i][g] = report->credit[i];
  if (total > 0) --total;
}

void ApBankProcess::act_verify() {
  const ZmailParams& p = world_.params();
  for (std::size_t i = 0; i < p.n_isps; ++i) {
    if (!p.is_compliant(i)) continue;
    for (std::size_t j = i + 1; j < p.n_isps; ++j) {
      if (!p.is_compliant(j)) continue;
      const EPenny d = verify[j][i] + verify[i][j];
      if (d != 0) violations.push_back(Violation{i, j, d});
    }
  }
  for (auto& row : verify)
    for (auto& cell : row) cell = 0;
  canrequest = true;
  seq += 1;
  ++rounds_completed;
}

// ---------------------------------------------------------------------------
// ApZmailWorld
// ---------------------------------------------------------------------------

ApZmailWorld::ApZmailWorld(const ZmailParams& params,
                           ap::Scheduler::Policy policy, std::uint64_t seed)
    : params_(params), sched_(policy, seed) {
  Rng key_rng(seed ^ 0x6B657973ULL);
  keys_ = crypto::generate_keypair(key_rng);
  for (std::size_t i = 0; i < params_.n_isps; ++i) {
    isps_.push_back(std::make_unique<ApIspProcess>(*this, i, seed + i));
    isp_pids_.push_back(
        sched_.add_process(*isps_.back(), "isp" + std::to_string(i)));
  }
  bank_ = std::make_unique<ApBankProcess>(*this, seed);
  bank_pid_ = sched_.add_process(*bank_, "bank");
}

std::size_t ApZmailWorld::isp_of_pid(ap::ProcessId pid) const {
  for (std::size_t i = 0; i < isp_pids_.size(); ++i)
    if (isp_pids_[i] == pid) return i;
  ZMAIL_ASSERT_MSG(false, "pid is not an ISP");
}

EPenny ApZmailWorld::total_epennies() const {
  EPenny total = 0;
  for (std::size_t i = 0; i < params_.n_isps; ++i) {
    if (!params_.is_compliant(i)) continue;
    const ApIspProcess& isp = *isps_[i];
    total += isp.avail;
    for (EPenny b : isp.balance) total += b;
  }
  // In-flight email between two compliant ISPs carries one e-penny.
  for (std::size_t i = 0; i < params_.n_isps; ++i) {
    if (!params_.is_compliant(i)) continue;
    for (std::size_t j = 0; j < params_.n_isps; ++j) {
      if (i == j || !params_.is_compliant(j)) continue;
      const ap::Channel* ch = sched_.find_channel(isp_pids_[i], isp_pids_[j]);
      if (!ch) continue;
      for (const ap::Message& m : ch->contents())
        if (m.type == kMsgEmail.name()) total += 1;
    }
  }
  return total;
}

}  // namespace zmail::core
