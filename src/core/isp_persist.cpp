// Durability half of the Isp state machine: snapshot (de)serialization,
// WAL command logging helpers, and command replay.  Kept out of isp.cpp so
// the protocol logic stays readable; the two files share the private state
// via the class.
//
// Replay correctness rests on determinism: serialize_sections() captures
// every input a mutating method reads — including the RNG stream (seal_into
// draws from it) and the nonce counter — so re-invoking the logged commands
// in order reproduces the pre-crash state bit for bit.
//
// The state has one encoding: a scalar section carrying everything but the
// per-user rows, plus one raw little-endian section per Population column.
// Checkpoints stream it straight from the live columns; recovery maps the
// snapshot file read-only and bulk-copies the columns back in.  A
// differential carries the scalar section too, but only the rows (and
// whole columns) dirtied since the last full image.  Enum bytes read from
// disk or the WAL are range-checked before they are cast.
#include "core/isp.hpp"
#include "store/checkpoint.hpp"
#include "store/snapshot.hpp"
#include "store/wal.hpp"

namespace zmail::core {

namespace {

// Version byte of the scalar section (1 was the row encoding's; 2 still
// carried the retry wires).
constexpr std::uint8_t kScalarsVersion = 3;

void put_money(crypto::Bytes& b, Money m) { crypto::put_i64(b, m.micros()); }
Money get_money(crypto::ByteReader& r) {
  return Money::from_micros(r.get_i64());
}

}  // namespace

crypto::Bytes& Isp::wal_payload() {
  wal_buf_.clear();
  return wal_buf_;
}

void Isp::log_op(WalOp op, std::span<const std::uint8_t> payload) {
  if (wal_) wal_->append(static_cast<std::uint8_t>(op), payload);
}

void Isp::log_misbehavior(Misbehavior m) {
  if (!wal_) return;
  crypto::Bytes& p = wal_payload();
  crypto::put_u8(p, static_cast<std::uint8_t>(m));
  log_op(WalOp::kSetMisbehavior, p);
}

// Everything in the scalar section after the user count and policy table.
void Isp::serialize_scalar_tail(crypto::Bytes& b) const {
  crypto::put_i64(b, avail_);
  put_money(b, till_);
  crypto::put_u32(b, static_cast<std::uint32_t>(credit_.size()));
  for (EPenny c : credit_) crypto::put_i64(b, c);

  put_bool(b, cansend_);
  put_bool(b, canbuy_);
  put_bool(b, cansell_);
  put_bool(b, quiescing_);
  crypto::put_i64(b, buyvalue_);
  crypto::put_i64(b, sellvalue_);
  crypto::put_u64(b, seq_);
  put_bool(b, ns1_.has_value());
  if (ns1_) crypto::put_nonce(b, *ns1_);
  put_bool(b, ns2_.has_value());
  if (ns2_) crypto::put_nonce(b, *ns2_);

  crypto::put_u32(b, static_cast<std::uint32_t>(buffer_.size()));
  for (const BufferedSend& s : buffer_) {
    crypto::put_u64(b, s.dest_isp);
    crypto::put_bytes(b, s.msg.serialize());
    put_bool(b, s.paid);
    crypto::put_u64(b, user_to_wire(s.sender_user));
  }
  crypto::put_i64(b, buffered_paid_);

  // The outbox is drained within the same event that fills it, so it is
  // empty at every crash point the simulation can model; serialized anyway
  // so standalone round trips are exact.
  crypto::put_u32(b, static_cast<std::uint32_t>(outbox_.size()));
  for (const Outbound& o : outbox_) {
    crypto::put_u8(b, static_cast<std::uint8_t>(o.dest));
    crypto::put_u64(b, o.isp_index);
    crypto::put_string(b, o.type.name());
    crypto::put_bytes(b, o.payload);
    crypto::put_u64(b, user_to_wire(o.sender_user));
  }

  crypto::put_u8(b, static_cast<std::uint8_t>(misbehavior_));

  IspMetrics::fields(
      [&](const char*, auto p) { crypto::put_u64(b, metrics_.*p); });

  put_rng(b, rng_);
  crypto::put_u64(b, nonce_gen_.issued());
}

bool Isp::restore_scalar_tail(crypto::ByteReader& r) {
  avail_ = r.get_i64();
  till_ = get_money(r);
  const std::uint32_t n_credit = r.get_u32();
  if (!r.ok() || n_credit > (1u << 24)) return false;
  credit_.assign(n_credit, 0);
  for (auto& c : credit_) c = r.get_i64();

  cansend_ = get_bool(r);
  canbuy_ = get_bool(r);
  cansell_ = get_bool(r);
  quiescing_ = get_bool(r);
  buyvalue_ = r.get_i64();
  sellvalue_ = r.get_i64();
  seq_ = r.get_u64();
  ns1_.reset();
  if (get_bool(r)) ns1_ = crypto::get_nonce(r);
  ns2_.reset();
  if (get_bool(r)) ns2_ = crypto::get_nonce(r);

  const std::uint32_t n_buf = r.get_u32();
  if (!r.ok() || n_buf > (1u << 24)) return false;
  buffer_.clear();
  for (std::uint32_t i = 0; i < n_buf; ++i) {
    BufferedSend s{};
    s.dest_isp = r.get_u64();
    const auto msg = net::EmailMessage::deserialize(r.get_bytes());
    if (!msg) return false;
    s.msg = *msg;
    s.paid = get_bool(r);
    s.sender_user = user_from_wire(r.get_u64());
    buffer_.push_back(std::move(s));
  }
  buffered_paid_ = r.get_i64();

  const std::uint32_t n_out = r.get_u32();
  if (!r.ok() || n_out > (1u << 24)) return false;
  outbox_.clear();
  for (std::uint32_t i = 0; i < n_out; ++i) {
    Outbound o{};
    const std::uint8_t dest = r.get_u8();
    if (dest > static_cast<std::uint8_t>(Outbound::Dest::kBank)) return false;
    o.dest = static_cast<Outbound::Dest>(dest);
    o.isp_index = r.get_u64();
    const std::string type_name = r.get_string();
    o.type = type_name.empty() ? net::MsgType{} : net::MsgType::intern(type_name);
    o.payload = r.get_bytes();
    o.sender_user = user_from_wire(r.get_u64());
    outbox_.push_back(std::move(o));
  }

  const std::uint8_t misbehavior = r.get_u8();
  if (misbehavior > static_cast<std::uint8_t>(Misbehavior::kFreeRide))
    return false;
  misbehavior_ = static_cast<Misbehavior>(misbehavior);

  IspMetrics::fields([&](const char*, auto p) { metrics_.*p = r.get_u64(); });

  get_rng(r, rng_);
  nonce_gen_.restore_issued(r.get_u64());
  return r.ok();
}

void Isp::serialize_scalars(crypto::Bytes& b) const {
  b.clear();
  crypto::put_u8(b, kScalarsVersion);
  crypto::put_u32(b, static_cast<std::uint32_t>(users_.size()));
  const auto& pol = users_.policy_overrides();
  crypto::put_u32(b, static_cast<std::uint32_t>(pol.size()));
  for (const auto& [slot, p] : pol) {
    crypto::put_u32(b, slot);
    crypto::put_u8(b, static_cast<std::uint8_t>(p));
  }
  serialize_scalar_tail(b);
}

void Isp::serialize_sections(crypto::Bytes& scalars,
                             std::vector<store::SnapshotSection>& out) const {
  out.clear();
  out.reserve(1 + Population::kColumnCount);
  serialize_scalars(scalars);
  out.push_back(store::SnapshotSection{store::kIspScalarsSection, scalars});

  // One section per column, pointing at the column itself: the snapshot
  // writer streams it to the file and CRCs it in place.
  for (std::size_t c = 0; c < Population::kColumnCount; ++c) {
    const auto col = static_cast<Population::Column>(c);
    out.push_back(store::SnapshotSection{
        store::kUserColumnBase + static_cast<std::uint32_t>(c),
        {users_.column_data(col), users_.column_bytes(col)}});
  }
}

void Isp::serialize_differential(
    std::uint64_t base_lsn, crypto::Bytes& scalars, RowBuffer& rows,
    std::vector<store::SnapshotSection>& out) const {
  out.clear();
  out.reserve(2 + Population::kColumnCount);
  serialize_scalars(scalars);
  out.push_back(store::SnapshotSection{store::kIspScalarsSection, scalars});
  for (std::size_t c = 0; c < Population::kColumnCount; ++c) {
    const auto col = static_cast<Population::Column>(c);
    if (!users_.column_dirty(col)) continue;
    out.push_back(store::SnapshotSection{
        store::kUserColumnBase + static_cast<std::uint32_t>(c),
        {users_.column_data(col), users_.column_bytes(col)}});
  }
  const std::span<std::uint8_t> payload =
      rows.take(sizeof(std::uint64_t) + users_.dirty_rows_bytes());
  crypto::store_be(payload.data(), base_lsn, sizeof(std::uint64_t));
  users_.gather_dirty_rows(payload.subspan(sizeof(std::uint64_t)));
  out.push_back(store::SnapshotSection{store::kRowDeltaSection, payload});
}

bool Isp::write_checkpoint(store::Checkpointer& cp, std::uint64_t sim_time_us,
                           crypto::Bytes& scalars, RowBuffer& rows,
                           std::string* error) {
  std::vector<store::SnapshotSection> sections;
  if (cp.has_base() &&
      2 * users_.differential_bytes() <= users_.image_bytes()) {
    serialize_differential(cp.base_lsn(), scalars, rows, sections);
    const bool ok =
        cp.checkpoint_differential(std::move(sections), sim_time_us, error);
    rows.release();
    return ok;
  }
  serialize_sections(scalars, sections);
  if (!cp.checkpoint(std::move(sections), sim_time_us, error)) return false;
  users_.clear_dirty();
  return true;
}

bool Isp::recover(store::Checkpointer& cp, store::RecoveryStats* stats,
                  std::string* error) {
  return cp.recover(
      [this](const store::SnapshotFileView& v) {
        if (!restore_snapshot(v.snapshot())) return false;
        if ((v.meta().features & store::kFeatureRowDelta) == 0)
          users_.clear_dirty();
        return true;
      },
      [this](std::uint8_t t, std::span<const std::uint8_t> p) {
        apply_wal_record(t, p);
      },
      stats, error);
}

bool Isp::restore_snapshot(const store::SnapshotData& snap) {
  const store::SnapshotSection* scalars = nullptr;
  const store::SnapshotSection* rows = nullptr;
  const store::SnapshotSection* cols[Population::kColumnCount] = {};
  for (const store::SnapshotSection& s : snap.sections) {
    if (s.id == store::kIspScalarsSection) {
      scalars = &s;
    } else if (s.id == store::kRowDeltaSection) {
      rows = &s;
    } else if (s.id >= store::kUserColumnBase &&
               s.id < store::kUserColumnBase + Population::kColumnCount) {
      cols[s.id - store::kUserColumnBase] = &s;
    }
    // Other ids are recognized-but-unneeded side tables by contract;
    // required capabilities are gated by the header's feature bits.
  }
  if (!scalars) return false;
  // A differential applies over its base: same population, and only the
  // columns and rows it names.  The tag was matched by the Checkpointer.
  const bool differential = rows != nullptr;
  if (differential && rows->payload.size() < 8) return false;

  crypto::ByteReader r(scalars->payload);
  if (r.get_u8() != kScalarsVersion) return false;
  const std::uint32_t n_users = r.get_u32();
  if (!r.ok() || n_users > (1u << 24)) return false;
  if (differential && n_users != users_.size()) return false;
  // Every column is loaded below (a missing one fails a full restore).
  users_.resize_for_load(n_users);
  const std::uint32_t n_pol = r.get_u32();
  if (!r.ok() || n_pol > n_users) return false;
  for (std::uint32_t i = 0; i < n_pol; ++i) {
    const std::uint32_t slot = r.get_u32();
    const std::uint8_t p = r.get_u8();
    if (!r.ok() || slot >= n_users ||
        p > static_cast<std::uint8_t>(NonCompliantPolicy::kDiscard))
      return false;
    users_.set_policy_override(UserId(slot),
                               static_cast<NonCompliantPolicy>(p));
  }
  // The mail spool is not settlement state; recovery starts it empty (and
  // allocates it only when inboxes are recorded at all).
  inboxes_.assign(params_.record_inboxes ? n_users : 0,
                  std::vector<Delivery>{});
  if (!restore_scalar_tail(r)) return false;
  if (!r.ok() || !r.at_end()) return false;

  for (std::size_t c = 0; c < Population::kColumnCount; ++c) {
    const auto col = static_cast<Population::Column>(c);
    if (!cols[c]) {
      if (differential) continue;
      return false;
    }
    const auto payload = cols[c]->payload;
    if (!users_.load_column(col, payload.data(), payload.size())) return false;
  }
  if (differential && !users_.load_rows(rows->payload.subspan(8)))
    return false;
  recount_running_totals();
  return true;
}

void Isp::recount_running_totals() noexcept {
  using Column = Population::Column;
  users_balance_ = 0;
  for (const EPenny b : users_.balances()) users_balance_ += b;
  users_bought_ = 0;
  for (const EPenny x :
       users_.column_span<EPenny>(Column::kLifetimeEpenniesBought))
    users_bought_ += x;
  users_sold_ = 0;
  for (const EPenny x :
       users_.column_span<EPenny>(Column::kLifetimeEpenniesSold))
    users_sold_ += x;
}

void Isp::apply_wal_record(std::uint8_t op,
                           std::span<const std::uint8_t> payload) {
  // Detach the sink so replayed commands do not re-log, and discard any
  // output they produce — it was already transported before the crash.
  store::WalSink* saved = wal_;
  wal_ = nullptr;
  crypto::ByteReader r(payload);
  switch (static_cast<WalOp>(op)) {
    case WalOp::kUserSend: {
      const UserId s = user_from_wire(r.get_u64());
      const std::size_t dest = r.get_u64();
      const UserId rcpt = user_from_wire(r.get_u64());
      const auto wire = r.get_bytes_view();
      net::EmailMessage msg;
      // The logged bytes are the send's serialized email, so a replayed
      // remote send copies them rather than serializing again.
      if (r.ok() && net::EmailMessage::deserialize_into(wire, msg))
        apply_user_send(s, dest, rcpt, std::move(msg), wire);
      break;
    }
    case WalOp::kOnEmail: {
      const std::size_t from = r.get_u64();
      const auto wire = r.get_bytes_view();
      if (r.ok()) on_email(from, wire);
      break;
    }
    case WalOp::kUserBuy: {
      const UserId t = user_from_wire(r.get_u64());
      const EPenny x = r.get_i64();
      if (r.ok()) user_buy(t, x);
      break;
    }
    case WalOp::kUserSell: {
      const UserId t = user_from_wire(r.get_u64());
      const EPenny x = r.get_i64();
      if (r.ok()) user_sell(t, x);
      break;
    }
    case WalOp::kTradePoll:
      maybe_trade_with_bank();
      break;
    case WalOp::kBuyReply:
      on_buyreply(payload);
      break;
    case WalOp::kSellReply:
      on_sellreply(payload);
      break;
    case WalOp::kSnapshotRequest:
      on_request(payload);
      break;
    case WalOp::kQuiesceTimeout:
      on_quiesce_timeout();
      break;
    case WalOp::kRefundLost: {
      const UserId s = user_from_wire(r.get_u64());
      const std::size_t dest = r.get_u64();
      const bool same_epoch = get_bool(r);
      if (r.ok()) refund_lost_email(s, dest, same_epoch);
      break;
    }
    case WalOp::kEndOfDay:
      end_of_day();
      break;
    case WalOp::kReleaseUser:
      release_user(user_from_wire(r.get_u64()));
      break;
    case WalOp::kNoteRetransmit: {
      const std::string type = r.get_string();
      if (r.ok() && !type.empty()) note_retransmit(net::MsgType::intern(type));
      break;
    }
    case WalOp::kNoteDupEmail:
      note_duplicate_email();
      break;
    case WalOp::kSetMisbehavior: {
      const std::uint8_t m = r.get_u8();
      if (r.ok() && m <= static_cast<std::uint8_t>(Misbehavior::kFreeRide))
        set_misbehavior(static_cast<Misbehavior>(m));
      break;
    }
  }
  outbox_.clear();
  wal_ = saved;
}

}  // namespace zmail::core
