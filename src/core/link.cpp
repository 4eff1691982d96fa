#include "core/link.hpp"

#include "store/crc32c.hpp"
#include "trace/trace.hpp"
#include "util/assert.hpp"

namespace zmail::core {

namespace {

// Retransmit timeout: doubles per attempt, capped.  Deterministic (no
// jitter draws), because the receiver's dedupe makes redundant copies
// harmless.
constexpr sim::Duration kRtoBase = 500 * sim::kMillisecond;
constexpr sim::Duration kRtoCap = 60 * sim::kSecond;

sim::Duration rto(std::uint32_t attempts) {
  sim::Duration t = kRtoBase;
  for (std::uint32_t i = 1; i < attempts && t < kRtoCap; ++i) t *= 2;
  return t < kRtoCap ? t : kRtoCap;
}

// A bit-flip that turned one sequence number into another live one would
// complete or apply the wrong frame, so the number travels twice, the
// second copy xored with a constant: a flip in either word breaks the pair
// and the datagram is dropped for the retransmit to replace.
constexpr std::uint64_t kSeqGuard = 0xA5A5'5A5A'C3C3'3C3CULL;

// Bytes before the payload in a frame: [seq][seq ^ guard][checksum].
constexpr std::size_t kHeader = 24;

// CRC32C of the payload, zero-extended into the frame's checksum word; it
// catches every single-bit error, which is what the fault injector makes.
std::uint64_t checksum(std::span<const std::uint8_t> payload) {
  return store::crc32c(payload.data(), payload.size());
}

// The sequence number of an ack or a frame header, or 0 when the guard
// word does not match (0 is never sent).
std::uint64_t read_seq(crypto::ByteReader& r) {
  const std::uint64_t seq = r.get_u64();
  const std::uint64_t guard = r.get_u64();
  return r.ok() && (seq ^ kSeqGuard) == guard ? seq : 0;
}

}  // namespace

net::MsgType Link::email_frame() {
  static const net::MsgType t = net::MsgType::intern("email-rel");
  return t;
}

net::MsgType Link::email_ack() {
  static const net::MsgType t = net::MsgType::intern("email-ack");
  return t;
}

net::MsgType Link::control_ack() {
  static const net::MsgType t = net::MsgType::intern("link-ack");
  return t;
}

bool Link::Window::has(std::uint64_t seq) const {
  if (seq <= base) return true;
  if (seq - base > kWindow) return false;
  const std::uint64_t bit = seq % kWindow;
  return (bits[bit / 64] >> (bit % 64)) & 1;
}

void Link::Window::insert(std::uint64_t seq) {
  const std::uint64_t bit = seq % kWindow;
  bits[bit / 64] |= std::uint64_t{1} << (bit % 64);
  // Slide the base over every accepted number right above it, freeing
  // their bits for the numbers kWindow further on.
  while (has(base + 1)) {
    const std::uint64_t next = (base + 1) % kWindow;
    bits[next / 64] &= ~(std::uint64_t{1} << (next % 64));
    ++base;
  }
}

Link::Link(sim::Simulator& sim, net::Network& net, TimeoutHook on_timeout)
    : sim_(sim), net_(net), on_timeout_(std::move(on_timeout)) {}

std::uint64_t Link::key(std::size_t from, std::size_t to) {
  return static_cast<std::uint64_t>(from) << 32 | to;
}

Link::Channel& Link::channel(std::size_t from, std::size_t to) {
  return channels_[key(from, to)];
}

void Link::send(Frame f) {
  Channel& ch = channel(f.from, f.to);
  const std::uint64_t seq = ++ch.next_seq;
  f.checksum = checksum(f.payload);
  f.attempts = 0;
  Frame& p = ch.pending.emplace(seq, std::move(f)).first->second;
  ++pending_;
  ++stats_.frames;
  transmit(ch, seq, p);
}

void Link::transmit(Channel& ch, std::uint64_t seq, Frame& f) {
  ++f.attempts;
  // Every copy joins the causal chain the frame was sent in.
  trace::Scope scope(f.trace_id);
  crypto::Bytes wire;
  wire.reserve(kHeader + f.payload.size());
  crypto::put_u64(wire, seq);
  crypto::put_u64(wire, seq ^ kSeqGuard);
  crypto::put_u64(wire, f.checksum);
  wire.insert(wire.end(), f.payload.begin(), f.payload.end());
  net_.send(f.from, f.to, f.type, std::move(wire));
  sim_.schedule_at(sim_.now() + rto(f.attempts),
                   [this, c = &ch, seq] { on_timer(*c, seq); });
}

void Link::on_timer(Channel& ch, std::uint64_t seq) {
  const auto it = ch.pending.find(seq);
  if (it == ch.pending.end()) return;  // acked: the timer is a no-op
  // The hook may send frames of its own; a node reference survives that.
  Frame& f = it->second;
  if (!on_timeout_(f)) {
    // The receiver records the number as if it had accepted it: its window
    // slides past it, and a late copy is dropped and re-acked, not applied.
    // The hook gives up on a channel's frames in the order they were sent,
    // so every earlier one is recorded already and `seq` is in the window.
    ZMAIL_ASSERT(seq - ch.rx.base <= kWindow);
    ch.rx.insert(seq);
    ch.pending.erase(seq);
    --pending_;
    return;
  }
  ++stats_.retransmits;
  transmit(ch, seq, f);
}

Link::Rx Link::receive(std::size_t host, const net::Datagram& d) {
  crypto::ByteReader r(d.payload);
  const std::uint64_t seq = read_seq(r);
  const std::uint64_t sum = r.get_u64();
  if (seq == 0 || !r.ok()) return {};  // mangled header: no ack
  const Window& w = channel(d.from, host).rx;
  if (w.has(seq)) {
    // Accepted already; the earlier ack must have been lost.
    ++stats_.duplicates;
    ack(host, d, seq);
    return {Rx::kDuplicate, seq, {}};
  }
  if (seq - w.base > kWindow) return {};  // beyond the window: retransmitted
  const auto payload = std::span(d.payload).subspan(kHeader);
  if (checksum(payload) != sum) return {};  // corrupted: the clean copy follows
  return {Rx::kNew, seq, payload};
}

void Link::accept(std::size_t host, const net::Datagram& d,
                  std::uint64_t seq) {
  channel(d.from, host).rx.insert(seq);
  ack(host, d, seq);
}

void Link::ack(std::size_t host, const net::Datagram& d, std::uint64_t seq) {
  crypto::Bytes a(16);
  crypto::store_be(a.data(), seq, 8);
  crypto::store_be(a.data() + 8, seq ^ kSeqGuard, 8);
  ++stats_.acks;
  net_.send(host, d.from,
            d.type == email_frame() ? email_ack() : control_ack(),
            std::move(a));
}

std::optional<Link::Frame> Link::on_ack(std::size_t host,
                                        const net::Datagram& d) {
  crypto::ByteReader r(d.payload);
  const std::uint64_t seq = read_seq(r);
  if (seq == 0) return std::nullopt;  // mangled ack: ignore
  // The frame went from `host` to the acking host.
  const auto c = channels_.find(key(host, d.from));
  if (c == channels_.end()) return std::nullopt;
  const auto it = c->second.pending.find(seq);
  if (it == c->second.pending.end()) return std::nullopt;  // duplicate ack
  std::optional<Frame> done(std::move(it->second));
  c->second.pending.erase(it);
  --pending_;
  return done;
}

}  // namespace zmail::core
