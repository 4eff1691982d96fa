// The one acknowledged link every retried wire rides.
//
// The paper's processes talk over reliable FIFO channels (SPEC.md); the
// simulated network loses, duplicates, reorders, corrupts and truncates
// datagrams.  Link restores "delivered, and applied once" for the wires a
// run asks for: paid email under reliable_email_transport, and under
// retry.enabled the buy and sell requests and their replies, snapshot
// requests, credit reports and the column and clearing wires between
// banks.
//
// Sender: a frame takes the next sequence number of its (from, to) channel
// and travels as [seq][seq ^ guard][crc32c][payload] under its own
// datagram type.  One timer per frame retransmits the clean bytes on the
// RTO (500 ms, doubling per attempt up to 60 s, no jitter) until the ack
// arrives; the timer of an acked frame fires as a no-op.  The owner's
// timeout hook counts each retransmission, or abandons the frame; the
// receiver's window then records the abandoned number as accepted, so it
// neither waits for it nor applies a late copy.
//
// Receiver: a frame whose guard word or checksum fails is dropped unacked,
// and the clean retransmit replaces it.  A frame already accepted is
// dropped and acked again.  A new frame goes to the owner's handler, and
// only a frame the handler accepts is recorded and acked, in the same
// event as the handler's WAL record (output commit); a declined frame
// comes back with the next retransmit.  The accepted sequence numbers of
// a channel are a base, below which every one was accepted, plus a
// kWindow-bit window above it, so the dedupe state stays bounded however
// long the run.  A frame beyond the window is dropped unacked until the
// window catches up.  An ack names its channel by the host it came from,
// so an ack from any other host cannot complete the frame.
//
// The link is the transport below the parties: its frames and windows
// stay with the harness when a party crashes and is rebuilt.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <unordered_map>

#include "core/user_id.hpp"
#include "crypto/bytes.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace zmail::core {

class Link {
 public:
  // Accepted sequence numbers remembered above a channel's base.
  static constexpr std::uint64_t kWindow = 1024;

  // One frame awaiting its ack.
  struct Frame {
    std::size_t from = 0;
    std::size_t to = 0;
    net::MsgType type;
    std::uint32_t attempts = 0;  // transmissions so far
    std::uint64_t checksum = 0;  // crc32c(payload), computed once
    crypto::Bytes payload;       // clean bytes, kept for retransmits
    std::uint64_t trace_id = 0;  // causal id every copy carries
    UserId payer = kInvalidUser;  // paid email: whose e-penny rides it
    std::uint64_t epoch = 0;      // paid email: the sender's seq at send
  };

  // What receive() made of a datagram.
  struct Rx {
    enum Status : std::uint8_t { kDrop, kDuplicate, kNew };
    Status status = kDrop;
    std::uint64_t seq = 0;
    std::span<const std::uint8_t> payload;  // kNew: the frame's bytes
  };

  struct Stats {
    std::uint64_t frames = 0;       // frames sent (first transmissions)
    std::uint64_t retransmits = 0;  // further transmissions
    std::uint64_t acks = 0;         // acks sent, re-acks included
    std::uint64_t duplicates = 0;   // copies of accepted frames dropped
  };

  // Called when a frame's RTO expires unacked: true retransmits it, false
  // abandons it (the link forgets the frame).  A channel's frames must be
  // abandoned in the order they were sent.
  using TimeoutHook = std::function<bool(const Frame&)>;

  Link(sim::Simulator& sim, net::Network& net, TimeoutHook on_timeout);
  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  // Sends `f.payload` from `f.from` to `f.to` as a `f.type` frame.
  void send(Frame f);
  // Opens a frame that reached `host`; a duplicate is acked again here.
  Rx receive(std::size_t host, const net::Datagram& d);
  // Records frame `seq` of `d` as accepted by `host` and acks it.
  void accept(std::size_t host, const net::Datagram& d, std::uint64_t seq);
  // An ack that reached `host`: the frame it completes, if any.
  std::optional<Frame> on_ack(std::size_t host, const net::Datagram& d);

  // Paid email travels as "email-rel" frames acked with "email-ack"; every
  // other frame keeps its own type and is acked with "link-ack".
  static net::MsgType email_frame();
  static net::MsgType email_ack();
  static net::MsgType control_ack();

  std::size_t pending() const noexcept { return pending_; }
  const Stats& stats() const noexcept { return stats_; }

 private:
  struct Window {
    std::uint64_t base = 0;  // every seq <= base was accepted
    std::array<std::uint64_t, kWindow / 64> bits{};  // seq % kWindow
    bool has(std::uint64_t seq) const;
    void insert(std::uint64_t seq);
  };
  // Both ends of one (from, to) channel: the sender's frames and the
  // receiver's window.
  struct Channel {
    std::uint64_t next_seq = 0;
    std::unordered_map<std::uint64_t, Frame> pending;
    Window rx;
  };

  static std::uint64_t key(std::size_t from, std::size_t to);
  Channel& channel(std::size_t from, std::size_t to);
  void transmit(Channel& ch, std::uint64_t seq, Frame& f);
  void on_timer(Channel& ch, std::uint64_t seq);
  void ack(std::size_t host, const net::Datagram& d, std::uint64_t seq);

  sim::Simulator& sim_;
  net::Network& net_;
  TimeoutHook on_timeout_;
  // Node-based: a Channel stays put while others are added, so a timer
  // holds its address.
  std::unordered_map<std::uint64_t, Channel> channels_;
  std::size_t pending_ = 0;
  Stats stats_;
};

}  // namespace zmail::core
