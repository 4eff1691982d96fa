// Simulated host-to-host network with latency, bound to the event simulator.
//
// Hosts (ISP mail servers, the bank) register a handler for typed datagrams;
// `send` schedules delivery after a sampled latency.  Delivery is reliable
// and per-pair FIFO (matching the AP channel abstraction); the byte counters
// feed the ISP-overhead experiment (E3).
//
// Hot-path layout (see DESIGN.md "Hot path"): a datagram's payload is moved
// into a pooled pending slot, the scheduled delivery closure captures only
// {network, slot} (fits InlineEvent's inline buffer), and delivery moves the
// datagram back out for the handler — the payload bytes are never copied
// between send() and the handler.  Per-pair FIFO clamps live in flat
// vectors indexed by host id; only MX names pay for hashing.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "crypto/bytes.hpp"
#include "net/faults.hpp"
#include "net/msg_type.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace zmail::net {

constexpr HostId kNoHost = static_cast<HostId>(-1);

// Typed result of Network::send.  Unknown hosts and untyped datagrams are
// reported (and counted) instead of aborting, mirroring the bytes_sent_to
// 0-for-unknown convention; kFaultDropped means an attached FaultInjector
// swallowed the datagram at send time (partition, outage, or drop fault).
enum class SendStatus : std::uint8_t {
  kOk = 0,
  kUnknownHost,
  kInvalidType,
  kFaultDropped,
};

struct Datagram {
  MsgType type;
  crypto::Bytes payload;
  HostId from = kNoHost;
  HostId to = kNoHost;
  // Causal context captured at send time (zmail::trace); restored around
  // the delivery handler so receive-side work joins the sender's chain.
  std::uint64_t trace = 0;
};

// Latency model: base plus exponential jitter.
struct LatencyModel {
  sim::Duration base = 20 * sim::kMillisecond;
  sim::Duration jitter_mean = 10 * sim::kMillisecond;

  sim::Duration sample(Rng& rng) const {
    if (jitter_mean <= 0) return base;  // jitter-free links draw no RNG
    return base + sim::from_seconds(
                      rng.exponential(1.0 / sim::to_seconds(jitter_mean)));
  }

  // Smallest latency any sample can produce.  Jitter is additive and
  // non-negative, so this is exactly `base`.
  sim::Duration min_latency() const noexcept { return base; }
};

class Network {
 public:
  using HandlerFn = std::function<void(const Datagram&)>;

  Network(sim::Simulator& simulator, Rng rng,
          LatencyModel latency = LatencyModel{});

  // Registers a host; the handler runs at delivery time.
  HostId add_host(std::string name, HandlerFn handler);

  const LatencyModel& latency() const noexcept { return latency_; }

  // Latency-delayed, per-pair FIFO delivery (reliable unless a fault
  // injector is attached).  The payload is consumed: it moves through the
  // pending slot to the handler unexposed to any copy.  Unknown host ids
  // return kUnknownHost and bump send_errors() instead of aborting.
  SendStatus send(HostId from, HostId to, MsgType type,
                  crypto::Bytes&& payload);

  // Attaches (or detaches, with nullptr) a fault injector.  Not owned; must
  // outlive the network or be detached first.  With no injector the send
  // and deliver paths draw the same RNG sequence and schedule the same
  // events as a build without the fault layer.
  void attach_faults(FaultInjector* injector) noexcept { faults_ = injector; }
  FaultInjector* faults() const noexcept { return faults_; }

  // MX-style name resolution (domain -> host).
  void bind_domain(const std::string& domain, HostId host);
  HostId resolve(const std::string& domain) const;

  std::size_t host_count() const noexcept { return hosts_.size(); }
  const std::string& host_name(HostId h) const { return hosts_.at(h).name; }

  std::uint64_t datagrams_sent() const noexcept { return datagrams_; }
  std::uint64_t bytes_sent() const noexcept { return bytes_; }
  // Bytes delivered toward `h`; 0 for hosts that never received traffic
  // (including ids never registered).
  std::uint64_t bytes_sent_to(HostId h) const noexcept {
    return h < bytes_to_.size() ? bytes_to_[h] : 0;
  }
  // Sends rejected for an unknown host or invalid type.
  std::uint64_t send_errors() const noexcept { return send_errors_; }

 private:
  struct Host {
    std::string name;
    HandlerFn handler;
    // Last scheduled delivery per sender host id, to preserve FIFO under
    // jitter.  Grown on demand; 0 means "nothing scheduled yet".
    std::vector<sim::SimTime> last_from;
  };

  void deliver(std::uint32_t slot);
  // Schedules one physical copy (latency sample + FIFO clamp + slot).
  void schedule_copy(HostId from, HostId to, MsgType type,
                     crypto::Bytes&& payload, bool skip_fifo,
                     sim::Duration extra_delay);
  std::uint32_t claim_slot();

  sim::Simulator& sim_;
  Rng rng_;
  LatencyModel latency_;
  FaultInjector* faults_ = nullptr;
  std::vector<Host> hosts_;
  std::unordered_map<std::string, HostId> mx_;
  std::uint64_t datagrams_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t send_errors_ = 0;
  std::vector<std::uint64_t> bytes_to_;
  // In-flight datagram pool: slots are recycled so steady-state traffic
  // stops allocating; payload buffers are moved in and out, never copied.
  std::vector<Datagram> pending_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace zmail::net
