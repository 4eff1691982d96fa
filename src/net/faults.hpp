// Deterministic, seed-driven fault injection for the simulated network.
//
// A FaultPlan describes *what* can go wrong (drop/duplicate/reorder/corrupt/
// truncate/delay-spike rates, host-pair partitions, host crash windows); a
// FaultInjector owns an independent RNG stream and decides, per datagram,
// *whether* it goes wrong.  The Network consults an optional injector at
// send() and deliver() time.  With no injector attached the network draws
// exactly the same RNG sequence and schedules exactly the same events as
// before this layer existed — the fault path is zero-cost-off, so every
// (seed, threads) sweep stays bit-identical with faults disabled.
//
// The injector's RNG is seeded independently of the network's latency
// stream, so the same fault plan replays bit-identically for a given seed
// regardless of sweep thread count (each replica owns its own injector).
#pragma once

#include <cstdint>
#include <vector>

#include "crypto/bytes.hpp"
#include "net/msg_type.hpp"
#include "sim/time.hpp"
#include "util/rng.hpp"

namespace zmail::net {

using HostId = std::size_t;

// Per-datagram fault probabilities, all default 0 (= fault-free).
struct FaultRates {
  double drop = 0.0;       // datagram silently lost
  double duplicate = 0.0;  // a second copy is sent (own latency/fate)
  double reorder = 0.0;    // per-pair FIFO clamp is skipped for this copy
  double corrupt = 0.0;    // one payload bit is flipped
  double truncate = 0.0;   // payload cut to a random prefix
  double delay_spike = 0.0;           // extra exponential delay is added
  sim::Duration spike_mean = 500 * sim::kMillisecond;
};

// Bidirectional link cut between hosts a and b over [from, until).
struct Partition {
  HostId a = 0;
  HostId b = 0;
  sim::SimTime from = 0;
  sim::SimTime until = 0;
};

// Host crash window [from, until): the host neither sends nor receives.
// Datagrams that would arrive while it is down are lost (the crash drops
// in-flight state) unless FaultPlan::outage_preserves_inflight, in which
// case they are re-queued for delivery just after restart.
struct HostOutage {
  HostId host = 0;
  sim::SimTime from = 0;
  sim::SimTime until = 0;
};

struct FaultPlan {
  FaultRates rates;
  std::vector<Partition> partitions;
  std::vector<HostOutage> outages;
  bool outage_preserves_inflight = false;
  // If non-empty, faults apply only to these datagram types (control traffic
  // can be exempted, or a bench can target e.g. only "buy"/"buyreply").
  std::vector<MsgType> only_types;

  bool applies_to(MsgType t) const noexcept {
    if (only_types.empty()) return true;
    for (MsgType o : only_types)
      if (o == t) return true;
    return false;
  }
};

// Everything the injector did, for liveness/amplification reporting.
struct FaultCounters {
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t reordered = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t truncated = 0;
  std::uint64_t delayed = 0;
  std::uint64_t partitioned = 0;   // sends swallowed by an active partition
  std::uint64_t outage_lost = 0;   // datagrams lost to a crashed host
  std::uint64_t outage_deferred = 0;  // re-queued past a restart instead
  // Host restarts that rebuilt party state from the durable store
  // (snapshot + WAL replay); bumped by the harness, not the injector.
  std::uint64_t state_recoveries = 0;

  std::uint64_t total_injected() const noexcept {
    return dropped + duplicated + reordered + corrupted + truncated +
           delayed + partitioned + outage_lost;
  }
};

// Decides the fate of each datagram.  All randomness comes from a private
// stream so attaching/detaching an injector never perturbs the network's
// latency draws.
class FaultInjector {
 public:
  // What send() should do with one physical copy of a datagram.
  struct Fate {
    bool drop = false;           // swallow silently (counted)
    std::uint32_t copies = 1;    // 2 when duplicated
    bool reorder = false;        // skip the per-pair FIFO clamp
    bool corrupt = false;
    bool truncate = false;
    sim::Duration extra_delay = 0;
  };

  FaultInjector(FaultPlan plan, std::uint64_t seed)
      : plan_(std::move(plan)), rng_(seed) {}

  const FaultPlan& plan() const noexcept { return plan_; }
  const FaultCounters& counters() const noexcept { return counters_; }

  // Send-time decision for a datagram from->to at `now`.
  Fate on_send(sim::SimTime now, HostId from, HostId to, MsgType type);

  // Delivery-time check: is `to` crashed at `now`?  Returns the restart
  // time (> now) if so, 0 if the host is up.  The caller drops or defers
  // based on plan().outage_preserves_inflight and bumps the right counter
  // via note_outage_loss()/note_outage_deferral().
  sim::SimTime down_until(sim::SimTime now, HostId h) const noexcept;
  void note_outage_loss() noexcept { ++counters_.outage_lost; }
  void note_outage_deferral() noexcept { ++counters_.outage_deferred; }
  void note_state_recovery() noexcept { ++counters_.state_recoveries; }

  // Adds a crash window after construction (ZmailSystem::crash_host injects
  // ad-hoc outages this way).  Takes effect for all later fate decisions;
  // safe mid-run because outages are consulted per datagram, not cached.
  void add_outage(const HostOutage& o) { plan_.outages.push_back(o); }

  // Payload mutators (no-ops on empty payloads).
  void corrupt_payload(crypto::Bytes& payload);
  void truncate_payload(crypto::Bytes& payload);

 private:
  bool partitioned(sim::SimTime now, HostId a, HostId b) const noexcept;

  FaultPlan plan_;
  Rng rng_;
  FaultCounters counters_;
};

}  // namespace zmail::net
