#include "net/faults.hpp"

namespace zmail::net {

bool FaultInjector::partitioned(sim::SimTime now, HostId a,
                                HostId b) const noexcept {
  for (const Partition& p : plan_.partitions) {
    const bool pair = (p.a == a && p.b == b) || (p.a == b && p.b == a);
    if (pair && now >= p.from && now < p.until) return true;
  }
  return false;
}

sim::SimTime FaultInjector::down_until(sim::SimTime now,
                                       HostId h) const noexcept {
  for (const HostOutage& o : plan_.outages)
    if (o.host == h && now >= o.from && now < o.until) return o.until;
  return 0;
}

FaultInjector::Fate FaultInjector::on_send(sim::SimTime now, HostId from,
                                           HostId to, MsgType type) {
  Fate fate;
  // Topology faults first — a crashed sender emits nothing and a
  // partitioned link swallows the send whatever the datagram type; the
  // per-datagram rates below honour the only_types filter.
  if (down_until(now, from) != 0) {
    ++counters_.outage_lost;
    fate.drop = true;
    return fate;
  }
  if (partitioned(now, from, to)) {
    ++counters_.partitioned;
    fate.drop = true;
    return fate;
  }
  if (!plan_.applies_to(type)) return fate;
  // Fixed draw order keeps the fault stream replayable: drop, duplicate,
  // then per-copy fates decided by the caller via this same Fate.
  const FaultRates& r = plan_.rates;
  if (r.drop > 0.0 && rng_.bernoulli(r.drop)) {
    ++counters_.dropped;
    fate.drop = true;
    return fate;
  }
  if (r.duplicate > 0.0 && rng_.bernoulli(r.duplicate)) {
    ++counters_.duplicated;
    fate.copies = 2;
  }
  if (r.reorder > 0.0 && rng_.bernoulli(r.reorder)) {
    ++counters_.reordered;
    fate.reorder = true;
  }
  if (r.corrupt > 0.0 && rng_.bernoulli(r.corrupt)) {
    ++counters_.corrupted;
    fate.corrupt = true;
  }
  if (r.truncate > 0.0 && rng_.bernoulli(r.truncate)) {
    ++counters_.truncated;
    fate.truncate = true;
  }
  if (r.delay_spike > 0.0 && rng_.bernoulli(r.delay_spike)) {
    ++counters_.delayed;
    fate.extra_delay = sim::from_seconds(
        rng_.exponential(1.0 / sim::to_seconds(r.spike_mean)));
  }
  return fate;
}

void FaultInjector::corrupt_payload(crypto::Bytes& payload) {
  if (payload.empty()) return;
  const std::uint64_t bit = rng_.next_below(payload.size() * 8);
  payload[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
}

void FaultInjector::truncate_payload(crypto::Bytes& payload) {
  if (payload.empty()) return;
  payload.resize(rng_.next_below(payload.size()));
}

}  // namespace zmail::net
