#include "net/network.hpp"

#include "trace/trace.hpp"
#include "util/assert.hpp"

namespace zmail::net {

Network::Network(sim::Simulator& simulator, Rng rng, LatencyModel latency)
    : sim_(simulator), rng_(rng), latency_(latency) {
  // Every hop takes strictly positive time: a zero-or-negative floor would
  // let a reply land at the instant its request was sent, which no real
  // network does, so such a model is rejected as a configuration error.
  ZMAIL_ASSERT_MSG(latency_.min_latency() > 0,
                   "latency model must have a strictly positive minimum");
  ZMAIL_ASSERT(latency_.jitter_mean >= 0);
}

HostId Network::add_host(std::string name, HandlerFn handler) {
  ZMAIL_ASSERT(handler != nullptr);
  hosts_.push_back(Host{std::move(name), std::move(handler), {}});
  bytes_to_.push_back(0);
  return hosts_.size() - 1;
}

void Network::bind_domain(const std::string& domain, HostId host) {
  ZMAIL_ASSERT(host < hosts_.size());
  mx_[domain] = host;
}

HostId Network::resolve(const std::string& domain) const {
  const auto it = mx_.find(domain);
  return it == mx_.end() ? kNoHost : it->second;
}

SendStatus Network::send(HostId from, HostId to, MsgType type,
                         crypto::Bytes&& payload) {
  if (from >= hosts_.size() || to >= hosts_.size()) {
    ++send_errors_;
    return SendStatus::kUnknownHost;
  }
  if (type == kMsgInvalid) {
    ++send_errors_;
    return SendStatus::kInvalidType;
  }
  const std::size_t size = payload.size() + type.name().size() + 16;
  ++datagrams_;
  bytes_ += size;
  bytes_to_[to] += size;

  if (faults_ == nullptr) {
    schedule_copy(from, to, type, std::move(payload), false, 0);
    return SendStatus::kOk;
  }

  const FaultInjector::Fate fate = faults_->on_send(sim_.now(), from, to, type);
  if (fate.drop) {
    trace::instant(trace::Ev::kNetDrop, trace::current(),
                   static_cast<std::uint16_t>(from),
                   static_cast<std::uint64_t>(to));
    return SendStatus::kFaultDropped;
  }
  if (fate.corrupt) faults_->corrupt_payload(payload);
  if (fate.truncate) faults_->truncate_payload(payload);
  for (std::uint32_t copy = 1; copy < fate.copies; ++copy) {
    crypto::Bytes dup = payload;  // extra copies pay a real allocation
    const std::size_t dup_size = dup.size() + type.name().size() + 16;
    ++datagrams_;
    bytes_ += dup_size;
    bytes_to_[to] += dup_size;
    schedule_copy(from, to, type, std::move(dup), fate.reorder,
                  fate.extra_delay);
  }
  schedule_copy(from, to, type, std::move(payload), fate.reorder,
                fate.extra_delay);
  return SendStatus::kOk;
}

std::uint32_t Network::claim_slot() {
  if (free_slots_.empty()) {
    pending_.emplace_back();
    return static_cast<std::uint32_t>(pending_.size() - 1);
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  return slot;
}

void Network::schedule_copy(HostId from, HostId to, MsgType type,
                            crypto::Bytes&& payload, bool skip_fifo,
                            sim::Duration extra_delay) {
  ZMAIL_ASSERT(extra_delay >= 0);  // fault spikes only ever push later
  sim::SimTime deliver_at = sim_.now() + latency_.sample(rng_) + extra_delay;
  // Enforce per-(from,to) FIFO: never deliver before an earlier datagram.
  // A reorder fault skips both the clamp and the watermark update, so this
  // copy may overtake (or be overtaken by) its neighbours.
  auto& fifo = hosts_[to].last_from;
  if (from >= fifo.size()) fifo.resize(from + 1, 0);
  if (!skip_fifo) {
    if (deliver_at <= fifo[from]) deliver_at = fifo[from] + 1;
    fifo[from] = deliver_at;
  }

  const std::uint32_t slot = claim_slot();
  Datagram& d = pending_[slot];
  d.type = type;
  d.payload = std::move(payload);
  d.from = from;
  d.to = to;
  // schedule_copy runs synchronously inside send(), so the sender's causal
  // context is still pinned; carry it to the delivery side.
  d.trace = trace::current();
  if (d.trace != 0)
    trace::instant(trace::Ev::kNetSend, d.trace,
                   static_cast<std::uint16_t>(from),
                   static_cast<std::uint64_t>(to));
  sim_.schedule_at(deliver_at, [this, slot] { deliver(slot); });
}

void Network::deliver(std::uint32_t slot) {
  if (faults_ != nullptr) {
    const sim::SimTime up = faults_->down_until(sim_.now(), pending_[slot].to);
    if (up != 0) {
      if (faults_->plan().outage_preserves_inflight) {
        // The host buffers across the crash: retry delivery at restart.
        faults_->note_outage_deferral();
        sim_.schedule_at(up, [this, slot] { deliver(slot); });
        return;
      }
      faults_->note_outage_loss();
      trace::instant(trace::Ev::kNetDrop, pending_[slot].trace,
                     static_cast<std::uint16_t>(pending_[slot].to),
                     static_cast<std::uint64_t>(pending_[slot].from));
      pending_[slot].payload = crypto::Bytes{};
      free_slots_.push_back(slot);
      return;
    }
  }
  // Move the datagram out before invoking the handler: a reentrant send()
  // may grow pending_ and would invalidate a reference into it.
  Datagram d = std::move(pending_[slot]);
  free_slots_.push_back(slot);
  trace::Scope scope(d.trace);
  if (d.trace != 0)
    trace::instant(trace::Ev::kNetDeliver, d.trace,
                   static_cast<std::uint16_t>(d.to),
                   static_cast<std::uint64_t>(d.from));
  hosts_[d.to].handler(d);
}

}  // namespace zmail::net
