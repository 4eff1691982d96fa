// A test-side inter-bank transport for driving a BankFederation without a
// ZmailSystem: the federation's sink pushes every wire onto a FIFO queue,
// and drain() hands them back through on_interbank until the plane is
// quiet.  Wires are delivered in emission order, with no latency and no
// loss.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "core/federation.hpp"

namespace zmail::core {

struct InterbankWire {
  std::size_t from = 0;
  std::size_t to = 0;
  std::uint8_t kind = 0;
  crypto::Bytes wire;
};

class InterbankWireQueue {
 public:
  InterbankWireQueue() = default;
  // The installed sink points at this queue, so it must stay put.
  InterbankWireQueue(const InterbankWireQueue&) = delete;
  InterbankWireQueue& operator=(const InterbankWireQueue&) = delete;

  // Routes `fed`'s inter-bank wires into this queue.  The queue must
  // outlive every wire `fed` emits.
  void attach(BankFederation& fed) {
    fed.set_interbank_sink([this](std::size_t from, std::size_t to,
                                  std::uint8_t kind, crypto::Bytes wire) {
      queue_.push_back(InterbankWire{from, to, kind, std::move(wire)});
    });
  }

  // Delivers queued wires to `fed`, including the ones those deliveries
  // provoke (clearing transfers), until none remain.  Returns every
  // delivered wire in delivery order.
  std::vector<InterbankWire> drain(BankFederation& fed) {
    std::vector<InterbankWire> delivered;
    while (!queue_.empty()) {
      InterbankWire w = std::move(queue_.front());
      queue_.pop_front();
      fed.on_interbank(w.to, w.from, w.kind, w.wire);
      delivered.push_back(std::move(w));
    }
    return delivered;
  }

 private:
  std::deque<InterbankWire> queue_;
};

}  // namespace zmail::core
