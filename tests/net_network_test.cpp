#include "net/network.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace zmail::net {
namespace {

class NetworkTest : public ::testing::Test {
 protected:
  sim::Simulator sim_;
  Network net_{sim_, Rng(5), LatencyModel{10 * sim::kMillisecond,
                                          5 * sim::kMillisecond}};
};

TEST_F(NetworkTest, DeliversToRegisteredHandler) {
  std::vector<MsgType> got;
  const HostId a = net_.add_host("a", [](const Datagram&) {});
  const HostId b = net_.add_host(
      "b", [&got](const Datagram& d) { got.push_back(d.type); });
  net_.send(a, b, kMsgEmail, {1, 2, 3});
  sim_.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], kMsgEmail);
  EXPECT_EQ(got[0].name(), "email");
}

TEST_F(NetworkTest, DeliveryTakesAtLeastBaseLatency) {
  sim::SimTime delivered_at = -1;
  const HostId a = net_.add_host("a", [](const Datagram&) {});
  const HostId b = net_.add_host(
      "b", [&](const Datagram&) { delivered_at = sim_.now(); });
  net_.send(a, b, MsgType::intern("x"), {});
  sim_.run();
  EXPECT_GE(delivered_at, 10 * sim::kMillisecond);
}

TEST_F(NetworkTest, PerPairFifoUnderJitter) {
  std::vector<std::uint8_t> order;
  const HostId a = net_.add_host("a", [](const Datagram&) {});
  const HostId b = net_.add_host("b", [&order](const Datagram& d) {
    order.push_back(d.payload.at(0));
  });
  const MsgType m = MsgType::intern("m");
  for (std::uint8_t i = 0; i < 50; ++i) net_.send(a, b, m, {i});
  sim_.run();
  ASSERT_EQ(order.size(), 50u);
  for (std::uint8_t i = 0; i < 50; ++i) EXPECT_EQ(order[i], i);
}

// Satellite regression: a zero-jitter latency model used to divide by zero
// inside Rng::exponential.  It must instead deliver after exactly `base`,
// with per-pair FIFO falling back to the +1 tick clamp.
TEST(NetworkZeroJitterTest, ZeroJitterDeliversFifoAtBaseLatency) {
  sim::Simulator sim;
  Network net{sim, Rng(9), LatencyModel{10 * sim::kMillisecond, 0}};
  std::vector<std::uint8_t> order;
  std::vector<sim::SimTime> times;
  const HostId a = net.add_host("a", [](const Datagram&) {});
  const HostId b = net.add_host("b", [&](const Datagram& d) {
    order.push_back(d.payload.at(0));
    times.push_back(sim.now());
  });
  const MsgType m = MsgType::intern("m");
  for (std::uint8_t i = 0; i < 10; ++i) net.send(a, b, m, {i});
  sim.run();
  ASSERT_EQ(order.size(), 10u);
  for (std::uint8_t i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
  // All sends happened at t=0 with identical latency; FIFO spreads them one
  // tick apart starting at base.
  for (std::size_t i = 0; i < times.size(); ++i)
    EXPECT_EQ(times[i], 10 * sim::kMillisecond + static_cast<sim::SimTime>(i));
}

TEST_F(NetworkTest, CountsDatagramsAndBytes) {
  const HostId a = net_.add_host("a", [](const Datagram&) {});
  const HostId b = net_.add_host("b", [](const Datagram&) {});
  const MsgType t = MsgType::intern("t");
  net_.send(a, b, t, crypto::Bytes(100, 0));
  net_.send(b, a, t, crypto::Bytes(50, 0));
  EXPECT_EQ(net_.datagrams_sent(), 2u);
  EXPECT_GT(net_.bytes_sent(), 150u);
  EXPECT_GT(net_.bytes_sent_to(b), 100u);
  EXPECT_GT(net_.bytes_sent_to(a), 50u);
  EXPECT_LT(net_.bytes_sent_to(a), net_.bytes_sent_to(b));
}

// Satellite regression: querying a host that never received traffic (or an
// id that was never registered) must report 0 bytes, not throw.
TEST_F(NetworkTest, BytesSentToUnknownHostIsZero) {
  const HostId a = net_.add_host("a", [](const Datagram&) {});
  const HostId b = net_.add_host("b", [](const Datagram&) {});
  EXPECT_EQ(net_.bytes_sent_to(a), 0u);
  EXPECT_EQ(net_.bytes_sent_to(b), 0u);
  EXPECT_EQ(net_.bytes_sent_to(17), 0u);
  EXPECT_EQ(net_.bytes_sent_to(kNoHost), 0u);
  net_.send(a, b, MsgType::intern("t"), crypto::Bytes(10, 0));
  EXPECT_GT(net_.bytes_sent_to(b), 0u);
  EXPECT_EQ(net_.bytes_sent_to(a), 0u);
}

TEST_F(NetworkTest, SendToUnknownHostReturnsTypedError) {
  const HostId a = net_.add_host("a", [](const Datagram&) {});
  std::size_t delivered = 0;
  const HostId b =
      net_.add_host("b", [&](const Datagram&) { ++delivered; });
  (void)b;

  // An out-of-range destination (and source) is refused, counted, and never
  // scheduled — mirroring the bytes_sent_to 0-for-unknown convention.
  EXPECT_EQ(net_.send(a, HostId{99}, kMsgEmail, {1}),
            SendStatus::kUnknownHost);
  EXPECT_EQ(net_.send(HostId{99}, a, kMsgEmail, {1}),
            SendStatus::kUnknownHost);
  EXPECT_EQ(net_.send(a, kNoHost, kMsgEmail, {1}), SendStatus::kUnknownHost);
  EXPECT_EQ(net_.send_errors(), 3u);
  EXPECT_EQ(net_.datagrams_sent(), 0u);

  // An uninterned message type is likewise a typed refusal, not UB.
  EXPECT_EQ(net_.send(a, b, kMsgInvalid, {1}), SendStatus::kInvalidType);
  EXPECT_EQ(net_.send_errors(), 4u);

  // The healthy path is unaffected.
  EXPECT_EQ(net_.send(a, b, kMsgEmail, {1}), SendStatus::kOk);
  sim_.run();
  EXPECT_EQ(delivered, 1u);
  EXPECT_EQ(net_.send_errors(), 4u);
}

TEST(MsgTypeTest, InternRoundTripsAndDeduplicates) {
  const MsgType a = MsgType::intern("net-test-alpha");
  const MsgType b = MsgType::intern("net-test-beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(a, MsgType::intern("net-test-alpha"));
  EXPECT_EQ(a.id(), MsgType::intern("net-test-alpha").id());
  EXPECT_EQ(a.name(), "net-test-alpha");
  EXPECT_EQ(b.name(), "net-test-beta");
  // The well-known protocol tags are pre-interned with stable names.
  EXPECT_EQ(kMsgEmail.name(), "email");
  EXPECT_EQ(MsgType::intern("email"), kMsgEmail);
  EXPECT_EQ(MsgType::intern("buyreply"), kMsgBuyReply);
  // Implicit view conversion for string-keyed call sites.
  const std::string_view view = kMsgBuy;
  EXPECT_EQ(view, "buy");
  EXPECT_FALSE(static_cast<bool>(kMsgInvalid));
  EXPECT_TRUE(static_cast<bool>(kMsgEmail));
}

TEST_F(NetworkTest, MxResolution) {
  const HostId a = net_.add_host("mail.a", [](const Datagram&) {});
  net_.bind_domain("a.example", a);
  EXPECT_EQ(net_.resolve("a.example"), a);
  EXPECT_EQ(net_.resolve("unknown.example"), kNoHost);
}

TEST_F(NetworkTest, HostNames) {
  const HostId a = net_.add_host("alpha", [](const Datagram&) {});
  EXPECT_EQ(net_.host_name(a), "alpha");
  EXPECT_EQ(net_.host_count(), 1u);
}

TEST_F(NetworkTest, SelfSendWorks) {
  int got = 0;
  HostId a_id = kNoHost;
  a_id = net_.add_host("a", [&](const Datagram& d) {
    ++got;
    EXPECT_EQ(d.from, a_id);
  });
  net_.send(a_id, a_id, MsgType::intern("loop"), {});
  sim_.run();
  EXPECT_EQ(got, 1);
}

// The zero-copy delivery path must tolerate handlers that send (and thus may
// grow the pending-slot pool) while a delivery is in flight.
TEST_F(NetworkTest, HandlerMaySendDuringDelivery) {
  int b_got = 0;
  int a_got = 0;
  HostId a = kNoHost;
  HostId b = kNoHost;
  const MsgType ping = MsgType::intern("ping");
  const MsgType pong = MsgType::intern("pong");
  a = net_.add_host("a", [&](const Datagram& d) {
    ++a_got;
    EXPECT_EQ(d.type, pong);
  });
  b = net_.add_host("b", [&](const Datagram&) {
    ++b_got;
    // Burst of nested sends: forces pending_ to grow mid-delivery.
    for (int i = 0; i < 8; ++i)
      net_.send(b, a, pong, crypto::Bytes(64, static_cast<std::uint8_t>(i)));
  });
  net_.send(a, b, ping, crypto::Bytes(32, 1));
  sim_.run();
  EXPECT_EQ(b_got, 1);
  EXPECT_EQ(a_got, 8);
}

}  // namespace
}  // namespace zmail::net
