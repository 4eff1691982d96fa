#include "ap/scheduler.hpp"

#include <gtest/gtest.h>

#include "ap/trace_format.hpp"
#include "core/ap_spec.hpp"
#include "crypto/bytes.hpp"

namespace zmail::ap {
namespace {

// A process that sends `count` ping messages and counts pongs.
class Pinger : public Process {
 public:
  explicit Pinger(int count) : remaining_(count) {
    add_action(
        "ping", [this] { return remaining_ > 0 && peer_ != kNoProcess; },
        [this] {
          --remaining_;
          send(peer_, "ping");
        });
    add_receive("pong", [this](const Message&) { ++pongs_; });
  }
  void set_peer(ProcessId p) { peer_ = p; }
  int pongs() const { return pongs_; }
  int remaining() const { return remaining_; }

 private:
  ProcessId peer_ = kNoProcess;
  int remaining_;
  int pongs_ = 0;
};

class Ponger : public Process {
 public:
  Ponger() {
    add_receive("ping", [this](const Message& m) {
      ++pings_;
      send(m.from, "pong");
    });
  }
  int pings() const { return pings_; }

 private:
  int pings_ = 0;
};

TEST(ApScheduler, PingPongRunsToQuiescence) {
  Scheduler sched;
  Pinger pinger(5);
  Ponger ponger;
  const ProcessId p1 = sched.add_process(pinger, "pinger");
  const ProcessId p2 = sched.add_process(ponger, "ponger");
  (void)p1;
  pinger.set_peer(p2);
  sched.run();
  EXPECT_EQ(pinger.remaining(), 0);
  EXPECT_EQ(ponger.pings(), 5);
  EXPECT_EQ(pinger.pongs(), 5);
  EXPECT_TRUE(sched.all_channels_empty());
  EXPECT_EQ(sched.messages_sent(), 10u);
}

TEST(ApScheduler, QuiescentSchedulerStepsReturnFalse) {
  Scheduler sched;
  Ponger ponger;  // only receive actions; nothing to receive
  sched.add_process(ponger, "p");
  EXPECT_FALSE(sched.step());
  EXPECT_EQ(sched.run(), 0u);
}

TEST(ApScheduler, MaxStepsBoundsExecution) {
  Scheduler sched;
  Pinger pinger(1'000'000);
  Ponger ponger;
  sched.add_process(pinger, "pinger");
  const ProcessId p2 = sched.add_process(ponger, "ponger");
  pinger.set_peer(p2);
  EXPECT_EQ(sched.run(100), 100u);
}

// FIFO: a sender emits numbered messages; the receiver checks order.
class Sequencer : public Process {
 public:
  explicit Sequencer(ProcessId* peer) : peer_(peer) {
    add_action(
        "emit", [this] { return next_ < 50; },
        [this] {
          crypto::Bytes b;
          crypto::put_u32(b, next_++);
          send(*peer_, "num", std::move(b));
        });
  }

 private:
  ProcessId* peer_;
  std::uint32_t next_ = 0;
};

class OrderChecker : public Process {
 public:
  OrderChecker() {
    add_receive("num", [this](const Message& m) {
      crypto::ByteReader r(m.payload);
      const std::uint32_t v = r.get_u32();
      in_order_ = in_order_ && (v == expected_);
      ++expected_;
    });
  }
  bool in_order() const { return in_order_; }
  std::uint32_t received() const { return expected_; }

 private:
  bool in_order_ = true;
  std::uint32_t expected_ = 0;
};

TEST(ApScheduler, ChannelsAreFifo) {
  for (auto policy : {Scheduler::Policy::kRoundRobin,
                      Scheduler::Policy::kRandom}) {
    Scheduler sched(policy, 99);
    ProcessId receiver_id = kNoProcess;
    Sequencer seq(&receiver_id);
    OrderChecker checker;
    sched.add_process(seq, "seq");
    receiver_id = sched.add_process(checker, "checker");
    sched.run();
    EXPECT_TRUE(checker.in_order());
    EXPECT_EQ(checker.received(), 50u);
  }
}

// Weak fairness: two always-enabled actions must both run.
class TwoCounters : public Process {
 public:
  TwoCounters() {
    add_action(
        "a", [this] { return steps_ < 100; },
        [this] {
          ++a_;
          ++steps_;
        });
    add_action(
        "b", [this] { return steps_ < 100; },
        [this] {
          ++b_;
          ++steps_;
        });
  }
  int a() const { return a_; }
  int b() const { return b_; }

 private:
  int a_ = 0, b_ = 0, steps_ = 0;
};

TEST(ApScheduler, RoundRobinIsWeaklyFair) {
  Scheduler sched;
  TwoCounters p;
  sched.add_process(p, "p");
  sched.run();
  EXPECT_EQ(p.a(), 50);
  EXPECT_EQ(p.b(), 50);
}

TEST(ApScheduler, RandomPolicyIsFairEnough) {
  Scheduler sched(Scheduler::Policy::kRandom, 7);
  TwoCounters p;
  sched.add_process(p, "p");
  sched.run();
  EXPECT_GT(p.a(), 20);
  EXPECT_GT(p.b(), 20);
}

TEST(ApScheduler, RandomPolicyDeterministicPerSeed) {
  auto run_once = [](std::uint64_t seed) {
    Scheduler sched(Scheduler::Policy::kRandom, seed);
    TwoCounters p;
    sched.add_process(p, "p");
    sched.run();
    return p.a();
  };
  EXPECT_EQ(run_once(5), run_once(5));
}

// Timeout guard over global state.
class Quiescer : public Process {
 public:
  Quiescer() {
    add_timeout(
        "when-quiet",
        [this](const GlobalView& g) {
          return !fired_ && g.all_channels_empty();
        },
        [this] { fired_ = true; });
  }
  bool fired() const { return fired_; }

 private:
  bool fired_ = false;
};

TEST(ApScheduler, TimeoutGuardSeesGlobalState) {
  Scheduler sched;
  Pinger pinger(3);
  Ponger ponger;
  Quiescer q;
  sched.add_process(pinger, "pinger");
  const ProcessId p2 = sched.add_process(ponger, "ponger");
  sched.add_process(q, "quiescer");
  pinger.set_peer(p2);
  sched.run();
  EXPECT_TRUE(q.fired());
  EXPECT_TRUE(sched.all_channels_empty());
}

TEST(ApScheduler, InFlightQueries) {
  Scheduler sched;
  Pinger pinger(1);
  Ponger ponger;
  const ProcessId p1 = sched.add_process(pinger, "pinger");
  const ProcessId p2 = sched.add_process(ponger, "ponger");
  pinger.set_peer(p2);
  sched.step();  // pinger sends one ping
  const Channel* ping = sched.find_channel(p1, p2);
  ASSERT_NE(ping, nullptr);
  EXPECT_FALSE(ping->empty());
  EXPECT_EQ(sched.find_channel(p2, p1), nullptr);  // no pong sent yet
  EXPECT_EQ(sched.total_messages_in_flight(), 1u);
  EXPECT_FALSE(sched.all_channels_empty());
  sched.run();
  EXPECT_TRUE(ping->empty());
  EXPECT_EQ(sched.total_messages_in_flight(), 0u);
}

TEST(ApScheduler, TraceRecordsActions) {
  Scheduler sched;
  sched.set_trace_enabled(true);
  Pinger pinger(2);
  Ponger ponger;
  sched.add_process(pinger, "pinger");
  const ProcessId p2 = sched.add_process(ponger, "ponger");
  pinger.set_peer(p2);
  sched.run();
  ASSERT_FALSE(sched.trace().empty());
  EXPECT_EQ(sched.trace().front().action, "ping");
  bool saw_receive = false;
  for (const auto& e : sched.trace())
    if (e.action == "rcv ping") {
      saw_receive = true;
      EXPECT_EQ(e.msg_type, "ping");
    }
  EXPECT_TRUE(saw_receive);
}

TEST(ApScheduler, TraceFormatting) {
  Scheduler sched;
  sched.set_trace_enabled(true);
  Pinger pinger(2);
  Ponger ponger;
  sched.add_process(pinger, "pinger");
  const ProcessId p2 = sched.add_process(ponger, "ponger");
  pinger.set_peer(p2);
  sched.run();

  const std::string full = format_trace(sched);
  EXPECT_NE(full.find("pinger"), std::string::npos);
  EXPECT_NE(full.find("rcv ping"), std::string::npos);
  EXPECT_NE(full.find("<- pinger"), std::string::npos);

  // Truncation elides early steps.
  const std::string tail = format_trace(sched, 2);
  EXPECT_NE(tail.find("elided"), std::string::npos);
  EXPECT_EQ(std::count(tail.begin(), tail.end(), '\n'), 3);

  const std::string counts = format_action_counts(sched);
  EXPECT_NE(counts.find("ping"), std::string::npos);
  EXPECT_NE(counts.find("2"), std::string::npos);
}

TEST(ApScheduler, MessageReplayViaChannelInjection) {
  // The adversarial hook used by replay tests: copy a message back in.
  Scheduler sched;
  Pinger pinger(1);
  Ponger ponger;
  const ProcessId p1 = sched.add_process(pinger, "pinger");
  const ProcessId p2 = sched.add_process(ponger, "ponger");
  pinger.set_peer(p2);
  sched.step();  // ping in flight
  Channel& ch = sched.channel(p1, p2);
  ASSERT_FALSE(ch.empty());
  const Message dup = ch.front();
  ch.push(dup);  // adversary duplicates the datagram
  sched.run();
  EXPECT_EQ(ponger.pings(), 2);  // the runtime delivers both; the *protocol*
                                 // layer must reject the replay
}

TEST(ApScheduler, LostBuyReplyTimeoutRetriesAndRecovers) {
  // Section 3 gives processes timeout actions precisely so a lost message
  // cannot deadlock the protocol.  Script the loss against the executable
  // Zmail spec: an ISP below minavail buys from the bank, the adversary
  // pops the buyreply out of the channel, and the spec must (a) fire the
  // buy-retry timeout, (b) resend the same nonce so the bank absorbs the
  // duplicate instead of minting twice, and (c) complete the exchange.
  core::ZmailParams p;
  p.n_isps = 2;
  p.users_per_isp = 1;
  p.minavail = 50;
  p.maxavail = 200;
  p.initial_avail = 10;  // below minavail: the buy guard is enabled at once
  core::ApZmailWorld world(p, Scheduler::Policy::kRoundRobin, 77);
  Scheduler& sched = world.scheduler();
  sched.set_trace_enabled(true);
  const auto initial = world.total_epennies();

  // Run until isp0's buyreply is in flight, then lose it.
  Channel& reply_ch = sched.channel(world.bank_pid(), world.isp_pid(0));
  std::uint64_t safety = 0;
  while (reply_ch.empty() && sched.step()) ASSERT_LT(++safety, 10'000u);
  ASSERT_FALSE(reply_ch.empty());
  ASSERT_EQ(reply_ch.front().type, core::kMsgBuyReply.name());
  (void)reply_ch.pop();  // the adversary drops the reply in transit

  const core::ApIspProcess& isp0 = world.isp(0);
  EXPECT_FALSE(isp0.canbuy);  // the exchange is stuck without recovery

  world.run();

  // The timeout action fired and the retry carried the original nonce: the
  // bank recognized the duplicate and replayed its reply instead of
  // re-applying the trade.
  EXPECT_GE(isp0.buy_retries, 1u);
  EXPECT_GE(world.bank().duplicate_buys, 1u);
  EXPECT_TRUE(isp0.canbuy);
  EXPECT_GE(isp0.avail, p.minavail);
  EXPECT_TRUE(sched.all_channels_empty());
  // Exactly-once accounting: a double mint would break the supply identity.
  EXPECT_EQ(world.total_epennies(),
            initial + world.epennies_minted() - world.epennies_burned());

  // The trace shows the Section 3 shape: timeout fires, then the (replayed)
  // reply is received.
  std::size_t retry_step = 0, reply_step = 0;
  for (const auto& e : sched.trace()) {
    if (e.process != world.isp_pid(0)) continue;
    if (e.action == "buy-retry" && retry_step == 0) retry_step = e.step;
    if (e.action == std::string("rcv ").append(core::kMsgBuyReply.name()) &&
        e.step > retry_step && retry_step != 0 && reply_step == 0)
      reply_step = e.step;
  }
  EXPECT_GT(retry_step, 0u);
  EXPECT_GT(reply_step, retry_step);
}

}  // namespace
}  // namespace zmail::ap
