// The acknowledged link: a frame is applied at most once whatever the
// network does to its copies, and a frame its handler declines comes back
// until it is accepted.  The first cases drive core::Link over a bare
// three-host network and tamper with copies by hand; the last ones run it
// inside ZmailSystem, where paid email rides it under
// reliable_email_transport and the settlement plane under retry.enabled.
#include "core/link.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "core/invariants.hpp"
#include "core/system.hpp"
#include "net/faults.hpp"

namespace zmail::core {
namespace {

// Hosts 0, 1 and 2.  Every host opens the frames it receives and hands new
// ones to its handler, which declines the first declines[h] copies and
// accepts the rest; accepted payloads are recorded per host.
class LinkTest : public ::testing::Test {
 protected:
  LinkTest() {
    for (std::size_t h = 0; h < 3; ++h)
      net_.add_host(std::string("h").append(std::to_string(h)),
                    [this, h](const net::Datagram& d) { on_datagram(h, d); });
  }

  void send(std::size_t from, std::size_t to, std::uint8_t tag) {
    Link::Frame f;
    f.from = from;
    f.to = to;
    f.type = wire_type();
    f.payload = {tag, tag, tag};
    link_.send(std::move(f));
  }

  // Puts a copy of `bytes` on the network as if it were the frame `d`.
  void replay(const net::Datagram& d, crypto::Bytes bytes) {
    net_.send(d.from, d.to, d.type, std::move(bytes));
  }

  void run(sim::Duration d) { sim_.run(sim_.now() + d); }

  static net::MsgType wire_type() {
    static const net::MsgType t = net::MsgType::intern("link-test-wire");
    return t;
  }

  sim::Simulator sim_;
  net::Network net_{sim_, Rng(5), net::LatencyModel{}};
  std::uint64_t timeouts_ = 0;
  Link link_{sim_, net_, [this](const Link::Frame&) { ++timeouts_; }};
  int declines_[3] = {0, 0, 0};
  std::vector<crypto::Bytes> applied_[3];
  std::vector<net::Datagram> frames_;  // every frame copy that arrived
  std::vector<Link::Frame> completed_;

 private:
  void on_datagram(std::size_t h, const net::Datagram& d) {
    if (d.type == Link::control_ack()) {
      if (auto f = link_.on_ack(h, d)) completed_.push_back(std::move(*f));
      return;
    }
    frames_.push_back(d);
    const Link::Rx rx = link_.receive(h, d);
    if (rx.status != Link::Rx::kNew) return;
    if (declines_[h] > 0) {
      --declines_[h];
      return;
    }
    applied_[h].emplace_back(rx.payload.begin(), rx.payload.end());
    link_.accept(h, d, rx.seq);
  }
};

TEST_F(LinkTest, AFrameIsAppliedOnceAndItsAckCompletesIt) {
  send(0, 1, 7);
  run(sim::kSecond);
  ASSERT_EQ(applied_[1].size(), 1u);
  EXPECT_EQ(applied_[1][0], crypto::Bytes({7, 7, 7}));
  ASSERT_EQ(completed_.size(), 1u);
  EXPECT_EQ(completed_[0].to, 1u);
  EXPECT_EQ(completed_[0].attempts, 1u);
  EXPECT_EQ(link_.pending(), 0u);
  EXPECT_EQ(link_.stats().acks, 1u);
  run(2 * sim::kMinute);  // the frame's timer fires as a no-op
  EXPECT_EQ(timeouts_, 0u);
  EXPECT_EQ(link_.stats().retransmits, 0u);
}

TEST_F(LinkTest, ADuplicatedFrameIsReackedAndNotAppliedAgain) {
  send(0, 1, 7);
  run(sim::kSecond);
  ASSERT_EQ(frames_.size(), 1u);
  const net::Datagram copy = frames_[0];
  replay(copy, copy.payload);
  replay(copy, copy.payload);
  run(sim::kSecond);
  EXPECT_EQ(applied_[1].size(), 1u);
  EXPECT_EQ(link_.stats().duplicates, 2u);
  EXPECT_EQ(link_.stats().acks, 3u);  // the first ack and two re-acks
  EXPECT_EQ(completed_.size(), 1u);   // the re-acks complete nothing more
}

TEST_F(LinkTest, CorruptedTruncatedAndMangledFramesAreDroppedUnacked) {
  // Frame 1 is held back by its handler, so each tampered copy below
  // carries the number of a frame that was never accepted.
  declines_[1] = 1;
  send(0, 1, 7);
  run(100 * sim::kMillisecond);
  ASSERT_EQ(frames_.size(), 1u);
  const net::Datagram good = frames_[0];
  EXPECT_TRUE(applied_[1].empty());

  crypto::Bytes corrupted = good.payload;
  corrupted.back() ^= 0x10;  // a payload bit
  crypto::Bytes truncated(good.payload.begin(), good.payload.end() - 1);
  crypto::Bytes short_header(good.payload.begin(), good.payload.begin() + 20);
  crypto::Bytes mangled = good.payload;
  mangled[7] ^= 0x01;  // the sequence number
  crypto::Bytes mangled_guard = good.payload;
  mangled_guard[15] ^= 0x01;  // its guarded copy
  for (crypto::Bytes* b :
       {&corrupted, &truncated, &short_header, &mangled, &mangled_guard})
    replay(good, *b);
  run(100 * sim::kMillisecond);
  EXPECT_TRUE(applied_[1].empty());
  EXPECT_EQ(link_.stats().acks, 0u);
  EXPECT_EQ(link_.pending(), 1u);

  // The clean retransmit is the one that lands, once.
  run(2 * sim::kSecond);
  ASSERT_EQ(applied_[1].size(), 1u);
  EXPECT_EQ(applied_[1][0], crypto::Bytes({7, 7, 7}));
  EXPECT_EQ(link_.pending(), 0u);
}

TEST_F(LinkTest, AnAckFromTheWrongHostCompletesNothing) {
  // 0 -> 2 is accepted, and its ack (sequence number 1) is kept.  Then
  // 0 -> 1 frame 1 is declined for a while, and 2's ack arrives again:
  // it names channel 0 -> 2, so frame 1 to host 1 stays pending.
  send(0, 2, 9);
  run(sim::kSecond);
  ASSERT_EQ(completed_.size(), 1u);
  net_.add_host("h3", [](const net::Datagram&) {});
  declines_[1] = 2;
  send(0, 1, 7);
  run(100 * sim::kMillisecond);
  ASSERT_EQ(link_.pending(), 1u);
  // An ack for sequence number 1, from host 2 (the wrong host) and from a
  // host the frame never went to.
  const net::Datagram& to_host1 = frames_.back();
  crypto::Bytes fake(to_host1.payload.begin(), to_host1.payload.begin() + 16);
  net_.send(2, 0, Link::control_ack(), crypto::Bytes(fake));
  net_.send(3, 0, Link::control_ack(), crypto::Bytes(fake));
  run(100 * sim::kMillisecond);
  EXPECT_EQ(completed_.size(), 1u);
  EXPECT_EQ(link_.pending(), 1u);
  // A mangled ack from the right host is ignored too.
  fake[3] ^= 0x40;
  net_.send(1, 0, Link::control_ack(), std::move(fake));
  run(100 * sim::kMillisecond);
  EXPECT_EQ(link_.pending(), 1u);

  run(5 * sim::kSecond);
  ASSERT_EQ(applied_[1].size(), 1u);
  EXPECT_EQ(completed_.size(), 2u);
  EXPECT_EQ(completed_.back().to, 1u);
}

TEST_F(LinkTest, ADeclinedFrameIsRetransmittedUntilAccepted) {
  declines_[1] = 4;
  send(0, 1, 7);
  run(sim::kMinute);
  ASSERT_EQ(applied_[1].size(), 1u);
  EXPECT_EQ(frames_.size(), 5u);  // four declined copies, then the accepted
  EXPECT_EQ(timeouts_, 4u);
  EXPECT_EQ(link_.stats().retransmits, 4u);
  EXPECT_EQ(link_.stats().acks, 1u);
  ASSERT_EQ(completed_.size(), 1u);
  EXPECT_EQ(completed_[0].attempts, 5u);
  EXPECT_EQ(link_.pending(), 0u);
}

TEST_F(LinkTest, AnOldDuplicateIsDroppedAfterTheWindowHasMovedPastIt) {
  const std::size_t n = Link::kWindow + 10;
  for (std::size_t k = 0; k < n; ++k) send(0, 1, static_cast<std::uint8_t>(k));
  run(sim::kSecond);
  ASSERT_EQ(applied_[1].size(), n);
  ASSERT_EQ(link_.pending(), 0u);
  const net::Datagram first = frames_.front();
  replay(first, first.payload);
  run(sim::kSecond);
  EXPECT_EQ(applied_[1].size(), n);
  EXPECT_EQ(link_.stats().duplicates, 1u);
  EXPECT_EQ(link_.stats().acks, n + 1);
}

TEST_F(LinkTest, AFrameBeyondTheWindowWaitsForTheWindowToCatchUp) {
  // Frame 1 is declined at first, so the window's base stays at 0: frames
  // 2 .. kWindow are accepted above it, and the later ones wait unacked.
  declines_[1] = 1;
  const std::size_t n = Link::kWindow + 5;
  for (std::size_t k = 0; k < n; ++k) send(0, 1, static_cast<std::uint8_t>(k));
  run(400 * sim::kMillisecond);  // every copy in, no RTO expired yet
  EXPECT_EQ(applied_[1].size(), Link::kWindow - 1);
  EXPECT_EQ(link_.pending(), n - (Link::kWindow - 1));
  // Frame 1's retransmit slides the base past everything accepted; the
  // waiting frames come back on their own timers.
  run(sim::kMinute);
  EXPECT_EQ(applied_[1].size(), n);
  EXPECT_EQ(link_.pending(), 0u);
  EXPECT_EQ(link_.stats().duplicates, 0u);
}

// --- Inside ZmailSystem -----------------------------------------------------

// Two ISPs whose first trading poll buys maxavail - initial_avail = 190
// e-pennies each, with the settlement plane on the link.
ZmailParams trading_params() {
  ZmailParams p;
  p.n_isps = 2;
  p.users_per_isp = 3;
  p.initial_avail = 10;
  p.minavail = 100;
  p.maxavail = 200;
  p.retry.enabled = true;
  return p;
}

TEST(LinkSystem, ALostBuyReplyIsRetransmittedAndTheBuyAppliedOnce) {
  ZmailSystem sys(trading_params(), 103);
  net::FaultPlan plan;
  plan.rates.drop = 1.0;
  plan.only_types = {net::kMsgBuyReply};
  net::FaultInjector faults(plan, 7);
  sys.attach_faults(&faults);
  sys.enable_bank_trading(sim::kMinute);
  sys.run_for(sim::kMinute + 10 * sim::kSecond);  // every reply copy lost
  EXPECT_TRUE(sys.isp(0).bank_exchange_pending());
  EXPECT_GT(sys.bank().metrics().trade_reply_retries, 0u);
  EXPECT_EQ(sys.total_isp_metrics().bank_retries, 0u);  // the buys were acked

  sys.attach_faults(nullptr);
  sys.run_for(sim::kMinute);
  const BankMetrics m = sys.bank().metrics();
  EXPECT_EQ(m.buys_received, 2u);
  EXPECT_EQ(m.buys_accepted, 2u);
  EXPECT_EQ(m.duplicate_buys, 0u);
  EXPECT_EQ(m.epennies_minted, 380);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_FALSE(sys.isp(i).bank_exchange_pending());
    EXPECT_EQ(sys.isp(i).avail(), 200);
  }
  EXPECT_EQ(sys.pending_transfers(), 0u);
  EXPECT_TRUE(sys.conservation_holds());
}

TEST(LinkSystem, ALostEmailAckIsRetransmittedAndTheEmailDeliveredOnce) {
  // Every ack of the one paid email is lost for ten minutes.  The sender
  // never gives up: its copies keep arriving, each is dropped as a
  // duplicate and acked again, and the first ack after the heal completes
  // the transfer.  Sender and receiver must agree that exactly one
  // e-penny moved, and the next snapshot round must find the pair
  // consistent.
  ZmailParams p;
  p.n_isps = 2;
  p.users_per_isp = 3;
  p.reliable_email_transport = true;
  ZmailSystem sys(p, 17);
  InvariantAuditor auditor(sys);
  net::FaultPlan plan;
  plan.rates.drop = 1.0;
  plan.only_types = {Link::email_ack()};
  net::FaultInjector faults(plan, 7);
  sys.attach_faults(&faults);
  ASSERT_EQ(sys.send_email(net::make_user_address(0, 0),
                           net::make_user_address(1, 0), "s", "b"),
            SendResult::kSentPaid);
  sys.run_for(10 * sim::kMinute);
  EXPECT_EQ(sys.pending_transfers(), 1u);
  EXPECT_EQ(sys.epennies_in_flight(), 0);  // delivered, only the ack lost

  sys.attach_faults(nullptr);
  sys.run_for(2 * sim::kMinute);
  const IspMetrics m = sys.total_isp_metrics();
  EXPECT_EQ(m.emails_sent_compliant, 1u);
  EXPECT_EQ(m.emails_received_compliant, 1u);
  EXPECT_EQ(m.emails_delivered, 1u);
  // Transmissions at 0, 0.5, 1.5, 3.5 ... 63.5 s, then every 60 s up to
  // 603.5 s, the first one after the heal: 16 copies after the first.
  EXPECT_EQ(m.duplicate_emails_dropped, 16u);
  EXPECT_EQ(m.emails_retransmitted, 16u);
  EXPECT_EQ(m.emails_refunded, 0u);
  EXPECT_EQ(sys.pending_transfers(), 0u);
  EXPECT_EQ(sys.epennies_in_flight(), 0);
  EXPECT_EQ(sys.isp(0).user(0).balance, 49);
  EXPECT_EQ(sys.isp(1).user(0).balance, 51);
  EXPECT_TRUE(sys.conservation_holds());
  auditor.check_now();
  EXPECT_TRUE(auditor.report().ok())
      << (auditor.report().messages.empty() ? ""
                                            : auditor.report().messages.front());

  sys.start_snapshot();
  sys.run_for(30 * sim::kMinute);
  EXPECT_EQ(sys.bank().metrics().snapshot_rounds, 1u);
  EXPECT_EQ(sys.bank().metrics().inconsistent_pairs_found, 0u);
}

TEST(LinkSystem, AnIspRebuiltFromItsStoreCompletesItsOutstandingBuy) {
  const std::string dir = "core_link_test_rebuilt_isp";
  std::filesystem::remove_all(dir);
  ZmailParams p = trading_params();
  p.store.enabled = true;
  p.store.dir = dir;
  p.store.fsync_data = false;
  {
    ZmailSystem sys(p, 211);
    sys.enable_bank_trading(sim::kMinute);
    sys.run_for(sim::kMinute);  // the first poll sends both buys
    ASSERT_TRUE(sys.isp(0).bank_exchange_pending());
    // ISP 0 dies with its buy on the wire: the bank's ack and reply are
    // lost with it, and it comes back from snapshot + WAL replay.
    sys.crash_host(0, 20 * sim::kMinute);
    sys.run_for(30 * sim::kMinute);

    EXPECT_EQ(sys.state_recoveries(), 1u);
    EXPECT_FALSE(sys.isp(0).bank_exchange_pending());
    EXPECT_EQ(sys.isp(0).avail(), 200);
    const BankMetrics m = sys.bank().metrics();
    EXPECT_EQ(m.buys_received, 2u);
    EXPECT_EQ(m.buys_accepted, 2u);
    EXPECT_EQ(m.epennies_minted, 380);
    EXPECT_GT(m.trade_reply_retries, 0u);
    EXPECT_GT(sys.isp(0).metrics().bank_retries, 0u);
    EXPECT_EQ(sys.pending_transfers(), 0u);
    EXPECT_TRUE(sys.conservation_holds());
  }
  std::filesystem::remove_all(dir);
}

TEST(LinkSystem, AStoreResumesOnlyFromAQuietPoint) {
  // The link's frames are not persisted: a store whose ISPs stopped with
  // their buys on the wire is refused, and one stopped after the buys
  // completed resumes them.
  const std::string dir = "core_link_test_reopened";
  ZmailParams p = trading_params();
  p.store.enabled = true;
  p.store.dir = dir;
  p.store.fsync_data = false;
  for (const bool quiet : {false, true}) {
    std::filesystem::remove_all(dir);
    {
      ZmailSystem sys(p, 211);
      sys.enable_bank_trading(sim::kMinute);
      sys.run_for(sim::kMinute);  // the first poll sends both buys
      ASSERT_TRUE(sys.isp(0).bank_exchange_pending());
      if (quiet) sys.run_for(sim::kSecond);
      ASSERT_EQ(sys.isp(0).bank_exchange_pending(), !quiet);
    }  // the process exits
    if (!quiet) {
      EXPECT_DEATH({ ZmailSystem reopened(p, 211); }, "quiet point");
      continue;
    }
    ZmailSystem reopened(p, 211);
    EXPECT_FALSE(reopened.isp(0).bank_exchange_pending());
    EXPECT_EQ(reopened.isp(0).avail(), 200);
    EXPECT_EQ(reopened.bank().metrics().epennies_minted, 380);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace zmail::core
