// Hot-path regression tests for the calendar queue and InlineEvent: the
// rewritten simulator must replay events in exactly the (at, seq) order the
// old single priority queue produced, and the inline storage must hold every
// closure shape the network schedules without touching the heap.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "sim/inline_event.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace zmail::sim {
namespace {

// --- Calendar queue ordering ---------------------------------------------

// 10k schedules at random times spanning sub-bucket ties, in-wheel spread,
// and far-overflow outliers; execution order must equal a stable sort by
// (at, insertion order) — the contract the old heap provided.
TEST(CalendarQueueTest, MatchesReferenceOrderOnRandomSchedules) {
  Simulator sim;
  Rng rng(123);
  constexpr int kN = 10000;
  std::vector<std::pair<SimTime, int>> expected;  // (at, id)
  std::vector<int> executed;
  executed.reserve(kN);
  for (int i = 0; i < kN; ++i) {
    SimTime at;
    switch (rng.next_u64() % 4) {
      case 0:  // dense ties inside one bucket
        at = static_cast<SimTime>(rng.next_u64() % 16);
        break;
      case 1:  // within the wheel span
        at = static_cast<SimTime>(rng.next_u64() % (200 * kMillisecond));
        break;
      case 2:  // beyond the wheel: overflow heap
        at = static_cast<SimTime>(rng.next_u64() % (90 * kDay));
        break;
      default:  // bucket-boundary values
        at = static_cast<SimTime>((rng.next_u64() % 512) * kMillisecond);
        break;
    }
    expected.emplace_back(at, i);
    sim.schedule_at(at, [&executed, i] { executed.push_back(i); });
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  sim.run();
  ASSERT_EQ(executed.size(), expected.size());
  for (int i = 0; i < kN; ++i) EXPECT_EQ(executed[i], expected[i].second);
}

// Cascading schedules (each event schedules the next) repeatedly re-base the
// wheel as simulated time crosses its span; ordering and timestamps must
// survive the migrations.
TEST(CalendarQueueTest, CascadeAcrossWheelRebasesKeepsTime) {
  Simulator sim;
  std::vector<SimTime> fired;
  // Far outlier sits in overflow from the start and must come out last.
  bool outlier_ran = false;
  sim.schedule_at(400 * kDay, [&] { outlier_ran = true; });
  struct Chain {
    Simulator& sim;
    std::vector<SimTime>& fired;
    int left;
    void operator()() {
      fired.push_back(sim.now());
      if (--left > 0)
        sim.schedule_after(7 * kHour + 13 * kMinute + 1, Chain{sim, fired, left});
    }
  };
  sim.schedule_at(0, Chain{sim, fired, 200});
  sim.run();
  ASSERT_EQ(fired.size(), 200u);
  for (std::size_t i = 1; i < fired.size(); ++i)
    EXPECT_EQ(fired[i] - fired[i - 1], 7 * kHour + 13 * kMinute + 1);
  EXPECT_TRUE(outlier_ran);
}

// Scheduling "behind" the wheel cursor (at == now, earlier bucket already
// drained) must still run before later events.
TEST(CalendarQueueTest, ImmediateEventDuringDrainRunsFirst) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(5 * kMillisecond, [&] {
    order.push_back(1);
    sim.schedule_at(sim.now(), [&] { order.push_back(2); });
  });
  sim.schedule_at(9 * kMillisecond, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// The open-loop shape of a mail day: a recurring 5-minute poll waits in the
// overflow heap while run(until) alternates with sends scheduled 20-40 ms
// out.  After a short gap a send is still pending when run() stops, its
// bounded peek having moved the cursor up to that send's bucket, and the
// next push lands behind it.  The order must be the stable (at, insertion)
// order.  peek() never re-bases and a push into an empty wheel re-anchors
// it directly, so rebases stay rare; the shape is deterministic, so the
// count is exact.
struct OpenLoop {
  Simulator sim;
  std::vector<std::pair<SimTime, int>> expected;  // (at, insertion id)
  std::vector<int> executed;

  void push(SimTime at, bool poll) {
    const int id = static_cast<int>(expected.size());
    expected.emplace_back(at, id);
    sim.schedule_at(at, [this, id, poll] {
      executed.push_back(id);
      if (poll) push(sim.now() + 5 * kMinute, true);
    });
  }
};

TEST(CalendarQueueTest, OpenLoopSendsAroundRecurringPollRebaseRarely) {
  OpenLoop w;
  Rng rng(20);
  w.push(5 * kMinute, /*poll=*/true);
  constexpr int kOps = 30000;
  SimTime t = 0;
  SimTime last_send = 0;
  int behind_pending = 0;
  for (int op = 0; op < kOps; ++op) {
    // Gaps of 0-600 ms (a 300k-email day averages ~290 ms), one in eight
    // under 25 ms.
    const std::uint64_t gap_ms =
        rng.next_below(8) == 0 ? rng.next_below(25) : rng.next_below(600);
    t += static_cast<SimTime>(gap_ms) * kMillisecond;
    w.sim.run(t);
    const SimTime at =
        t + static_cast<SimTime>(20 + rng.next_below(21)) * kMillisecond;
    if (last_send > t && at < last_send) ++behind_pending;
    last_send = std::max(last_send, at);
    w.push(at, /*poll=*/false);
  }
  w.sim.run(t + kSecond);
  EXPECT_GT(behind_pending, 100);  // the shape really pushes behind a send

  std::stable_sort(
      w.expected.begin(), w.expected.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  // The poll still pending past the horizon never ran.
  while (!w.expected.empty() && w.expected.back().first > w.sim.now())
    w.expected.pop_back();
  ASSERT_EQ(w.executed.size(), w.expected.size());
  for (std::size_t i = 0; i < w.executed.size(); ++i)
    ASSERT_EQ(w.executed[i], w.expected[i].second) << "position " << i;
  EXPECT_LE(w.sim.calendar_rebases() * 100, static_cast<std::uint64_t>(kOps))
      << w.sim.calendar_rebases() << " rebases";
}

TEST(SimulatorTest, ScheduleEveryOptionalFirst) {
  Simulator sim;
  std::vector<SimTime> ticks;
  int left = 3;
  sim.schedule_every(
      10 * kSecond,
      [&] {
        ticks.push_back(sim.now());
        return --left > 0;
      },
      /*first=*/SimTime{2 * kSecond});
  sim.run();
  EXPECT_EQ(ticks, (std::vector<SimTime>{2 * kSecond, 12 * kSecond,
                                         22 * kSecond}));

  // Default first = now + period.
  std::vector<SimTime> defaults;
  int n = 2;
  sim.schedule_every(kSecond, [&] {
    defaults.push_back(sim.now());
    return --n > 0;
  });
  sim.run();
  ASSERT_EQ(defaults.size(), 2u);
  EXPECT_EQ(defaults[0], sim.now() - kSecond);
}

// --- InlineEvent ----------------------------------------------------------

TEST(InlineEventTest, SmallCaptureStaysInline) {
  int hits = 0;
  int* p = &hits;
  InlineEvent e([p] { ++*p; });
  EXPECT_TRUE(e.is_inline());
  e();
  EXPECT_EQ(hits, 1);
}

TEST(InlineEventTest, DeliveryShapedCaptureStaysInline) {
  // The network's delivery closure: a pointer plus a slot index.  This must
  // never fall back to the heap or the whole design is moot.
  struct Fake {
    std::uint64_t sum = 0;
  } fake;
  const std::uint32_t slot = 7;
  InlineEvent e([f = &fake, slot] { f->sum += slot; });
  EXPECT_TRUE(e.is_inline());
  // Capture at the 48-byte boundary still fits.
  struct Big {
    unsigned char bytes[InlineEvent::kInlineSize] = {};
  } big;
  InlineEvent at_limit([big]() mutable { big.bytes[0] = 1; });
  EXPECT_TRUE(at_limit.is_inline());
  e();
  EXPECT_EQ(fake.sum, 7u);
}

TEST(InlineEventTest, OversizedCaptureFallsBackToHeap) {
  struct Huge {
    unsigned char bytes[InlineEvent::kInlineSize + 1] = {};
  } huge;
  huge.bytes[0] = 42;
  int seen = -1;
  InlineEvent e([huge, &seen] { seen = huge.bytes[0]; });
  EXPECT_FALSE(e.is_inline());
  e();
  EXPECT_EQ(seen, 42);
}

TEST(InlineEventTest, MoveTransfersOwnershipAndState) {
  // A move-only capture with a destructor-visible side effect: exactly one
  // live copy must exist at any time and it must run from the moved-to slot.
  auto counter = std::make_shared<int>(0);
  InlineEvent a([counter] { ++*counter; });
  InlineEvent b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(*counter, 1);

  InlineEvent c;
  c = std::move(b);
  c();
  EXPECT_EQ(*counter, 2);
  // a, b released their captures on move: only c (and our local) remain.
  EXPECT_EQ(counter.use_count(), 2);
}

TEST(InlineEventTest, DestructionReleasesCapture) {
  auto tracker = std::make_shared<int>(7);
  {
    InlineEvent e([tracker] { ++*tracker; });
    EXPECT_EQ(tracker.use_count(), 2);
  }
  EXPECT_EQ(tracker.use_count(), 1);

  {
    struct Huge {
      std::shared_ptr<int> p;
      unsigned char pad[64] = {};
    };
    InlineEvent e(
        [h = Huge{tracker, {}}] { ++*h.p; });
    EXPECT_FALSE(e.is_inline());
    EXPECT_EQ(tracker.use_count(), 2);
  }
  EXPECT_EQ(tracker.use_count(), 1);
}

}  // namespace
}  // namespace zmail::sim
