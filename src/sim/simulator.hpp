// Discrete-event simulator: timestamped callbacks behind a calendar queue.
//
// The AP scheduler models *untimed* nondeterministic interleaving (good for
// protocol safety properties); this simulator models *timed* behaviour —
// network latency, the 10-minute snapshot quiesce of Section 4.4, daily
// `sent` resets, monthly reconciliation — for the quantitative experiments.
//
// Hot-path layout (see DESIGN.md "Hot path"):
//   - events are InlineEvent (48-byte inline storage, heap fallback), so
//     scheduling a delivery allocates nothing;
//   - the queue is a two-level calendar queue: a wheel of fixed-width
//     buckets covering the near future plus an overflow heap for far-out
//     events (daily resets, monthly reconciliation).  Inserting into a
//     bucket is a plain push_back — no comparisons, no event relocations —
//     and a bucket is sorted exactly once, through a small POD key array,
//     when the drain cursor reaches it.  Buckets partition time, so
//     draining them in order yields the global (at, seq) minimum —
//     bit-identical event order to the old single priority queue, which the
//     E12.d 1-vs-N sweep identity check guards end to end.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "sim/inline_event.hpp"
#include "sim/time.hpp"
#include "util/assert.hpp"

namespace zmail::sim {

class Simulator {
 public:
  using EventFn = InlineEvent;

  SimTime now() const noexcept { return now_; }

  // Schedule `fn` to run at absolute time `at` (>= now).  Ties break in
  // insertion order, so the run is deterministic.
  void schedule_at(SimTime at, EventFn fn);
  // Schedule `fn` after a relative delay (>= 0).
  void schedule_after(Duration delay, EventFn fn);

  // Schedule `fn` every `period` (> 0), starting at `first` (defaults to
  // one period from now).  The task repeats while `fn` returns true.
  void schedule_every(Duration period, std::function<bool()> fn,
                      std::optional<SimTime> first = std::nullopt);

  // Run until the queue drains or `until` (inclusive) is passed.
  // Returns the number of events executed.
  std::uint64_t run(SimTime until = INT64_MAX);

  // Execute exactly one event; returns false if the queue is empty or the
  // next event is after `until`.
  bool step(SimTime until = INT64_MAX);

  bool empty() const noexcept { return queue_.empty(); }
  std::size_t pending() const noexcept { return queue_.size(); }
  std::uint64_t events_executed() const noexcept { return executed_; }

  // Calls to the calendar's rebase(): a pop that drains the far-future
  // overflow into an exhausted wheel, or a push behind a wheel that still
  // holds events.  A push that re-anchors an *empty* wheel directly (the
  // event precedes every overflow event) is not counted.  A rebase is where
  // a clock-skew bug would silently reorder events, so the count is
  // surfaced as an obs counter (`calendar_rebase_count`) and the drain path
  // asserts monotonicity on every pop.
  std::uint64_t calendar_rebases() const noexcept {
    return queue_.rebase_count();
  }

 private:
  struct RecurringTask {
    Duration period;
    std::function<bool()> fn;
  };
  void run_recurring(const std::shared_ptr<RecurringTask>& task);

  struct Entry {
    Entry(SimTime a, std::uint64_t s, EventFn f) noexcept
        : at(a), seq(s), fn(std::move(f)) {}

    SimTime at;
    std::uint64_t seq;
    EventFn fn;
  };
  // Heap comparator: std::*_heap build a max-heap, so "greater" yields a
  // min-heap on (at, seq).
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };

  // Two-level calendar queue.  Level 1: `kBuckets` buckets of `kWidth`
  // covering [base, base + kSpan); level 2: an overflow heap for everything
  // at or beyond base + kSpan.  When the wheel has drained, the next pop
  // re-bases it onto the earliest overflow event and eligible events
  // migrate in; a push into an empty wheel that precedes every overflow
  // event re-anchors it onto that push instead.
  //
  // Buckets are unsorted vectors; the entries of the bucket under the drain
  // cursor are ordered through `order_`, a sorted array of {at, seq, index}
  // PODs, built once per bucket.  Popped entries leave a moved-from husk in
  // the bucket (skipped when (re)building the order) so no erase/compact
  // pass ever touches live events.
  class CalendarQueue {
   public:
    bool empty() const noexcept { return size_ == 0; }
    std::size_t size() const noexcept { return size_; }

    // Components are passed through to one emplace into the destination
    // vector, so a schedule costs a single event relocation.  `now` (<= at)
    // bounds every later push from below.
    void push(SimTime at, std::uint64_t seq, EventFn&& fn, SimTime now);
    // Earliest (at, seq) entry, or nullptr when empty.  May advance the
    // bucket cursor, hence non-const; an exhausted wheel is left as it is
    // and the overflow front is returned.
    const Entry* peek();
    // Remove and return the earliest entry; requires !empty().  The only
    // place the wheel is re-based onto the overflow heap.
    Entry pop();

    std::uint64_t rebase_count() const noexcept { return rebases_; }

   private:
    static constexpr std::size_t kBuckets = 256;
    static constexpr SimTime kWidth = kMillisecond;  // per-bucket time slice
    static constexpr SimTime kSpan = static_cast<SimTime>(kBuckets) * kWidth;

    // Drain order of one bucket, sorted without moving the entries.
    struct OrderKey {
      SimTime at;
      std::uint64_t seq;
      std::uint32_t idx;  // position in the bucket vector
    };

    // Overflow-safe "at falls inside the wheel" (base_ may sit near the
    // far end of SimTime).
    bool in_wheel(SimTime at) const noexcept {
      return at >= base_ && at - base_ < kSpan;
    }
    std::size_t bucket_index(SimTime at) const noexcept {
      return static_cast<std::size_t>((at - base_) / kWidth);
    }
    void insert_wheel(SimTime at, std::uint64_t seq, EventFn&& fn);
    // Build `order_` for the cursor bucket, skipping popped husks.
    void sort_bucket();
    // Point the wheel (which must hold no live entries) at `t`'s bucket and
    // migrate newly eligible overflow events in.
    void anchor(SimTime t);
    // Dump the wheel's live entries into the overflow heap, then anchor(t).
    void rebase(SimTime t);

    std::vector<std::vector<Entry>> buckets_{kBuckets};
    std::vector<OrderKey> order_;  // drain order of buckets_[cursor_]
    std::size_t pos_ = 0;          // next undrained index into order_
    bool sorted_ = false;          // order_ currently describes cursor_
    std::vector<Entry> overflow_;  // min-heap under Later
    SimTime base_ = 0;
    std::size_t cursor_ = 0;        // first possibly non-empty bucket
    std::size_t wheel_count_ = 0;   // live entries in the wheel
    std::size_t size_ = 0;
    std::uint64_t rebases_ = 0;
  };

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  CalendarQueue queue_;
};

}  // namespace zmail::sim
