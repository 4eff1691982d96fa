#include "sim/simulator.hpp"

#include <cinttypes>
#include <cstdio>

#include "trace/trace.hpp"

namespace zmail::sim {

std::string format_time(SimTime t) {
  const std::int64_t days = t / kDay;
  t %= kDay;
  const std::int64_t hours = t / kHour;
  t %= kHour;
  const std::int64_t minutes = t / kMinute;
  t %= kMinute;
  const std::int64_t seconds = t / kSecond;
  const std::int64_t millis = (t % kSecond) / kMillisecond;
  char buf[64];
  std::snprintf(buf, sizeof buf,
                "%" PRId64 "d %02" PRId64 ":%02" PRId64 ":%02" PRId64
                ".%03" PRId64,
                days, hours, minutes, seconds, millis);
  return buf;
}

// --- CalendarQueue ---------------------------------------------------------

void Simulator::CalendarQueue::insert_wheel(SimTime at, std::uint64_t seq,
                                            EventFn&& fn) {
  const std::size_t idx = bucket_index(at);
  auto& b = buckets_[idx];
  if (idx == cursor_ && sorted_) {
    // Insert into the bucket currently being drained: splice the key into
    // the undrained tail of the order array (indices only, events don't
    // move).
    const OrderKey key{at, seq, static_cast<std::uint32_t>(b.size())};
    const auto it = std::lower_bound(
        order_.begin() + static_cast<std::ptrdiff_t>(pos_), order_.end(), key,
        [](const OrderKey& a, const OrderKey& c) noexcept {
          return a.at != c.at ? a.at < c.at : a.seq < c.seq;
        });
    order_.insert(it, key);
  } else if (idx < cursor_) {
    // An insert can land before the cursor when a peek advanced it past
    // empty buckets without executing anything (e.g. step() bounded by
    // `until`).  Any drain order held for the old cursor bucket is rebuilt
    // when the cursor returns there.
    cursor_ = idx;
    sorted_ = false;
  }
  b.emplace_back(at, seq, std::move(fn));
  ++wheel_count_;
}

void Simulator::CalendarQueue::push(SimTime at, std::uint64_t seq,
                                    EventFn&& fn, SimTime now) {
  ++size_;
  if (!in_wheel(at)) {
    if (wheel_count_ == 0 &&
        (overflow_.empty() || at < overflow_.front().at)) {
      // Empty wheel and the new event precedes every overflow event:
      // re-anchor directly.  This is the common shape of an open loop —
      // run(until) over a gap leaves the wheel drained and the next send
      // lands well before the next far-out task — so the all-bucket dump of
      // rebase() is never needed here.  The anchor is `now` when the event
      // fits in the span from there: no later push can fall behind it.
      anchor(at - (now - now % kWidth) < kSpan ? now : at);
    } else if (at >= base_) {  // beyond the wheel
      overflow_.emplace_back(at, seq, std::move(fn));
      std::push_heap(overflow_.begin(), overflow_.end(), Later{});
      return;
    } else {
      rebase(at);  // rare: an event behind a wheel that still holds events
    }
  }
  insert_wheel(at, seq, std::move(fn));
}

void Simulator::CalendarQueue::sort_bucket() {
  const auto& b = buckets_[cursor_];
  order_.clear();
  for (std::uint32_t i = 0; i < b.size(); ++i)
    if (b[i].fn) order_.push_back(OrderKey{b[i].at, b[i].seq, i});
  std::sort(order_.begin(), order_.end(),
            [](const OrderKey& a, const OrderKey& c) noexcept {
              return a.at != c.at ? a.at < c.at : a.seq < c.seq;
            });
  pos_ = 0;
  sorted_ = true;
}

void Simulator::CalendarQueue::anchor(SimTime t) {
  cursor_ = 0;
  sorted_ = false;
  base_ = t - (t % kWidth);
  while (!overflow_.empty() && in_wheel(overflow_.front().at)) {
    std::pop_heap(overflow_.begin(), overflow_.end(), Later{});
    Entry e = std::move(overflow_.back());
    overflow_.pop_back();
    insert_wheel(e.at, e.seq, std::move(e.fn));
  }
}

void Simulator::CalendarQueue::rebase(SimTime t) {
  ZMAIL_PROF_SCOPE("sim.calendar_rebase");
  ++rebases_;
  // A rebase must never move the anchor backwards past live entries: every
  // event still pending sits at or beyond the rebase target (the caller
  // passes either the earliest overflow timestamp or a fresh push earlier
  // than the current base).  If this fires, some schedule produced a
  // timestamp before an already-drained instant — the silent-reordering bug
  // the monotonicity assert in step() exists to catch.
  ZMAIL_ASSERT_MSG(overflow_.empty() || overflow_.front().at >= t ||
                       t <= base_,
                   "calendar rebase would skip pending overflow events");
  // Dump the wheel's live entries into the overflow heap, re-anchor,
  // migrate eligibles.  A drained wheel (the steady state of sparse,
  // coarser-than-the-span schedules, e.g. daily resets) skips the bucket
  // scan and the re-heapify entirely — the overflow heap is already valid.
  if (wheel_count_ > 0) {
    // Live entries only ever sit at or beyond the cursor; earlier buckets
    // were cleared as they drained.
    for (std::size_t i = cursor_; i < kBuckets; ++i) {
      auto& b = buckets_[i];
      for (auto& e : b)
        if (e.fn) overflow_.push_back(std::move(e));
      b.clear();
    }
    std::make_heap(overflow_.begin(), overflow_.end(), Later{});
    wheel_count_ = 0;
  }
  anchor(t);
}

const Simulator::Entry* Simulator::CalendarQueue::peek() {
  for (;;) {
    if (sorted_) {
      if (pos_ < order_.size())
        return &buckets_[cursor_][order_[pos_].idx];
      // Bucket drained (or it held only husks): release it and move on.
      buckets_[cursor_].clear();
      sorted_ = false;
      ++cursor_;
      continue;
    }
    if (wheel_count_ == 0) break;
    ZMAIL_ASSERT(cursor_ < kBuckets);
    if (buckets_[cursor_].empty()) {
      ++cursor_;
      continue;
    }
    sort_bucket();
  }
  // Wheel exhausted: everything pending sits in the overflow heap.  Its
  // front is the minimum; the wheel stays where it is until pop() needs it,
  // so a bounded step() that stops here re-anchors nothing.
  return overflow_.empty() ? nullptr : &overflow_.front();
}

Simulator::Entry Simulator::CalendarQueue::pop() {
  ZMAIL_ASSERT(size_ > 0);
  peek();
  if (wheel_count_ == 0) {
    rebase(overflow_.front().at);
    peek();
  }
  // peek() leaves the cursor on a sorted bucket whose order_[pos_] is the
  // earliest entry.
  Entry e = std::move(buckets_[cursor_][order_[pos_].idx]);
  ++pos_;
  --wheel_count_;
  --size_;
  return e;
}

// --- Simulator -------------------------------------------------------------

void Simulator::schedule_at(SimTime at, EventFn fn) {
  ZMAIL_ASSERT_MSG(at >= now_, "cannot schedule into the past");
  ZMAIL_ASSERT_MSG(static_cast<bool>(fn), "cannot schedule an empty event");
  queue_.push(at, next_seq_++, std::move(fn), now_);
}

void Simulator::schedule_after(Duration delay, EventFn fn) {
  ZMAIL_ASSERT(delay >= 0);
  schedule_at(now_ + delay, std::move(fn));
}

void Simulator::schedule_every(Duration period, std::function<bool()> fn,
                               std::optional<SimTime> first) {
  ZMAIL_ASSERT_MSG(period > 0, "recurring task needs a positive period");
  const SimTime start = first.value_or(now_ + period);
  ZMAIL_ASSERT(start >= now_);
  auto task = std::make_shared<RecurringTask>(RecurringTask{period, std::move(fn)});
  schedule_at(start, [this, task] { run_recurring(task); });
}

void Simulator::run_recurring(const std::shared_ptr<RecurringTask>& task) {
  if (task->fn()) schedule_after(task->period, [this, task] { run_recurring(task); });
}

bool Simulator::step(SimTime until) {
  const Entry* top = queue_.peek();
  if (top == nullptr || top->at > until) return false;
  Entry e = queue_.pop();
  // Monotonicity: the calendar queue must hand events back in global
  // (at, seq) order.  A violation here means a rebase or bucket-cursor bug
  // reordered the timeline — fail loudly instead of corrupting causality.
  ZMAIL_ASSERT_MSG(e.at >= now_, "calendar queue returned a past event");
  now_ = e.at;
  ++executed_;
  // Publish the clock for trace-event stamping before dispatch; guarded so
  // the disabled hot path pays only the enabled() load.
  if (trace::enabled()) trace::set_sim_now(now_);
  // Dispatch is the tightest loop in the repo (~10ns/event in the cascade
  // bench), so even the timer's static-init guard is kept off the
  // profiling-disabled path.
  if (trace::profiling_enabled()) {
    ZMAIL_PROF_SCOPE("sim.dispatch");
    e.fn();
  } else {
    e.fn();
  }
  return true;
}

std::uint64_t Simulator::run(SimTime until) {
  std::uint64_t n = 0;
  while (step(until)) ++n;
  // When a finite horizon was requested, the clock advances to it even if
  // the queue drained early; an open-ended run leaves the clock at the last
  // event.
  if (until != INT64_MAX && now_ < until) now_ = until;
  return n;
}

}  // namespace zmail::sim
