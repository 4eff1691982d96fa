#include "trace/trace.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>

namespace zmail::trace {

const char* ev_name(Ev e) noexcept {
  switch (e) {
    case Ev::kNone: return "none";
    case Ev::kMessage: return "message";
    case Ev::kSubmit: return "submit";
    case Ev::kQuiesceBuffer: return "quiesce_buffer";
    case Ev::kTransit: return "transit";
    case Ev::kTransmit: return "transmit";
    case Ev::kNetSend: return "net_send";
    case Ev::kNetDeliver: return "net_deliver";
    case Ev::kNetDrop: return "net_drop";
    case Ev::kSmtp: return "smtp";
    case Ev::kClassify: return "classify";
    case Ev::kDeliver: return "deliver";
    case Ev::kDiscard: return "discard";
    case Ev::kFilterDrop: return "filter_drop";
    case Ev::kRefuse: return "refuse";
    case Ev::kShed: return "shed";
    case Ev::kDuplicateDrop: return "duplicate_drop";
    case Ev::kRefund: return "refund";
    case Ev::kAck: return "ack";
    case Ev::kBankBuy: return "bank_buy";
    case Ev::kBankSell: return "bank_sell";
    case Ev::kCreditReport: return "credit_report";
    case Ev::kSettle: return "settle";
    case Ev::kSnapshotRound: return "snapshot_round";
    case Ev::kCheckpoint: return "checkpoint";
    case Ev::kRecovery: return "recovery";
    case Ev::kCount: break;
  }
  return "?";
}

namespace detail {
std::atomic<bool> g_enabled{false};
std::atomic<bool> g_profiling{false};
thread_local TraceId t_current = 0;
thread_local bool t_suppressed = false;
thread_local std::int64_t t_sim_us = 0;
}  // namespace detail

namespace {

std::atomic<std::uint64_t> g_next_id{1};
std::atomic<std::uint64_t> g_seq{0};
std::atomic<std::size_t> g_ring_capacity{std::size_t{1} << 16};

std::size_t round_up_pow2(std::size_t n) {
  std::size_t c = 1;
  while (c < n) c <<= 1;
  return c;
}

// One flight-recorder ring per thread.  Single writer (the owning thread);
// readers only run from collect()/clear(), which callers serialize against
// active recording.
struct Ring {
  std::vector<TraceEvent> buf;
  std::size_t mask = 0;
  std::uint64_t head = 0;  // total events ever pushed

  explicit Ring(std::size_t capacity)
      : buf(round_up_pow2(std::max<std::size_t>(capacity, 2))),
        mask(buf.size() - 1) {}

  void push(const TraceEvent& ev) noexcept {
    buf[head & mask] = ev;
    ++head;
  }
  std::uint64_t dropped() const noexcept {
    return head > buf.size() ? head - buf.size() : 0;
  }
};

// Registry owns the rings so events survive thread exit (sweep workers come
// and go; their tails must still be collectible at the end of a run).
std::mutex g_rings_mutex;
std::vector<std::unique_ptr<Ring>>& rings() {
  static std::vector<std::unique_ptr<Ring>> r;
  return r;
}

Ring& thread_ring() {
  thread_local Ring* ring = [] {
    auto owned = std::make_unique<Ring>(
        g_ring_capacity.load(std::memory_order_relaxed));
    Ring* raw = owned.get();
    std::lock_guard<std::mutex> lock(g_rings_mutex);
    rings().push_back(std::move(owned));
    return raw;
  }();
  return *ring;
}

}  // namespace

namespace detail {

void emit_slow(Ev type, Phase phase, TraceId id, std::uint16_t host,
               std::uint64_t arg0, std::uint32_t arg1) noexcept {
  TraceEvent ev;
  ev.seq = g_seq.fetch_add(1, std::memory_order_relaxed);
  ev.sim_us = t_sim_us;
  ev.wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  ev.id = id;
  ev.arg0 = arg0;
  ev.arg1 = arg1;
  ev.host = host;
  ev.type = static_cast<std::uint8_t>(type);
  ev.phase = static_cast<std::uint8_t>(phase);
  thread_ring().push(ev);
}

}  // namespace detail

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
  if (on) detail::g_profiling.store(true, std::memory_order_relaxed);
}

void set_profiling_enabled(bool on) {
  detail::g_profiling.store(on, std::memory_order_relaxed);
}

void set_ring_capacity(std::size_t events) {
  g_ring_capacity.store(std::max<std::size_t>(events, 2),
                        std::memory_order_relaxed);
}

void clear() {
  {
    std::lock_guard<std::mutex> lock(g_rings_mutex);
    // Threads cache raw Ring pointers, so rings cannot be destroyed; reset
    // them in place instead.
    for (auto& r : rings()) {
      r->head = 0;
    }
  }
  g_seq.store(0, std::memory_order_relaxed);
  g_next_id.store(1, std::memory_order_relaxed);
}

std::uint64_t dropped() {
  std::lock_guard<std::mutex> lock(g_rings_mutex);
  std::uint64_t total = 0;
  for (const auto& r : rings()) total += r->dropped();
  return total;
}

std::vector<TraceEvent> collect() {
  std::vector<TraceEvent> out;
  {
    std::lock_guard<std::mutex> lock(g_rings_mutex);
    for (const auto& r : rings()) {
      const std::uint64_t n = std::min<std::uint64_t>(r->head, r->buf.size());
      for (std::uint64_t i = r->head - n; i < r->head; ++i)
        out.push_back(r->buf[i & r->mask]);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.seq < b.seq;
            });
  return out;
}

TraceId next_id() noexcept {
  if (!enabled() || detail::t_suppressed) return 0;
  return g_next_id.fetch_add(1, std::memory_order_relaxed);
}

// --- Profiling --------------------------------------------------------------

void ProfileHistogram::record(std::uint64_t ns) noexcept {
  count_.fetch_add(1, std::memory_order_relaxed);
  total_ns_.fetch_add(ns, std::memory_order_relaxed);
  std::uint64_t cur = min_ns_.load(std::memory_order_relaxed);
  while (ns < cur &&
         !min_ns_.compare_exchange_weak(cur, ns, std::memory_order_relaxed)) {
  }
  cur = max_ns_.load(std::memory_order_relaxed);
  while (ns > cur &&
         !max_ns_.compare_exchange_weak(cur, ns, std::memory_order_relaxed)) {
  }
  std::size_t bucket = 0;
  while (bucket + 1 < kBuckets && (std::uint64_t{1} << (bucket + 1)) <= ns)
    ++bucket;
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
}

void ProfileHistogram::reset() noexcept {
  count_.store(0, std::memory_order_relaxed);
  total_ns_.store(0, std::memory_order_relaxed);
  min_ns_.store(~0ULL, std::memory_order_relaxed);
  max_ns_.store(0, std::memory_order_relaxed);
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

ProfileHistogram::Snapshot ProfileHistogram::snapshot() const noexcept {
  Snapshot s;
  s.count = count_.load(std::memory_order_relaxed);
  s.total_ns = total_ns_.load(std::memory_order_relaxed);
  const std::uint64_t mn = min_ns_.load(std::memory_order_relaxed);
  s.min_ns = (mn == ~0ULL) ? 0 : mn;
  s.max_ns = max_ns_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < kBuckets; ++i)
    s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  return s;
}

double ProfileHistogram::Snapshot::percentile_ns(double p) const noexcept {
  if (count == 0) return 0.0;
  const double target = p * static_cast<double>(count);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += buckets[i];
    if (static_cast<double>(seen) >= target)
      return static_cast<double>(std::uint64_t{1} << (i + 1));
  }
  return static_cast<double>(max_ns);
}

namespace {
std::mutex g_profiles_mutex;
std::map<std::string, std::unique_ptr<ProfileHistogram>>& profile_map() {
  static std::map<std::string, std::unique_ptr<ProfileHistogram>> m;
  return m;
}
}  // namespace

ProfileHistogram& profile(const char* name) {
  std::lock_guard<std::mutex> lock(g_profiles_mutex);
  auto& slot = profile_map()[name];
  if (!slot) slot = std::make_unique<ProfileHistogram>();
  return *slot;
}

json::Value profiles_to_json() {
  json::Value out = json::Value::object();
  std::lock_guard<std::mutex> lock(g_profiles_mutex);
  for (const auto& [name, hist] : profile_map()) {
    const auto s = hist->snapshot();
    if (s.count == 0) continue;
    json::Value h = json::Value::object();
    h["count"] = s.count;
    h["total_ns"] = s.total_ns;
    h["mean_ns"] =
        static_cast<double>(s.total_ns) / static_cast<double>(s.count);
    h["min_ns"] = s.min_ns;
    h["max_ns"] = s.max_ns;
    h["p50_ns"] = s.percentile_ns(0.50);
    h["p99_ns"] = s.percentile_ns(0.99);
    out[name] = std::move(h);
  }
  return out;
}

void reset_profiles() {
  std::lock_guard<std::mutex> lock(g_profiles_mutex);
  for (auto& [name, hist] : profile_map()) hist->reset();
}

}  // namespace zmail::trace
