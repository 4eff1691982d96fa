// zmail::trace — end-to-end causal tracing and hot-path profiling.
//
// Three cooperating pieces (see DESIGN.md "Tracing & profiling"):
//
//   1. Lifecycle spans.  A TraceId is minted when a message enters the
//      system (core::ZmailSystem::send_email) and follows it everywhere:
//      through net::EmailMessage (an optional serialized tail that only
//      exists for traced messages), through the Dapper-style implicit
//      context (trace::Scope) that net::Network stamps onto every datagram
//      and restores around every delivery handler, and through the ARQ /
//      bank-exchange / store machinery which each mint their own ids for
//      non-message work.  One email's full causal chain — submit, quiesce
//      buffering, retransmits, SMTP transfer, classification, delivery,
//      even crash recovery in between — is reconstructible from
//      the event log by trace::analyze().
//
//   2. The flight recorder.  A fixed-capacity per-thread ring buffer of
//      POD TraceEvents stamped with sim-time *and* wall-time.  The hot
//      path takes no lock: each thread writes its own ring (registered
//      once, under a mutex, on first use) and ordering across threads
//      comes from a relaxed global sequence counter.  Old events are
//      overwritten, magic-trace style, so tracing can stay on for long
//      runs and the tail is always available.
//
//   3. Profiling hooks.  Named log2-bucketed nanosecond histograms fed by
//      ScopedTimer; the simulator's event dispatch, calendar-queue
//      rebase, crypto seal/unseal, and WAL sync report here.
//
// Zero-cost-off contract: everything is runtime-off by default — the only
// cost a disabled build pays is a relaxed atomic load and a predictable
// branch per call site (plus one u64 copy per datagram for the carried
// context).  Tracing draws no RNG and never influences control flow, so
// enabling it cannot change simulation results; disabling it leaves bench
// output bit-identical to a build without the module.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "util/json.hpp"

namespace zmail::trace {

// Per-message (or per-operation) causal identifier.  0 = untracked.
using TraceId = std::uint64_t;

constexpr std::uint16_t kNoHost = 0xFFFF;

// Event taxonomy.  Spans appear as kBegin/kEnd pairs sharing an id;
// instants carry kInstant.  Keep this in sync with ev_name().
enum class Ev : std::uint8_t {
  kNone = 0,
  // --- message lifecycle ---------------------------------------------------
  kMessage,        // root span: begin at submit, end at any terminal below
  kSubmit,         // instant: user_send outcome (arg0 = SendResult)
  kQuiesceBuffer,  // span: held in the Section 4.4 quiesce buffer
  kTransit,        // span: ARQ transfer, begin at first transmit, end at
                   //       ack (arg0 = 0)
  kTransmit,       // instant: one wire transmission (arg0 = attempt #)
  kNetSend,        // instant: datagram handed to the network (arg0 = dest)
  kNetDeliver,     // instant: datagram delivered (arg0 = source host)
  kNetDrop,        // instant: datagram swallowed by a fault / outage
  kSmtp,           // span: receiving SMTP dialogue (arg0 = bytes)
  kClassify,       // span: Isp::on_email receive/classify path
  kDeliver,        // instant terminal: reached an inbox (arg0 = junk flag)
  kDiscard,        // instant terminal: dropped by non-compliant policy
  // export_chrome writes the type by number, so retired numbers stay
  // unused: 13 was kFilterDrop, 15 kShed and 17 kRefund.
  kRefuse = 14,    // instant terminal: refused at send (arg0 = SendResult)
  kDuplicateDrop = 16,  // instant: receiver-side ARQ dedupe absorbed a copy
  kAck = 18,       // instant: ARQ ack reached the sender
  // --- bank / settlement ---------------------------------------------------
  kBankBuy,        // span: ISP->bank buy exchange (arg0 = e-pennies)
  kBankSell,       // span: ISP->bank sell exchange (arg0 = e-pennies)
  kCreditReport,   // instant: credit report emitted at quiesce timeout
  kSettle,         // instant: bank bulk-settlement (arg0 = transfers)
  kSnapshotRound,  // span: snapshot round open at the bank
  // --- durable store -------------------------------------------------------
  kCheckpoint,     // span: snapshot write + WAL truncation (arg0 = bytes)
  kRecovery,       // span: crash rebuild (arg0 = WAL records replayed)
  kCount
};

const char* ev_name(Ev e) noexcept;

enum class Phase : std::uint8_t { kInstant = 0, kBegin = 1, kEnd = 2 };

// POD flight-recorder record.  48 bytes; written by value into the ring.
struct TraceEvent {
  std::uint64_t seq = 0;      // global order across threads
  std::int64_t sim_us = 0;    // simulated time at emission
  std::uint64_t wall_ns = 0;  // steady-clock wall time at emission
  TraceId id = 0;             // causal id (0 = host-scoped / untracked)
  std::uint64_t arg0 = 0;     // event-specific (see Ev comments)
  std::uint32_t arg1 = 0;     // event-specific secondary argument
  std::uint16_t host = kNoHost;  // emitting host index (bank = n_isps)
  std::uint8_t type = 0;         // Ev
  std::uint8_t phase = 0;        // Phase
};
static_assert(std::is_trivially_copyable_v<TraceEvent>, "ring does memcpy");
static_assert(sizeof(TraceEvent) == 48, "keep the record cache-friendly");

// --- Runtime control --------------------------------------------------------

namespace detail {
extern std::atomic<bool> g_enabled;
extern std::atomic<bool> g_profiling;
extern thread_local TraceId t_current;
extern thread_local bool t_suppressed;
extern thread_local std::int64_t t_sim_us;
void emit_slow(Ev type, Phase phase, TraceId id, std::uint16_t host,
               std::uint64_t arg0, std::uint32_t arg1) noexcept;
}  // namespace detail

// Master switch for the flight recorder.  Off by default.
inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
void set_enabled(bool on);

// Independent switch for the profiling histograms (benches may want the
// timers without the event firehose).  set_enabled(true) also turns it on.
inline bool profiling_enabled() noexcept {
  return detail::g_profiling.load(std::memory_order_relaxed);
}
void set_profiling_enabled(bool on);

// Ring capacity per thread, in events (a power of two).
inline constexpr std::size_t kRingCapacity = std::size_t{1} << 16;

// Drops all recorded events and drop counters.  Not
// thread-safe against concurrent emission; call between runs.
void clear();

// Events overwritten after their ring wrapped (sum over rings).
std::uint64_t dropped();

// Snapshot of every ring, merged and sorted by seq.  Safe to call while
// recording is paused; collecting mid-emission may miss in-flight events.
std::vector<TraceEvent> collect();

// Mints a fresh nonzero TraceId — unless tracing is disabled or the
// current thread is replaying a WAL (then 0, so replayed work stays
// untracked and recovery cannot mint duplicate spans).
TraceId next_id() noexcept;

// --- Implicit causal context (Dapper-style) --------------------------------

inline TraceId current() noexcept { return detail::t_current; }

// Pins `id` as the current causal context for this scope.  Cheap enough to
// sit on the datagram delivery hot path: two thread-local word moves.
class Scope {
 public:
  explicit Scope(TraceId id) noexcept : prev_(detail::t_current) {
    detail::t_current = id;
  }
  ~Scope() { detail::t_current = prev_; }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  TraceId prev_;
};

// --- WAL-replay suppression -------------------------------------------------

// While alive, emit() is a no-op and next_id() returns 0 on this thread.
// Crash recovery wraps snapshot-restore + WAL replay in one of these so
// replayed commands do not re-mint the spans they emitted pre-crash.
inline bool suppressed() noexcept { return detail::t_suppressed; }

class ReplayGuard {
 public:
  ReplayGuard() noexcept : prev_(detail::t_suppressed) {
    detail::t_suppressed = true;
  }
  ~ReplayGuard() { detail::t_suppressed = prev_; }
  ReplayGuard(const ReplayGuard&) = delete;
  ReplayGuard& operator=(const ReplayGuard&) = delete;

 private:
  bool prev_;
};

// --- Sim-time stamping ------------------------------------------------------

// The simulator publishes its clock here (per thread, so concurrent sweep
// replicas do not fight) right before dispatching each event; harness entry
// points that run outside a dispatch publish explicitly.
inline void set_sim_now(std::int64_t now_us) noexcept {
  detail::t_sim_us = now_us;
}
inline std::int64_t sim_now() noexcept { return detail::t_sim_us; }

// --- Emission ---------------------------------------------------------------

inline void emit(Ev type, Phase phase, TraceId id, std::uint16_t host,
                 std::uint64_t arg0 = 0, std::uint32_t arg1 = 0) noexcept {
  if (!enabled() || detail::t_suppressed) return;
  detail::emit_slow(type, phase, id, host, arg0, arg1);
}

inline void begin(Ev type, TraceId id, std::uint16_t host,
                  std::uint64_t arg0 = 0, std::uint32_t arg1 = 0) noexcept {
  emit(type, Phase::kBegin, id, host, arg0, arg1);
}
inline void end(Ev type, TraceId id, std::uint16_t host,
                std::uint64_t arg0 = 0, std::uint32_t arg1 = 0) noexcept {
  emit(type, Phase::kEnd, id, host, arg0, arg1);
}
inline void instant(Ev type, TraceId id, std::uint16_t host,
                    std::uint64_t arg0 = 0, std::uint32_t arg1 = 0) noexcept {
  emit(type, Phase::kInstant, id, host, arg0, arg1);
}

// RAII span: begin now, end (with the final arg0) at scope exit.  The
// enabled check happens once, in the constructor, so a span opened while
// tracing is on closes even if tracing is flipped off mid-scope.
class SpanScope {
 public:
  SpanScope(Ev type, TraceId id, std::uint16_t host,
            std::uint64_t arg0 = 0) noexcept
      : type_(type), id_(id), host_(host) {
    live_ = enabled() && !detail::t_suppressed;
    if (live_) detail::emit_slow(type_, Phase::kBegin, id_, host_, arg0, 0);
  }
  ~SpanScope() {
    if (live_) detail::emit_slow(type_, Phase::kEnd, id_, host_, end_arg0_, 0);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  void set_end_arg0(std::uint64_t v) noexcept { end_arg0_ = v; }

 private:
  Ev type_;
  TraceId id_;
  std::uint16_t host_;
  std::uint64_t end_arg0_ = 0;
  bool live_ = false;
};

// --- Profiling histograms ---------------------------------------------------

// Lock-free log2-bucketed nanosecond histogram.  Relaxed atomics: counts
// from concurrent sweep replicas merge without coordination, and exact
// cross-thread ordering is irrelevant for a histogram.
class ProfileHistogram {
 public:
  static constexpr std::size_t kBuckets = 40;  // 2^0 .. 2^39 ns (~9 min)

  void record(std::uint64_t ns) noexcept;
  void reset() noexcept;

  struct Snapshot {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t min_ns = 0;
    std::uint64_t max_ns = 0;
    std::uint64_t buckets[kBuckets] = {};
    double percentile_ns(double p) const noexcept;  // bucket upper bound
  };
  Snapshot snapshot() const noexcept;

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> total_ns_{0};
  std::atomic<std::uint64_t> min_ns_{~0ULL};
  std::atomic<std::uint64_t> max_ns_{0};
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
};

// Interns `name` in the global profile registry (stable address for the
// process lifetime; call once per site via a local static reference).
ProfileHistogram& profile(const char* name);

// Snapshot of every registered histogram with count > 0, sorted by name:
// {"<name>": {count, total_ns, mean_ns, min_ns, max_ns, p50_ns, p99_ns}}.
json::Value profiles_to_json();
void reset_profiles();

// Scoped wall-clock timer; records into `h` when profiling is enabled.
class ScopedTimer {
 public:
  explicit ScopedTimer(ProfileHistogram& h) noexcept {
    if (profiling_enabled()) {
      h_ = &h;
      t0_ = std::chrono::steady_clock::now();
    }
  }
  ~ScopedTimer() {
    if (h_ != nullptr)
      h_->record(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0_)
              .count()));
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  ProfileHistogram* h_ = nullptr;
  std::chrono::steady_clock::time_point t0_;
};

// One-liner for hot-path call sites: interns once, times the scope.
#define ZMAIL_PROF_SCOPE(name)                                     \
  static ::zmail::trace::ProfileHistogram& zmail_prof_hist_ =      \
      ::zmail::trace::profile(name);                               \
  ::zmail::trace::ScopedTimer zmail_prof_timer_(zmail_prof_hist_)

}  // namespace zmail::trace
