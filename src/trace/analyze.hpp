// Offline analysis over a collected (or re-loaded) flight-recorder stream:
// span reconstruction, causal-chain validation, and the per-stage latency
// breakdown that tools/trace_report prints and the obs snapshot embeds.
//
// All analysis is in sim-time — the deterministic clock the span invariants
// are stated in.  Wall-time is available on every event for ad-hoc queries
// but plays no part in validation.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "trace/trace.hpp"
#include "util/json.hpp"

namespace zmail::trace {

// One reconstructed begin/end pair.  Spans with a nonzero TraceId are keyed
// by (id, type); host-scoped spans (checkpoint, recovery, dispatch) are
// keyed by (host, type).  Unmatched begins yield closed == false.
struct Span {
  TraceId id = 0;
  Ev type = Ev::kNone;
  std::uint16_t begin_host = kNoHost;
  std::uint16_t end_host = kNoHost;
  std::int64_t begin_us = 0;
  std::int64_t end_us = 0;
  std::uint64_t begin_arg0 = 0;
  std::uint64_t end_arg0 = 0;
  std::uint64_t begin_wall_ns = 0;
  std::uint64_t end_wall_ns = 0;
  std::uint64_t begin_seq = 0;
  bool closed = false;

  std::int64_t duration_us() const noexcept { return end_us - begin_us; }

  // Wall-clock duration of the span.  Clamped to zero when the end stamp
  // precedes the begin stamp (possible across a crash/restart boundary,
  // where the steady clock restarts).
  std::uint64_t wall_duration_ns() const noexcept {
    return end_wall_ns > begin_wall_ns ? end_wall_ns - begin_wall_ns : 0;
  }
};

// Matches begins to ends.  Nested same-key spans match LIFO.
std::vector<Span> build_spans(const std::vector<TraceEvent>& events);

// The full causal chain of one traced message id.
struct Chain {
  TraceId id = 0;
  std::vector<TraceEvent> events;  // every event carrying this id, seq order
  bool has_root = false;           // saw a kMessage begin
  bool root_closed = false;        // saw the matching kMessage end
  bool lost = false;     // last word was a kNetDrop: closed-by-loss
  Ev terminal = Ev::kNone;  // kDeliver/kDiscard/kFilterDrop/kRefuse/kShed/
                            // kRefund when the chain reached a terminal
  std::uint32_t transmits = 0;  // kTransmit instants (ARQ attempts)
};

std::map<TraceId, Chain> build_chains(const std::vector<TraceEvent>& events);

// Span/chain invariants, as checked by the CI trace-smoke step:
//   - every span closed — tolerating (a) spans interrupted by a crash whose
//     host later shows a kRecovery event ("crash forgives"), and (b) root
//     spans whose chain ends in a kNetDrop with no reliable-transport
//     retry ("closed by loss");
//   - end >= begin for every closed span;
//   - child ⊆ parent: every event of a traced id falls inside its root
//     kMessage interval (in sim-time) when that root closed;
//   - exactly one kMessage begin per id — crash replay must not re-mint.
struct ValidationResult {
  bool ok = true;
  std::vector<std::string> problems;  // human-readable, one per violation
  std::size_t spans_total = 0;
  std::size_t spans_closed = 0;
  std::size_t spans_forgiven = 0;  // unclosed but crash-forgiven / lost
  std::size_t chains_total = 0;
  std::size_t chains_terminal = 0;
};

ValidationResult validate(const std::vector<TraceEvent>& events);

// Per-stage latency accounting over closed spans.  Sim-time fields drive
// validation and the obs snapshot; the parallel wall-clock fields are
// reporting-only (tools/trace_report prints both side by side).
struct StageStats {
  std::uint64_t count = 0;
  std::int64_t total_us = 0;
  std::int64_t min_us = 0;
  std::int64_t max_us = 0;
  std::uint64_t wall_total_ns = 0;
  std::uint64_t wall_min_ns = 0;
  std::uint64_t wall_max_ns = 0;

  double mean_us() const noexcept {
    return count ? static_cast<double>(total_us) / static_cast<double>(count)
                 : 0.0;
  }
  double wall_mean_us() const noexcept {
    return count ? static_cast<double>(wall_total_ns) /
                       static_cast<double>(count) / 1000.0
                 : 0.0;
  }
};

// Keys: "message" (submit → terminal, end-to-end), "stamp_buy", "stamp_sell",
// "transit", "smtp", "classify", "quiesce_buffer", "settle" (snapshot
// round), "checkpoint", "recovery".  Only stages that occurred appear.
std::map<std::string, StageStats> breakdown(
    const std::vector<TraceEvent>& events);

// {"<stage>": {count, total_us, mean_us, min_us, max_us}} — the
// "trace_breakdown" object of the obs snapshot.
json::Value breakdown_to_json(const std::map<std::string, StageStats>& b);

}  // namespace zmail::trace
