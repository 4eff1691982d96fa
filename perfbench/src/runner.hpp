// One repetition of a workload: build the world, replay the op stream,
// drain, check correctness, and (in the traced run) collect the per-layer
// figures.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "ops.hpp"

namespace perfbench {

// Names of the spans the traced run records around facade calls.
enum class SpanName : std::uint8_t {
  kRep,
  kSetup,
  kCheckpointAll,
  kTimed,
  kRunFor,
  kSend,
  kTrade,
  kRecoverIsp,
  kRecoverBank,
  kDrain,
};
const char* span_name(SpanName n) noexcept;

struct Span {
  std::uint64_t start_ns = 0;  // steady clock, relative to the log's origin
  std::uint64_t end_ns = 0;
  std::uint32_t parent = 0;    // index of the enclosing span, or kNoParent
  std::uint32_t count = 1;     // operations the span covers
  SpanName name = SpanName::kRep;
};

// Spans kept in memory during the run and written out at exit.
class SpanLog {
 public:
  static constexpr std::uint32_t kNoParent = ~0u;

  std::uint32_t begin(SpanName name, std::uint32_t parent);
  void end(std::uint32_t id, std::uint32_t count = 1);
  std::vector<double> durations_ns(SpanName name) const;
  bool write_csv(const std::string& path) const;

 private:
  std::uint64_t now_ns() const;

  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
};

// A named figure with its unit and the number of samples behind it.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;
};

struct RepResult {
  double setup_s = 0.0;
  double timed_s = 0.0;
  // Host ns of each consecutive slice of kSliceOps ops (the last slice
  // also holds the drain); equal slices of two reps do identical work.
  std::vector<double> slice_ns;
  std::vector<double> recover_isp_ms;
  std::uint64_t ops = 0;
  std::uint64_t emails = 0;
  // Correctness gate: every violation is one failed op.
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  // Modelled outputs; must be identical across reps and traced/untraced.
  std::string digest;
  double latency_p50_s = 0.0;
  double latency_p99_s = 0.0;
  std::uint64_t latency_samples = 0;
  std::uint64_t refused = 0;  // protocol refusals (no balance, daily limit)
  std::vector<Metric> layers;  // traced rep only

  double ns_per_email() const {
    return timed_s * 1e9 / static_cast<double>(emails);
  }
};

struct RepOptions {
  std::uint64_t seed = 0;
  std::string store_dir;    // durable store of crash_recovery
  std::string scratch_dir;  // replay files
  SpanLog* spans = nullptr;  // non-null: traced rep
};

RepResult run_rep(const WorkloadSpec& spec, const OpStream& ops,
                  const RepOptions& opt);

// Builds and tears down one world; returns the build's host seconds.
double time_setup(const WorkloadSpec& spec, const RepOptions& opt);

// Linear-interpolated percentile (p in [0, 100]) of an unsorted sample.
double percentile(std::vector<double> xs, double p);

}  // namespace perfbench
