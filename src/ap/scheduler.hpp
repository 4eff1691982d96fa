// Weakly-fair nondeterministic scheduler for Abstract Protocol processes.
//
// Execution rules (Section 3):
//   1. an action is executed only when its guard is true;
//   2. actions are executed one at a time;
//   3. an action whose guard is continuously true is eventually executed.
// Rule 3 (weak fairness) is realized by a rotating cursor over all actions;
// a seeded random policy is also available so property tests can explore
// many interleavings.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ap/channel.hpp"
#include "ap/process.hpp"
#include "util/rng.hpp"

namespace zmail::ap {

// One executed action, for traces and debugging.
struct TraceEntry {
  std::uint64_t step = 0;
  ProcessId process = kNoProcess;
  std::string action;
  std::string msg_type;  // empty for non-receive actions
  ProcessId msg_from = kNoProcess;
};

class Scheduler {
 public:
  enum class Policy { kRoundRobin, kRandom };

  explicit Scheduler(Policy policy = Policy::kRoundRobin,
                     std::uint64_t seed = 1);

  // Registers the process and returns its id.  The scheduler owns nothing;
  // callers keep ownership (processes usually live in a System object).
  ProcessId add_process(Process& p, std::string name);

  // Runs until no action is enabled or `max_steps` executed.
  // Returns the number of steps taken.
  std::uint64_t run(std::uint64_t max_steps = 1'000'000);

  // Executes exactly one enabled action; returns false when quiescent.
  bool step();

  // Channel from -> to (created on demand).  Only tests call it: it is
  // the adversary's hook that duplicates or drops a message in transit
  // (tests/ap_runtime_test.cpp, MessageReplayViaChannelInjection and
  // LostBuyReplyTimeoutRetriesAndRecovers).
  Channel& channel(ProcessId from, ProcessId to);
  const Channel* find_channel(ProcessId from, ProcessId to) const;

  std::size_t process_count() const noexcept { return processes_.size(); }
  Process& process(ProcessId id) { return *processes_.at(id); }
  const Process& process(ProcessId id) const { return *processes_.at(id); }

  // The AP quiescence check; only tests call these two
  // (tests/ap_runtime_test.cpp, tests/core_ap_spec_test.cpp).
  bool all_channels_empty() const noexcept;
  std::size_t total_messages_in_flight() const noexcept;

  std::uint64_t steps_executed() const noexcept { return steps_; }
  std::uint64_t messages_sent() const noexcept { return messages_sent_; }

  void set_trace_enabled(bool enabled) noexcept { trace_enabled_ = enabled; }
  const std::vector<TraceEntry>& trace() const noexcept { return trace_; }

 private:
  friend class Process;
  void do_send(ProcessId from, ProcessId to, std::string type,
               crypto::Bytes payload);

  // (process index, action index) of every registered action, flattened.
  struct ActionRef {
    ProcessId pid;
    std::size_t action_index;
  };

  bool guard_enabled(const ActionRef& ref, ProcessId* matched_sender) const;
  void execute(const ActionRef& ref, ProcessId matched_sender);

  Policy policy_;
  Rng rng_;
  std::vector<Process*> processes_;
  std::map<std::pair<ProcessId, ProcessId>, Channel> channels_;
  std::vector<ActionRef> action_refs_;
  std::size_t cursor_ = 0;
  std::uint64_t steps_ = 0;
  std::uint64_t messages_sent_ = 0;
  bool trace_enabled_ = false;
  std::vector<TraceEntry> trace_;
};

// Read-only view of global state for timeout guards.
class GlobalView {
 public:
  explicit GlobalView(const Scheduler& s) noexcept : sched_(&s) {}

  bool all_channels_empty() const noexcept {
    return sched_->all_channels_empty();
  }
  const Scheduler& scheduler() const noexcept { return *sched_; }

 private:
  const Scheduler* sched_;
};

}  // namespace zmail::ap
