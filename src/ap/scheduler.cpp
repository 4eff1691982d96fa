#include "ap/scheduler.hpp"

#include "util/assert.hpp"

namespace zmail::ap {

Scheduler::Scheduler(Policy policy, std::uint64_t seed)
    : policy_(policy), rng_(seed) {}

ProcessId Scheduler::add_process(Process& p, std::string name) {
  ZMAIL_ASSERT_MSG(p.scheduler_ == nullptr,
                   "process already registered with a scheduler");
  const ProcessId id = processes_.size();
  p.scheduler_ = this;
  p.id_ = id;
  p.name_ = std::move(name);
  processes_.push_back(&p);
  for (std::size_t a = 0; a < p.actions_.size(); ++a)
    action_refs_.push_back(ActionRef{id, a});
  return id;
}

Channel& Scheduler::channel(ProcessId from, ProcessId to) {
  return channels_[{from, to}];
}

const Channel* Scheduler::find_channel(ProcessId from, ProcessId to) const {
  const auto it = channels_.find({from, to});
  return it == channels_.end() ? nullptr : &it->second;
}

void Scheduler::do_send(ProcessId from, ProcessId to, std::string type,
                        crypto::Bytes payload) {
  ZMAIL_ASSERT(to < processes_.size());
  Message m;
  m.type = std::move(type);
  m.payload = std::move(payload);
  m.from = from;
  m.to = to;
  channels_[{from, to}].push(std::move(m));
  ++messages_sent_;
}

bool Scheduler::all_channels_empty() const noexcept {
  for (const auto& [key, ch] : channels_)
    if (!ch.empty()) return false;
  return true;
}

std::size_t Scheduler::total_messages_in_flight() const noexcept {
  std::size_t n = 0;
  for (const auto& [key, ch] : channels_) n += ch.size();
  return n;
}

bool Scheduler::guard_enabled(const ActionRef& ref,
                              ProcessId* matched_sender) const {
  const Process& p = *processes_[ref.pid];
  const Process::Action& a = p.actions_[ref.action_index];
  switch (a.kind) {
    case Process::GuardKind::kLocal:
      return a.local_guard();
    case Process::GuardKind::kReceive:
      // Enabled iff the head of some channel into this process has the
      // registered message type.  Deterministic order (by sender id) keeps
      // round-robin runs reproducible; the random policy shuffles enabled
      // action choice anyway.
      for (const auto& [key, ch] : channels_) {
        if (key.second != ref.pid || ch.empty()) continue;
        if (ch.front().type == a.msg_type) {
          if (matched_sender) *matched_sender = key.first;
          return true;
        }
      }
      return false;
    case Process::GuardKind::kTimeout:
      return a.timeout_guard(GlobalView(*this));
  }
  return false;
}

void Scheduler::execute(const ActionRef& ref, ProcessId matched_sender) {
  Process& p = *processes_[ref.pid];
  Process::Action& a = p.actions_[ref.action_index];
  TraceEntry entry;
  entry.step = steps_;
  entry.process = ref.pid;
  entry.action = a.name;

  if (a.kind == Process::GuardKind::kReceive) {
    Channel& ch = channels_.at({matched_sender, ref.pid});
    const Message m = ch.pop();
    entry.msg_type = m.type;
    entry.msg_from = m.from;
    if (trace_enabled_) trace_.push_back(std::move(entry));
    ++steps_;
    a.receive_body(m);
  } else {
    if (trace_enabled_) trace_.push_back(std::move(entry));
    ++steps_;
    a.body();
  }
}

bool Scheduler::step() {
  const std::size_t n = action_refs_.size();
  if (n == 0) return false;

  if (policy_ == Policy::kRandom) {
    // Collect all enabled actions, then pick one uniformly.
    std::vector<std::pair<std::size_t, ProcessId>> enabled;
    for (std::size_t i = 0; i < n; ++i) {
      ProcessId sender = kNoProcess;
      if (guard_enabled(action_refs_[i], &sender))
        enabled.emplace_back(i, sender);
    }
    if (enabled.empty()) return false;
    const auto& [idx, sender] =
        enabled[rng_.next_below(enabled.size())];
    execute(action_refs_[idx], sender);
    return true;
  }

  // Round-robin: scan from the cursor for the next enabled action.
  for (std::size_t scanned = 0; scanned < n; ++scanned) {
    const std::size_t i = (cursor_ + scanned) % n;
    ProcessId sender = kNoProcess;
    if (guard_enabled(action_refs_[i], &sender)) {
      cursor_ = (i + 1) % n;
      execute(action_refs_[i], sender);
      return true;
    }
  }
  return false;
}

std::uint64_t Scheduler::run(std::uint64_t max_steps) {
  std::uint64_t taken = 0;
  while (taken < max_steps && step()) ++taken;
  return taken;
}

}  // namespace zmail::ap
