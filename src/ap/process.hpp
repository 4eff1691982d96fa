// Abstract Protocol process: a set of guarded actions over local state.
//
// Section 3 of the paper defines three guard forms:
//   (1) a boolean expression over the process's own constants/variables,
//   (2) a receive guard  "rcv <message> from q",
//   (3) a timeout guard over the *global* state (all processes + channels).
// Subclasses register one Action per pseudocode action; the Scheduler picks
// enabled actions under weak fairness.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "ap/message.hpp"

namespace zmail::ap {

class Scheduler;
class GlobalView;

class Process {
 public:
  Process() = default;
  virtual ~Process() = default;
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  ProcessId id() const noexcept { return id_; }
  const std::string& name() const noexcept { return name_; }

 protected:
  // Form (1): local boolean guard.
  void add_action(std::string name, std::function<bool()> guard,
                  std::function<void()> body);

  // Form (2): receive guard; enabled when the head of some incoming channel
  // is a message of `msg_type`.  The handler receives that message.
  // Takes a view so interned net::MsgType tags convert implicitly.
  void add_receive(std::string_view msg_type,
                   std::function<void(const Message&)> handler);

  // Form (3): timeout guard over global state.
  void add_timeout(std::string name,
                   std::function<bool(const GlobalView&)> guard,
                   std::function<void()> body);

  // "send <message> to q" — appends to the channel from this process to q.
  void send(ProcessId to, std::string_view type, crypto::Bytes payload = {});

 private:
  friend class Scheduler;

  enum class GuardKind { kLocal, kReceive, kTimeout };

  struct Action {
    std::string name;
    GuardKind kind;
    std::function<bool()> local_guard;                    // kLocal
    std::string msg_type;                                 // kReceive
    std::function<void(const Message&)> receive_body;     // kReceive
    std::function<bool(const GlobalView&)> timeout_guard; // kTimeout
    std::function<void()> body;                           // kLocal/kTimeout
  };

  Scheduler* scheduler_ = nullptr;
  ProcessId id_ = kNoProcess;
  std::string name_;
  std::vector<Action> actions_;
};

}  // namespace zmail::ap
