#include "ap/process.hpp"

#include "ap/scheduler.hpp"
#include "util/assert.hpp"

namespace zmail::ap {

void Process::add_action(std::string name, std::function<bool()> guard,
                         std::function<void()> body) {
  Action a;
  a.name = std::move(name);
  a.kind = GuardKind::kLocal;
  a.local_guard = std::move(guard);
  a.body = std::move(body);
  actions_.push_back(std::move(a));
}

void Process::add_receive(std::string_view msg_type,
                          std::function<void(const Message&)> handler) {
  Action a;
  a.name = "rcv ";
  a.name += msg_type;
  a.kind = GuardKind::kReceive;
  a.msg_type = std::string(msg_type);
  a.receive_body = std::move(handler);
  actions_.push_back(std::move(a));
}

void Process::add_timeout(std::string name,
                          std::function<bool(const GlobalView&)> guard,
                          std::function<void()> body) {
  Action a;
  a.name = std::move(name);
  a.kind = GuardKind::kTimeout;
  a.timeout_guard = std::move(guard);
  a.body = std::move(body);
  actions_.push_back(std::move(a));
}

void Process::send(ProcessId to, std::string_view type,
                   crypto::Bytes payload) {
  ZMAIL_ASSERT_MSG(scheduler_ != nullptr,
                   "process must be registered with a scheduler before send");
  scheduler_->do_send(id_, to, std::string(type), std::move(payload));
}

}  // namespace zmail::ap
