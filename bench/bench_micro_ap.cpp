// Microbenchmarks for the Abstract Protocol runtime: action dispatch and
// channel throughput under both scheduling policies.
#include <benchmark/benchmark.h>

#include "bench_micro_common.hpp"

#include "ap/scheduler.hpp"

using namespace zmail;

namespace {

class Producer : public ap::Process {
 public:
  explicit Producer(ap::ProcessId* peer) : peer_(peer) {
    add_action(
        "emit", [this] { return budget_ > 0; },
        [this] {
          --budget_;
          send(*peer_, "work");
        });
  }
  void refill(std::int64_t n) { budget_ = n; }

 private:
  ap::ProcessId* peer_;
  std::int64_t budget_ = 0;
};

class Consumer : public ap::Process {
 public:
  Consumer() {
    add_receive("work", [this](const ap::Message&) { ++consumed_; });
  }
  std::uint64_t consumed() const { return consumed_; }

 private:
  std::uint64_t consumed_ = 0;
};

void BM_ApPingPong(benchmark::State& state) {
  const auto policy = state.range(0) == 0 ? ap::Scheduler::Policy::kRoundRobin
                                          : ap::Scheduler::Policy::kRandom;
  ap::Scheduler sched(policy, 5);
  ap::ProcessId consumer_id = ap::kNoProcess;
  Producer producer(&consumer_id);
  Consumer consumer;
  sched.add_process(producer, "producer");
  consumer_id = sched.add_process(consumer, "consumer");

  for (auto _ : state) {
    producer.refill(1'000);
    sched.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          2'000);  // 1000 sends + 1000 receives
}
BENCHMARK(BM_ApPingPong)->Arg(0)->Arg(1);

void BM_ApManyProcesses(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ap::Scheduler sched;
  std::vector<std::unique_ptr<Producer>> producers;
  std::vector<std::unique_ptr<Consumer>> consumers;
  std::vector<ap::ProcessId> consumer_ids(n, ap::kNoProcess);
  for (std::size_t i = 0; i < n; ++i) {
    producers.push_back(std::make_unique<Producer>(&consumer_ids[i]));
    sched.add_process(*producers.back(),
                      std::string("p").append(std::to_string(i)));
  }
  for (std::size_t i = 0; i < n; ++i) {
    consumers.push_back(std::make_unique<Consumer>());
    consumer_ids[i] =
        sched.add_process(*consumers.back(),
                          std::string("c").append(std::to_string(i)));
  }
  for (auto _ : state) {
    for (auto& p : producers) p->refill(100);
    sched.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) * 200);
}
BENCHMARK(BM_ApManyProcesses)->Arg(4)->Arg(16)->Arg(64);

}  // namespace

int main(int argc, char** argv) {
  zmail::bench::Bench harness("micro_ap", argc, argv);
  return zmail::bench::run_micro(harness, argc, argv);
}
