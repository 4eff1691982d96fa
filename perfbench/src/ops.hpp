// Workload definitions and the seeded op-stream generator.
//
// A workload is a world configuration plus a compact, pre-generated stream
// of operations: each op is a facade call due at a simulated time.  The
// stream is a pure function of (workload, seed) and never reacts to the
// system's state, so the benchmark is open loop in simulated time and two
// runs with one seed drive the program with identical inputs.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "net/email.hpp"
#include "sim/time.hpp"

namespace perfbench {

enum class OpKind : std::uint8_t {
  kSend,         // user mail
  kSpam,         // mail from the spammer cohort
  kBuy,          // user buys e-pennies from its ISP
  kSell,         // user sells e-pennies to its ISP
  kRecoverIsp,   // ZmailSystem::recover_host on an ISP
  kRecoverBank,  // ZmailSystem::recover_host on the bank
};

// 24 bytes: the harness holds the whole stream, never the messages.
struct Op {
  zmail::sim::SimTime at = 0;
  std::uint32_t from = 0;  // global user index (isp * users + user); host id
                           // for recoveries
  std::uint32_t to = 0;    // recipient global user index; e-pennies for trades
  std::uint16_t body = 0;  // index into OpStream::bodies
  OpKind kind = OpKind::kSend;
};
static_assert(sizeof(Op) == 24, "keep the op stream compact");

struct WorkloadSpec {
  std::string name;
  std::string why;
  zmail::core::ZmailParams params;  // store.dir is filled in by the runner
  zmail::sim::Duration horizon = 0;  // simulated span the ops cover
  std::size_t ops = 0;               // ops generated per seed
  double local_share = 0.0;          // sends addressed to the sender's ISP
  double spam_share = 0.0;           // ops from the spammer cohort
  double trade_share = 0.0;          // user buy/sell ops
  std::size_t spammers_per_isp = 0;
  std::size_t isp_recoveries = 0;    // recover_host calls on ISPs
  std::size_t bank_recoveries = 0;   // recover_host calls on the bank
  bool daily_resets = false;
  zmail::sim::Duration snapshot_period = 0;   // 0 = no snapshot rounds
  zmail::sim::Duration telemetry_period = 0;  // 0 = telemetry off
  double fault_rate = 0.0;  // drop = duplicate = reorder probability
};

// The benchmark's workloads, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();
std::optional<WorkloadSpec> workload_spec(const std::string& name);

struct OpStream {
  std::vector<Op> ops;                // sorted by `at`
  std::vector<std::string> subjects;  // indexed like bodies
  std::vector<std::string> bodies;    // pre-built pool from CorpusGenerator
  std::vector<zmail::net::MailClass> classes;
  std::uint64_t emails = 0;           // kSend + kSpam ops
  std::uint64_t trades = 0;           // kBuy + kSell ops
};

OpStream generate_ops(const WorkloadSpec& spec, std::uint64_t seed);

// FNV-1a over every op field and the body pool: equal streams hash equal.
std::uint64_t stream_digest(const OpStream& s);

}  // namespace perfbench
