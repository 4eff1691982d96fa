// Microbenchmarks for the per-message hot path: event scheduling/dispatch,
// datagram delivery, exact-reserve serialization, and scratch-buffer
// envelopes.
//
// The binary replaces the global operator new to count heap allocations.
// Its checks are exact, so they run in --smoke too: once warm, dispatching
// events through sim::Simulator and delivering moved payloads through
// net::Network must not allocate at all, and neither may an inter-ISP email
// from its datagram's arrival through the receiving ISP (SMTP dialogue,
// codec and accounting included).  With a write-ahead log attached to every
// party, the same email must make exactly as many allocations as without
// one: the WAL records are encoded into buffers that stay warm.  On the
// acknowledged link it may make three more: its pending frame, the frame's
// wire copy and the ack.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "bench_micro_common.hpp"

#include "core/messages.hpp"
#include "core/system.hpp"
#include "crypto/rsa.hpp"
#include "net/msg_type.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "workload/corpus.hpp"

using namespace zmail;

// --- Allocation counting --------------------------------------------------
// Every global operator new in this binary, the aligned overloads included,
// counts one allocation.  The nothrow forms forward to these.
namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t n, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (n == 0) n = 1;
  void* p = align == 0
                ? std::malloc(n)
                : std::aligned_alloc(align, (n + align - 1) / align * align);
  if (!p) throw std::bad_alloc();
  return p;
}

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n, 0); }
void* operator new[](std::size_t n) { return counted_alloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

// --- Delivery-shaped cascade ---------------------------------------------
// Each event carries a datagram-sized context (a payload buffer plus
// addressing), does a token of work, and schedules one successor 20-30ms
// out — the shape of Network delivery traffic in E3.  Payload buffers are
// allocated once and ride the closures by move, so the measured difference
// is the event machinery itself, not payload churn.
struct FakeDatagram {
  crypto::Bytes payload;
  std::uint32_t from = 0;
  std::uint32_t to = 0;
};

class Cascade {
 public:
  std::uint64_t run(std::size_t population, std::uint64_t events) {
    remaining_ = events;
    for (std::size_t i = 0; i < population; ++i) {
      FakeDatagram d;
      d.payload.assign(96, static_cast<std::uint8_t>(i));
      d.to = static_cast<std::uint32_t>(i & 63);
      schedule(std::move(d));
    }
    sim_.run();
    return checksum_;
  }

 private:
  void schedule(FakeDatagram d) {
    const auto jitter =
        static_cast<sim::SimTime>(rng_.next_u64() % (10 * sim::kMillisecond));
    const sim::SimTime at = sim_.now() + 20 * sim::kMillisecond + jitter;
    sim_.schedule_at(at, [this, d = std::move(d)]() mutable {
      checksum_ += d.payload[0] + d.to;
      if (remaining_ == 0) return;
      --remaining_;
      d.from = d.to;
      d.to = static_cast<std::uint32_t>(rng_.next_u64() & 63);
      schedule(std::move(d));
    });
  }

  sim::Simulator sim_;
  Rng rng_{2026};
  std::uint64_t remaining_ = 0;
  std::uint64_t checksum_ = 0;
};

void BM_EventCascade(benchmark::State& state) {
  const auto events = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    Cascade c;
    benchmark::DoNotOptimize(c.run(1024, events));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events));
}
BENCHMARK(BM_EventCascade)->Arg(100000)->Unit(benchmark::kMillisecond);

// --- Network send/deliver ------------------------------------------------
// A ping-pong between two hosts through the real Network: interned type tag,
// pooled pending slot, moved payload.  Items = datagrams delivered.
void BM_NetworkPingPong(benchmark::State& state) {
  const auto rounds = static_cast<std::uint64_t>(state.range(0));
  const net::MsgType kPing = net::MsgType::intern("hotpath-ping");
  for (auto _ : state) {
    sim::Simulator s;
    net::Network net(s, Rng(7), net::LatencyModel{});
    std::uint64_t left = rounds;
    crypto::Bytes seed_payload(128, 0xAB);
    net::HostId a = 0, b = 0;
    const auto bounce = [&](const net::Datagram& d) {
      if (left == 0) return;
      --left;
      crypto::Bytes payload = d.payload;  // simulate a reply body
      net.send(d.to, d.from, kPing, std::move(payload));
    };
    a = net.add_host("a.example", bounce);
    b = net.add_host("b.example", bounce);
    net.send(a, b, kPing, std::move(seed_payload));
    s.run();
    benchmark::DoNotOptimize(net.bytes_sent());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rounds));
}
BENCHMARK(BM_NetworkPingPong)->Arg(10000)->Unit(benchmark::kMillisecond);

void BM_MsgTypeIntern(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(net::MsgType::intern("sellreply"));
}
BENCHMARK(BM_MsgTypeIntern);

// --- Exact-reserve serialization -----------------------------------------
void BM_SerializeCreditReport(benchmark::State& state) {
  core::CreditReport report;
  report.seq = 9;
  report.credit.assign(static_cast<std::size_t>(state.range(0)), 12345);
  for (auto _ : state) benchmark::DoNotOptimize(report.serialize());
}
BENCHMARK(BM_SerializeCreditReport)->Arg(64)->Arg(512);

// --- Scratch-buffer envelopes --------------------------------------------
void BM_SealFresh(benchmark::State& state) {
  Rng rng(11);
  const crypto::KeyPair keys = crypto::generate_keypair(rng);
  const core::CreditReport report{3, std::vector<EPenny>(64, 7)};
  const crypto::Bytes plain = report.serialize();
  for (auto _ : state)
    benchmark::DoNotOptimize(core::seal(keys.priv, plain, rng));
}
BENCHMARK(BM_SealFresh);

void BM_SealInto(benchmark::State& state) {
  Rng rng(11);
  const crypto::KeyPair keys = crypto::generate_keypair(rng);
  const core::CreditReport report{3, std::vector<EPenny>(64, 7)};
  const crypto::Bytes plain = report.serialize();
  crypto::Envelope scratch;
  crypto::Bytes wire;
  for (auto _ : state) {
    core::seal_into(keys.priv, plain, rng, scratch, wire);
    benchmark::DoNotOptimize(wire);
  }
}
BENCHMARK(BM_SealInto);

void BM_UnsealInto(benchmark::State& state) {
  Rng rng(12);
  const crypto::KeyPair keys = crypto::generate_keypair(rng);
  const core::CreditReport report{3, std::vector<EPenny>(64, 7)};
  crypto::Bytes wire = core::seal(keys.priv, report.serialize(), rng);
  crypto::Envelope scratch;
  crypto::Bytes plain;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::unseal_into(keys.priv, wire, scratch, plain));
  }
}
BENCHMARK(BM_UnsealInto);

// --- Zero-allocation check ------------------------------------------------
// Both paths run in bursts of kInFlight messages with a drain in between,
// modelling a steady traffic stream.  The first bursts grow the calendar
// queue, the pending-datagram pool and the per-pair FIFO clamps; after that
// warm-up a burst must not touch the heap.
constexpr std::size_t kInFlight = 8192;
constexpr std::size_t kDeliveryHosts = 64;
// Allocations a remote send_email may make: the by-value body, the
// message's recipient vector, header vector and Message-ID, and the
// serialized wire.
constexpr std::uint64_t kMaxSubmitAllocations = 5;
// Allocations a remote email on the acknowledged link makes from submit
// through its ack: the submit's 5, the frame's node in its channel's
// pending table, the frame's wire copy and the 16-byte ack.  The frame's
// payload is the submit's serialized wire, moved.
constexpr std::uint64_t kMaxLinkMailAllocations = 8;

struct HotPathCost {
  double seconds = 0.0;  // measured bursts only
  std::uint64_t items = 0;
  std::uint64_t allocations = 0;
};

// Runs `warmup` unmeasured bursts, then `measured` bursts whose wall time
// and heap allocations are summed.  `prepare` runs before every burst,
// outside both measurements.
template <class Prepare, class Burst>
HotPathCost measure(std::size_t warmup, std::size_t measured,
                    Prepare&& prepare, Burst&& burst) {
  for (std::size_t b = 0; b < warmup; ++b) {
    prepare();
    burst();
  }
  HotPathCost cost;
  for (std::size_t b = 0; b < measured; ++b) {
    prepare();
    const std::uint64_t a0 = allocations();
    const auto t0 = std::chrono::steady_clock::now();
    burst();
    cost.seconds += std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    cost.allocations += allocations() - a0;
    cost.items += kInFlight;
  }
  return cost;
}

// Events straight on the simulator: 16-byte closures, the size of
// net::Network's {network*, slot} delivery events, spread over a
// deterministic 32 ms window.
HotPathCost dispatch_cost(std::size_t warmup, std::size_t measured) {
  sim::Simulator sim;
  std::uint64_t sum = 0;
  std::uint64_t i = 0;
  const auto burst = [&] {
    for (const std::uint64_t end = i + kInFlight; i < end; ++i)
      sim.schedule_at(sim.now() + (20 + static_cast<sim::SimTime>(i & 31)) *
                                      sim::kMillisecond,
                      [sp = &sum, to = i + 1] { *sp += to; });
    sim.run();
  };
  const HotPathCost cost = measure(warmup, measured, [] {}, burst);
  benchmark::DoNotOptimize(sum);
  return cost;
}

// The full send -> event -> handler path through the real Network: random
// hosts, random latency draws, 128-byte payloads moved in.  The payloads of
// a burst are allocated before it starts.
HotPathCost delivery_cost(std::size_t warmup, std::size_t measured) {
  sim::Simulator sim;
  net::Network net(sim, Rng(7), net::LatencyModel{});
  std::uint64_t checksum = 0;
  for (std::size_t h = 0; h < kDeliveryHosts; ++h)
    net.add_host("h", [&checksum](const net::Datagram& d) {
      checksum += d.payload[0];
    });
  Rng pick(31337);
  std::vector<crypto::Bytes> payloads(kInFlight);
  const auto prepare = [&] {
    for (crypto::Bytes& p : payloads) p.assign(128, 0xAB);
  };
  const auto burst = [&] {
    for (crypto::Bytes& p : payloads) {
      const auto from =
          static_cast<net::HostId>(pick.next_u64() % kDeliveryHosts);
      const auto to =
          static_cast<net::HostId>(pick.next_u64() % kDeliveryHosts);
      net.send(from, to, net::kMsgEmail, std::move(p));
    }
    sim.run();
  };
  const HotPathCost cost = measure(warmup, measured, prepare, burst);
  benchmark::DoNotOptimize(checksum);
  return cost;
}

// Warm remote email through core::ZmailSystem, in a mail_day-shaped world:
// 16 compliant ISPs x 1k users, inboxes off, bank trading polls on (with
// avail bounds too wide for a trade to fire).  Each burst submits
// kInFlight remote emails the way perfbench submits them (subject and body
// passed by value), then runs the world until they have all arrived.  The
// submit cost is the send_email calls; the receive cost is the run, from
// each datagram's arrival through the SMTP dialogue, the decode and the
// receiving ISP's accounting.  The one allocation the receive side may
// make is the amortized doubling of the system's latency record (every
// delivery's sample, kept for exact percentiles); those regrowths are
// counted from its capacity and reported apart.  A non-empty `wal_dir`
// turns the durable store on (a WAL per party, write(2) per record, no
// fsync), and `link` carries the mail on the acknowledged link
// (reliable_email_transport), so the run also takes in each frame's ack
// and its no-op retransmit timer; the traffic and the world are otherwise
// the same.
struct MailCost {
  HotPathCost submit;
  HotPathCost receive;
  std::uint64_t latency_regrowths = 0;  // included in receive.allocations
};

MailCost mail_cost(std::size_t warmup, std::size_t measured,
                   const std::string& wal_dir = {}, bool link = false) {
  core::ZmailParams p;
  p.n_isps = 16;
  p.users_per_isp = 1'000;
  p.record_inboxes = false;
  p.minavail = 0;
  p.maxavail = 1'000'000'000;
  p.reliable_email_transport = link;
  if (!wal_dir.empty()) {
    std::filesystem::remove_all(wal_dir);
    p.store.enabled = true;
    p.store.dir = wal_dir;
    p.store.fsync_data = false;
  }
  core::ZmailSystem sys(p, 2026);
  sys.enable_bank_trading();

  workload::CorpusGenerator corpus(workload::CorpusParams{}, Rng(5));
  std::vector<std::string> bodies, subjects;
  for (int i = 0; i < 8; ++i) {
    bodies.push_back(corpus.ham_body());
    subjects.push_back("note " + std::to_string(i));
  }
  std::vector<net::EmailAddress> users;
  for (std::size_t i = 0; i < p.n_isps; ++i)
    for (std::size_t u = 0; u < p.users_per_isp; ++u)
      users.push_back(net::make_user_address(i, u));

  // Every user sends about once per 16 bursts, well inside the default
  // balance and daily limit; the recipient is always at another ISP.
  std::uint64_t k = 0;
  std::uint64_t not_sent = 0;
  MailCost cost;
  for (std::size_t b = 0; b < warmup + measured; ++b) {
    const bool timed = b >= warmup;
    std::uint64_t a0 = allocations();
    auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < kInFlight; ++i, ++k) {
      const std::size_t from = k % users.size();
      const std::size_t from_isp = from / p.users_per_isp;
      const std::size_t to_isp =
          (from_isp + 1 + k % (p.n_isps - 1)) % p.n_isps;
      const std::size_t to =
          to_isp * p.users_per_isp + (k * 7919) % p.users_per_isp;
      const core::SendOutcome out = sys.send_email(
          users[from], users[to], subjects[k % 8], bodies[k % 8]);
      if (out.result != core::SendResult::kSentPaid) ++not_sent;
    }
    if (timed) {
      cost.submit.seconds += std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count();
      cost.submit.allocations += allocations() - a0;
      cost.submit.items += kInFlight;
    }
    const std::size_t record = sys.delivery_latency().values().capacity();
    a0 = allocations();
    t0 = std::chrono::steady_clock::now();
    sys.run_for(2 * sim::kSecond);
    if (timed) {
      if (sys.delivery_latency().values().capacity() != record)
        ++cost.latency_regrowths;
      cost.receive.seconds += std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - t0)
                                  .count();
      cost.receive.allocations += allocations() - a0;
      cost.receive.items += kInFlight;
    }
  }
  ZMAIL_ASSERT_MSG(not_sent == 0, "every burst email must go out paid");
  ZMAIL_ASSERT_MSG(sys.total_isp_metrics().emails_received_compliant ==
                       (warmup + measured) * kInFlight,
                   "every burst email must arrive");
  ZMAIL_ASSERT_MSG(sys.pending_transfers() == 0,
                   "every link frame must be acked within its burst");
  return cost;
}

// Warm snapshot rounds on a small world: 16 compliant ISPs x 100 users,
// a little mail between rounds so every credit array has nonzero entries.
// One measured round is start_snapshot() plus run_for(15 min): the bank
// seals one request per ISP with R_b, every ISP unseals it, quiesces for
// the 10-minute window and seals its credit report with B_b, and the bank
// unseals every report, verifies every pair and settles.
constexpr std::size_t kRoundIsps = 16;
// Allocations in one warm round, measured by call site: per ISP, the
// sealed request wire and the sealed report wire; per round, the request
// plaintext (encoded once per bank) and the list holding it, the request
// list (reserved once) and the verifier's scratch: 36 for 16 ISPs.  The
// bound allows one more, since a calendar bucket still grows in about one
// round in five when it meets more events than ever before.
constexpr std::uint64_t kMaxRoundAllocations = 37;

// Items are ISP-rounds.
HotPathCost snapshot_round_cost(std::size_t warmup, std::size_t measured) {
  core::ZmailParams p;
  p.n_isps = kRoundIsps;
  p.users_per_isp = 100;
  p.record_inboxes = false;
  core::ZmailSystem sys(p, 2027);
  HotPathCost cost;
  for (std::size_t r = 0; r < warmup + measured; ++r) {
    for (std::size_t i = 0; i < 4 * kRoundIsps; ++i) {
      const std::size_t from = i % kRoundIsps;
      sys.send_email(net::make_user_address(from, i % p.users_per_isp),
                     net::make_user_address((from + 1 + r) % kRoundIsps, 7),
                     "round", "body");
    }
    sys.run_for(sim::kMinute);  // mail delivered before the round opens
    const std::uint64_t a0 = allocations();
    const auto t0 = std::chrono::steady_clock::now();
    sys.start_snapshot();
    sys.run_for(15 * sim::kMinute);
    if (r < warmup) continue;
    cost.seconds += std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    cost.allocations += allocations() - a0;
    cost.items += kRoundIsps;
  }
  ZMAIL_ASSERT_MSG(sys.bank().metrics().snapshot_rounds == warmup + measured,
                   "every snapshot round must close inside its window");
  return cost;
}

void report(bench::Bench& harness, const char* name, const char* unit,
            const HotPathCost& cost) {
  std::printf("%-16s %.1f ns/%s, %llu allocations in %llu %ss after warm-up\n",
              name, 1e9 * cost.seconds / static_cast<double>(cost.items), unit,
              static_cast<unsigned long long>(cost.allocations),
              static_cast<unsigned long long>(cost.items), unit);
  const std::string key = name;
  harness.metrics()[key + "_seconds"] = cost.seconds;
  harness.metrics()[key + "_items"] = cost.items;
  harness.metrics()[key + "_allocations"] = cost.allocations;
}

void check_zero_allocations(bench::Bench& harness) {
  const bool smoke = harness.options().smoke;
  // The counts reach zero after 16 dispatch and 128 delivery bursts; the
  // warm-ups are twice that.
  const HotPathCost dispatch = dispatch_cost(32, smoke ? 4 : 48);
  const HotPathCost delivery = delivery_cost(256, smoke ? 4 : 24);
  const MailCost mail = mail_cost(8, smoke ? 2 : 8);
  const std::string wal_dir = "bench_micro_hotpath.tmp";
  const MailCost mail_wal = mail_cost(8, smoke ? 2 : 8, wal_dir);
  std::filesystem::remove_all(wal_dir);
  const MailCost mail_link = mail_cost(8, smoke ? 2 : 8, {}, true);
  // Per-round counts settle after about 10 rounds (calendar and pool
  // growth); the warm-up is 12.
  const HotPathCost round = snapshot_round_cost(12, smoke ? 2 : 16);
  report(harness, "dispatch", "event", dispatch);
  report(harness, "delivery", "message", delivery);
  report(harness, "mail_submit", "email", mail.submit);
  report(harness, "mail_receive", "email", mail.receive);
  report(harness, "mail_wal_submit", "email", mail_wal.submit);
  report(harness, "mail_wal_receive", "email", mail_wal.receive);
  report(harness, "mail_link_submit", "email", mail_link.submit);
  report(harness, "mail_link_receive", "email", mail_link.receive);
  report(harness, "snapshot_round", "ISP-round", round);
  const std::uint64_t receive_allocations =
      mail.receive.allocations - mail.latency_regrowths;
  const double submit_per_email =
      static_cast<double>(mail.submit.allocations) /
      static_cast<double>(mail.submit.items);
  const double receive_per_email =
      static_cast<double>(receive_allocations) /
      static_cast<double>(mail.receive.items);
  std::printf("mail             %.2f allocations/email at submit, %.2f from "
              "arrival through the receiving ISP (+%llu latency-record "
              "regrowths)\n",
              submit_per_email, receive_per_email,
              static_cast<unsigned long long>(mail.latency_regrowths));
  harness.metrics()["mail_submit_allocations_per_email"] = submit_per_email;
  harness.metrics()["mail_receive_allocations_per_email"] = receive_per_email;
  harness.metrics()["mail_latency_record_regrowths"] = mail.latency_regrowths;
  const double round_per_isp = static_cast<double>(round.allocations) /
                               static_cast<double>(round.items);
  std::printf("snapshot round   %.3f allocations per ISP per round (%zu "
              "ISPs)\n",
              round_per_isp, kRoundIsps);
  harness.metrics()["snapshot_round_allocations_per_isp"] = round_per_isp;
  harness.check(dispatch.allocations == 0,
                "warm event dispatch through sim::Simulator makes no heap "
                "allocations");
  harness.check(delivery.allocations == 0,
                "warm delivery of moved payloads through net::Network makes "
                "no heap allocations");
  // Submit is checked in whole allocations per email: a calendar bucket
  // that meets more events than ever before grows, a few times per burst,
  // and that amortized growth rounds away.
  harness.check(receive_allocations == 0 &&
                    mail.submit.allocations / mail.submit.items <=
                        kMaxSubmitAllocations,
                "a warm remote email through core::ZmailSystem makes no heap "
                "allocations from datagram arrival through the receiving ISP, "
                "and at most " +
                    std::to_string(kMaxSubmitAllocations) + " at submit");
  harness.check(mail_wal.submit.allocations == mail.submit.allocations &&
                    mail_wal.receive.allocations == mail.receive.allocations,
                "with a WAL on every party, a warm remote email makes exactly "
                "as many heap allocations at submit and from datagram "
                "arrival through the receiving ISP as without one");
  // Whole allocations again: besides the latency record, the pending
  // tables and calendar buckets still grow now and then.
  const std::uint64_t link_allocations = mail_link.submit.allocations +
                                         mail_link.receive.allocations -
                                         mail_link.latency_regrowths;
  harness.check(link_allocations / mail_link.submit.items <=
                    kMaxLinkMailAllocations,
                "a warm remote email on the acknowledged link makes at most " +
                    std::to_string(kMaxLinkMailAllocations) +
                    " heap allocations from submit through its ack (the " +
                    std::to_string(kMaxSubmitAllocations) +
                    " at submit, the pending frame, its wire copy and the "
                    "ack)");
  harness.check(round.allocations <=
                    kMaxRoundAllocations * (round.items / kRoundIsps),
                "a warm snapshot round (request seal and unseal, quiesce, "
                "report seal and unseal, verify, settle) makes at most " +
                    std::to_string(kMaxRoundAllocations) +
                    " heap allocations for " + std::to_string(kRoundIsps) +
                    " ISPs");
}

}  // namespace

int main(int argc, char** argv) {
  zmail::bench::Bench harness("micro_hotpath", argc, argv);
  check_zero_allocations(harness);
  return zmail::bench::run_micro(harness, argc, argv);
}
