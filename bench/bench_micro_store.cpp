// Microbenchmarks for the durable store: CRC32C, WAL append, and one
// streamed ISP checkpoint at 100k users, as a full image and as a
// differential.
//
// The binary replaces the global operator new to count heap allocations
// and the bytes they ask for.  Its three checks are exact, so they run in
// --smoke too.  A warm 100k-user ISP full image streams its 7.4 MB of
// Population columns to the file without staging them, so the whole
// checkpoint (sections, framing, paths, WAL truncation) allocates less
// than 64 KiB.  A warm differential gathers its dirty rows into the
// page-backed RowBuffer it reuses, so it stays under the same bound.  Warm
// WAL appends store their records through the mapped window: no write(2)
// or pwrite(2) at all, and one window mapped per 64 KiB of log.  It also
// prints the CRC32C throughput on a checkpoint-sized buffer, as a report
// line only (no timing is checked).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "bench_micro_common.hpp"

#include "core/isp.hpp"
#include "crypto/rsa.hpp"
#include "store/checkpoint.hpp"
#include "store/crc32c.hpp"
#include "store/crc32c_impl.hpp"
#include "store/wal.hpp"
#include "util/rng.hpp"

using namespace zmail;

// --- Allocation counting --------------------------------------------------
// Every global operator new in this binary, the aligned overloads included,
// counts one allocation and its size.  The nothrow forms forward to these.
namespace {

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_bytes{0};

void* counted_alloc(std::size_t n, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(n, std::memory_order_relaxed);
  if (n == 0) n = 1;
  void* p = align == 0
                ? std::malloc(n)
                : std::aligned_alloc(align, (n + align - 1) / align * align);
  if (!p) throw std::bad_alloc();
  return p;
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

constexpr std::size_t kCheckpointUsers = 100'000;
constexpr std::uint64_t kCheckpointAllocLimit = 64 * 1024;
const std::string kWorkDir = "bench_micro_store.tmp";

crypto::Bytes make_data(std::size_t n) {
  Rng rng(1);
  crypto::Bytes b(n);
  for (auto& x : b) x = static_cast<std::uint8_t>(rng.next_u64());
  return b;
}

void BM_Crc32c(benchmark::State& state) {
  // The label shows which implementation store::crc32c dispatched to.
  state.SetLabel(store::detail::have_sse42() ? "sse4.2" : "portable");
  const crypto::Bytes data =
      make_data(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(store::crc32c(data.data(), data.size()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
// 64 B: a short WAL record; 520 B: a 64-ISP credit report; 7.4 MB: the
// columns of one 100k-user ISP checkpoint.
BENCHMARK(BM_Crc32c)->Arg(64)->Arg(520)->Arg(7'400'000);

// One ~400-byte record (an email-sized WAL payload) per iteration, synced
// every `range(0)` records without fsync, as the perfbench store runs.
void BM_WalAppend(benchmark::State& state) {
  std::filesystem::create_directories(kWorkDir);
  const std::string path = kWorkDir + "/append.zwal";
  store::WalWriter wal;
  std::string err;
  if (!wal.open(path, static_cast<std::uint32_t>(state.range(0)),
                /*fsync_data=*/false, &err)) {
    state.SkipWithError(err.c_str());
    return;
  }
  const crypto::Bytes payload = make_data(400);
  std::uint64_t n = 0;
  for (auto _ : state) {
    wal.append(1, payload);
    // A checkpoint restart every 4096 records keeps the file at about
    // 1.7 MB, whose pages the log then reuses.
    if (++n % 4096 == 0) wal.truncate_behind_checkpoint();
  }
  wal.close();
  std::filesystem::remove_all(kWorkDir);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_WalAppend)->Arg(1)->Arg(64);

// A 100k-user ISP with scattered per-user state and a Checkpointer on a
// working directory (no fsync: the cost measured is the store's, not the
// disk's).
struct CheckpointRig {
  CheckpointRig() : key_rng(3), keys(crypto::generate_keypair(key_rng)) {
    core::ZmailParams p;
    p.n_isps = 8;
    p.users_per_isp = kCheckpointUsers;
    p.initial_user_balance = 100;
    p.record_inboxes = false;
    isp = std::make_unique<core::Isp>(0, p, keys.pub, 99);
    // Balances move through user_sell so the running balance total stays
    // exact.
    for (std::size_t u = 0; u < kCheckpointUsers; u += 97) {
      isp->user_sell(u, static_cast<EPenny>(u % 13));
      isp->user(u).lifetime_sent = static_cast<std::int64_t>(u % 29);
    }
    store::StoreConfig cfg;
    cfg.enabled = true;
    cfg.dir = kWorkDir;
    cfg.fsync_data = false;
    std::filesystem::remove_all(kWorkDir);
    ok = cp.open(cfg, "isp0", &err);
  }
  ~CheckpointRig() { std::filesystem::remove_all(kWorkDir); }

  // A full image, as an ISP's first checkpoint writes.
  bool checkpoint(std::uint64_t sim_us) {
    crypto::Bytes scalars;
    std::vector<store::SnapshotSection> sections;
    isp->serialize_sections(scalars, sections);
    return cp.checkpoint(std::move(sections), sim_us, &err);
  }
  // What ZmailSystem::checkpoint_host does for an ISP, with the buffers it
  // reuses: after the first, a differential of the rows dirtied since.
  bool write_checkpoint(std::uint64_t sim_us) {
    return isp->write_checkpoint(cp, sim_us, scalars, rows, &err);
  }
  // Dirties about 1% of the rows, a busy interval's worth of senders.
  void dirty_rows(std::size_t first) {
    for (std::size_t u = first; u < kCheckpointUsers; u += 97)
      isp->user(u).lifetime_received_paid += 1;
  }

  Rng key_rng;
  crypto::KeyPair keys;
  std::unique_ptr<core::Isp> isp;
  store::Checkpointer cp;
  crypto::Bytes scalars;
  core::RowBuffer rows;
  std::string err;
  bool ok = false;
};

void BM_CheckpointIsp(benchmark::State& state) {
  CheckpointRig rig;
  if (!rig.ok) {
    state.SkipWithError(rig.err.c_str());
    return;
  }
  std::uint64_t t = 0;
  for (auto _ : state)
    if (!rig.checkpoint(++t)) state.SkipWithError(rig.err.c_str());
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(rig.cp.stats().last_snapshot_bytes));
}
BENCHMARK(BM_CheckpointIsp)->Unit(benchmark::kMillisecond);

void BM_CheckpointIspDifferential(benchmark::State& state) {
  CheckpointRig rig;
  if (!rig.ok || !rig.write_checkpoint(0)) {
    state.SkipWithError(rig.err.c_str());
    return;
  }
  // The same 1% of rows each time, so every differential is the same size.
  std::uint64_t t = 0;
  for (auto _ : state) {
    rig.dirty_rows(0);
    if (!rig.write_checkpoint(++t))
      state.SkipWithError(rig.err.c_str());
  }
  state.counters["differential_bytes"] =
      static_cast<double>(rig.cp.stats().last_snapshot_bytes);
}
BENCHMARK(BM_CheckpointIspDifferential)->Unit(benchmark::kMillisecond);

void check_checkpoint_allocations(bench::Bench& harness) {
  CheckpointRig rig;
  const bool warm = rig.ok && rig.checkpoint(1);
  if (!warm) std::fprintf(stderr, "checkpoint: %s\n", rig.err.c_str());
  harness.check(warm, "a 100k-user ISP checkpoint writes its snapshot");
  const std::uint64_t a0 = g_allocations.load(std::memory_order_relaxed);
  const std::uint64_t b0 = g_bytes.load(std::memory_order_relaxed);
  const bool written = rig.checkpoint(2);
  const std::uint64_t allocs =
      g_allocations.load(std::memory_order_relaxed) - a0;
  const std::uint64_t bytes = g_bytes.load(std::memory_order_relaxed) - b0;
  const std::uint64_t snapshot = rig.cp.stats().last_snapshot_bytes;
  std::printf("checkpoint: %llu-byte snapshot, %llu allocations, %llu bytes "
              "allocated\n",
              static_cast<unsigned long long>(snapshot),
              static_cast<unsigned long long>(allocs),
              static_cast<unsigned long long>(bytes));
  harness.metrics()["checkpoint_snapshot_bytes"] = snapshot;
  harness.metrics()["checkpoint_allocations"] = allocs;
  harness.metrics()["checkpoint_allocated_bytes"] = bytes;
  harness.check(written && bytes < kCheckpointAllocLimit,
                "one 100k-user ISP checkpoint allocates under 64 KiB (the "
                "columns stream from the population, never staged)");
}

void check_differential_allocations(bench::Bench& harness) {
  CheckpointRig rig;
  // The base, then one differential to warm the buffers.
  bool warm = rig.ok && rig.write_checkpoint(1);
  rig.dirty_rows(0);
  warm = warm && rig.write_checkpoint(2) && rig.cp.stats().differentials == 1;
  if (!warm) std::fprintf(stderr, "differential: %s\n", rig.err.c_str());
  harness.check(warm, "a 100k-user ISP writes a differential over its base");
  rig.dirty_rows(1);
  const std::uint64_t b0 = g_bytes.load(std::memory_order_relaxed);
  const bool written =
      rig.write_checkpoint(3) && rig.cp.stats().differentials == 2;
  const std::uint64_t bytes = g_bytes.load(std::memory_order_relaxed) - b0;
  const std::uint64_t snapshot = rig.cp.stats().last_snapshot_bytes;
  std::printf("differential: %llu-byte file for %zu dirty rows, %llu bytes "
              "allocated\n",
              static_cast<unsigned long long>(snapshot),
              rig.isp->users().dirty_row_count(),
              static_cast<unsigned long long>(bytes));
  harness.metrics()["differential_snapshot_bytes"] = snapshot;
  harness.metrics()["differential_allocated_bytes"] = bytes;
  harness.check(written && bytes < kCheckpointAllocLimit,
                "one warm 100k-user ISP differential allocates under 64 KiB "
                "(the dirty rows gather into the reused RowBuffer)");
}

// 10,000 warm ~400-byte appends at cadence 1: every sync stores through
// the window, so the writer makes no write(2)/pwrite(2) call and maps one
// window per 64 KiB of log, plus one for the window it starts in.
void check_wal_append_syscalls(bench::Bench& harness) {
  constexpr int kAppends = 10'000;
  std::filesystem::create_directories(kWorkDir);
  store::WalWriter wal;
  std::string err;
  const bool opened =
      wal.open(kWorkDir + "/syscalls.zwal", 1, /*fsync_data=*/false, &err);
  if (!opened) std::fprintf(stderr, "wal: %s\n", err.c_str());
  const crypto::Bytes payload = make_data(400);
  for (int i = 0; i < 100; ++i) wal.append(1, payload);  // warm
  const store::WalWriter::Stats s0 = wal.stats();
  for (int i = 0; i < kAppends; ++i) wal.append(1, payload);
  const store::WalWriter::Stats& s1 = wal.stats();
  const std::uint64_t bytes = s1.bytes_appended - s0.bytes_appended;
  const std::uint64_t writes = s1.writes - s0.writes;
  const std::uint64_t maps = s1.maps - s0.maps;
  const std::uint64_t syncs = s1.syncs - s0.syncs;
  const std::uint64_t max_maps =
      (bytes + store::WalWriter::kWindowBytes - 1) /
          store::WalWriter::kWindowBytes +
      1;
  wal.close();
  std::filesystem::remove_all(kWorkDir);
  std::printf("wal: %d appends, %llu bytes, %llu syncs, %llu writes, %llu "
              "maps (bound %llu)\n",
              kAppends, static_cast<unsigned long long>(bytes),
              static_cast<unsigned long long>(syncs),
              static_cast<unsigned long long>(writes),
              static_cast<unsigned long long>(maps),
              static_cast<unsigned long long>(max_maps));
  harness.metrics()["wal_append_writes"] = writes;
  harness.metrics()["wal_append_maps"] = maps;
  harness.check(opened && syncs == kAppends && writes == 0 &&
                    maps <= max_maps,
                "10,000 warm WAL appends at cadence 1 make no write(2) and "
                "map at most one window per 64 KiB of log, plus one");
}

// Best-of-N throughput of store::crc32c and of the portable reference over
// the 7.4 MB of one 100k-user ISP checkpoint's columns.
void report_crc_throughput(bench::Bench& harness) {
  const crypto::Bytes data = make_data(7'400'000);
  const auto gbps = [&](auto&& crc) {
    double best = 0.0;
    std::uint32_t sink = 0;
    for (int pass = 0; pass < (harness.options().smoke ? 3 : 20); ++pass) {
      const auto t0 = std::chrono::steady_clock::now();
      sink ^= crc(data.data(), data.size());
      const double s = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
      best = std::max(best, static_cast<double>(data.size()) / s / 1e9);
    }
    benchmark::DoNotOptimize(sink);
    return best;
  };
  const double dispatched = gbps([](const void* p, std::size_t n) {
    return store::crc32c(p, n);
  });
  const double portable = gbps([](const void* p, std::size_t n) {
    return store::detail::crc32c_portable(p, n, 0);
  });
  std::printf("crc32c: %zu-byte buffer, %.2f GB/s (%s), %.2f GB/s portable\n",
              data.size(), dispatched,
              store::detail::have_sse42() ? "sse4.2, three lanes" : "portable",
              portable);
  harness.metrics()["crc32c_gbps"] = dispatched;
  harness.metrics()["crc32c_portable_gbps"] = portable;
}

}  // namespace

int main(int argc, char** argv) {
  zmail::bench::Bench harness("micro_store", argc, argv);
  check_checkpoint_allocations(harness);
  check_differential_allocations(harness);
  check_wal_append_syscalls(harness);
  report_crc_throughput(harness);
  return zmail::bench::run_micro(harness, argc, argv);
}
