// Microbenchmarks for the durable store: CRC32C, WAL append, and one
// streamed ISP checkpoint at 100k users.
//
// The binary replaces the global operator new to count heap allocations
// and the bytes they ask for.  Its one check is exact, so it runs in
// --smoke too: a warm 100k-user ISP checkpoint streams its 7.4 MB of
// Population columns to the file without staging them, so the whole
// checkpoint (sections, framing, paths, WAL truncation) allocates less
// than 64 KiB.
#include <benchmark/benchmark.h>

#include <atomic>
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
    // Keep the file small; a truncation every 4096 records is noise.
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
    for (std::size_t u = 0; u < kCheckpointUsers; u += 97) {
      const auto r = isp->user(u);
      r.balance += static_cast<EPenny>(u % 13);
      r.lifetime_sent = static_cast<std::int64_t>(u % 29);
    }
    store::StoreConfig cfg;
    cfg.enabled = true;
    cfg.dir = kWorkDir;
    cfg.fsync_data = false;
    std::filesystem::remove_all(kWorkDir);
    ok = cp.open(cfg, "isp0", &err);
  }
  ~CheckpointRig() { std::filesystem::remove_all(kWorkDir); }

  // What ZmailSystem::checkpoint_host does for an ISP.
  bool checkpoint(std::uint64_t sim_us) {
    crypto::Bytes scalars;
    std::vector<store::SnapshotSection> sections;
    isp->serialize_sections(scalars, sections);
    return cp.checkpoint(std::move(sections), sim_us, &err);
  }

  Rng key_rng;
  crypto::KeyPair keys;
  std::unique_ptr<core::Isp> isp;
  store::Checkpointer cp;
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

}  // namespace

int main(int argc, char** argv) {
  zmail::bench::Bench harness("micro_store", argc, argv);
  check_checkpoint_allocations(harness);
  return zmail::bench::run_micro(harness, argc, argv);
}
