// Microbenchmarks for the crypto substrate: SHA-256, HMAC, XTEA-CTR,
// RSA keygen/apply, NCR/DCR envelopes, NNC nonces, hashcash.
#include <benchmark/benchmark.h>

#include "bench_micro_common.hpp"

#include "crypto/hashcash.hpp"
#include "crypto/hmac.hpp"
#include "crypto/nonce.hpp"
#include "crypto/rsa.hpp"
#include "crypto/sha256_impl.hpp"
#include "crypto/xtea.hpp"
#include "util/rng.hpp"

using namespace zmail;

namespace {

crypto::Bytes make_data(std::size_t n) {
  Rng rng(1);
  crypto::Bytes b(n);
  for (auto& x : b) x = static_cast<std::uint8_t>(rng.next_u64());
  return b;
}

void BM_Sha256(benchmark::State& state) {
  // The label shows which compress path Sha256 dispatched to.
  state.SetLabel(crypto::detail::have_sha_ni() ? "sha-ni" : "portable");
  const crypto::Bytes data = make_data(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(crypto::sha256(data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(16384);

void BM_HmacSha256(benchmark::State& state) {
  const crypto::Bytes key = make_data(32);
  const crypto::Bytes data = make_data(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(crypto::hmac_sha256(key, data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(64)->Arg(520)->Arg(1024);

void BM_XteaCtr(benchmark::State& state) {
  const crypto::XteaKey key =
      crypto::xtea_key_from_bytes(crypto::from_string("bench"));
  const crypto::Bytes data = make_data(static_cast<std::size_t>(state.range(0)));
  std::uint64_t nonce = 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(crypto::xtea_ctr(data, key, ++nonce));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_XteaCtr)->Arg(64)->Arg(520)->Arg(1024)->Arg(16384);

void BM_RsaKeygen(benchmark::State& state) {
  Rng rng(7);
  for (auto _ : state)
    benchmark::DoNotOptimize(crypto::generate_keypair(rng));
}
BENCHMARK(BM_RsaKeygen);

void BM_RsaApply(benchmark::State& state) {
  Rng rng(8);
  const crypto::KeyPair keys = crypto::generate_keypair(rng);
  std::uint64_t m = 12345;
  for (auto _ : state) {
    m = crypto::rsa_apply(keys.pub, m % keys.pub.n);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_RsaApply);

void BM_EnvelopeSeal(benchmark::State& state) {
  Rng rng(9);
  const crypto::KeyPair keys = crypto::generate_keypair(rng);
  const crypto::Bytes plain = make_data(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(crypto::ncr(keys.pub, plain, rng));
}
// 520 B is the credit report of a 64-ISP world.
BENCHMARK(BM_EnvelopeSeal)->Arg(32)->Arg(520)->Arg(1024);

void BM_EnvelopeUnseal(benchmark::State& state) {
  Rng rng(10);
  const crypto::KeyPair keys = crypto::generate_keypair(rng);
  const crypto::Envelope env =
      crypto::ncr(keys.pub, make_data(static_cast<std::size_t>(state.range(0))), rng);
  for (auto _ : state)
    benchmark::DoNotOptimize(crypto::dcr(keys.priv, env));
}
BENCHMARK(BM_EnvelopeUnseal)->Arg(32)->Arg(520)->Arg(1024);

void BM_NonceNext(benchmark::State& state) {
  crypto::NonceGenerator gen(42);
  for (auto _ : state) benchmark::DoNotOptimize(gen.next());
}
BENCHMARK(BM_NonceNext);

void BM_HashcashSolve(benchmark::State& state) {
  std::uint64_t start = 0;
  for (auto _ : state) {
    const crypto::PowStamp stamp = crypto::pow_solve(
        "victim@isp.example", static_cast<int>(state.range(0)), start);
    start = stamp.counter + 1;
    benchmark::DoNotOptimize(stamp);
  }
}
BENCHMARK(BM_HashcashSolve)->Arg(8)->Arg(12)->Arg(16);

void BM_HashcashVerify(benchmark::State& state) {
  const crypto::PowStamp stamp = crypto::pow_solve("victim@isp.example", 12);
  for (auto _ : state)
    benchmark::DoNotOptimize(crypto::pow_verify(stamp));
}
BENCHMARK(BM_HashcashVerify);

}  // namespace

int main(int argc, char** argv) {
  zmail::bench::Bench harness("micro_crypto", argc, argv);
  return zmail::bench::run_micro(harness, argc, argv);
}
