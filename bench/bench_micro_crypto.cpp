// Microbenchmarks for the crypto substrate: SHA-256, HMAC, XTEA-CTR,
// RSA keygen/apply, NCR/DCR envelopes (the snapshot round's included),
// NNC nonces, hashcash.
#include <benchmark/benchmark.h>

#include <array>

#include "bench_micro_common.hpp"

#include "crypto/hashcash.hpp"
#include "crypto/hmac.hpp"
#include "crypto/nonce.hpp"
#include "crypto/rsa.hpp"
#include "crypto/sha256_impl.hpp"
#include "crypto/xtea.hpp"
#include "crypto/xtea_impl.hpp"
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
  // The label shows which kernel xtea_ctr ran at this length.
  const auto len = static_cast<std::size_t>(state.range(0));
  state.SetLabel(
      crypto::detail::xtea_kernel_name(crypto::detail::xtea_kernel_for(len)));
  const crypto::XteaKey key =
      crypto::xtea_key_from_bytes(crypto::from_string("bench"));
  const crypto::Bytes data = make_data(len);
  std::uint64_t nonce = 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(crypto::xtea_ctr(data, key, ++nonce));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
// 9 B and 525 B are a snapshot request and a 64-ISP credit report.
BENCHMARK(BM_XteaCtr)->Arg(9)->Arg(64)->Arg(525)->Arg(1024)->Arg(16384);

void BM_RsaKeygen(benchmark::State& state) {
  Rng rng(7);
  for (auto _ : state)
    benchmark::DoNotOptimize(crypto::generate_keypair(rng));
}
BENCHMARK(BM_RsaKeygen);

// Arg 0 applies the public exponent (e = 65537), arg 1 the private one
// (about as wide as n): the bank wraps every snapshot request's session key
// with the latter and unwraps every credit report's with it.
void BM_RsaApply(benchmark::State& state) {
  Rng rng(8);
  const crypto::KeyPair keys = crypto::generate_keypair(rng);
  const crypto::RsaKey& key = state.range(0) == 0 ? keys.pub : keys.priv;
  state.SetLabel(state.range(0) == 0 ? "pub" : "priv");
  std::uint64_t m = 12345;
  for (auto _ : state) {
    m = crypto::rsa_apply(key, m % key.n);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_RsaApply)->Arg(0)->Arg(1);

// Both session-key halves of an envelope in one two-lane ladder.
void BM_RsaApply2(benchmark::State& state) {
  Rng rng(8);
  const crypto::KeyPair keys = crypto::generate_keypair(rng);
  const crypto::RsaKey& key = state.range(0) == 0 ? keys.pub : keys.priv;
  state.SetLabel(state.range(0) == 0 ? "pub" : "priv");
  std::array<std::uint64_t, 2> m = {12345, 67890};
  for (auto _ : state) {
    m = crypto::rsa_apply2(key, m[0] % key.n, m[1] % key.n);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_RsaApply2)->Arg(0)->Arg(1);

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

// The snapshot round's envelopes at their real shapes, through the scratch
// variants the ISP and bank use: the bank seals a 9-byte request with R_b
// and every ISP unseals it with B_b; every ISP seals its 525-byte credit
// report (64 ISPs) with B_b and the bank unseals it with R_b.
struct RoundShape {
  std::size_t len;
  bool sealed_with_priv;
};
RoundShape round_shape(const benchmark::State& state) {
  return state.range(0) == 0 ? RoundShape{9, true} : RoundShape{525, false};
}

void BM_RoundSeal(benchmark::State& state) {
  const RoundShape shape = round_shape(state);
  state.SetLabel(shape.sealed_with_priv ? "request, priv" : "report, pub");
  Rng rng(13);
  const crypto::KeyPair keys = crypto::generate_keypair(rng);
  const crypto::RsaKey& key = shape.sealed_with_priv ? keys.priv : keys.pub;
  const crypto::Bytes plain = make_data(shape.len);
  crypto::Envelope env;
  crypto::Bytes wire;
  for (auto _ : state) {
    crypto::ncr_into(key, plain, rng, env);
    env.serialize_into(wire);
    benchmark::DoNotOptimize(wire.data());
  }
}
BENCHMARK(BM_RoundSeal)->Arg(0)->Arg(1);

void BM_RoundUnseal(benchmark::State& state) {
  const RoundShape shape = round_shape(state);
  state.SetLabel(shape.sealed_with_priv ? "request, pub" : "report, priv");
  Rng rng(14);
  const crypto::KeyPair keys = crypto::generate_keypair(rng);
  const crypto::RsaKey& seal_key =
      shape.sealed_with_priv ? keys.priv : keys.pub;
  const crypto::RsaKey& open_key =
      shape.sealed_with_priv ? keys.pub : keys.priv;
  const crypto::Bytes wire =
      crypto::ncr(seal_key, make_data(shape.len), rng).serialize();
  crypto::Envelope env;
  crypto::Bytes plain;
  for (auto _ : state) {
    const bool ok = crypto::Envelope::deserialize_into(wire, env) &&
                    crypto::dcr_into(open_key, env, plain);
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_RoundUnseal)->Arg(0)->Arg(1);

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
