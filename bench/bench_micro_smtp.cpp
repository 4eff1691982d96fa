// Microbenchmarks for the mail substrate: SMTP dialogues, message
// serialization, address parsing, and the facade's remote-delivery path.
#include <benchmark/benchmark.h>

#include <optional>

#include "bench_micro_common.hpp"

#include "core/isp.hpp"
#include "crypto/rsa.hpp"
#include "net/smtp.hpp"
#include "util/rng.hpp"

using namespace zmail;

namespace {

net::EmailMessage sample_message(std::size_t body_size) {
  return net::make_email(*net::parse_address("u1@isp0.example"),
                         *net::parse_address("u2@isp1.example"),
                         "benchmark message", std::string(body_size, 'x'));
}

void BM_SmtpTransfer(benchmark::State& state) {
  const net::EmailMessage msg =
      sample_message(static_cast<std::size_t>(state.range(0)));
  std::uint64_t delivered = 0;
  net::SmtpServerSession session(
      "isp1.example", [&delivered](const net::EmailMessage&) { ++delivered; });
  for (auto _ : state)
    benchmark::DoNotOptimize(net::smtp_transfer(msg, "isp0.example", session));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SmtpTransfer)->Arg(100)->Arg(1000)->Arg(10000);

// One session per email, as ZmailSystem::deliver_via_smtp opens one per
// inter-ISP delivery (with the per-ISP domain strings built once).
void BM_SmtpTransferFreshSession(benchmark::State& state) {
  const net::EmailMessage msg =
      sample_message(static_cast<std::size_t>(state.range(0)));
  const std::string server_domain = net::isp_domain(1);
  const std::string client_domain = net::isp_domain(0);
  std::uint64_t delivered = 0;
  for (auto _ : state) {
    net::SmtpServerSession session(
        server_domain, [&delivered](const net::EmailMessage&) { ++delivered; });
    benchmark::DoNotOptimize(
        net::smtp_transfer(msg, client_domain, session));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SmtpTransferFreshSession)->Arg(100)->Arg(1000);

// The facade's whole remote-delivery path for one email: decode the
// datagram payload, play the SMTP dialogue into a fresh session, and hand
// the parsed message to the receiving ISP.
void BM_DeliverRemote(benchmark::State& state) {
  core::ZmailParams params;
  params.n_isps = 2;
  params.users_per_isp = 4;
  params.record_inboxes = false;  // keep memory flat across iterations
  Rng key_rng(7);
  const crypto::KeyPair bank_keys = crypto::generate_keypair(key_rng);
  core::Isp isp(0, params, bank_keys.pub, 42);

  net::EmailMessage msg = net::make_email(
      net::make_user_address(1, 1), net::make_user_address(0, 2),
      "benchmark message",
      std::string(static_cast<std::size_t>(state.range(0)), 'x'));
  msg.set_header("X-Zmail-Sent-At", "123456789");
  const crypto::Bytes wire = msg.serialize();
  const std::string server_domain = net::isp_domain(0);
  const std::string client_domain = net::isp_domain(1);

  for (auto _ : state) {
    const auto sent = net::EmailMessage::deserialize(wire);
    std::optional<net::EmailMessage> received;
    net::SmtpServerSession session(
        server_domain,
        [&received](net::EmailMessage&& m) { received = std::move(m); });
    const net::SmtpTransferResult xfer =
        net::smtp_transfer(*sent, client_domain, session);
    if (xfer.accepted && received) isp.on_email(1, std::move(*received));
  }
  if (isp.metrics().emails_received_compliant !=
      static_cast<std::uint64_t>(state.iterations()))
    state.SkipWithError("remote deliveries went missing");
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DeliverRemote)->Arg(100)->Arg(1000);

// The same delivery shaped like ZmailSystem::deliver_via_smtp on a warm
// system: a view decoded in place from the datagram payload, the dialogue
// rendered from that view into the receiving host's long-lived session,
// whose callback swaps the parsed message into a reused one, and that
// message handed to the receiving ISP.  This is the path perfbench's
// mail_day runs for every remote email.
void BM_DeliverRemoteWarm(benchmark::State& state) {
  core::ZmailParams params;
  params.n_isps = 2;
  params.users_per_isp = 4;
  params.record_inboxes = false;  // keep memory flat across iterations
  Rng key_rng(7);
  const crypto::KeyPair bank_keys = crypto::generate_keypair(key_rng);
  core::Isp isp(0, params, bank_keys.pub, 42);

  net::EmailMessage msg = net::make_email(
      net::make_user_address(1, 1), net::make_user_address(0, 2),
      "benchmark message",
      std::string(static_cast<std::size_t>(state.range(0)), 'x'));
  msg.set_header("X-Zmail-Sent-At", "123456789");
  const crypto::Bytes payload = msg.serialize();
  const std::string client_domain = net::isp_domain(1);

  net::EmailView decoded;
  net::EmailMessage received;
  net::SmtpServerSession session(
      net::isp_domain(0),
      [&received](net::EmailMessage&& m) { std::swap(received, m); });
  for (auto _ : state) {
    if (!net::EmailView::decode_into(payload, decoded)) break;
    const net::SmtpTransferResult xfer =
        net::smtp_transfer(decoded, client_domain, session);
    if (!xfer.accepted) break;
    received.truth = decoded.truth;
    received.trace_id = decoded.trace_id;
    isp.on_email(1, received);
  }
  if (isp.metrics().emails_received_compliant !=
      static_cast<std::uint64_t>(state.iterations()))
    state.SkipWithError("remote deliveries went missing");
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DeliverRemoteWarm)->Arg(100)->Arg(1000);

void BM_EmailSerialize(benchmark::State& state) {
  const net::EmailMessage msg =
      sample_message(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(msg.serialize());
}
BENCHMARK(BM_EmailSerialize)->Arg(100)->Arg(10000);

void BM_EmailDeserialize(benchmark::State& state) {
  const crypto::Bytes wire =
      sample_message(static_cast<std::size_t>(state.range(0))).serialize();
  for (auto _ : state)
    benchmark::DoNotOptimize(net::EmailMessage::deserialize(wire));
}
BENCHMARK(BM_EmailDeserialize)->Arg(100)->Arg(10000);

// The facade's decode: views into the payload, into a warm EmailView.
void BM_EmailViewDecode(benchmark::State& state) {
  const crypto::Bytes wire =
      sample_message(static_cast<std::size_t>(state.range(0))).serialize();
  net::EmailView view;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::EmailView::decode_into(wire, view));
    benchmark::DoNotOptimize(view.body.data());
  }
}
BENCHMARK(BM_EmailViewDecode)->Arg(100)->Arg(10000);

void BM_AddressParse(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(net::parse_address("user.name+tag@isp42.example"));
}
BENCHMARK(BM_AddressParse);

void BM_Rfc822Render(benchmark::State& state) {
  const net::EmailMessage msg = sample_message(2000);
  for (auto _ : state) benchmark::DoNotOptimize(msg.to_rfc822());
}
BENCHMARK(BM_Rfc822Render);

}  // namespace

int main(int argc, char** argv) {
  zmail::bench::Bench harness("micro_smtp", argc, argv);
  return zmail::bench::run_micro(harness, argc, argv);
}
