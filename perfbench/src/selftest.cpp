#include "selftest.hpp"

#include <cctype>
#include <cstdio>
#include <vector>

#include "ops.hpp"
#include "runner.hpp"

namespace perfbench {

namespace {

bool only_chars(const std::string& s, const char* extra) {
  for (const char c : s) {
    if (std::isalnum(static_cast<unsigned char>(c))) continue;
    bool ok = false;
    for (const char* e = extra; *e; ++e) ok |= c == *e;
    if (!ok) return false;
  }
  return true;
}

int g_failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "self-test FAILED: %s\n", what);
  }
}

void test_stream_determinism() {
  for (const std::string& name : workload_names()) {
    WorkloadSpec spec = *workload_spec(name);
    spec.ops = 5'000;  // keep the check fast; the generator is size-agnostic
    const OpStream a = generate_ops(spec, 7);
    const OpStream b = generate_ops(spec, 7);
    const OpStream c = generate_ops(spec, 8);
    expect(stream_digest(a) == stream_digest(b), "same seed, same stream");
    expect(stream_digest(a) != stream_digest(c), "new seed, new stream");
    expect(a.ops.size() ==
               spec.ops + spec.isp_recoveries + spec.bank_recoveries,
           "stream holds every op");
    expect(a.emails + a.trades == spec.ops, "emails + trades == ops");
    bool sorted = true, in_range = true;
    const std::size_t users = spec.params.n_isps * spec.params.users_per_isp;
    for (std::size_t i = 0; i < a.ops.size(); ++i) {
      const Op& op = a.ops[i];
      if (i > 0 && op.at < a.ops[i - 1].at) sorted = false;
      if (op.at < 0 || op.at > spec.horizon + zmail::sim::kHour)
        in_range = false;
      if ((op.kind == OpKind::kSend || op.kind == OpKind::kSpam) &&
          (op.from >= users || op.to >= users || op.body >= a.bodies.size()))
        in_range = false;
    }
    expect(sorted, "ops sorted by simulated time");
    expect(in_range, "op fields within the world and the body pool");
  }
}

void test_percentiles() {
  std::vector<double> xs;
  for (int i = 100; i >= 1; --i) xs.push_back(i);
  expect(percentile(xs, 50) == 50.5, "median of 1..100 is 50.5");
  expect(percentile(xs, 0) == 1 && percentile(xs, 100) == 100,
         "p0/p100 are min/max");
  expect(percentile({}, 50) == 0.0, "empty sample reads 0");
  expect(percentile({3.0}, 99) == 3.0, "single sample is every percentile");
}

void test_names() {
  expect(valid_metric_name("core.send_ns.p99"), "dotted name accepted");
  expect(valid_metric_name("ns_per_email"), "plain name accepted");
  expect(!valid_metric_name(".x"), "leading dot rejected");
  expect(!valid_metric_name("a b"), "space rejected");
  expect(!valid_metric_name(std::string(65, 'a')), "65 chars rejected");
  expect(valid_unit("ns") && valid_unit("1/s") && valid_unit("%"),
         "common units accepted");
  expect(!valid_unit("") && !valid_unit("m s"), "bad units rejected");
  expect(!valid_unit(std::string(17, 's')), "17-char unit rejected");
}

}  // namespace

bool valid_metric_name(const std::string& name) {
  return !name.empty() && name.size() <= 64 &&
         std::isalnum(static_cast<unsigned char>(name[0])) &&
         only_chars(name, "_.-");
}

bool valid_unit(const std::string& unit) {
  return !unit.empty() && unit.size() <= 16 && only_chars(unit, "_/%.-");
}

int run_self_test() {
  test_stream_determinism();
  test_percentiles();
  test_names();
  if (g_failures == 0) std::printf("self-test passed\n");
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
