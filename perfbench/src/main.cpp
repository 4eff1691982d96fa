// zmail_perfbench — the repository benchmark (see ../README.md).
//
//   zmail_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--out DIR] [--commit SHA]
//   zmail_perfbench --self-test
//
// Untraced (--trace 0): repeats the workload on one pre-generated op stream
// for about S seconds and reports the end-to-end metrics.
// Traced (--trace 1): half the budget untraced, then one traced repetition
// with spans around every facade call, then replay timings; reports the
// per-layer metrics.  The last stdout line is the result object.
#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "ops.hpp"
#include "runner.hpp"
#include "selftest.hpp"
#include "trace/trace.hpp"
#include "util/json.hpp"

using namespace perfbench;
using Clock = std::chrono::steady_clock;

namespace {

constexpr std::size_t kMinReps = 3;
constexpr std::size_t kMaxReps = 64;
// Extra world constructions per repetition, for more set-up samples.
constexpr int kExtraSetups = 4;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool self_test = false;
  std::string out = ".bench_build/perfbench";
  std::string commit = "unknown";
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--self-test") {
      a.self_test = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    try {
      if (k == "--workload") a.workload = v;
      else if (k == "--seed") a.seed = std::stoull(v);
      else if (k == "--seconds") a.seconds = std::stod(v);
      else if (k == "--trace") a.trace = std::stoi(v) != 0;
      else if (k == "--out") a.out = v;
      else if (k == "--commit") a.commit = v;
      else return false;
    } catch (...) {
      return false;
    }
  }
  return a.self_test || (!a.workload.empty() && a.seconds > 0);
}

bool optimized_build() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  return true;
#else
  return false;
#endif
}

zmail::json::Value run_context(const Args& a) {
  zmail::json::Value c = zmail::json::Value::object();
  c["nproc"] = static_cast<std::int64_t>(::sysconf(_SC_NPROCESSORS_ONLN));
  c["compiler"] = PERFBENCH_COMPILER;
  c["cxx_flags"] = PERFBENCH_CXX_FLAGS;
  c["build_type"] = PERFBENCH_BUILD_TYPE;
  c["optimized"] = optimized_build();
  c["commit"] = a.commit;
  c["workload"] = a.workload;
  c["seed"] = a.seed;
  c["seconds"] = a.seconds;
  c["trace"] = a.trace;
  return c;
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

zmail::json::Value summary(const std::vector<double>& xs) {
  zmail::json::Value s = zmail::json::Value::object();
  zmail::json::Value all = zmail::json::Value::array();
  for (double x : xs) all.push_back(x);
  s["values"] = std::move(all);
  s["median"] = percentile(xs, 50);
  s["q1"] = percentile(xs, 25);
  s["q3"] = percentile(xs, 75);
  s["min"] = percentile(xs, 0);
  s["max"] = percentile(xs, 100);
  s["samples"] = static_cast<std::uint64_t>(xs.size());
  return s;
}

zmail::json::Value metric_json(double value, const std::string& unit) {
  zmail::json::Value m = zmail::json::Value::object();
  m["value"] = value;
  m["unit"] = unit;
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: zmail_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out DIR] [--commit SHA] | --self-test\n");
    return 2;
  }
  if (args.self_test) return run_self_test();
  const auto spec = workload_spec(args.workload);
  if (!spec) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  const zmail::json::Value context = run_context(args);
  std::printf("%s\n", context.dump(0).c_str());
  if (!optimized_build())
    std::printf("WARNING: unoptimised build; do not compare these numbers\n");

  const auto t_gen = Clock::now();
  const OpStream ops = generate_ops(*spec, args.seed);
  const double pregen_s =
      std::chrono::duration<double>(Clock::now() - t_gen).count();

  const std::string tag = std::to_string(::getpid());
  RepOptions opt;
  opt.seed = args.seed;
  opt.store_dir = args.out + "/store-" + tag;
  opt.scratch_dir = args.out + "/scratch-" + tag;

  // Untraced repetitions until the budget would be overrun.
  const auto t_start = Clock::now();
  const double budget = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<RepResult> reps;
  std::vector<double> setup;
  for (;;) {
    reps.push_back(run_rep(*spec, ops, opt));
    setup.push_back(reps.back().setup_s);
    for (int k = 0; k < kExtraSetups; ++k)
      setup.push_back(time_setup(*spec, opt));
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - t_start).count();
    const double per_rep = elapsed / static_cast<double>(reps.size());
    if (reps.size() >= kMaxReps) break;
    if (reps.size() >= kMinReps && elapsed + per_rep > budget) break;
  }

  std::optional<RepResult> traced;
  SpanLog spans;
  if (args.trace) {
    opt.spans = &spans;
    traced = run_rep(*spec, ops, opt);
  }
  std::filesystem::remove_all(opt.scratch_dir);

  // Correctness: every gate clean and one digest across all repetitions.
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  auto absorb = [&](const RepResult& r) {
    failed += r.failed;
    failures.insert(failures.end(), r.failures.begin(), r.failures.end());
    if (r.digest != reps.front().digest) {
      ++failed;
      failures.push_back("modelled outputs differ between repetitions: " +
                         r.digest + " vs " + reps.front().digest);
    }
  };
  for (const RepResult& r : reps) absorb(r);
  if (traced) absorb(*traced);
  const std::uint64_t attempted =
      reps.front().ops * (reps.size() + (traced ? 1 : 0));

  std::vector<double> ns, recovery;
  for (const RepResult& r : reps) {
    ns.push_back(r.ns_per_email());
    recovery.insert(recovery.end(), r.recover_isp_ms.begin(),
                    r.recover_isp_ms.end());
  }
  const RepResult& first = reps.front();
  // Interference from other tenants only ever adds time, so each slice of
  // the op stream is charged its fastest repetition: the sum is the
  // steadiest estimate of the timed phase (see README.md).
  double best_ns = 0.0;
  for (std::size_t k = 0; k < first.slice_ns.size(); ++k) {
    std::vector<double> xs;
    for (const RepResult& r : reps) xs.push_back(r.slice_ns[k]);
    best_ns += percentile(xs, 0);
  }
  const double ns_per_email = best_ns / static_cast<double>(first.emails);
  const double setup_s = percentile(setup, 0);

  zmail::json::Value detail = zmail::json::Value::object();
  detail["ns_per_email"] = ns_per_email;
  detail["ns_per_email_by_rep"] = summary(ns);
  detail["setup_s"] = setup_s;
  detail["setup_s_samples"] = summary(setup);
  if (!recovery.empty()) detail["recovery_ms"] = summary(recovery);
  detail["peak_rss_mb"] = peak_rss_mb();
  zmail::json::Value lat = zmail::json::Value::object();
  lat["p50_s"] = first.latency_p50_s;
  lat["p99_s"] = first.latency_p99_s;
  lat["samples"] = first.latency_samples;
  detail["sim_latency"] = std::move(lat);
  zmail::json::Value harness = zmail::json::Value::object();
  harness["pregen_s"] = pregen_s;
  harness["ops"] = first.ops;
  harness["emails"] = ops.emails;
  harness["trades"] = ops.trades;
  harness["refused"] = first.refused;
  harness["stream_digest"] = stream_digest(ops);
  harness["reps"] = static_cast<std::uint64_t>(reps.size());
  detail["harness"] = std::move(harness);
  detail["digest"] = first.digest;
  zmail::json::Value fails = zmail::json::Value::array();
  for (const std::string& f : failures) fails.push_back(f);
  detail["failures"] = std::move(fails);

  zmail::json::Value metrics = zmail::json::Value::object();
  if (!traced) {
    metrics["ns_per_email"] = metric_json(ns_per_email, "ns");
    metrics["setup_s"] = metric_json(setup_s, "s");
    metrics["peak_rss_mb"] = metric_json(peak_rss_mb(), "MB");
    metrics["sim_latency_p50_s"] = metric_json(first.latency_p50_s, "s");
    metrics["sim_latency_p99_s"] = metric_json(first.latency_p99_s, "s");
  } else {
    zmail::json::Value layers = zmail::json::Value::object();
    for (const Metric& m : traced->layers) {
      zmail::json::Value v = metric_json(m.value, m.unit);
      v["samples"] = m.samples;
      layers[m.name] = std::move(v);
      metrics[m.name] = metric_json(m.value, m.unit);
    }
    const double overhead = traced->ns_per_email() / percentile(ns, 50);
    metrics["trace.overhead_ratio"] = metric_json(overhead, "ratio");
    detail["layers"] = std::move(layers);
    detail["traced_ns_per_email"] = traced->ns_per_email();
    detail["profiles"] = zmail::trace::profiles_to_json();
    std::filesystem::create_directories(args.out);
    const std::string path = args.out + "/spans-" + args.workload + ".csv";
    detail["spans_file"] = path;
    if (!spans.write_csv(path)) {
      ++failed;
      detail["failures"].push_back("could not write " + path);
    }
  }
  for (const auto& [name, m] : metrics.items()) {
    if (!valid_metric_name(name) ||
        !valid_unit(m.find("unit")->as_string())) {
      std::fprintf(stderr, "invalid metric name or unit: %s\n", name.c_str());
      return 3;
    }
  }

  zmail::json::Value wrapper = zmail::json::Value::object();
  wrapper["detail"] = std::move(detail);
  std::printf("%s\n", wrapper.dump(0).c_str());

  zmail::json::Value result = zmail::json::Value::object();
  result["correct"] = failed == 0;
  result["attempted"] = attempted;
  result["failed"] = failed;
  result["metrics"] = std::move(metrics);
  std::printf("%s\n", result.dump(0).c_str());
  return failed == 0 ? 0 : 1;
}
