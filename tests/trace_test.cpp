// zmail::trace unit tests: id minting, the implicit causal context, the
// replay guard, ring wraparound, span reconstruction, the chrome JSON
// exporter round trip (re-parsed through util::json), the per-stage
// breakdown, and profiling histograms.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "trace/analyze.hpp"
#include "trace/export.hpp"
#include "trace/trace.hpp"
#include "util/json.hpp"

namespace zmail::trace {
namespace {

// Every test starts from a quiet recorder and leaves one behind; the
// recorder is process-global state shared across the whole test binary.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_enabled(false);
    clear();
    reset_profiles();
    set_enabled(true);
    set_sim_now(0);
  }
  void TearDown() override {
    set_enabled(false);
    clear();
  }
};

TEST_F(TraceTest, NextIdMintsDistinctNonzeroIds) {
  const TraceId a = next_id();
  const TraceId b = next_id();
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
}

TEST_F(TraceTest, NextIdReturnsZeroWhenDisabled) {
  set_enabled(false);
  EXPECT_EQ(next_id(), 0u);
}

TEST_F(TraceTest, EmitIsNoOpWhenDisabled) {
  set_enabled(false);
  instant(Ev::kDeliver, 7, 0);
  set_enabled(true);
  EXPECT_TRUE(collect().empty());
}

TEST_F(TraceTest, ScopeNestsAndRestores) {
  EXPECT_EQ(current(), 0u);
  {
    Scope outer(11);
    EXPECT_EQ(current(), 11u);
    {
      Scope inner(22);
      EXPECT_EQ(current(), 22u);
    }
    EXPECT_EQ(current(), 11u);
  }
  EXPECT_EQ(current(), 0u);
}

TEST_F(TraceTest, ReplayGuardSuppressesEmissionAndMinting) {
  {
    ReplayGuard guard;
    EXPECT_TRUE(suppressed());
    EXPECT_EQ(next_id(), 0u);
    instant(Ev::kDeliver, 5, 0);
  }
  EXPECT_FALSE(suppressed());
  EXPECT_TRUE(collect().empty());
  instant(Ev::kDeliver, 5, 0);
  EXPECT_EQ(collect().size(), 1u);
}

TEST_F(TraceTest, EventsCarrySimTimeAndMonotonicSeq) {
  set_sim_now(1'000);
  instant(Ev::kSubmit, 1, 2, 3, 4);
  set_sim_now(2'000);
  instant(Ev::kDeliver, 1, 2);
  const auto events = collect();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].sim_us, 1'000);
  EXPECT_EQ(events[0].id, 1u);
  EXPECT_EQ(events[0].host, 2u);
  EXPECT_EQ(events[0].arg0, 3u);
  EXPECT_EQ(events[0].arg1, 4u);
  EXPECT_EQ(events[1].sim_us, 2'000);
  EXPECT_LT(events[0].seq, events[1].seq);
}

TEST_F(TraceTest, RingWrapsKeepingTheNewestEvents) {
  // Capacity applies to rings created after the call, so emit from a fresh
  // thread; the main thread's ring was already built at default capacity.
  set_ring_capacity(8);
  const std::uint64_t before_dropped = dropped();
  std::thread writer([] {
    for (std::uint64_t i = 0; i < 20; ++i)
      instant(Ev::kDeliver, 1'000 + i, 3);
  });
  writer.join();
  set_ring_capacity(1 << 16);  // restore for later tests' threads

  std::vector<TraceEvent> mine;
  for (const TraceEvent& e : collect())
    if (e.id >= 1'000) mine.push_back(e);
  ASSERT_EQ(mine.size(), 8u);
  // The survivors are the newest 8 of the 20, still in emission order.
  for (std::size_t i = 0; i < mine.size(); ++i)
    EXPECT_EQ(mine[i].id, 1'000 + 12 + i);
  EXPECT_EQ(dropped() - before_dropped, 12u);
}

TEST_F(TraceTest, SpanScopeEmitsBeginAndEndWithFinalArg) {
  {
    SpanScope span(Ev::kCheckpoint, 0, 4, 17);
    span.set_end_arg0(99);
  }
  const auto events = collect();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].phase, static_cast<std::uint8_t>(Phase::kBegin));
  EXPECT_EQ(events[0].arg0, 17u);
  EXPECT_EQ(events[1].phase, static_cast<std::uint8_t>(Phase::kEnd));
  EXPECT_EQ(events[1].arg0, 99u);
}

TEST_F(TraceTest, BuildSpansMatchesBeginEndPairs) {
  set_sim_now(10);
  begin(Ev::kMessage, 42, 0);
  set_sim_now(15);
  begin(Ev::kClassify, 42, 1);
  set_sim_now(20);
  end(Ev::kClassify, 42, 1);
  set_sim_now(30);
  end(Ev::kMessage, 42, 1);
  begin(Ev::kCheckpoint, 0, 2);  // host-scoped, left open
  const auto spans = build_spans(collect());
  ASSERT_EQ(spans.size(), 3u);
  int closed = 0;
  for (const Span& s : spans) {
    if (!s.closed) {
      EXPECT_EQ(s.type, Ev::kCheckpoint);
      continue;
    }
    ++closed;
    if (s.type == Ev::kMessage) {
      EXPECT_EQ(s.begin_us, 10);
      EXPECT_EQ(s.end_us, 30);
      EXPECT_EQ(s.begin_host, 0u);
      EXPECT_EQ(s.end_host, 1u);
    } else {
      EXPECT_EQ(s.type, Ev::kClassify);
      EXPECT_EQ(s.duration_us(), 5);
    }
  }
  EXPECT_EQ(closed, 2);
}

TEST_F(TraceTest, ValidateFlagsDoubleMintedRoots) {
  begin(Ev::kMessage, 7, 0);
  end(Ev::kMessage, 7, 0);
  begin(Ev::kMessage, 7, 0);  // re-mint: crash replay gone wrong
  end(Ev::kMessage, 7, 0);
  const ValidationResult v = validate(collect());
  EXPECT_FALSE(v.ok);
  ASSERT_FALSE(v.problems.empty());
}

TEST_F(TraceTest, ValidateForgivesSpansInterruptedByRecovery) {
  set_sim_now(100);
  begin(Ev::kBankBuy, 9, 2, 50);  // never ends: the ISP crashed
  set_sim_now(200);
  begin(Ev::kRecovery, 0, 2);
  set_sim_now(250);
  end(Ev::kRecovery, 0, 2);
  const ValidationResult v = validate(collect());
  EXPECT_TRUE(v.ok) << (v.problems.empty() ? "" : v.problems.front());
  EXPECT_EQ(v.spans_forgiven, 1u);
}

TEST_F(TraceTest, BreakdownAccountsClosedSpansPerStage) {
  set_sim_now(0);
  begin(Ev::kMessage, 1, 0);
  set_sim_now(40);
  end(Ev::kMessage, 1, 1);
  set_sim_now(100);
  begin(Ev::kBankBuy, 2, 0);
  set_sim_now(130);
  end(Ev::kBankBuy, 2, 0);
  const auto stages = breakdown(collect());
  ASSERT_EQ(stages.count("message"), 1u);
  ASSERT_EQ(stages.count("stamp_buy"), 1u);
  EXPECT_EQ(stages.at("message").total_us, 40);
  EXPECT_EQ(stages.at("stamp_buy").total_us, 30);
  EXPECT_EQ(stages.count("transit"), 0u);  // stage never occurred
}

TEST_F(TraceTest, ChromeExportParsesAndRoundTrips) {
  // An id and arg0 above 2^53 survive only as exact JSON integers.
  constexpr TraceId kBigId = 0xABCDEF0123456789ull;
  set_sim_now(10);
  begin(Ev::kMessage, kBigId, 1, 0xFEDCBA9876543210ull, 8);
  instant(Ev::kNetSend, kBigId, 0, 1);
  set_sim_now(20);
  end(Ev::kMessage, kBigId, 2);
  begin(Ev::kCheckpoint, 0, 2);
  end(Ev::kCheckpoint, 0, 2);
  const auto events = collect();

  const std::string path = ::testing::TempDir() + "zmail_trace_chrome.json";
  std::string err;
  ASSERT_TRUE(export_chrome(path, events, &err)) << err;

  // The file must be valid JSON in trace-event shape (util::json parses the
  // same bytes Perfetto would).
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::string text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
    std::fclose(f);
    const auto parsed = json::parse(text);
    ASSERT_TRUE(parsed.has_value());
    const json::Value* tev = parsed->find("traceEvents");
    ASSERT_NE(tev, nullptr);
    EXPECT_EQ(tev->size(), events.size());
    bool saw_async_begin = false;
    for (std::size_t i = 0; i < tev->size(); ++i)
      if (tev->at(i).find("ph") && tev->at(i).find("ph")->as_string() == "b")
        saw_async_begin = true;
    EXPECT_TRUE(saw_async_begin);
  }

  // And it must round-trip losslessly back through load().
  std::vector<TraceEvent> loaded;
  ASSERT_TRUE(load(path, &loaded, &err)) << err;
  std::remove(path.c_str());
  ASSERT_EQ(loaded.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(loaded[i].seq, events[i].seq);
    EXPECT_EQ(loaded[i].sim_us, events[i].sim_us);
    EXPECT_EQ(loaded[i].wall_ns, events[i].wall_ns);
    EXPECT_EQ(loaded[i].id, events[i].id);
    EXPECT_EQ(loaded[i].arg0, events[i].arg0);
    EXPECT_EQ(loaded[i].arg1, events[i].arg1);
    EXPECT_EQ(loaded[i].host, events[i].host);
    EXPECT_EQ(loaded[i].type, events[i].type);
    EXPECT_EQ(loaded[i].phase, events[i].phase);
  }
  EXPECT_EQ(loaded.front().id, kBigId);
}

TEST_F(TraceTest, ProfileHistogramRecordsAndSnapshots) {
  ProfileHistogram h;
  h.record(100);
  h.record(1'000);
  h.record(10'000);
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 3u);
  EXPECT_EQ(s.total_ns, 11'100u);
  EXPECT_EQ(s.min_ns, 100u);
  EXPECT_EQ(s.max_ns, 10'000u);
  EXPECT_GT(s.percentile_ns(50), 0.0);
  EXPECT_GE(s.percentile_ns(99), s.percentile_ns(50));
}

TEST_F(TraceTest, ProfilesExportToJsonByName) {
  profile("test.alpha").record(500);
  profile("test.alpha").record(700);
  const json::Value j = profiles_to_json();
  const json::Value* alpha = j.find("test.alpha");
  ASSERT_NE(alpha, nullptr);
  EXPECT_EQ(alpha->find("count")->as_uint64(), 2u);
}

TEST_F(TraceTest, ScopedTimerRespectsProfilingSwitch) {
  ProfileHistogram h;
  set_profiling_enabled(false);
  { ScopedTimer t(h); }
  EXPECT_EQ(h.snapshot().count, 0u);
  set_profiling_enabled(true);
  { ScopedTimer t(h); }
  EXPECT_EQ(h.snapshot().count, 1u);
}

}  // namespace
}  // namespace zmail::trace
