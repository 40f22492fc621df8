#include "obs/stats.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <string_view>

#include "core/ard.h"
#include "core/msri.h"
#include "obs/latency.h"
#include "obs/trace.h"
#include "test_util.h"

namespace msn {
namespace {

using testing::SmallRandomNet;
using testing::SmallTech;
using testing::TwoPinLine;

TEST(Counter, StartsAtZeroAndAccumulates) {
  obs::Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.Value(), 42u);
}

TEST(Timer, RecordAccumulatesAndConverts) {
  obs::Timer t;
  EXPECT_EQ(t.Calls(), 0u);
  t.Record(1'500'000);  // 1.5 ms.
  t.Record(500'000);
  EXPECT_EQ(t.Calls(), 2u);
  EXPECT_EQ(t.TotalNs(), 2'000'000u);
  EXPECT_DOUBLE_EQ(t.TotalMs(), 2.0);
  EXPECT_DOUBLE_EQ(t.MeanUs(), 1000.0);
}

TEST(ScopedTimer, NullTimerIsANoOp) {
  // Must not crash and must not read the clock.
  const obs::ScopedTimer t(nullptr);
}

TEST(ScopedTimer, RecordsOneCall) {
  obs::Timer timer;
  { const obs::ScopedTimer t(&timer); }
  EXPECT_EQ(timer.Calls(), 1u);
}

TEST(Histogram, TracksMomentsAndBuckets) {
  obs::Histogram h;
  h.Record(1.0);
  h.Record(3.0);
  h.Record(8.0);
  EXPECT_EQ(h.Count(), 3u);
  EXPECT_DOUBLE_EQ(h.Min(), 1.0);
  EXPECT_DOUBLE_EQ(h.Max(), 8.0);
  EXPECT_DOUBLE_EQ(h.Sum(), 12.0);
  EXPECT_DOUBLE_EQ(h.Mean(), 4.0);
}

TEST(RunStats, InstrumentsRegisterOnFirstUse) {
  obs::RunStats stats;
  EXPECT_TRUE(stats.Empty());
  obs::Counter& c = stats.GetCounter("demo.count");
  obs::Timer& t = stats.GetTimer("demo.time");
  // Same name must return the same instrument (stable handles).
  EXPECT_EQ(&stats.GetCounter("demo.count"), &c);
  EXPECT_EQ(&stats.GetTimer("demo.time"), &t);
  EXPECT_FALSE(stats.Empty());
  EXPECT_EQ(stats.Counters().size(), 1u);
  EXPECT_EQ(stats.Timers().size(), 1u);
}

TEST(RunStats, SinkRegistersTheMsriInstrumentSet) {
  obs::RunStats stats;
  const obs::StatsSink sink(&stats);
  for (const char* name :
       {"msri.leaf", "msri.augment", "msri.join", "msri.repeater",
        "msri.root", "msri.total", "mfs.time", "ard.total"}) {
    EXPECT_EQ(stats.Timers().count(name), 1u) << name;
  }
  // The DP's counters live in MsriStats; RunMsri writes them into the
  // registry when it exits, so a bare sink registers none.
  EXPECT_TRUE(stats.Counters().empty());
  EXPECT_EQ(stats.Histograms().count("msri.set_size"), 1u);
}

TEST(RunStats, JsonContainsTheFiveDpPhases) {
  obs::RunStats stats;
  obs::StatsSink sink(&stats);

  const Technology tech = SmallTech();
  const RcTree tree = SmallRandomNet(tech, 5, 6, 9000, 800.0);
  MsriOptions opt;
  opt.stats = &sink;
  const MsriResult result = RunMsri(tree, tech, opt);
  ASSERT_FALSE(result.Pareto().empty());

  const std::string json = stats.JsonString();
  EXPECT_NE(json.find("\"schema\":\"msn-run-stats-v1\""), std::string::npos);
  for (const char* phase :
       {"\"msri.leaf\"", "\"msri.augment\"", "\"msri.join\"",
        "\"msri.repeater\"", "\"msri.root\""}) {
    EXPECT_NE(json.find(phase), std::string::npos) << phase;
  }

  // The DP actually passed through every phase at least once.
  EXPECT_GT(stats.GetTimer("msri.leaf").Calls(), 0u);
  EXPECT_GT(stats.GetTimer("msri.join").Calls(), 0u);
  EXPECT_GT(stats.GetTimer("msri.root").Calls(), 0u);
  EXPECT_GT(stats.GetTimer("msri.total").Calls(), 0u);
  EXPECT_GT(stats.GetCounter("mfs.candidates_in").Value(), 0u);
  EXPECT_GT(stats.GetHistogram("pwl.max.segments").Count(), 0u);
}

TEST(RunStats, DisabledSinkLeavesRegistryEmpty) {
  const Technology tech = SmallTech();
  const RcTree tree = TwoPinLine(tech, 2000.0, 1);

  obs::RunStats stats;  // Never attached to any sink.
  const MsriResult result = RunMsri(tree, tech);  // options.stats == nullptr.
  ASSERT_FALSE(result.Pareto().empty());
  ComputeArd(tree, tech);  // Default sink argument is nullptr too.
  EXPECT_TRUE(stats.Empty());
  EXPECT_NE(stats.JsonString().find("\"timers\":{}"), std::string::npos);
}

TEST(RunStats, MfsPruneCountersAreConsistent) {
  obs::RunStats stats;
  obs::StatsSink sink(&stats);
  const Technology tech = SmallTech();
  const RcTree tree = SmallRandomNet(tech, 4, 6, 9000, 800.0);
  MsriOptions opt;
  opt.stats = &sink;
  RunMsri(tree, tech, opt);

  const auto in = stats.GetCounter("mfs.candidates_in").Value();
  const auto out = stats.GetCounter("mfs.candidates_out").Value();
  const auto pruned = stats.GetCounter("mfs.pruned_full").Value();
  EXPECT_GT(in, 0u);
  EXPECT_LE(out, in);
  EXPECT_EQ(in - out, pruned);

  // The derived prune rate lands in [0, 1] and matches the counters.
  const auto it = stats.Values().find("mfs.prune_rate");
  ASSERT_NE(it, stats.Values().end());
  EXPECT_NEAR(it->second,
              1.0 - static_cast<double>(out) / static_cast<double>(in),
              1e-12);
}

TEST(RunStats, ArdPassTimersFireOncePerCall) {
  obs::RunStats stats;
  obs::StatsSink sink(&stats);
  const Technology tech = SmallTech();
  const RcTree tree = TwoPinLine(tech, 2000.0, 1);
  ComputeArd(tree, tech, &sink);
  EXPECT_EQ(stats.GetTimer("ard.total").Calls(), 1u);
  EXPECT_EQ(stats.GetTimer("ard.rooting").Calls(), 1u);
  EXPECT_EQ(stats.GetTimer("ard.caps").Calls(), 1u);
  EXPECT_EQ(stats.GetTimer("ard.combine").Calls(), 1u);
}

TEST(RunStats, RenderTextMentionsEveryInstrument) {
  obs::RunStats stats;
  stats.SetLabel("tool", "stats_test");
  stats.SetValue("answer", 42.0);
  stats.GetCounter("c.one").Add(7);
  stats.GetTimer("t.one").Record(1000);
  std::ostringstream os;
  stats.RenderText(os);
  const std::string text = os.str();
  for (const char* needle : {"tool", "stats_test", "answer", "c.one", "t.one"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
}

TEST(RunStats, JsonNumbersAreFiniteOrNull) {
  obs::RunStats stats;
  stats.SetValue("bad", std::nan(""));
  const std::string json = stats.JsonString();
  EXPECT_EQ(json.find("nan"), std::string::npos);
  EXPECT_NE(json.find("\"bad\":null"), std::string::npos);
}

TEST(JsonBucketBound, PowerOfTwoBoundsRenderAsExactDistinctIntegers) {
  std::set<std::string> rendered;
  for (std::size_t i = 0; i < obs::Histogram::kNumBuckets; ++i) {
    const double bound = obs::LatencyHistogram::BucketBound(i);
    const std::string s = obs::JsonBucketBound(bound);
    // Exact decimal integer: no fraction, no scientific notation.
    EXPECT_EQ(s.find('.'), std::string::npos) << s;
    EXPECT_EQ(s.find('e'), std::string::npos) << s;
    rendered.insert(s);
  }
  // Every bound survives the round trip distinctly — setprecision-style
  // rendering would collapse the top buckets onto one mantissa.
  EXPECT_EQ(rendered.size(), obs::Histogram::kNumBuckets);
  EXPECT_EQ(obs::JsonBucketBound(std::pow(2.0, 60)),
            "1152921504606846976");
}

TEST(JsonBucketBound, NonIntegralValuesFallBackToJsonNumber) {
  EXPECT_EQ(obs::JsonBucketBound(1.5), obs::JsonNumber(1.5));
  EXPECT_EQ(obs::JsonBucketBound(-2.0), obs::JsonNumber(-2.0));
  EXPECT_EQ(obs::JsonBucketBound(std::nan("")), "null");
}

using LatencyClock = obs::LatencyHistogram::Clock;

LatencyClock::time_point LatencyEpoch() {
  return LatencyClock::time_point{} + std::chrono::seconds(1000);
}

TEST(LatencyHistogram, QuantilesAreExactAtBucketEdges) {
  const auto t0 = LatencyEpoch();
  obs::LatencyHistogram on_edge;
  on_edge.Record(1024.0, t0);
  const auto snap = on_edge.Snap(t0);
  EXPECT_EQ(snap.count, 1u);
  EXPECT_EQ(snap.window_count, 1u);
  EXPECT_DOUBLE_EQ(snap.p50_us, 1024.0);
  EXPECT_DOUBLE_EQ(snap.p99_us, 1024.0);

  // Just past the edge lands in the next bucket's bound.
  obs::LatencyHistogram past_edge;
  past_edge.Record(1024.5, t0);
  EXPECT_DOUBLE_EQ(past_edge.Snap(t0).p50_us, 2048.0);
}

TEST(LatencyHistogram, QuantilesAreMonotoneInQ) {
  const auto t0 = LatencyEpoch();
  obs::LatencyHistogram h;
  for (int i = 1; i <= 100; ++i) {
    h.Record(static_cast<double>(i) * static_cast<double>(i), t0);
  }
  const auto snap = h.Snap(t0);
  EXPECT_GT(snap.p50_us, 0.0);
  EXPECT_LE(snap.p50_us, snap.p95_us);
  EXPECT_LE(snap.p95_us, snap.p99_us);
}

TEST(LatencyHistogram, MergedQuantileStaysBetweenPartQuantiles) {
  constexpr std::size_t kN = obs::LatencyHistogram::kNumBuckets;
  std::uint64_t low[kN] = {};
  std::uint64_t high[kN] = {};
  std::uint64_t merged[kN] = {};
  low[3] = 100;    // 100 observations in (4, 8].
  high[10] = 100;  // 100 observations in (512, 1024].
  for (std::size_t i = 0; i < kN; ++i) merged[i] = low[i] + high[i];
  for (const double q : {0.5, 0.95, 0.99}) {
    const double ql = obs::LatencyHistogram::QuantileFromBuckets(low, q);
    const double qh = obs::LatencyHistogram::QuantileFromBuckets(high, q);
    const double qm =
        obs::LatencyHistogram::QuantileFromBuckets(merged, q);
    EXPECT_GE(qm, std::min(ql, qh)) << q;
    EXPECT_LE(qm, std::max(ql, qh)) << q;
  }
  // The merged median sits in the low half, the tail in the high half.
  EXPECT_DOUBLE_EQ(obs::LatencyHistogram::QuantileFromBuckets(merged, 0.5),
                   8.0);
  EXPECT_DOUBLE_EQ(
      obs::LatencyHistogram::QuantileFromBuckets(merged, 0.99), 1024.0);
}

TEST(LatencyHistogram, WindowExpiresAndFallsBackToCumulative) {
  const auto t0 = LatencyEpoch();
  obs::LatencyHistogram h;
  h.Record(100.0, t0);  // (64, 128] -> bound 128.
  const auto fresh = h.Snap(t0 + std::chrono::seconds(30));
  EXPECT_EQ(fresh.window_count, 1u);
  EXPECT_DOUBLE_EQ(fresh.p50_us, 128.0);

  // Two minutes later the window is empty, but a shutdown-time snapshot
  // still reports the cumulative distribution.
  const auto stale = h.Snap(t0 + std::chrono::seconds(120));
  EXPECT_EQ(stale.window_count, 0u);
  EXPECT_EQ(stale.count, 1u);
  EXPECT_DOUBLE_EQ(stale.p50_us, 128.0);
}

TEST(LatencyHistogram, SliceReuseDropsStaleCountsFromTheWindow) {
  const auto t0 = LatencyEpoch();
  obs::LatencyHistogram h;
  h.Record(100.0, t0);
  // 60s later the same slice slot is reused for a new slice number; the
  // stale counts must not leak into the new window.
  h.Record(5000.0, t0 + std::chrono::seconds(60));
  const auto snap = h.Snap(t0 + std::chrono::seconds(60));
  EXPECT_EQ(snap.count, 2u);
  EXPECT_EQ(snap.window_count, 1u);
  EXPECT_DOUBLE_EQ(snap.p50_us, 8192.0);  // 5000 -> (4096, 8192].
}

TEST(LatencyHistogram, WriteJsonEmitsExactIntegerBounds) {
  const auto t0 = LatencyEpoch();
  obs::LatencyHistogram h;
  h.Record(std::pow(2.0, 60), t0);
  std::ostringstream os;
  h.WriteJson(os, t0);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
  EXPECT_NE(json.find("\"window_count\":1"), std::string::npos);
  // Quantiles and bucket bounds are exact integers (mean_us is a plain
  // JsonNumber and may legitimately render scientifically).
  EXPECT_NE(json.find("\"p50_us\":1152921504606846976"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("[[1152921504606846976,1]]"), std::string::npos)
      << json;
}

TEST(Trace, NullScopedSpanIsANoOp) {
  // Must not crash and must not read the clock.
  const obs::ScopedSpan span(nullptr, "noop");
}

TEST(Trace, TraceIdsAreUniqueNonZero16Hex) {
  const std::uint64_t a = obs::NewTraceId();
  const std::uint64_t b = obs::NewTraceId();
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
  const std::string hex = obs::TraceIdHex(a);
  EXPECT_EQ(hex.size(), 16u);
  EXPECT_EQ(hex.find_first_not_of("0123456789abcdef"), std::string::npos);
}

TEST(Trace, SpansNestViaParentLinks) {
  obs::Trace trace(obs::NewTraceId());
  {
    const obs::ScopedSpan outer(&trace, "outer");
    { const obs::ScopedSpan inner(&trace, "inner"); }
  }
  // Spans record on destruction: inner first, outer second.
  ASSERT_EQ(trace.Spans().size(), 2u);
  const obs::TraceSpan& inner = trace.Spans()[0];
  const obs::TraceSpan& outer = trace.Spans()[1];
  EXPECT_STREQ(inner.name, "inner");
  EXPECT_STREQ(outer.name, "outer");
  EXPECT_EQ(outer.parent_id, 0u);
  EXPECT_EQ(inner.parent_id, outer.span_id);
  EXPECT_LE(outer.start, inner.start);
  EXPECT_GE(outer.end, inner.end);
}

TEST(Trace, BufferIsBoundedAndCountsDrops) {
  obs::Trace trace(obs::NewTraceId(), /*capacity=*/2);
  for (int i = 0; i < 5; ++i) {
    const obs::ScopedSpan span(&trace, "s");
  }
  EXPECT_EQ(trace.Spans().size(), 2u);
  EXPECT_EQ(trace.Dropped(), 3u);
}

TEST(Trace, ChromeTraceJsonCarriesIdentityAndCompleteEvents) {
  obs::Trace trace(obs::NewTraceId());
  { const obs::ScopedSpan span(&trace, "only"); }
  const std::string json = trace.ChromeTraceString();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"only\""), std::string::npos);
  EXPECT_NE(json.find(trace.TraceIdString()), std::string::npos);
  EXPECT_NE(json.find("\"dropped_spans\":0"), std::string::npos);
}

TEST(Trace, RunMsriOpensPhaseSpansUnderTotal) {
  const Technology tech = SmallTech();
  const RcTree tree = SmallRandomNet(tech, 5, 6, 9000, 800.0);
  obs::Trace trace(obs::NewTraceId());
  obs::RunStats stats;
  obs::StatsSink sink(&stats);
  MsriOptions opt;
  opt.trace = &trace;
  opt.stats = &sink;
  const MsriResult result = RunMsri(tree, tech, opt);
  ASSERT_FALSE(result.Pareto().empty());
  ASSERT_EQ(trace.Dropped(), 0u);

  std::uint64_t total_id = 0;
  std::set<std::uint64_t> join_ids;
  for (const obs::TraceSpan& s : trace.Spans()) {
    if (std::string_view(s.name) == "msri.total") total_id = s.span_id;
    if (std::string_view(s.name) == "msri.join") join_ids.insert(s.span_id);
  }
  ASSERT_NE(total_id, 0u);
  bool saw_leaf = false;
  bool saw_root = false;
  std::uint64_t mfs_spans = 0;
  for (const obs::TraceSpan& s : trace.Spans()) {
    const std::string_view name(s.name);
    // MFS pruning is its own span, one per call, opened either between
    // phases or inside a join's chunked pruning.
    if (name == "mfs") {
      ++mfs_spans;
      EXPECT_TRUE(s.parent_id == total_id || join_ids.count(s.parent_id) == 1)
          << "mfs span under span " << s.parent_id;
    }
    if (name == "msri.leaf") {
      saw_leaf = true;
      EXPECT_EQ(s.parent_id, total_id);
    }
    if (name == "msri.root") {
      saw_root = true;
      EXPECT_EQ(s.parent_id, total_id);
    }
  }
  EXPECT_TRUE(saw_leaf);
  EXPECT_TRUE(saw_root);
  EXPECT_GT(mfs_spans, 0u);
  EXPECT_EQ(mfs_spans, stats.GetCounter("mfs.calls").Value());
}

}  // namespace
}  // namespace msn
