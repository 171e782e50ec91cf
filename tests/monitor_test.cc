// Tests for the monitoring layer: DOT/text network rendering, tuple
// locations, and the analysis pane's series/aggregation/CSV.

#include <gtest/gtest.h>

#include "monitor/analysis.h"
#include "monitor/network.h"
#include "tests/test_util.h"
#include "util/string_util.h"

namespace dc::monitor {
namespace {

class MonitorTest : public ::testing::Test {
 protected:
  MonitorTest() : engine_(testutil::SyncOptions()) {
    DC_CHECK_OK(engine_.Execute(
        "CREATE STREAM s (ts timestamp, v int);"
        "CREATE TABLE dim (v int, label string);"
        "INSERT INTO dim VALUES (1, 'one')"));
    Engine::ContinuousOptions o1 = testutil::WithMode(ExecMode::kIncremental);
    o1.name = "agg";
    q1_ = *engine_.SubmitContinuous(
        "SELECT count(*) FROM s [RANGE 2 SECONDS SLIDE 1 SECONDS]", o1);
    Engine::ContinuousOptions o2 = testutil::WithMode(ExecMode::kFullReeval);
    o2.name = "joiner";
    q2_ = *engine_.SubmitContinuous(
        "SELECT label FROM s JOIN dim ON s.v = dim.v", o2);
    for (int i = 0; i < 5; ++i) {
      DC_CHECK_OK(engine_.PushRow(
          "s", {Value::Ts(i * kMicrosPerSecond), Value::I64(i % 2)}));
    }
    engine_.Pump();
  }

  Engine engine_;
  int q1_ = 0, q2_ = 0;
};

TEST_F(MonitorTest, DotExportContainsAllComponents) {
  const std::string dot = ExportDot(engine_);
  EXPECT_NE(dot.find("digraph datacell"), std::string::npos);
  EXPECT_NE(dot.find("basket:s"), std::string::npos);
  EXPECT_NE(dot.find("recv:s"), std::string::npos);
  EXPECT_NE(dot.find("table:dim"), std::string::npos);
  EXPECT_NE(dot.find("agg"), std::string::npos);
  EXPECT_NE(dot.find("joiner"), std::string::npos);
  EXPECT_NE(dot.find("emit:"), std::string::npos);
  // Edges: basket feeds both factories.
  EXPECT_NE(dot.find("\"basket:s\" -> \"factory:"), std::string::npos);
}

TEST_F(MonitorTest, DotReflectsPausedState) {
  DC_CHECK_OK(engine_.PauseQuery(q1_));
  const std::string dot = ExportDot(engine_);
  EXPECT_NE(dot.find("(paused)"), std::string::npos);
}

TEST_F(MonitorTest, NetworkTableListsQueries) {
  const std::string table = RenderNetworkTable(engine_);
  EXPECT_NE(table.find("agg"), std::string::npos);
  EXPECT_NE(table.find("incremental"), std::string::npos);
  EXPECT_NE(table.find("joiner"), std::string::npos);
  EXPECT_NE(table.find("s+dim"), std::string::npos);
}

TEST_F(MonitorTest, TupleLocationsShowResidency) {
  const std::string loc = RenderTupleLocations(engine_);
  EXPECT_NE(loc.find("baskets:"), std::string::npos);
  EXPECT_NE(loc.find("appended=5"), std::string::npos);
  EXPECT_NE(loc.find("factories"), std::string::npos);
}

TEST_F(MonitorTest, AnalysisPaneSeriesAndAggregates) {
  AnalysisPane pane;
  pane.Sample(engine_);
  for (int i = 5; i < 10; ++i) {
    DC_CHECK_OK(engine_.PushRow(
        "s", {Value::Ts(i * kMicrosPerSecond), Value::I64(i % 2)}));
  }
  engine_.Pump();
  pane.Sample(engine_);

  EXPECT_FALSE(pane.MetricNames().empty());
  auto agg = pane.Aggregate("stream.s.resident_rows");
  ASSERT_TRUE(agg.ok()) << agg.status().ToString();
  EXPECT_EQ(agg->samples, 2u);
  auto series = pane.Series("query.agg.emissions");
  ASSERT_TRUE(series.ok());
  EXPECT_EQ(series->size(), 2u);
  EXPECT_GE((*series)[1].value, (*series)[0].value);
  EXPECT_FALSE(pane.Aggregate("no.such.metric").ok());

  // The scheduler pane exposes the ready queue's depth and high-water
  // mark; registering the queries queued each factory at least once.
  auto depth = pane.Series("sched.queue_depth");
  ASSERT_TRUE(depth.ok()) << depth.status().ToString();
  EXPECT_EQ(depth->size(), 2u);
  auto max_depth = pane.Series("sched.max_queue_depth");
  ASSERT_TRUE(max_depth.ok()) << max_depth.status().ToString();
  EXPECT_GE((*max_depth)[1].value, (*depth)[1].value);
  EXPECT_GE((*max_depth)[1].value, 1.0);
}

TEST_F(MonitorTest, AnalysisPaneCsvWellFormed) {
  AnalysisPane pane;
  pane.Sample(engine_);
  pane.Sample(engine_);
  const std::string csv = pane.ToCsv();
  ASSERT_FALSE(csv.empty());
  // Header plus two sample rows.
  const size_t lines = std::count(csv.begin(), csv.end(), '\n');
  EXPECT_EQ(lines, 3u);
  EXPECT_EQ(csv.rfind("t_us,", 0), 0u);
  // Every row has the same number of separators as the header.
  const size_t header_commas =
      std::count(csv.begin(), csv.begin() + csv.find('\n'), ',');
  size_t pos = csv.find('\n') + 1;
  while (pos < csv.size()) {
    const size_t end = csv.find('\n', pos);
    EXPECT_EQ(static_cast<size_t>(std::count(csv.begin() + pos,
                                             csv.begin() + end, ',')),
              header_commas);
    pos = end + 1;
  }
}

TEST_F(MonitorTest, SummaryRendersAllMetrics) {
  AnalysisPane pane;
  pane.Sample(engine_);
  const std::string summary = pane.RenderSummary();
  EXPECT_NE(summary.find("metric"), std::string::npos);
  EXPECT_NE(summary.find("stream.s.resident_rows"), std::string::npos);
}

TEST_F(MonitorTest, AnalysisPaneLatencyPercentiles) {
  AnalysisPane pane;
  pane.Sample(engine_);
  // The fixture already pumped emissions through both queries, so their
  // end-to-end latency histograms have points and the pane exposes
  // percentile series for them.
  for (const char* metric :
       {"query.agg.latency_p50_us", "query.agg.latency_p95_us",
        "query.agg.latency_p99_us"}) {
    auto agg = pane.Aggregate(metric);
    ASSERT_TRUE(agg.ok()) << metric << ": " << agg.status().ToString();
    EXPECT_GT(agg->last, 0.0) << metric;
  }
  // Sampled points are mirrored into the engine's metrics registry as
  // gauges, next to the per-query latency histograms themselves.
  const std::string json = engine_.metrics().ToJson();
  EXPECT_NE(json.find("query.agg.latency_p99_us"), std::string::npos);
  EXPECT_NE(json.find("\"query.agg.latency_us\":{"), std::string::npos);
}

TEST_F(MonitorTest, RateSeriesHasNoSpuriousFirstSamplePoint) {
  AnalysisPane pane;
  pane.Sample(engine_);
  // First sample: no baseline yet, so no rate point may be recorded —
  // a fabricated 0 would poison min/mean aggregates of the series.
  EXPECT_FALSE(pane.Series("stream.s.rate_rows_per_s").ok());
  for (int i = 5; i < 10; ++i) {
    DC_CHECK_OK(engine_.PushRow(
        "s", {Value::Ts(i * kMicrosPerSecond), Value::I64(i % 2)}));
  }
  engine_.Pump();
  pane.Sample(engine_);
  auto series = pane.Series("stream.s.rate_rows_per_s");
  ASSERT_TRUE(series.ok());
  ASSERT_EQ(series->size(), 1u);
  EXPECT_GT((*series)[0].value, 0.0);
}

class SharedNetworkTest : public ::testing::Test {
 protected:
  SharedNetworkTest() : engine_(testutil::SyncOptions()) {
    DC_CHECK_OK(engine_.Execute("CREATE STREAM s (ts timestamp, v int)"));
    // Two identical submissions: tier-F aliases one factory. A third with
    // a divisible window shares the stream's window node (tier P).
    Engine::ContinuousOptions o = testutil::WithMode(ExecMode::kIncremental);
    o.name = "a";
    qa_ = *engine_.SubmitContinuous(
        "SELECT sum(v) FROM s [RANGE 2 SECONDS SLIDE 1 SECONDS]", o);
    o.name = "b";
    qb_ = *engine_.SubmitContinuous(
        "SELECT sum(v) FROM s [RANGE 2 SECONDS SLIDE 1 SECONDS]", o);
    o.name = "c";
    qc_ = *engine_.SubmitContinuous(
        "SELECT count(*) FROM s [RANGE 4 SECONDS SLIDE 1 SECONDS]", o);
    for (int i = 0; i < 6; ++i) {
      DC_CHECK_OK(engine_.PushRow(
          "s", {Value::Ts(i * kMicrosPerSecond), Value::I64(i)}));
    }
    engine_.Pump();
  }

  Engine engine_;
  int qa_ = 0, qb_ = 0, qc_ = 0;
};

TEST_F(SharedNetworkTest, DotRendersSharedNodeAndAliasEdges) {
  const std::string dot = ExportDot(engine_);
  // The shared window node appears as its own box, fed by the basket.
  EXPECT_NE(dot.find("shared window s#"), std::string::npos);
  EXPECT_NE(dot.find("\"basket:s\" -> \"node:s#"), std::string::npos);
  // Merge tails consume partials from the node, not the basket directly.
  EXPECT_NE(dot.find("[label=\"partials\"]"), std::string::npos);
  EXPECT_EQ(dot.find("\"basket:s\" -> \"factory:"), std::string::npos);
  // a and b alias ONE factory box listing both names...
  EXPECT_NE(dot.find("a | b"), std::string::npos);
  EXPECT_NE(dot.find("shared x2"), std::string::npos);
  EXPECT_EQ(dot.find(StrFormat("\"factory:%d\"", qb_)), std::string::npos);
  // ...and the alias gets its own emitter off the shared factory.
  EXPECT_NE(dot.find(StrFormat("\"factory:%d\" -> \"emit:%d\""
                               " [style=dashed, label=\"alias\"]",
                               qa_, qb_)),
            std::string::npos);
  // The non-aliased query keeps a plain factory box.
  EXPECT_NE(dot.find(StrFormat("\"factory:%d\"", qc_)), std::string::npos);
}

TEST_F(SharedNetworkTest, NetworkTableShowsSharing) {
  const std::string table = RenderNetworkTable(engine_);
  EXPECT_NE(table.find("sharing"), std::string::npos);
  // Every node-backed query names its shared window node in the table.
  EXPECT_NE(table.find("node s#"), std::string::npos);
}

TEST(FactoryAliasTest, NonDivisibleWindowAliasesFactoryOnly) {
  // A window the shared-node grid cannot serve (size % slide != 0) still
  // dedups at tier F when submitted twice: one factory, "factory x2" in
  // the table, and alias grouping in the DOT export.
  Engine engine(testutil::SyncOptions());
  DC_CHECK_OK(engine.Execute("CREATE STREAM s (ts timestamp, v int)"));
  Engine::ContinuousOptions o = testutil::WithMode(ExecMode::kIncremental);
  o.name = "d";
  const int qd = *engine.SubmitContinuous(
      "SELECT sum(v) FROM s [RANGE 3 SECONDS SLIDE 2 SECONDS]", o);
  o.name = "e";
  const int qe = *engine.SubmitContinuous(
      "SELECT sum(v) FROM s [RANGE 3 SECONDS SLIDE 2 SECONDS]", o);
  const std::string table = RenderNetworkTable(engine);
  EXPECT_NE(table.find("factory x2"), std::string::npos);
  const std::string dot = ExportDot(engine);
  EXPECT_NE(dot.find("d | e"), std::string::npos);
  EXPECT_NE(dot.find("\"basket:s\" -> \"factory:"), std::string::npos);
  EXPECT_EQ(dot.find(StrFormat("\"factory:%d\"", qe)), std::string::npos);
  EXPECT_NE(dot.find(StrFormat("\"factory:%d\" -> \"emit:%d\"", qd, qe)),
            std::string::npos);
}

}  // namespace
}  // namespace dc::monitor
