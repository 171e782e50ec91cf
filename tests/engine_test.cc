// End-to-end tests of the Engine facade: DDL, one-time queries, continuous
// queries in both execution modes, pause/resume, stream-table joins.
// The engine runs in synchronous mode (0 workers) and is driven by Pump()
// for determinism (see tests/test_util.h); the threaded cases build their
// own engine.

#include "core/engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <thread>

#include "tests/test_util.h"
#include "util/string_util.h"

namespace dc {
namespace {

using testutil::RowStrings;

class EngineTest : public testutil::SyncEngineTest {};

TEST_F(EngineTest, CreateTableInsertAndQuery) {
  Exec("CREATE TABLE items (id int, name string, price double)");
  Exec("INSERT INTO items VALUES (1, 'apple', 1.5), (2, 'pear', 2.0), "
       "(3, 'fig', 9.0)");
  const ColumnSet result = MustQuery(
      "SELECT name, price FROM items WHERE price > 1.7 ORDER BY price");
  ASSERT_EQ(result.NumRows(), 2u);
  EXPECT_EQ(result.cols[0]->GetValue(0).AsStr(), "pear");
  EXPECT_EQ(result.cols[0]->GetValue(1).AsStr(), "fig");
}

TEST_F(EngineTest, OneTimeAggregation) {
  Exec("CREATE TABLE t (g int, v int)");
  Exec("INSERT INTO t VALUES (1, 10), (1, 20), (2, 5), (2, 7), (3, 100)");
  const ColumnSet result = MustQuery(
      "SELECT g, sum(v) AS s, count(*) AS c FROM t GROUP BY g "
      "HAVING count(*) > 1 ORDER BY s DESC");
  ASSERT_EQ(result.NumRows(), 2u);
  EXPECT_EQ(result.cols[0]->GetValue(0).AsI64(), 1);  // sum 30
  EXPECT_EQ(result.cols[1]->GetValue(0).AsI64(), 30);
  EXPECT_EQ(result.cols[0]->GetValue(1).AsI64(), 2);  // sum 12
  EXPECT_EQ(result.cols[2]->GetValue(1).AsI64(), 2);
}

TEST_F(EngineTest, OneTimeJoin) {
  Exec("CREATE TABLE a (k int, x string)");
  Exec("CREATE TABLE b (k int, y double)");
  Exec("INSERT INTO a VALUES (1,'one'), (2,'two'), (3,'three')");
  Exec("INSERT INTO b VALUES (2, 2.5), (3, 3.5), (4, 4.5)");
  const ColumnSet result = MustQuery(
      "SELECT a.x, b.y FROM a JOIN b ON a.k = b.k ORDER BY b.y");
  ASSERT_EQ(result.NumRows(), 2u);
  EXPECT_EQ(result.cols[0]->GetValue(0).AsStr(), "two");
  EXPECT_EQ(result.cols[0]->GetValue(1).AsStr(), "three");
}

TEST_F(EngineTest, PerBatchContinuousQuery) {
  Exec("CREATE STREAM s (v int)");
  const int qid = Submit("SELECT v FROM s WHERE v >= 10",
                         ExecMode::kFullReeval);
  Push("s", {Value::I64(5)});
  PushPump("s", {Value::I64(15)});
  PushPump("s", {Value::I64(25)});
  auto rows = RowStrings(Take(qid));
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], "15|");
  EXPECT_EQ(rows[1], "25|");
}

TEST_F(EngineTest, RowsWindowAggregation) {
  Exec("CREATE STREAM s (v int)");
  // Tumbling window of 4 rows: sum per window.
  const int qid = Submit("SELECT sum(v) FROM s [ROWS 4]",
                         ExecMode::kFullReeval);
  for (int i = 1; i <= 10; ++i) Push("s", {Value::I64(i)});
  engine_.Pump();
  const std::vector<ColumnSet> results = Take(qid);
  ASSERT_EQ(results.size(), 2u);  // rows 1-4 and 5-8; 9,10 pending
  EXPECT_EQ(results[0].cols[0]->GetValue(0).AsI64(), 10);
  EXPECT_EQ(results[1].cols[0]->GetValue(0).AsI64(), 26);
}

TEST_F(EngineTest, SlidingRowsWindowFullVsIncremental) {
  Exec("CREATE STREAM s (v int)");
  const char* sql =
      "SELECT sum(v), count(*), min(v), max(v), avg(v) "
      "FROM s [ROWS 6 SLIDE 2]";
  const int full = Submit(sql, ExecMode::kFullReeval);
  const int inc = Submit(sql, ExecMode::kIncremental);
  for (int i = 0; i < 25; ++i) PushPump("s", {Value::I64(i * 7 % 13)});
  const auto fr = Take(full);
  ASSERT_GT(fr.size(), 0u);
  EXPECT_EQ(RowStrings(fr), RowStrings(Take(inc)));
  // Incremental mode must actually be active (not the fallback).
  EXPECT_FALSE(engine_.GetFactory(inc)->Stats().fell_back_to_full);
}

TEST_F(EngineTest, RangeWindowGroupedAggregation) {
  Exec("CREATE STREAM m (ts timestamp, sym string, px double)");
  const int qid = Submit(
      "SELECT sym, count(*) AS n, avg(px) AS apx "
      "FROM m [RANGE 10 SECONDS SLIDE 5 SECONDS] "
      "GROUP BY sym ORDER BY sym");

  auto push = [&](int64_t sec, const char* sym, double px) {
    Push("m", {Value::Ts(sec * kMicrosPerSecond), Value::Str(sym),
               Value::F64(px)});
  };
  push(1, "aa", 10);
  push(2, "bb", 20);
  push(4, "aa", 30);
  push(6, "aa", 40);
  push(9, "bb", 60);
  engine_.Pump();
  // Watermark is 9s: no window boundary (5s: window [-5,5) needs wm>=5 --
  // that one fired; [0,10) needs wm>=10).
  push(11, "aa", 70);
  engine_.Pump();
  const std::vector<ColumnSet> results = Take(qid);
  // Boundary 5s: window [-5,5) = rows at 1,2,4 -> aa:2, bb:1.
  // Boundary 10s: window [0,10) = rows 1..9 -> aa:3, bb:2.
  ASSERT_EQ(results.size(), 2u);
  const ColumnSet& w1 = results[0];
  ASSERT_EQ(w1.NumRows(), 2u);
  EXPECT_EQ(w1.cols[0]->GetValue(0).AsStr(), "aa");
  EXPECT_EQ(w1.cols[1]->GetValue(0).AsI64(), 2);
  const ColumnSet& w2 = results[1];
  EXPECT_EQ(w2.cols[1]->GetValue(0).AsI64(), 3);
  EXPECT_EQ(w2.cols[1]->GetValue(1).AsI64(), 2);
}

TEST_F(EngineTest, StreamTableJoinContinuous) {
  Exec("CREATE TABLE ref (k int, label string)");
  Exec("INSERT INTO ref VALUES (1,'one'), (2,'two')");
  Exec("CREATE STREAM s (k int, v int)");
  const int qid = Submit("SELECT label, v FROM s JOIN ref ON s.k = ref.k",
                         ExecMode::kFullReeval);
  Push("s", {Value::I64(1), Value::I64(100)});
  Push("s", {Value::I64(9), Value::I64(200)});
  Push("s", {Value::I64(2), Value::I64(300)});
  engine_.Pump();
  auto rows = RowStrings(Take(qid));
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], "one|100|");
  EXPECT_EQ(rows[1], "two|300|");
}

TEST_F(EngineTest, PauseAndResumeQuery) {
  Exec("CREATE STREAM s (v int)");
  const int qid = Submit("SELECT v FROM s", ExecMode::kFullReeval);
  PushPump("s", {Value::I64(1)});
  ASSERT_TRUE(engine_.PauseQuery(qid).ok());
  PushPump("s", {Value::I64(2)});
  EXPECT_EQ(RowStrings(Take(qid)).size(), 1u);  // second row not processed
  ASSERT_TRUE(engine_.ResumeQuery(qid).ok());
  engine_.Pump();
  EXPECT_EQ(RowStrings(Take(qid)).size(), 1u);  // row 2 arrives after resume
}

TEST_F(EngineTest, SealFlushesRangeWindows) {
  Exec("CREATE STREAM s (ts timestamp, v int)");
  const int qid =
      Submit("SELECT sum(v) FROM s [RANGE 4 SECONDS SLIDE 2 SECONDS]");
  Push("s", {Value::Ts(1 * kMicrosPerSecond), Value::I64(10)});
  PushPump("s", {Value::Ts(3 * kMicrosPerSecond), Value::I64(20)});
  Seal("s");
  const std::vector<ColumnSet> results = Take(qid);
  // Windows: [-2,2)->10 (boundary 2 fired by watermark 3),
  // [0,4)->30, [2,6)->20 flushed by seal. Window [4,8) starts past the
  // last event: dormant.
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].cols[0]->GetValue(0).AsI64(), 10);
  EXPECT_EQ(results[1].cols[0]->GetValue(0).AsI64(), 30);
  EXPECT_EQ(results[2].cols[0]->GetValue(0).AsI64(), 20);
}

TEST_F(EngineTest, MultipleQueriesShareOneBasket) {
  Exec("CREATE STREAM s (v int)");
  const int q1 = Submit("SELECT v FROM s WHERE v % 2 = 0",
                        ExecMode::kFullReeval);
  const int q2 = Submit("SELECT v FROM s WHERE v % 2 = 1",
                        ExecMode::kFullReeval);
  for (int i = 0; i < 6; ++i) Push("s", {Value::I64(i)});
  engine_.Pump();
  EXPECT_EQ(RowStrings(Take(q1)).size(), 3u);
  EXPECT_EQ(RowStrings(Take(q2)).size(), 3u);
  // Both consumed everything: the basket dropped all tuples.
  auto stats = engine_.StreamStats("s");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->resident_rows, 0u);
  EXPECT_EQ(stats->dropped_total, 6u);
}

TEST_F(EngineTest, ExplainShowsPlanTransformation) {
  Exec("CREATE STREAM s (ts timestamp, v int)");
  const std::string sql =
      "SELECT sum(v) FROM s [RANGE 10 SECONDS SLIDE 2 SECONDS] WHERE v > 3";
  auto onetime = engine_.ExplainSql(sql, plan::PlanMode::kOneTime);
  auto incr = engine_.ExplainSql(sql, plan::PlanMode::kContinuousIncremental);
  ASSERT_TRUE(onetime.ok() && incr.ok());
  EXPECT_NE(onetime->find("scan.candidates"), std::string::npos);
  EXPECT_NE(incr->find("basket.candidates"), std::string::npos);
  EXPECT_NE(incr->find("per basic window"), std::string::npos);
  EXPECT_NE(incr->find("merge"), std::string::npos);
}

TEST_F(EngineTest, ExplainReportsObservedLatencyOfStandingQueries) {
  Exec("CREATE STREAM s (v int)");
  const std::string sql = "SELECT count(*) FROM s [ROWS 2 SLIDE 2]";
  // No standing query with this identity yet: no latency line.
  auto before = engine_.ExplainSql(sql, plan::PlanMode::kContinuousIncremental);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->find("latency:"), std::string::npos);
  Submit(sql);
  for (int i = 0; i < 4; ++i) PushPump("s", {Value::I64(i)});
  // Two windows closed and delivered, so the query's ingest→delivery
  // histogram has points and EXPLAIN merges them into a latency line.
  auto after = engine_.ExplainSql(sql, plan::PlanMode::kContinuousIncremental);
  ASSERT_TRUE(after.ok());
  EXPECT_NE(after->find("latency:"), std::string::npos);
  EXPECT_NE(after->find("count=2"), std::string::npos);
}

TEST_F(EngineTest, ExplainReportsTheNodeOfAStreamTableQuery) {
  Exec("CREATE STREAM s (ts timestamp, g int, v int)");
  Exec("CREATE TABLE dim (g int, label string)");
  auto join = [](int having) {
    return StrFormat(
        "SELECT label, count(*) FROM s [RANGE 4 SECONDS SLIDE 2 SECONDS] "
        "JOIN dim ON s.g = dim.g GROUP BY label HAVING count(*) > %d",
        having);
  };
  Submit(join(0));
  // Same fragment prefix, another HAVING constant: EXPLAIN names the
  // node the query would ride, exactly as submit would pick it.
  auto plan = engine_.ExplainSql(join(1),
                                 plan::PlanMode::kContinuousIncremental);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("sharing: shared with 1 query (window node s#1)"),
            std::string::npos)
      << *plan;
}

// Regression: Pump()/WaitIdle()/TakeResults() used to hold the engine
// registry lock across emitter drains, so a sink that re-enters the
// engine (the monitor does exactly this) self-deadlocked. Drains now run
// on a snapshot outside the lock; under the lock-rank validator the
// re-entry is also checked (kEmitterDrain < kEngine).
TEST_F(EngineTest, SinkMayReenterEngineDuringPump) {
  Exec("CREATE STREAM s (ts timestamp, v int)");
  int reentries = 0;
  Engine::ContinuousOptions opts;
  opts.name = "reenter";
  opts.sink = [&](const ColumnSet&) {
    // Introspection re-entry, as the analysis pane performs per sample.
    EXPECT_FALSE(engine_.Queries().empty());
    EXPECT_TRUE(engine_.StreamStats("s").ok());
    ++reentries;
  };
  auto qid = engine_.SubmitContinuous("SELECT v FROM s", opts);
  ASSERT_TRUE(qid.ok()) << qid.status().ToString();
  for (int i = 0; i < 3; ++i) {
    PushPump("s", {Value::Ts(i), Value::I64(i)});
  }
  EXPECT_GE(reentries, 1);
}

// Regression: TakeResults() snapshotted a raw Emitter* under the lock and
// drained it after release, so a concurrent RemoveContinuous() destroyed
// the emitter mid-drain (use-after-free under ASan). The entry now holds
// a shared_ptr that drainers copy.
TEST(EngineConcurrencyTest, TakeResultsRacesRemoveContinuous) {
  Engine engine;  // threaded mode: 2 scheduler workers
  ASSERT_TRUE(
      engine.Execute("CREATE STREAM s (ts timestamp, v int)").ok());
  for (int round = 0; round < 25; ++round) {
    auto qid = engine.SubmitContinuous("SELECT v FROM s");
    ASSERT_TRUE(qid.ok()) << qid.status().ToString();
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(engine.PushRow("s", {Value::Ts(i), Value::I64(i)}).ok());
    }
    std::thread taker([&] {
      // Races the removal: NotFound after the removal wins is expected.
      for (int i = 0; i < 16; ++i) (void)engine.TakeResults(*qid);
    });
    std::thread remover([&] { (void)engine.RemoveContinuous(*qid); });
    taker.join();
    remover.join();
  }
}

// Threads in this process, from /proc/self/task (read-only, this process
// only).
size_t ThreadCount() {
  return static_cast<size_t>(std::distance(
      std::filesystem::directory_iterator("/proc/self/task"),
      std::filesystem::directory_iterator()));
}

// Delivery is scheduler work: a threaded engine keeps its worker count
// however many continuous queries it runs, and still delivers every
// emission.
TEST_F(EngineTest, ThreadedDeliveryAddsNoThreadPerQuery) {
  Engine engine(testutil::Threaded(2));
  ASSERT_TRUE(
      engine.Execute("CREATE STREAM s (ts timestamp, v int)").ok());
  constexpr int kQueries = 16;
  std::vector<std::atomic<uint64_t>> sink_calls(kQueries);
  std::vector<int> qids;
  const size_t threads_before = ThreadCount();
  for (int k = 0; k < kQueries; ++k) {
    Engine::ContinuousOptions opts;
    opts.sink = [&sink_calls, k](const ColumnSet&) { ++sink_calls[k]; };
    auto qid = engine.SubmitContinuous(
        StrFormat("SELECT v FROM s WHERE v >= %d", k), opts);
    ASSERT_TRUE(qid.ok()) << qid.status().ToString();
    qids.push_back(*qid);
  }
  const size_t threads_after = ThreadCount();
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(engine.PushRow("s", {Value::Ts(i), Value::I64(i)}).ok());
  }
  ASSERT_TRUE(engine.WaitIdle());
  EXPECT_EQ(threads_after, threads_before);
  for (int k = 0; k < kQueries; ++k) {
    const FactoryPtr f = engine.GetFactory(qids[k]);
    ASSERT_NE(f, nullptr);
    EXPECT_GT(f->Stats().emissions, 0u);
    EXPECT_EQ(sink_calls[k].load(), f->Stats().emissions) << "query " << k;
  }
}

TEST_F(EngineTest, ErrorsSurfaceCleanly) {
  EXPECT_FALSE(engine_.Query("SELECT v FROM nosuch").ok());
  EXPECT_FALSE(engine_.Execute("CREATE TABLE t (x whatever)").ok());
  Exec("CREATE TABLE t (x int)");
  EXPECT_FALSE(engine_.Query("SELECT y FROM t").ok());
  EXPECT_FALSE(engine_.Query("SELECT sum(x), y FROM t").ok());
  EXPECT_FALSE(engine_.SubmitContinuous("SELECT x FROM t").ok());
  // Window on a table is rejected.
  EXPECT_FALSE(engine_.Query("SELECT x FROM t [ROWS 5]").ok());
}

}  // namespace
}  // namespace dc
