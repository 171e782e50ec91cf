// Backpressure and empty-emission semantics, end to end:
//  * bounded baskets keep occupancy within cap + one in-flight batch while
//    a fast producer outruns a slow/paused consumer,
//  * parked receptors resume without tuple loss once consumers drain, and
//    Engine::Stop() while a receptor is parked does not deadlock,
//  * heartbeat watermarks keep advancing while ingest is parked,
//  * zero-row emissions are delivered (SQL count=0 over empty windows) and
//    FactoryStats::emissions equals emitter-delivered emissions.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "core/engine.h"
#include "tests/test_util.h"

namespace dc {
namespace {

Receptor::RowGen SequentialGen(int64_t n, Micros ts_step = 1000) {
  auto i = std::make_shared<int64_t>(0);
  return [n, i, ts_step](std::vector<Value>* row) {
    if (n >= 0 && *i >= n) return false;
    row->resize(2);
    (*row)[0] = Value::Ts(*i * ts_step);
    (*row)[1] = Value::I64(*i);
    ++*i;
    return true;
  };
}

EngineOptions BoundedThreaded(uint64_t max_rows, int workers = 2) {
  EngineOptions o;
  o.scheduler_workers = workers;
  o.basket_limits.max_rows = max_rows;
  return o;
}

bool WaitUntil(const std::function<bool()>& pred, int timeout_ms = 10000) {
  const Micros deadline = SteadyMicros() + timeout_ms * kMicrosPerMilli;
  while (SteadyMicros() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

TEST(BackpressureTest, BoundedOccupancyAndLosslessResume) {
  constexpr uint64_t kCap = 10000;
  constexpr uint64_t kBatch = 256;
  constexpr int64_t kRows = 30000;
  Engine engine(BoundedThreaded(kCap));
  ASSERT_TRUE(engine.Execute("CREATE STREAM s (ts timestamp, v int)").ok());

  std::atomic<uint64_t> delivered{0};
  Engine::ContinuousOptions qo;
  qo.mode = ExecMode::kFullReeval;
  qo.sink = [&](const ColumnSet& e) { delivered.fetch_add(e.NumRows()); };
  auto qid = engine.SubmitContinuous("SELECT v FROM s", qo);
  ASSERT_TRUE(qid.ok()) << qid.status().ToString();
  // Pause the only consumer so the basket must fill to its cap.
  ASSERT_TRUE(engine.PauseQuery(*qid).ok());

  Receptor::Options ro;
  ro.batch_rows = kBatch;
  auto rid = engine.AttachReceptor("s", SequentialGen(kRows), ro);
  ASSERT_TRUE(rid.ok());

  // The receptor must park against the full basket...
  ASSERT_TRUE(WaitUntil([&] {
    auto stats = engine.StreamStats("s");
    return stats.ok() && stats->append_stalls > 0;
  }));
  // ...and occupancy must never exceed cap + one in-flight batch, sampled
  // while the producer keeps hammering the bound.
  for (int i = 0; i < 50; ++i) {
    auto stats = engine.StreamStats("s");
    ASSERT_TRUE(stats.ok());
    EXPECT_LE(stats->resident_rows, kCap + kBatch);
    EXPECT_LE(stats->resident_hwm_rows, kCap + kBatch);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Heartbeats are not subject to capacity: the watermark keeps advancing
  // while ingest is parked.
  const Micros wm_before = engine.StreamStats("s")->event_watermark;
  ASSERT_TRUE(engine.Heartbeat("s", wm_before + 1).ok());
  EXPECT_GE(engine.StreamStats("s")->event_watermark, wm_before + 1);

  // Resume the consumer: ingest drains through the bound without loss.
  ASSERT_TRUE(engine.ResumeQuery(*qid).ok());
  ASSERT_TRUE(engine.WaitReceptor(*rid).ok());
  ASSERT_TRUE(engine.WaitIdle());
  EXPECT_TRUE(WaitUntil([&] { return delivered.load() == kRows; }));
  EXPECT_EQ(delivered.load(), static_cast<uint64_t>(kRows));
  auto stats = engine.StreamStats("s");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->appended_total, static_cast<uint64_t>(kRows));
  EXPECT_LE(stats->resident_hwm_rows, kCap + kBatch);
  EXPECT_GT(stats->append_stalls, 0u);
}

TEST(BackpressureTest, StopWhileReceptorParkedDoesNotDeadlock) {
  uint64_t appended = 0;
  {
    Engine engine(BoundedThreaded(/*max_rows=*/1000));
    ASSERT_TRUE(engine.Execute("CREATE STREAM s (ts timestamp, v int)").ok());
    // No query consumes the stream: an endless source must park for good.
    Receptor::Options ro;
    ro.batch_rows = 128;
    auto rid = engine.AttachReceptor("s", SequentialGen(-1), ro);
    ASSERT_TRUE(rid.ok());
    ASSERT_TRUE(WaitUntil([&] {
      auto stats = engine.StreamStats("s");
      return stats.ok() && stats->append_timeouts > 0;
    }));
    auto stats = engine.StreamStats("s");
    ASSERT_TRUE(stats.ok());
    EXPECT_LE(stats->resident_rows, 1000u + 128u);
    appended = stats->appended_total;
    // Engine destruction stops the parked receptor; reaching the end of
    // this scope (under the test timeout) is the assertion.
  }
  EXPECT_GT(appended, 0u);
}

TEST(BackpressureTest, PauseWhileParkedStaysSynchronous) {
  Engine engine(BoundedThreaded(/*max_rows=*/500));
  ASSERT_TRUE(engine.Execute("CREATE STREAM s (ts timestamp, v int)").ok());
  Receptor::Options ro;
  ro.batch_rows = 100;
  auto rid = engine.AttachReceptor("s", SequentialGen(-1), ro);
  ASSERT_TRUE(rid.ok());
  ASSERT_TRUE(WaitUntil([&] {
    auto stats = engine.StreamStats("s");
    return stats.ok() && stats->append_stalls > 0;
  }));
  // Pause() must return promptly even though the ingestion thread is
  // parked on basket space, and nothing may land after the ack.
  ASSERT_TRUE(engine.PauseReceptor(*rid).ok());
  const uint64_t at_pause = engine.StreamStats("s")->appended_total;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(engine.StreamStats("s")->appended_total, at_pause);
  ASSERT_TRUE(engine.ResumeReceptor(*rid).ok());
}

TEST(BackpressureTest, SyncModePushFailsFastInsteadOfSelfDeadlocking) {
  // In synchronous mode only the pushing thread could ever Pump(), so a
  // blocking wait for basket space can never be satisfied: the push must
  // surface ResourceExhausted, not hang.
  EngineOptions o = testutil::SyncOptions();
  o.basket_limits.max_rows = 2;
  Engine engine(o);
  ASSERT_TRUE(engine.Execute("CREATE STREAM s (ts timestamp, v int)").ok());
  auto qid = engine.SubmitContinuous("SELECT v FROM s");
  ASSERT_TRUE(qid.ok());
  ASSERT_TRUE(engine.PushRow("s", {Value::Ts(0), Value::I64(0)}).ok());
  ASSERT_TRUE(engine.PushRow("s", {Value::Ts(1), Value::I64(1)}).ok());
  const Status st = engine.PushRow("s", {Value::Ts(2), Value::I64(2)});
  EXPECT_TRUE(st.IsResourceExhausted()) << st.ToString();
  // Pump() drains the backlog; pushing works again.
  engine.Pump();
  EXPECT_TRUE(engine.PushRow("s", {Value::Ts(2), Value::I64(2)}).ok());
}

// --- Empty emissions (the headline bugfix) -------------------------------

using testutil::SyncEngineTest;

class EmptyEmissionTest : public SyncEngineTest {};

TEST_F(EmptyEmissionTest, ScalarAggregateOverEmptyWindowEmitsCountZero) {
  Exec("CREATE STREAM s (ts timestamp, v int)");
  const int q = Submit(
      "SELECT count(*), sum(v), min(v), max(v) FROM s "
      "[RANGE 2 SECONDS SLIDE 2 SECONDS]",
      ExecMode::kFullReeval);
  // One row in the first window, then four windows of pure silence closed
  // by heartbeats.
  PushPump("s", {Value::Ts(1 * kMicrosPerSecond), Value::I64(7)});
  ASSERT_TRUE(engine_.Heartbeat("s", 10 * kMicrosPerSecond).ok());
  engine_.Pump();
  const std::vector<ColumnSet> emissions = Take(q);
  ASSERT_EQ(emissions.size(), 5u);  // boundaries at 2,4,6,8,10 s
  EXPECT_TRUE(testutil::ColumnSetMatches(emissions[0],
                                         {{"1", "7", "7", "7"}}));
  for (size_t i = 1; i < emissions.size(); ++i) {
    // SQL semantics for the empty window: one row, count = 0. (NULLs are a
    // documented non-feature; sum/min/max render as 0 over empty input.)
    ASSERT_EQ(emissions[i].NumRows(), 1u) << "emission " << i;
    EXPECT_EQ(emissions[i].Row(0)[0].ToString(), "0") << "emission " << i;
  }
}

TEST_F(EmptyEmissionTest, ProjectionOverEmptyWindowDeliversEmptyResultSet) {
  Exec("CREATE STREAM s (ts timestamp, v int)");
  const int q = Submit(
      "SELECT ts, v FROM s [RANGE 2 SECONDS SLIDE 2 SECONDS] WHERE v > 100",
      ExecMode::kFullReeval);
  PushPump("s", {Value::Ts(1 * kMicrosPerSecond), Value::I64(7)});  // filtered
  PushPump("s", {Value::Ts(3 * kMicrosPerSecond), Value::I64(200)});
  ASSERT_TRUE(engine_.Heartbeat("s", 6 * kMicrosPerSecond).ok());
  engine_.Pump();
  const std::vector<ColumnSet> emissions = Take(q);
  // Windows (0,2], (2,4], (4,6]: empty, one row, empty — all delivered.
  ASSERT_EQ(emissions.size(), 3u);
  EXPECT_EQ(emissions[0].NumRows(), 0u);
  ASSERT_EQ(emissions[0].cols.size(), 2u);  // schema survives empty results
  EXPECT_EQ(emissions[0].names[1], "v");
  EXPECT_EQ(emissions[1].NumRows(), 1u);
  EXPECT_EQ(emissions[2].NumRows(), 0u);
}

TEST_F(EmptyEmissionTest, FactoryEmissionsMatchEmitterDeliveries) {
  Exec("CREATE STREAM s (ts timestamp, v int)");
  const int q = Submit(
      "SELECT v FROM s [RANGE 1 SECONDS SLIDE 1 SECONDS] WHERE v < 0",
      ExecMode::kFullReeval);
  PushPump("s", {Value::Ts(0), Value::I64(5)});
  ASSERT_TRUE(engine_.Heartbeat("s", 8 * kMicrosPerSecond).ok());
  engine_.Pump();
  const std::vector<ColumnSet> emissions = Take(q);  // drains the emitter
  // Every window is empty (v < 0 never holds), yet every emission is
  // delivered: the producer and consumer sides must agree exactly.
  const FactoryStats fs = engine_.GetFactory(q)->Stats();
  std::vector<ContinuousQueryInfo> infos = engine_.Queries();
  ASSERT_EQ(infos.size(), 1u);
  const EmitterStats es = infos[0].emitter;
  EXPECT_GT(fs.emissions, 0u);
  EXPECT_EQ(fs.emissions, es.emissions);
  EXPECT_EQ(fs.empty_emissions, es.empty_emissions);
  EXPECT_EQ(fs.emissions, emissions.size());
  EXPECT_EQ(fs.empty_emissions, fs.emissions);
}

}  // namespace
}  // namespace dc
