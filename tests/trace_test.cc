// Unit tests for src/monitor/trace.h: refcounted enablement, span /
// instant recording, ring-buffer overwrite, per-thread tids, the Chrome
// trace_event JSON dump, and the engine integration (factory fire /
// basket append / emitter drain spans appear when
// EngineOptions::enable_tracing is set, and the WAL / recovery spans
// appear in a durable run).

#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "monitor/trace.h"
#include "tests/crash_util.h"

namespace dc {
namespace {

/// Balanced enable scope so a failing test cannot leak an enable ref
/// into later tests.
struct EnableScope {
  EnableScope() { trace::AddEnableRef(); }
  ~EnableScope() { trace::ReleaseEnableRef(); }
};

TEST(TraceTest, DisabledByDefaultRecordsNothing) {
  trace::ClearForTest();
  ASSERT_FALSE(trace::Enabled());
  { trace::Span span("noop", "test", 1); }
  trace::Instant("noop.instant", "test");
  EXPECT_EQ(trace::BufferedEventsForTest(), 0u);
}

TEST(TraceTest, EnableRefsAreRefcounted) {
  trace::AddEnableRef();
  trace::AddEnableRef();
  EXPECT_TRUE(trace::Enabled());
  trace::ReleaseEnableRef();
  EXPECT_TRUE(trace::Enabled());  // one ref still held
  trace::ReleaseEnableRef();
  EXPECT_FALSE(trace::Enabled());
}

TEST(TraceTest, SpanRecordsCompleteEvent) {
  trace::ClearForTest();
  EnableScope on;
  { trace::Span span("unit.work", "test", 7); }
  EXPECT_EQ(trace::BufferedEventsForTest(), 1u);
  const std::string json = trace::DumpJson();
  EXPECT_NE(json.find("\"name\":\"unit.work\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"test\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"v\":7}"), std::string::npos);
}

TEST(TraceTest, CancelSuppressesTheSpan) {
  trace::ClearForTest();
  EnableScope on;
  {
    trace::Span span("cancelled", "test");
    span.Cancel();
  }
  EXPECT_EQ(trace::BufferedEventsForTest(), 0u);
}

TEST(TraceTest, SetArgUpdatesPayload) {
  trace::ClearForTest();
  EnableScope on;
  {
    trace::Span span("late.arg", "test");
    span.set_arg(42);
  }
  EXPECT_NE(trace::DumpJson().find("\"args\":{\"v\":42}"), std::string::npos);
}

TEST(TraceTest, InstantHasZeroDuration) {
  trace::ClearForTest();
  EnableScope on;
  trace::Instant("tick", "test", 3);
  const std::string json = trace::DumpJson();
  EXPECT_NE(json.find("\"name\":\"tick\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":0"), std::string::npos);
}

TEST(TraceTest, SpanArmedAtConstructionSurvivesDisable) {
  // Enablement is sampled once in the ctor: a span open across the last
  // ReleaseEnableRef still records (late, not torn).
  trace::ClearForTest();
  trace::AddEnableRef();
  {
    trace::Span span("crossing", "test");
    trace::ReleaseEnableRef();
  }
  EXPECT_FALSE(trace::Enabled());
  EXPECT_EQ(trace::BufferedEventsForTest(), 1u);
}

TEST(TraceTest, RingOverwritesOldest) {
  trace::ClearForTest();
  EnableScope on;
  const uint64_t n = 9000;  // > kEventsPerThread (8192)
  for (uint64_t i = 0; i < n; ++i) trace::Instant("flood", "test");
  EXPECT_EQ(trace::BufferedEventsForTest(), 8192u);
}

TEST(TraceTest, ThreadsGetDistinctTids) {
  trace::ClearForTest();
  EnableScope on;
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([] { trace::Instant("worker.evt", "test"); });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(trace::BufferedEventsForTest(), 2u);
  // Both events present, on different tid values — find the two tid
  // fields and check they differ.
  const std::string json = trace::DumpJson();
  const size_t first = json.find("\"tid\":");
  const size_t second = json.find("\"tid\":", first + 1);
  ASSERT_NE(second, std::string::npos);
  const std::string tid1 = json.substr(first, json.find(',', first) - first);
  const std::string tid2 =
      json.substr(second, json.find(',', second) - second);
  EXPECT_NE(tid1, tid2);
}

TEST(TraceTest, DumpJsonIsWellFormedWhenEmpty) {
  trace::ClearForTest();
  EXPECT_EQ(trace::DumpJson(), "{\"traceEvents\":[]}");
}

TEST(TraceTest, EngineIntegrationEmitsPipelineSpans) {
  trace::ClearForTest();
  EngineOptions opts;
  opts.scheduler_workers = 0;
  opts.enable_tracing = true;
  {
    Engine engine(opts);
    ASSERT_TRUE(engine.Execute("CREATE STREAM s (v int)").ok());
    auto q = engine.SubmitContinuous(
        "SELECT SUM(v) FROM s [ROWS 4 SLIDE 2]");
    ASSERT_TRUE(q.ok());
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(engine.PushRow("s", {Value::I64(i)}).ok());
    }
    engine.Pump();
  }
  EXPECT_FALSE(trace::Enabled());  // engine dtor released the ref
  const std::string json = trace::DumpJson();
  EXPECT_NE(json.find("\"name\":\"basket.append\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"factory.fire\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"emitter.drain\""), std::string::npos);
}

TEST(TraceTest, DurableRunEmitsWalAndRecoverySpans) {
  trace::ClearForTest();
  const std::string dir = testutil::MakeTempDir("trace_wal");
  EngineOptions opts;
  opts.scheduler_workers = 0;
  opts.enable_tracing = true;
  opts.durability.dir = dir;
  {
    Engine engine(opts);
    ASSERT_TRUE(engine.recovery_status().ok());
    ASSERT_TRUE(engine.Execute("CREATE STREAM s (v int)").ok());
    ASSERT_TRUE(
        engine.SubmitContinuous("SELECT SUM(v) FROM s [ROWS 4 SLIDE 2]").ok());
    // The second checkpoint truncates each basket log to the first one's
    // horizon.
    for (int round = 0; round < 2; ++round) {
      for (int i = 0; i < 8; ++i) {
        ASSERT_TRUE(engine.PushRow("s", {Value::I64(i)}).ok());
      }
      engine.Pump();
      ASSERT_TRUE(engine.Checkpoint().ok());
    }
  }
  {
    Engine recovered(opts);  // replays the basket log
    ASSERT_TRUE(recovered.recovery_status().ok());
  }
  const std::string json = trace::DumpJson();
  for (const char* name :
       {"wal.append", "wal.fsync", "wal.truncate", "recovery.replay"}) {
    EXPECT_NE(json.find(std::string("\"name\":\"") + name + "\""),
              std::string::npos)
        << name;
  }
  testutil::RemoveDirRecursive(dir);
}

}  // namespace
}  // namespace dc
