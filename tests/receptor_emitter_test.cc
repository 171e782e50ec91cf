// Unit tests for receptors (ingestion threads, pacing, pause, CSV source)
// and emitters (boundary-preserving delivery, collector sink, close, and
// threaded delivery on the firing scheduler workers).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <thread>

#include "core/emitter.h"
#include "core/receptor.h"
#include "tests/test_util.h"

namespace dc {
namespace {

using testutil::TsI64Schema;

Receptor::RowGen CountingGen(int64_t n) {
  auto i = std::make_shared<int64_t>(0);
  return [n, i](std::vector<Value>* row) {
    if (*i >= n) return false;
    row->resize(2);
    (*row)[0] = Value::Ts(*i);
    (*row)[1] = Value::I64(*i);
    ++*i;
    return true;
  };
}

TEST(ReceptorTest, IngestsEverythingAndSeals) {
  Basket basket("s", TsI64Schema(), 0);
  Receptor::Options opts;
  opts.batch_rows = 7;  // deliberately not a divisor of 100
  Receptor r("r", &basket, CountingGen(100), opts);
  r.Start();
  r.WaitFinished();
  EXPECT_EQ(basket.HighSeq(), 100u);
  EXPECT_TRUE(basket.sealed());
  EXPECT_TRUE(r.Stats().finished);
  EXPECT_EQ(r.Stats().rows, 100u);
  // Values arrived in order.
  BasketView view = basket.Read(0);
  EXPECT_EQ(view.cols[1]->I64Data()[99], 99);
}

// Regression: start_time_ was a plain Micros written by Start() and read
// by Stats() from other threads — a data race TSan flags. It is atomic
// now; this test keeps the racing pair exercised so the TSan CI preset
// would catch a reintroduction.
TEST(ReceptorTest, StatsRacesIngestionThread) {
  Basket basket("s", TsI64Schema(), 0);
  Receptor::Options opts;
  opts.rows_per_sec = 50000;
  opts.batch_rows = 16;
  Receptor r("r", &basket, CountingGen(2000), opts);
  r.Start();
  uint64_t last_rows = 0;
  while (!r.Stats().finished) {
    const ReceptorStats st = r.Stats();
    EXPECT_GE(st.rows, last_rows);
    EXPECT_GE(st.running_micros, 0);
    last_rows = st.rows;
  }
  r.WaitFinished();
  EXPECT_EQ(r.Stats().rows, 2000u);
}

TEST(ReceptorTest, RateControlApproximatesTarget) {
  Basket basket("s", TsI64Schema(), 0);
  Receptor::Options opts;
  opts.rows_per_sec = 20000;
  opts.batch_rows = 100;
  Receptor r("r", &basket, CountingGen(4000), opts);
  const Micros start = SteadyMicros();
  r.Start();
  r.WaitFinished();
  const double secs =
      static_cast<double>(SteadyMicros() - start) / kMicrosPerSecond;
  // 4000 rows at 20k/s should take ~0.2 s; the upper bound is generous so
  // sanitizer builds under parallel ctest load stay comfortably inside it.
  EXPECT_GT(secs, 0.1);
  EXPECT_LT(secs, 2.0);
}

TEST(ReceptorTest, PauseStopsIngestion) {
  Basket basket("s", TsI64Schema(), 0);
  Receptor::Options opts;
  opts.rows_per_sec = 5000;
  opts.batch_rows = 10;
  Receptor r("r", &basket, CountingGen(1000000), opts);
  r.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  // Pause() is synchronous: once it returns, nothing more is appended.
  r.Pause();
  const uint64_t at_pause = basket.HighSeq();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(basket.HighSeq(), at_pause);
  r.Resume();
  const Micros deadline = SteadyMicros() + 5 * kMicrosPerSecond;
  while (basket.HighSeq() <= at_pause && SteadyMicros() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  r.Stop();
  EXPECT_GT(basket.HighSeq(), at_pause);
}

TEST(ReceptorTest, CsvSourceParsesAndCoerces) {
  const char* path = "/tmp/dc_receptor_test.csv";
  {
    std::ofstream f(path);
    f << "100,1\n200,2\n\nbadline\n300,3\n";
  }
  Schema schema = TsI64Schema();
  auto gen = CsvRowGen(path, schema);
  ASSERT_TRUE(gen.ok());
  Basket basket("s", schema, 0);
  Receptor r("r", &basket, *gen, Receptor::Options{});
  r.Start();
  r.WaitFinished();
  EXPECT_EQ(basket.HighSeq(), 3u);  // blank + malformed lines skipped
  EXPECT_EQ(basket.Read(0).cols[0]->I64Data()[2], 300);
  std::remove(path);
  EXPECT_FALSE(CsvRowGen("/nonexistent/x.csv", schema).ok());
}

TEST(EmitterTest, PreservesEmissionBoundaries) {
  auto basket = std::make_shared<Basket>("out", TsI64Schema(), SIZE_MAX);
  ResultCollector collector;
  Emitter emitter("e", basket, {"ts", "v"}, collector.AsSink());
  // Three "emissions" of different sizes.
  DC_CHECK_OK(basket->Append({Bat::MakeTs({1, 2}), Bat::MakeI64({1, 2})}));
  DC_CHECK_OK(basket->Append({Bat::MakeTs({3}), Bat::MakeI64({3})}));
  DC_CHECK_OK(
      basket->Append({Bat::MakeTs({4, 5, 6}), Bat::MakeI64({4, 5, 6})}));
  EXPECT_EQ(emitter.Drain(), 3);
  auto emissions = collector.TakeAll();
  ASSERT_EQ(emissions.size(), 3u);
  EXPECT_EQ(emissions[0].NumRows(), 2u);
  EXPECT_EQ(emissions[1].NumRows(), 1u);
  EXPECT_EQ(emissions[2].NumRows(), 3u);
  EXPECT_EQ(emissions[2].names[1], "v");
  // Delivered tuples are consumed from the output basket.
  EXPECT_EQ(basket->Stats().resident_rows, 0u);
  EXPECT_EQ(emitter.Stats().emissions, 3u);
  EXPECT_EQ(emitter.Stats().rows, 6u);
}

// Threaded delivery runs on the scheduler worker that fired the query;
// no emitter owns a thread. Per query: emissions arrive in order, a
// zero-row result arrives as a typed empty ColumnSet, a paused query
// delivers nothing until resumed, and factory emissions == emitter
// emissions == sink calls == latency samples.
TEST(EmitterTest, ThreadedEngineDelivery) {
  Engine engine(testutil::Threaded(2));
  ASSERT_TRUE(engine.Execute("CREATE STREAM s (ts timestamp, v int)").ok());
  ResultCollector all, none;
  Engine::ContinuousOptions opts;
  opts.sink = all.AsSink();
  auto q_all = engine.SubmitContinuous("SELECT v FROM s", opts);
  opts.sink = none.AsSink();
  auto q_none = engine.SubmitContinuous("SELECT v FROM s WHERE v < 0", opts);
  ASSERT_TRUE(q_all.ok() && q_none.ok());

  auto push = [&](int64_t from, int64_t to) {
    for (int64_t i = from; i < to; ++i) {
      ASSERT_TRUE(engine.PushRow("s", {Value::Ts(i), Value::I64(i)}).ok());
    }
    ASSERT_TRUE(engine.WaitIdle());
  };
  push(0, 100);
  ASSERT_TRUE(engine.PauseQuery(*q_all).ok());
  const size_t before_pause = all.EmissionCount();
  push(100, 200);
  EXPECT_EQ(all.EmissionCount(), before_pause);  // paused: nothing fired
  ASSERT_TRUE(engine.ResumeQuery(*q_all).ok());
  ASSERT_TRUE(engine.WaitIdle());

  // Ordering: per-batch emissions may coalesce pending batches, but the
  // concatenation is the pushed sequence.
  std::vector<int64_t> seen;
  const std::vector<ColumnSet> all_emissions = all.TakeAll();
  for (const ColumnSet& e : all_emissions) {
    for (size_t r = 0; r < e.NumRows(); ++r) {
      seen.push_back(e.cols[0]->GetValue(r).AsI64());
    }
  }
  ASSERT_EQ(seen.size(), 200u);
  for (int64_t i = 0; i < 200; ++i) EXPECT_EQ(seen[i], i);

  const std::vector<ColumnSet> empty_emissions = none.TakeAll();
  ASSERT_FALSE(empty_emissions.empty());
  for (const ColumnSet& e : empty_emissions) {
    EXPECT_EQ(e.NumRows(), 0u);
    ASSERT_EQ(e.cols.size(), 1u);
    EXPECT_EQ(e.cols[0]->type(), TypeId::kI64);
    EXPECT_EQ(e.names[0], "v");
  }

  const std::map<int, size_t> delivered = {
      {*q_all, all_emissions.size()}, {*q_none, empty_emissions.size()}};
  for (const ContinuousQueryInfo& info : engine.Queries()) {
    SCOPED_TRACE(info.name);
    EXPECT_EQ(info.factory.emissions, info.emitter.emissions);
    EXPECT_EQ(info.emitter.emissions, delivered.at(info.id));
    EXPECT_EQ(info.latency.count(), info.emitter.emissions);
  }
  EXPECT_EQ(engine.Queries()[1].emitter.empty_emissions,
            empty_emissions.size());
}

// Removing a tier-F alias while its founder keeps firing: the alias's
// final flush happens inside RemoveContinuous, and its sink is never
// called after that returns, though workers still deliver to the founder
// from the same output basket.
TEST(EmitterTest, RemovedAliasSinkIsNeverCalledAgain) {
  Engine engine(testutil::Threaded(2));
  ASSERT_TRUE(engine.Execute("CREATE STREAM s (ts timestamp, v int)").ok());
  ResultCollector founder;
  std::atomic<bool> removed{false};
  std::atomic<uint64_t> alias_calls{0};
  std::atomic<uint64_t> late_calls{0};
  Engine::ContinuousOptions opts;
  opts.sink = founder.AsSink();
  auto q_founder = engine.SubmitContinuous("SELECT v FROM s", opts);
  opts.sink = [&](const ColumnSet&) {
    alias_calls.fetch_add(1);
    if (removed.load()) late_calls.fetch_add(1);
  };
  auto q_alias = engine.SubmitContinuous("SELECT v FROM s", opts);
  ASSERT_TRUE(q_founder.ok() && q_alias.ok());
  ASSERT_EQ(engine.GetSharingStats().full_hits, 1u);

  std::atomic<bool> stop{false};
  std::thread pusher([&] {
    for (int64_t i = 0; !stop.load(); ++i) {
      ASSERT_TRUE(engine.PushRow("s", {Value::Ts(i), Value::I64(i)}).ok());
    }
  });
  const Micros deadline = SteadyMicros() + 5 * kMicrosPerSecond;
  while (alias_calls.load() < 20 && SteadyMicros() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_GE(alias_calls.load(), 20u);
  ASSERT_TRUE(engine.RemoveContinuous(*q_alias).ok());
  removed.store(true);
  // The founder keeps firing and delivering from the shared basket.
  const size_t at_removal = founder.EmissionCount();
  while (founder.EmissionCount() < at_removal + 20 &&
         SteadyMicros() < deadline) {
    std::this_thread::yield();
  }
  stop.store(true);
  pusher.join();
  ASSERT_TRUE(engine.WaitIdle());
  EXPECT_GE(founder.EmissionCount(), at_removal + 20);
  EXPECT_EQ(late_calls.load(), 0u);
}

TEST(EmitterTest, DeliversZeroRowEmissions) {
  auto basket = std::make_shared<Basket>("out", TsI64Schema(), SIZE_MAX);
  ResultCollector collector;
  Emitter emitter("e", basket, {"ts", "v"}, collector.AsSink());
  DC_CHECK_OK(basket->Append({Bat::MakeTs({1}), Bat::MakeI64({1})}));
  DC_CHECK_OK(basket->Append(
      {Bat::MakeEmpty(TypeId::kTs), Bat::MakeEmpty(TypeId::kI64)}));
  DC_CHECK_OK(basket->Append({Bat::MakeTs({2}), Bat::MakeI64({2})}));
  EXPECT_EQ(emitter.Drain(), 3);
  auto emissions = collector.TakeAll();
  ASSERT_EQ(emissions.size(), 3u);
  EXPECT_EQ(emissions[0].NumRows(), 1u);
  EXPECT_EQ(emissions[1].NumRows(), 0u);  // empty emission, schema intact
  ASSERT_EQ(emissions[1].cols.size(), 2u);
  EXPECT_EQ(emissions[1].cols[1]->type(), TypeId::kI64);
  EXPECT_EQ(emissions[2].NumRows(), 1u);
  EXPECT_EQ(emitter.Stats().emissions, 3u);
  EXPECT_EQ(emitter.Stats().empty_emissions, 1u);
  EXPECT_EQ(emitter.Stats().rows, 2u);
  // Draining again delivers nothing: the empty boundary is not replayed.
  EXPECT_EQ(emitter.Drain(), 0);
}

TEST(EmitterTest, CloseFlushesThenDeliversNothing) {
  auto basket = std::make_shared<Basket>("out", TsI64Schema(), SIZE_MAX);
  ResultCollector collector;
  Emitter emitter("e", basket, {"ts", "v"}, collector.AsSink());
  DC_CHECK_OK(basket->Append({Bat::MakeTs({1}), Bat::MakeI64({1})}));
  emitter.Close();  // final flush
  EXPECT_EQ(collector.EmissionCount(), 1u);
  DC_CHECK_OK(basket->Append({Bat::MakeTs({2}), Bat::MakeI64({2})}));
  EXPECT_EQ(emitter.Drain(), 0);
  emitter.Close();
  EXPECT_EQ(collector.EmissionCount(), 1u);
  EXPECT_EQ(emitter.Stats().emissions, 1u);
}

TEST(EmitterTest, DrainOnEmptyBasketIsNoop) {
  auto basket = std::make_shared<Basket>("out", TsI64Schema(), SIZE_MAX);
  ResultCollector collector;
  Emitter emitter("e", basket, {"ts", "v"}, collector.AsSink());
  EXPECT_EQ(emitter.Drain(), 0);
  EXPECT_EQ(collector.EmissionCount(), 0u);
}

}  // namespace
}  // namespace dc
