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

// One emission as a factory queues it: immutable, shared by every emitter.
std::shared_ptr<const ColumnSet> Emission(std::vector<int64_t> ts,
                                          std::vector<int64_t> v) {
  auto e = std::make_shared<ColumnSet>();
  e->names = {"ts", "v"};
  e->cols = {Bat::MakeTs(std::move(ts)), Bat::MakeI64(std::move(v))};
  return e;
}

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
  ResultCollector collector;
  Emitter emitter("e", collector.AsSink());
  // Three "emissions" of different sizes.
  emitter.Enqueue(Emission({1, 2}, {1, 2}), -1);
  emitter.Enqueue(Emission({3}, {3}), -1);
  emitter.Enqueue(Emission({4, 5, 6}, {4, 5, 6}), -1);
  EXPECT_EQ(emitter.Stats().pending_rows, 6u);
  EXPECT_EQ(emitter.Drain(), 3);
  auto emissions = collector.TakeAll();
  ASSERT_EQ(emissions.size(), 3u);
  EXPECT_EQ(emissions[0].NumRows(), 2u);
  EXPECT_EQ(emissions[1].NumRows(), 1u);
  EXPECT_EQ(emissions[2].NumRows(), 3u);
  EXPECT_EQ(emissions[2].names[1], "v");
  // Delivered emissions leave the pending queue.
  EXPECT_EQ(emitter.Stats().pending_rows, 0u);
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
// called after that returns, though workers still deliver the same
// factory's emissions to the founder.
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
  // The founder keeps firing and delivering from the shared factory.
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

// A factory queues each emission once, as one immutable ColumnSet shared
// by every attached emitter. A sink may keep what it received: later fires
// never write into it. Covers each factory shape, with a tier-F alias per
// query so two sinks share every emission.
TEST(EmitterTest, KeptEmissionsStayUnchanged) {
  Engine engine(testutil::SyncOptions());
  ASSERT_TRUE(engine
                  .Execute("CREATE STREAM s (ts timestamp, g int, v int);"
                           "CREATE STREAM r (rts timestamp, kr int, y int);"
                           "CREATE TABLE dim (g int, label string);"
                           "INSERT INTO dim VALUES (0,'a'), (1,'b'), (2,'a')")
                  .ok());
  const std::string range = "[RANGE 2 SECONDS SLIDE 1 SECONDS]";
  struct Shape {
    const char* label;
    std::string sql;
    ExecMode mode;
  };
  const std::vector<Shape> shapes = {
      {"per-batch", "SELECT ts, g, v FROM s WHERE v >= 0",
       ExecMode::kFullReeval},
      {"full-reeval window",
       "SELECT g, count(*), sum(v) FROM s " + range +
           " GROUP BY g ORDER BY g",
       ExecMode::kFullReeval},
      {"node tail",
       "SELECT g, count(*), sum(v) FROM s " + range +
           " GROUP BY g ORDER BY g",
       ExecMode::kIncremental},
      {"stream-table tail",
       "SELECT label, count(*), sum(v) FROM s " + range +
           " JOIN dim ON s.g = dim.g GROUP BY label ORDER BY label",
       ExecMode::kIncremental},
      {"delta join, row path",
       "SELECT ts, g, v, y FROM s " + range + " JOIN r " + range +
           " ON g = kr ORDER BY ts, g, v, y",
       ExecMode::kIncremental},
      {"delta join, pre-aggregated path",
       "SELECT count(*), sum(v), sum(y) FROM s " + range + " JOIN r " +
           range + " ON g = kr",
       ExecMode::kIncremental},
  };
  // Per submitted query: every emission as received, and its rendering at
  // the moment it arrived.
  struct Kept {
    std::vector<ColumnSet> sets;
    std::vector<std::string> at_arrival;
  };
  std::vector<Kept> kept(2 * shapes.size());
  std::vector<int> ids;
  for (size_t i = 0; i < kept.size(); ++i) {
    const Shape& shape = shapes[i / 2];
    Engine::ContinuousOptions o = testutil::WithMode(shape.mode);
    o.sink = [k = &kept[i]](const ColumnSet& e) {
      k->sets.push_back(e);
      k->at_arrival.push_back(e.ToString(1 << 20));
    };
    auto q = engine.SubmitContinuous(shape.sql, o);
    ASSERT_TRUE(q.ok()) << shape.label << ": " << q.status().ToString();
    ids.push_back(*q);
  }
  ASSERT_EQ(engine.GetSharingStats().full_hits, shapes.size());

  for (int64_t i = 0; i < 96; ++i) {
    const Micros ts = i * 250 * kMicrosPerMilli;  // four rows per second
    ASSERT_TRUE(
        engine.PushRow("s", {Value::Ts(ts), Value::I64(i % 3), Value::I64(i)})
            .ok());
    ASSERT_TRUE(engine
                    .PushRow("r", {Value::Ts(ts), Value::I64(i % 3),
                                   Value::I64(2 * i)})
                    .ok());
    engine.Pump();
  }

  std::map<int, ContinuousQueryInfo> infos;
  for (const ContinuousQueryInfo& info : engine.Queries()) {
    infos[info.id] = info;
  }
  for (size_t i = 0; i < kept.size(); ++i) {
    const Shape& shape = shapes[i / 2];
    SCOPED_TRACE(std::string(shape.label) + (i % 2 ? " (alias)" : ""));
    const ContinuousQueryInfo& info = infos.at(ids[i]);
    ASSERT_TRUE(info.factory.last_error.empty()) << info.factory.last_error;
    EXPECT_EQ(info.mode, shape.mode);
    if (shape.mode == ExecMode::kIncremental) {
      // The shapes are what their labels say: tails ride a window node,
      // joins run the delta path.
      EXPECT_EQ(info.shared_node.empty(), info.input_streams.size() == 2);
      if (info.input_streams.size() == 2) {
        EXPECT_GT(info.factory.delta_pairs, 0u);
      }
    }
    const Kept& k = kept[i];
    ASSERT_GE(k.sets.size(), 12u);
    EXPECT_EQ(k.sets.size(), info.factory.emissions);
    // Every emission, the early ones followed by at least ten more fires,
    // still reads as it did on arrival.
    for (size_t e = 0; e < k.sets.size(); ++e) {
      ASSERT_EQ(k.sets[e].ToString(1 << 20), k.at_arrival[e])
          << "emission " << e << " of " << k.sets.size();
    }
    if (i % 2 == 1) {
      // The alias's sink received the founder's emissions themselves.
      const Kept& founder = kept[i - 1];
      ASSERT_EQ(k.sets.size(), founder.sets.size());
      for (size_t e = 0; e < k.sets.size(); ++e) {
        ASSERT_EQ(k.sets[e].cols, founder.sets[e].cols) << "emission " << e;
      }
    }
  }
}

// In sync mode, a tier-F alias submitted after the founder has emitted
// receives exactly the founder's emissions from its submit on: none of the
// earlier ones, and every later one in order.
TEST(EmitterTest, LateAliasReceivesEmissionsFromItsSubmitOn) {
  Engine engine(testutil::SyncOptions());
  ASSERT_TRUE(
      engine.Execute("CREATE STREAM s (ts timestamp, g int, v int)").ok());
  const char* sql =
      "SELECT g, count(*), sum(v) FROM s "
      "[RANGE 1 SECONDS SLIDE 1 SECONDS] GROUP BY g ORDER BY g";
  auto founder = engine.SubmitContinuous(sql);
  ASSERT_TRUE(founder.ok()) << founder.status().ToString();
  int64_t next = 0;
  auto pump_rows = [&](int64_t n) {
    for (int64_t end = next + n; next < end; ++next) {
      ASSERT_TRUE(engine
                      .PushRow("s", {Value::Ts(next * 100 * kMicrosPerMilli),
                                     Value::I64(next % 2), Value::I64(next)})
                      .ok());
      engine.Pump();
    }
  };
  pump_rows(57);
  const std::vector<ColumnSet> before = *engine.TakeResults(*founder);
  ASSERT_GE(before.size(), 5u);  // N emissions before the alias exists

  auto alias = engine.SubmitContinuous(sql);
  ASSERT_TRUE(alias.ok()) << alias.status().ToString();
  ASSERT_EQ(engine.GetSharingStats().full_hits, 1u);
  EXPECT_TRUE(engine.TakeResults(*alias)->empty());

  pump_rows(43);
  const std::vector<ColumnSet> founder_after = *engine.TakeResults(*founder);
  const std::vector<ColumnSet> alias_after = *engine.TakeResults(*alias);
  ASSERT_GE(founder_after.size(), 4u);
  EXPECT_EQ(testutil::EmissionStrings(alias_after),
            testutil::EmissionStrings(founder_after));
  uint64_t founder_emissions = 0, alias_emissions = 0;
  for (const ContinuousQueryInfo& info : engine.Queries()) {
    (info.id == *founder ? founder_emissions : alias_emissions) =
        info.emitter.emissions;
  }
  EXPECT_EQ(founder_emissions, before.size() + founder_after.size());
  EXPECT_EQ(alias_emissions, alias_after.size());
}

TEST(EmitterTest, DeliversZeroRowEmissions) {
  ResultCollector collector;
  Emitter emitter("e", collector.AsSink());
  emitter.Enqueue(Emission({1}, {1}), -1);
  emitter.Enqueue(Emission({}, {}), -1);
  emitter.Enqueue(Emission({2}, {2}), -1);
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
  ResultCollector collector;
  Emitter emitter("e", collector.AsSink());
  emitter.Enqueue(Emission({1}, {1}), -1);
  emitter.Close();  // final flush
  EXPECT_EQ(collector.EmissionCount(), 1u);
  emitter.Enqueue(Emission({2}, {2}), -1);
  EXPECT_EQ(emitter.Stats().pending_rows, 0u);  // dropped, not queued
  EXPECT_EQ(emitter.Drain(), 0);
  emitter.Close();
  EXPECT_EQ(collector.EmissionCount(), 1u);
  EXPECT_EQ(emitter.Stats().emissions, 1u);
}

TEST(EmitterTest, DrainOnEmptyQueueIsNoop) {
  ResultCollector collector;
  Emitter emitter("e", collector.AsSink());
  EXPECT_EQ(emitter.Drain(), 0);
  EXPECT_EQ(collector.EmissionCount(), 0u);
}

}  // namespace
}  // namespace dc
