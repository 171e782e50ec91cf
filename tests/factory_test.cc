// Unit tests for Factory: shape validation, firing rules, consumption/
// dropping behaviour, incremental caching and fallback, pause semantics.

#include "core/factory.h"

#include <gtest/gtest.h>

#include "storage/catalog.h"
#include "tests/test_util.h"

namespace dc {
namespace {

class FactoryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const Schema s = testutil::TsI64Schema();
    StreamDef def;
    def.name = "s";
    def.schema = s;
    def.ts_column = 0;
    ASSERT_TRUE(catalog_.RegisterStream(def).ok());
    basket_ = std::make_shared<Basket>("s", s, 0);
  }

  std::shared_ptr<exec::QueryExecutor> MakeExecutor(const std::string& sql) {
    return testutil::CompileQuery(sql, catalog_);
  }

  FactoryInput StreamInput(std::optional<plan::WindowSpec> window) {
    FactoryInput in;
    in.is_stream = true;
    in.basket = basket_.get();
    in.reader_id = basket_->RegisterReader(true);
    in.window = window;
    return in;
  }

  /// An incremental tail over a private node built on the fixture's
  /// stream, the way the engine wires an unshared query.
  Result<FactoryPtr> Tail(std::shared_ptr<exec::QueryExecutor> ex,
                          plan::WindowSpec w, SharedWindowNodePtr* node) {
    *node = std::make_shared<SharedWindowNode>("s#1", basket_, ex, w.rows,
                                               w.slide);
    FactoryInput in;
    in.is_stream = true;
    in.basket = basket_.get();
    in.window = w;
    return Factory::Create(1, "f", std::move(ex), ExecMode::kIncremental,
                           {in}, *node, (*node)->Subscribe());
  }

  /// Attaches a collecting emitter to `f`, the way the engine attaches a
  /// query's emitter at submit.
  std::shared_ptr<ResultCollector> Collect(const FactoryPtr& f) {
    auto collector = std::make_shared<ResultCollector>();
    f->AttachEmitter(std::make_shared<Emitter>("e", collector->AsSink()));
    return collector;
  }

  /// Delivers `f`'s queued emissions and returns the first column of
  /// every delivered row, across emissions.
  static std::vector<int64_t> Delivered(const FactoryPtr& f,
                                        ResultCollector& out) {
    f->Deliver();
    std::vector<int64_t> v;
    for (const ColumnSet& e : out.TakeAll()) {
      for (int64_t x : e.cols[0]->I64Data()) v.push_back(x);
    }
    return v;
  }

  void Push(int64_t ts_sec, int64_t v) {
    ASSERT_TRUE(basket_
                    ->AppendRow({Value::Ts(ts_sec * kMicrosPerSecond),
                                 Value::I64(v)})
                    .ok());
  }

  Catalog catalog_;
  std::shared_ptr<Basket> basket_;
};

TEST_F(FactoryTest, PerBatchFiresOnlyWithData) {
  auto ex = MakeExecutor("SELECT v FROM s");
  auto f = Factory::Create(1, "f", ex, ExecMode::kFullReeval,
                           {StreamInput(std::nullopt)});
  ASSERT_TRUE(f.ok()) << f.status().ToString();
  auto out = Collect(*f);
  EXPECT_FALSE((*f)->CheckReady());
  Push(1, 10);
  EXPECT_TRUE((*f)->CheckReady());
  ASSERT_TRUE((*f)->Fire().ok());
  EXPECT_FALSE((*f)->CheckReady());
  EXPECT_EQ(Delivered(*f, *out), std::vector<int64_t>{10});
  // Consumed tuples are dropped from the input basket.
  EXPECT_EQ(basket_->Stats().resident_rows, 0u);
}

TEST_F(FactoryTest, RowsWindowFiringAndConsumption) {
  plan::WindowSpec w;
  w.rows = true;
  w.size = 4;
  w.slide = 2;
  auto ex = MakeExecutor("SELECT sum(v) FROM s");
  auto f = Factory::Create(1, "f", ex, ExecMode::kFullReeval,
                           {StreamInput(w)});
  ASSERT_TRUE(f.ok());
  auto out = Collect(*f);
  for (int i = 1; i <= 3; ++i) Push(i, i);
  EXPECT_FALSE((*f)->CheckReady());  // 3 rows < window of 4
  Push(4, 4);
  ASSERT_TRUE((*f)->CheckReady());
  ASSERT_TRUE((*f)->Fire().ok());
  // Window [0,4) emitted sum 10; rows 0,1 (below next window start) drop.
  EXPECT_EQ(Delivered(*f, *out), std::vector<int64_t>{10});
  EXPECT_EQ(basket_->Stats().dropped_total, 2u);
  EXPECT_FALSE((*f)->CheckReady());
  Push(5, 5);
  Push(6, 6);
  ASSERT_TRUE((*f)->CheckReady());
  ASSERT_TRUE((*f)->Fire().ok());
  EXPECT_EQ(Delivered(*f, *out), std::vector<int64_t>{3 + 4 + 5 + 6});
}

TEST_F(FactoryTest, IncrementalCachesFragmentsPerBasicWindow) {
  plan::WindowSpec w;
  w.rows = true;
  w.size = 4;
  w.slide = 1;
  auto ex = MakeExecutor("SELECT sum(v), count(*) FROM s");
  SharedWindowNodePtr node;
  auto f = Tail(ex, w, &node);
  ASSERT_TRUE(f.ok()) << f.status().ToString();
  for (int i = 0; i < 10; ++i) {
    Push(i, 1);
    while ((*f)->CheckReady()) ASSERT_TRUE((*f)->Fire().ok());
  }
  const FactoryStats stats = (*f)->Stats();
  EXPECT_EQ(stats.emissions, 7u);  // windows ending at rows 4..10
  // Each row entered exactly one fragment: 10 tuples in, not 7*4.
  EXPECT_EQ(stats.tuples_in, 10u);
  EXPECT_FALSE(stats.fell_back_to_full);
  // The partials live on the node; the tail caches nothing itself.
  EXPECT_EQ(stats.cached_partials, 0u);
  EXPECT_LE(node->Stats().cached_partials, 4u);  // bounded by n_bw
}

TEST_F(FactoryTest, IncrementalWindowWithoutNodeIsRejected) {
  plan::WindowSpec w;
  w.rows = true;
  w.size = 4;
  w.slide = 1;
  auto ex = MakeExecutor("SELECT sum(v) FROM s");
  // A divisible incremental window runs only as a node tail; it must not
  // silently run in another mode.
  auto f = Factory::Create(1, "f", ex, ExecMode::kIncremental,
                           {StreamInput(w)});
  EXPECT_TRUE(f.status().IsInvalidArgument()) << f.status().ToString();
}

TEST_F(FactoryTest, IncrementalFallsBackWhenNotDivisible) {
  plan::WindowSpec w;
  w.rows = true;
  w.size = 5;
  w.slide = 2;  // 5 % 2 != 0
  auto ex = MakeExecutor("SELECT sum(v) FROM s");
  auto f = Factory::Create(1, "f", ex, ExecMode::kIncremental,
                           {StreamInput(w)});
  ASSERT_TRUE(f.ok());
  auto out = Collect(*f);
  EXPECT_TRUE((*f)->Stats().fell_back_to_full);
  for (int i = 0; i < 7; ++i) Push(i, i);
  while ((*f)->CheckReady()) ASSERT_TRUE((*f)->Fire().ok());
  // Still correct: window [0,5) then [2,7).
  EXPECT_EQ(Delivered(*f, *out),
            (std::vector<int64_t>{0 + 1 + 2 + 3 + 4, 2 + 3 + 4 + 5 + 6}));
}

TEST_F(FactoryTest, RangeWindowSkipsEmptyLeadingWindows) {
  plan::WindowSpec w;
  w.rows = false;
  w.size = 4 * kMicrosPerSecond;
  w.slide = 2 * kMicrosPerSecond;
  auto ex = MakeExecutor("SELECT count(*) FROM s");
  SharedWindowNodePtr node;
  auto f = Tail(ex, w, &node);
  ASSERT_TRUE(f.ok()) << f.status().ToString();
  auto out = Collect(*f);
  // Stream starts late: first event at t=100 s.
  Push(100, 1);
  Push(101, 2);
  EXPECT_FALSE((*f)->CheckReady());  // watermark 101 < boundary 102
  Push(103, 3);
  ASSERT_TRUE((*f)->CheckReady());
  ASSERT_TRUE((*f)->Fire().ok());
  // First window ends at 102 s and contains the events at 100/101.
  EXPECT_EQ(Delivered(*f, *out), std::vector<int64_t>{2});
}

TEST_F(FactoryTest, PausedFactoryIsNotReady) {
  auto ex = MakeExecutor("SELECT v FROM s");
  auto f = Factory::Create(1, "f", ex, ExecMode::kFullReeval,
                           {StreamInput(std::nullopt)});
  ASSERT_TRUE(f.ok());
  Push(1, 1);
  (*f)->Pause();
  EXPECT_TRUE((*f)->paused());
  EXPECT_FALSE((*f)->CheckReady());
  (*f)->Resume();
  EXPECT_TRUE((*f)->CheckReady());
}

TEST_F(FactoryTest, ValidationErrors) {
  auto ex = MakeExecutor("SELECT v FROM s");
  // No inputs at all.
  EXPECT_FALSE(Factory::Create(1, "f", ex, ExecMode::kFullReeval, {}).ok());
  // Stream input without a basket.
  FactoryInput bad;
  bad.is_stream = true;
  EXPECT_FALSE(
      Factory::Create(1, "f", ex, ExecMode::kFullReeval, {bad}).ok());
}

TEST_F(FactoryTest, FireIsIdempotentWhenNotReady) {
  auto ex = MakeExecutor("SELECT v FROM s");
  auto f = Factory::Create(1, "f", ex, ExecMode::kFullReeval,
                           {StreamInput(std::nullopt)});
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE((*f)->Fire().ok());  // no data: no-op
  EXPECT_EQ((*f)->Stats().emissions, 0u);
}

}  // namespace
}  // namespace dc
