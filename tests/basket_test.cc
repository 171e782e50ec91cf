// Unit tests for baskets (multi-reader consumption, dropping, watermarks,
// batch boundaries) and the window-boundary math.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "core/basket.h"
#include "core/window.h"
#include "tests/test_util.h"

namespace dc {
namespace {

using testutil::TsI64Schema;

TEST(BasketTest, AppendAndRead) {
  Basket b("s", TsI64Schema(), 0);
  ASSERT_TRUE(b.AppendRow({Value::Ts(10), Value::I64(1)}).ok());
  ASSERT_TRUE(b.AppendRow({Value::Ts(20), Value::I64(2)}).ok());
  EXPECT_EQ(b.HighSeq(), 2u);
  BasketView view = b.Read(0);
  EXPECT_EQ(view.rows, 2u);
  EXPECT_EQ(view.cols[1]->I64Data()[1], 2);
  EXPECT_EQ(b.EventWatermark(), 20);
}

TEST(BasketTest, TypeAndArityChecks) {
  Basket b("s", TsI64Schema(), 0);
  EXPECT_FALSE(b.Append({Bat::MakeI64({1})}).ok());  // wrong arity
  EXPECT_FALSE(
      b.Append({Bat::MakeI64({1}), Bat::MakeI64({1})}).ok());  // ts type
  EXPECT_FALSE(
      b.Append({Bat::MakeTs({1, 2}), Bat::MakeI64({1})}).ok());  // ragged
}

TEST(BasketTest, OutOfOrderTimestampsClamped) {
  Basket b("s", TsI64Schema(), 0);
  ASSERT_TRUE(b.AppendRow({Value::Ts(100), Value::I64(1)}).ok());
  ASSERT_TRUE(b.AppendRow({Value::Ts(50), Value::I64(2)}).ok());
  BasketView view = b.Read(0);
  EXPECT_EQ(view.cols[0]->I64Data()[1], 100);  // clamped
  EXPECT_EQ(b.EventWatermark(), 100);
}

TEST(BasketTest, ReadersGateDropping) {
  Basket b("s", TsI64Schema(), 0);
  const int r1 = b.RegisterReader(true);
  const int r2 = b.RegisterReader(true);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(b.AppendRow({Value::Ts(i), Value::I64(i)}).ok());
  }
  b.AdvanceReader(r1, 7);
  EXPECT_EQ(b.DropHorizon(), 0u);  // r2 still at 0
  b.AdvanceReader(r2, 4);
  EXPECT_EQ(b.DropHorizon(), 4u);  // min cursor
  EXPECT_EQ(b.Stats().resident_rows, 6u);
  EXPECT_EQ(b.Stats().dropped_total, 4u);
  // Reading below the horizon clamps up.
  BasketView view = b.Read(0);
  EXPECT_EQ(view.first_seq, 4u);
  EXPECT_EQ(view.cols[1]->I64Data()[0], 4);
  // Unregistering the slow reader lets r1's cursor take effect.
  b.UnregisterReader(r2);
  EXPECT_EQ(b.DropHorizon(), 7u);
}

TEST(BasketTest, ReadersAheadOfHighSeqDropRowsAsTheyArrive) {
  Basket b("s", TsI64Schema(), 0);
  const int r1 = b.RegisterReader(true);
  const int r2 = b.RegisterReader(true);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(b.AppendRow({Value::Ts(i), Value::I64(i)}).ok());
  }
  // Both readers release past rows not yet appended (a hopping window
  // releasing up to its next start); the horizon stops at HighSeq().
  b.AdvanceReader(r1, 10);
  b.AdvanceReader(r2, 7);
  EXPECT_EQ(b.HighSeq(), 4u);
  EXPECT_EQ(b.DropHorizon(), 4u);
  EXPECT_EQ(b.Stats().resident_rows, 0u);
  // A batch appended into the empty basket loses the rows every reader
  // is past ([4, 7)) and keeps the rest.
  ASSERT_TRUE(b.Append({Bat::MakeTs({4, 5, 6, 7, 8, 9, 10, 11}),
                        Bat::MakeI64({4, 5, 6, 7, 8, 9, 10, 11})})
                  .ok());
  EXPECT_EQ(b.HighSeq(), 12u);
  EXPECT_EQ(b.DropHorizon(), 7u);
  BasketView view = b.Read(0);
  EXPECT_EQ(view.first_seq, 7u);
  ASSERT_EQ(view.rows, 5u);
  EXPECT_EQ(view.cols[1]->I64Data()[0], 7);
  // The slower reader catching up drops the rest of what both passed.
  b.AdvanceReader(r2, 10);
  EXPECT_EQ(b.DropHorizon(), 10u);
  view = b.Read(0);
  EXPECT_EQ(view.first_seq, 10u);
  ASSERT_EQ(view.rows, 2u);
  EXPECT_EQ(view.cols[1]->I64Data()[0], 10);
}

TEST(BasketTest, NoReadersMeansNoDropping) {
  Basket b("s", TsI64Schema(), 0);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(b.AppendRow({Value::Ts(i), Value::I64(i)}).ok());
  }
  EXPECT_EQ(b.DropHorizon(), 0u);
  EXPECT_EQ(b.Stats().resident_rows, 5u);
}

TEST(BasketTest, ReaderFromNowVsStart) {
  Basket b("s", TsI64Schema(), 0);
  ASSERT_TRUE(b.AppendRow({Value::Ts(1), Value::I64(1)}).ok());
  const int from_start = b.RegisterReader(true);
  const int from_now = b.RegisterReader(false);
  EXPECT_EQ(b.ReaderCursor(from_start), 0u);
  EXPECT_EQ(b.ReaderCursor(from_now), 1u);
}

TEST(BasketTest, SeqRangeForTs) {
  Basket b("s", TsI64Schema(), 0);
  for (int64_t ts : {10, 20, 20, 30, 40}) {
    ASSERT_TRUE(b.AppendRow({Value::Ts(ts), Value::I64(0)}).ok());
  }
  auto range = b.SeqRangeForTs(20, 40);
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range->first, 1u);
  EXPECT_EQ(range->second, 4u);
  // After dropping, sequence numbers stay absolute.
  const int r = b.RegisterReader(true);
  b.AdvanceReader(r, 2);
  range = b.SeqRangeForTs(20, 40);
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range->first, 2u);  // first resident row with ts >= 20
  EXPECT_EQ(range->second, 4u);
}

TEST(BasketTest, ZeroRowAppendIsCountedNotStored) {
  // A zero-row batch carries no rows: it counts as a batch (the WAL logs
  // it) but moves no sequence number and leaves no resident state, so
  // keep-alive empty appends cannot grow the basket.
  Basket b("s", TsI64Schema(), 0);
  const int r = b.RegisterReader(/*from_start=*/true);
  ASSERT_TRUE(b.Append({Bat::MakeTs({1, 2}), Bat::MakeI64({1, 2})}).ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        b.Append({Bat::MakeEmpty(TypeId::kTs), Bat::MakeEmpty(TypeId::kI64)})
            .ok());
  }
  ASSERT_TRUE(b.Append({Bat::MakeTs({3}), Bat::MakeI64({3})}).ok());
  EXPECT_EQ(b.HighSeq(), 3u);  // the empty batches added no rows
  EXPECT_EQ(b.Stats().append_batches, 5u);
  EXPECT_EQ(b.Stats().empty_batches, 3u);
  b.AdvanceReader(r, 3);
  EXPECT_EQ(b.Stats().resident_rows, 0u);
}

TEST(BasketTest, BoundedAppendTimesOutWhenFull) {
  BasketLimits limits;
  limits.max_rows = 4;
  Basket b("s", TsI64Schema(), 0, limits);
  const int r = b.RegisterReader(true);
  // Below the bound: admitted even though the batch overshoots it.
  ASSERT_TRUE(b.Append({Bat::MakeTs({1, 2, 3}), Bat::MakeI64({1, 2, 3})},
                       /*timeout_micros=*/0)
                  .ok());
  ASSERT_TRUE(b.Append({Bat::MakeTs({4, 5}), Bat::MakeI64({4, 5})},
                       /*timeout_micros=*/0)
                  .ok());
  EXPECT_EQ(b.Stats().resident_rows, 5u);  // cap + one in-flight batch
  // At capacity: a non-blocking append fails, a short wait times out.
  const Status st = b.Append({Bat::MakeTs({6}), Bat::MakeI64({6})},
                             /*timeout_micros=*/0);
  EXPECT_TRUE(st.IsResourceExhausted()) << st.ToString();
  EXPECT_TRUE(b.Append({Bat::MakeTs({6}), Bat::MakeI64({6})},
                       /*timeout_micros=*/2 * kMicrosPerMilli)
                  .IsResourceExhausted());
  const BasketStats stats = b.Stats();
  EXPECT_EQ(stats.capacity_rows, 4u);
  EXPECT_EQ(stats.resident_hwm_rows, 5u);
  EXPECT_GE(stats.append_stalls, 2u);
  EXPECT_GE(stats.append_timeouts, 2u);
  // Draining frees space; the append is admitted again.
  b.AdvanceReader(r, 3);
  ASSERT_TRUE(b.Append({Bat::MakeTs({6}), Bat::MakeI64({6})},
                       /*timeout_micros=*/0)
                  .ok());
  // Zero-row batches bypass the capacity gate entirely.
  ASSERT_TRUE(
      b.Append({Bat::MakeEmpty(TypeId::kTs), Bat::MakeEmpty(TypeId::kI64)},
               /*timeout_micros=*/0)
          .ok());
}

TEST(BasketTest, BlockingAppendFailsFastWithNoReaders) {
  // An unbounded wait on a reader-less basket can never be satisfied
  // (nothing frees space): Append must fail fast instead of deadlocking
  // the producer — e.g. Engine::PushRow into a stream no query consumes.
  BasketLimits limits;
  limits.max_rows = 2;
  Basket b("s", TsI64Schema(), 0, limits);
  ASSERT_TRUE(b.Append({Bat::MakeTs({1, 2}), Bat::MakeI64({1, 2})}).ok());
  const Status st = b.Append({Bat::MakeTs({3}), Bat::MakeI64({3})});
  EXPECT_TRUE(st.IsResourceExhausted()) << st.ToString();
}

TEST(BasketTest, BlockedAppendWakesWhenReaderFreesSpace) {
  BasketLimits limits;
  limits.max_rows = 2;
  Basket b("s", TsI64Schema(), 0, limits);
  const int r = b.RegisterReader(true);
  ASSERT_TRUE(b.Append({Bat::MakeTs({1, 2}), Bat::MakeI64({1, 2})}).ok());
  std::thread consumer([&] {
    // Wait for the producer to actually stall (the counter bumps before
    // the wait) so the stall assertion below can't race a loaded machine.
    while (b.Stats().append_stalls == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    b.AdvanceReader(r, 2);
  });
  // Blocks until the consumer drains, then lands without loss.
  ASSERT_TRUE(b.Append({Bat::MakeTs({3}), Bat::MakeI64({3})}).ok());
  consumer.join();
  EXPECT_EQ(b.HighSeq(), 3u);
  EXPECT_GE(b.Stats().append_stalls, 1u);
  EXPECT_EQ(b.Stats().append_timeouts, 0u);
}

TEST(BasketTest, HeartbeatAndSeal) {
  Basket b("s", TsI64Schema(), 0);
  b.Heartbeat(500);
  EXPECT_EQ(b.EventWatermark(), 500);
  EXPECT_FALSE(b.sealed());
  b.Seal();
  EXPECT_TRUE(b.sealed());
}

TEST(BasketTest, ListenersFire) {
  Basket b("s", TsI64Schema(), 0);
  int pulses = 0;
  b.AddListener([&] { ++pulses; });
  ASSERT_TRUE(b.AppendRow({Value::Ts(1), Value::I64(1)}).ok());
  b.Heartbeat(2);
  b.Seal();
  EXPECT_EQ(pulses, 3);
}

// --- WindowMath -------------------------------------------------------------

TEST(WindowMathTest, RowsWindows) {
  plan::WindowSpec spec;
  spec.rows = true;
  spec.size = 10;
  spec.slide = 3;
  WindowMath wm(spec);
  EXPECT_FALSE(wm.Divisible());
  EXPECT_EQ(wm.RowsWindowStart(0), 0);
  EXPECT_EQ(wm.RowsWindowEnd(0), 10);
  EXPECT_EQ(wm.RowsWindowStart(2), 6);
  EXPECT_TRUE(wm.RowsReady(0, 10));
  EXPECT_FALSE(wm.RowsReady(1, 12));
  EXPECT_TRUE(wm.RowsReady(1, 13));
}

TEST(WindowMathTest, BasicWindowsForRows) {
  plan::WindowSpec spec;
  spec.rows = true;
  spec.size = 12;
  spec.slide = 4;
  WindowMath wm(spec);
  ASSERT_TRUE(wm.Divisible());
  EXPECT_EQ(wm.NumBasicWindows(), 3);
  auto [first, last] = wm.BasicWindowsForRows(2);
  EXPECT_EQ(first, 2);
  EXPECT_EQ(last, 5);
  auto [lo, hi] = wm.BasicWindowExtent(2);
  EXPECT_EQ(lo, 8);
  EXPECT_EQ(hi, 12);
}

TEST(WindowMathTest, RangeWindows) {
  plan::WindowSpec spec;
  spec.rows = false;
  spec.size = 100;
  spec.slide = 25;
  WindowMath wm(spec);
  EXPECT_EQ(wm.FirstRangeEmission(0), 1);
  EXPECT_EQ(wm.FirstRangeEmission(24), 1);
  EXPECT_EQ(wm.FirstRangeEmission(25), 2);
  EXPECT_EQ(wm.RangeBoundary(4), 100);
  auto [lo, hi] = wm.RangeExtent(4);
  EXPECT_EQ(lo, 0);
  EXPECT_EQ(hi, 100);
  EXPECT_TRUE(wm.RangeReady(4, 100));
  EXPECT_FALSE(wm.RangeReady(4, 99));
  auto [first, last] = wm.BasicWindowsForRange(4);
  EXPECT_EQ(first, 0);
  EXPECT_EQ(last, 4);
}

TEST(WindowMathTest, NegativeCoordinatesFloorCorrectly) {
  plan::WindowSpec spec;
  spec.rows = false;
  spec.size = 10;
  spec.slide = 5;
  WindowMath wm(spec);
  EXPECT_EQ(wm.BasicWindowOf(-1), -1);
  EXPECT_EQ(wm.BasicWindowOf(-5), -1);
  EXPECT_EQ(wm.BasicWindowOf(-6), -2);
  EXPECT_EQ(wm.BasicWindowOf(0), 0);
}

}  // namespace
}  // namespace dc
