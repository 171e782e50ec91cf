// Unit tests for src/util/sync.h: the capability-annotated wrappers and
// the debug-build lock-rank validator. The compile-time layer (Clang TSA)
// is exercised by the `thread-safety` preset and the configure-time
// compile-fail gate (tests/compile_fail/requires_misuse.cc); this suite
// covers the runtime layer.

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/sync.h"

namespace dc {
namespace {

TEST(MutexTest, LockUnlockTryLock) {
  Mutex mu(LockRank::kLeaf);
  mu.Lock();
  // Contended TryLock from another thread must fail, not block.
  std::atomic<bool> acquired{true};
  std::thread t([&] { acquired = mu.TryLock(); });
  t.join();
  EXPECT_FALSE(acquired);
  mu.Unlock();
  EXPECT_TRUE(mu.TryLock());
  mu.Unlock();
}

TEST(MutexTest, MutexLockProvidesExclusion) {
  Mutex mu(LockRank::kLeaf);
  int counter = 0;
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&] {
      for (int j = 0; j < 1000; ++j) {
        MutexLock lock(mu);
        ++counter;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter, 4000);
}

TEST(CondVarTest, WaitNotify) {
  Mutex mu(LockRank::kLeaf);
  CondVar cv;
  bool ready = false;
  std::thread t([&] {
    MutexLock lock(mu);
    ready = true;
    cv.NotifyOne();
  });
  {
    MutexLock lock(mu);
    while (!ready) cv.Wait(mu);
    EXPECT_TRUE(ready);
  }
  t.join();
}

TEST(CondVarTest, WaitForTimesOut) {
  Mutex mu(LockRank::kLeaf);
  CondVar cv;
  MutexLock lock(mu);
  EXPECT_FALSE(cv.WaitFor(mu, 1000));  // nobody notifies: times out
  EXPECT_FALSE(cv.WaitFor(mu, 0));     // non-positive: immediate false
  EXPECT_FALSE(cv.WaitFor(mu, -5));
}

#if DC_LOCK_VALIDATOR

TEST(LockValidatorTest, TracksHeldDepth) {
  EXPECT_EQ(sync_internal::HeldLockDepthForTest(), 0);
  Mutex outer(LockRank::kEngine);
  Mutex inner(LockRank::kBasket);
  {
    MutexLock l1(outer);
    EXPECT_EQ(sync_internal::HeldLockDepthForTest(), 1);
    {
      MutexLock l2(inner);
      EXPECT_EQ(sync_internal::HeldLockDepthForTest(), 2);
    }
    EXPECT_EQ(sync_internal::HeldLockDepthForTest(), 1);
  }
  EXPECT_EQ(sync_internal::HeldLockDepthForTest(), 0);
}

TEST(LockValidatorTest, ToleratesOutOfOrderRelease) {
  // Hand-over-hand: release the first-acquired lock first. The held-lock
  // stack must stay consistent (releases scan, not pop).
  Mutex a(LockRank::kEngine);
  Mutex b(LockRank::kBasket);
  a.Lock();
  b.Lock();
  a.Unlock();
  EXPECT_EQ(sync_internal::HeldLockDepthForTest(), 1);
  b.Unlock();
  EXPECT_EQ(sync_internal::HeldLockDepthForTest(), 0);
}

TEST(LockValidatorDeathTest, AbortsOnRankInversion) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex basket(LockRank::kBasket);
  Mutex engine(LockRank::kEngine);
  EXPECT_DEATH(
      {
        MutexLock l1(basket);   // rank 100
        MutexLock l2(engine);   // rank 30: inversion
      },
      "lock rank inversion: acquiring 'engine' \\(rank 30\\) while holding "
      "'basket' \\(rank 100\\)");
}

TEST(LockValidatorDeathTest, AbortsOnEqualRankReacquisition) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Equal ranks are forbidden too — that is what catches self-deadlock
  // (recursive acquisition of one mutex) on any schedule.
  Mutex mu(LockRank::kLeaf);
  EXPECT_DEATH(
      {
        MutexLock l1(mu);
        MutexLock l2(mu);
      },
      "lock rank inversion");
}

#else  // !DC_LOCK_VALIDATOR

TEST(LockValidatorTest, CompiledOut) {
  GTEST_SKIP() << "lock validator compiled out (NDEBUG build without "
                  "DC_LOCK_VALIDATOR=ON); the Debug/asan/tsan presets "
                  "exercise it";
}

#endif  // DC_LOCK_VALIDATOR

}  // namespace
}  // namespace dc
