// Copyright 2026 The DataCell Authors.
//
// Capability-annotated synchronization primitives. Every lock in the
// engine is one of these wrappers, which buys two machine-checked layers
// on top of the std primitives they wrap:
//
//  1. Clang Thread Safety Analysis (compile time). The wrappers carry
//     Clang's capability attributes, so `DC_GUARDED_BY(mu_)` fields and
//     `DC_REQUIRES(mu_)` helpers become *compile errors* when touched
//     without the lock. The attributes expand to nothing on non-Clang
//     compilers; the `thread-safety` CMake preset builds with
//     `-Werror=thread-safety` so the contracts are a permanent CI gate.
//
//  2. A lock-rank validator (run time, debug builds). Every Mutex is
//     constructed with a LockRank from the documented engine-wide
//     hierarchy (docs/CONCURRENCY.md). A thread-local
//     held-lock stack checks that ranks are acquired in strictly
//     increasing order and aborts on the first out-of-order acquisition,
//     naming both ranks — turning a potential deadlock that TSan could
//     only catch on the losing schedule into a deterministic failure on
//     *any* schedule that performs the acquisition.
//
// The validator compiles in when DC_LOCK_VALIDATOR is 1 (default: on in
// debug builds, i.e. when NDEBUG is not defined; the asan/tsan presets
// force it on). The rank member is stored unconditionally so object
// layout does not depend on the macro (no ODR hazard when translation
// units disagree about DC_LOCK_VALIDATOR).
//
// Condition-variable waits: CondVar::Wait/WaitFor release and reacquire
// the wrapped mutex like std::condition_variable. The held-lock stack is
// deliberately left untouched across the wait — the blocked thread
// executes nothing, and after wakeup the lock is held again, so the
// stack is accurate at every point where code actually runs. Callers
// write explicit predicate loops (`while (!cond) cv.Wait(mu);`), which
// also keeps the predicate inside the TSA-annotated function instead of
// an unannotatable lambda.

#ifndef DATACELL_UTIL_SYNC_H_
#define DATACELL_UTIL_SYNC_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <mutex>

// --------------------------------------------------------------------------
// Clang Thread Safety Analysis attribute macros (no-ops elsewhere).
// --------------------------------------------------------------------------
#if defined(__clang__)
#define DC_TSA_ATTR(x) __attribute__((x))
#else
#define DC_TSA_ATTR(x)
#endif

#define DC_CAPABILITY(x) DC_TSA_ATTR(capability(x))
#define DC_SCOPED_CAPABILITY DC_TSA_ATTR(scoped_lockable)
#define DC_GUARDED_BY(x) DC_TSA_ATTR(guarded_by(x))
#define DC_PT_GUARDED_BY(x) DC_TSA_ATTR(pt_guarded_by(x))
#define DC_ACQUIRED_BEFORE(...) DC_TSA_ATTR(acquired_before(__VA_ARGS__))
#define DC_ACQUIRED_AFTER(...) DC_TSA_ATTR(acquired_after(__VA_ARGS__))
#define DC_REQUIRES(...) DC_TSA_ATTR(requires_capability(__VA_ARGS__))
#define DC_ACQUIRE(...) DC_TSA_ATTR(acquire_capability(__VA_ARGS__))
#define DC_RELEASE(...) DC_TSA_ATTR(release_capability(__VA_ARGS__))
#define DC_TRY_ACQUIRE(...) DC_TSA_ATTR(try_acquire_capability(__VA_ARGS__))
#define DC_EXCLUDES(...) DC_TSA_ATTR(locks_excluded(__VA_ARGS__))
#define DC_ASSERT_CAPABILITY(x) DC_TSA_ATTR(assert_capability(x))
#define DC_RETURN_CAPABILITY(x) DC_TSA_ATTR(lock_returned(x))
#define DC_NO_THREAD_SAFETY_ANALYSIS DC_TSA_ATTR(no_thread_safety_analysis)

// --------------------------------------------------------------------------
// Lock-rank validator switch. Default: follow NDEBUG.
// --------------------------------------------------------------------------
#ifndef DC_LOCK_VALIDATOR
#ifdef NDEBUG
#define DC_LOCK_VALIDATOR 0
#else
#define DC_LOCK_VALIDATOR 1
#endif
#endif

namespace dc {

/// The engine-wide lock hierarchy. A thread may only acquire a lock whose
/// rank is STRICTLY GREATER than every lock it already holds; equal ranks
/// are forbidden (two locks of one rank are never held together, which
/// also catches recursive acquisition). The full table — which fields
/// each rank guards and why each edge exists — lives in
/// docs/CONCURRENCY.md; keep the two in sync when adding a rank.
///
/// Values are spaced so future subsystems (engine shards, WAL) can slot
/// between existing ranks without renumbering the world — the sharing
/// registry (25) and shared window nodes (65) landed exactly that way.
enum class LockRank : int {
  kMonitor = 10,        // monitor::AnalysisPane::mu_ (holds while sampling
                        // the whole engine, so it is the outermost rank)
  kDurability = 15,     // Durability::ckpt_mu_ (checkpoint serialization; a
                        // checkpoint drains emitters (20) and walks the
                        // sharing registry (25), engine (30), factory and
                        // basket locks underneath, so it sits just below
                        // kEmitterDrain)
  kEmitterDrain = 20,   // Emitter::drain_mu_ (sinks run under it and may
                        // re-enter Engine, so it precedes kEngine)
  kSharingRegistry = 25,  // Engine::share_mu_ (multi-query sharing registry;
                          // held across SubmitContinuous/RemoveContinuous
                          // bookkeeping, which takes kEngine and scheduler
                          // locks underneath)
  kEngine = 30,         // Engine::mu_ (registry of baskets/queries/receptors)
  kCatalog = 40,        // Catalog::mu_
  kReceptorPause = 50,  // Receptor::pause_mu_
  kFactory = 60,        // Factory::mu_ (Fire holds it across input-basket
                        // reads and the hand-off of its emission to the
                        // emitters' queues: kDeliveryList, kEmitterQueue)
  kSharedNode = 65,     // SharedWindowNode::mu_ (a tail Fire holds kFactory,
                        // calls into its shared node, which reads baskets)
  kScheduler = 70,      // Scheduler::mu_ (registry, arcs, ready queue;
                        // taken from the pulses of stream-basket appends,
                        // heartbeats and seals, outside the basket lock)
  kBasket = 100,        // Basket::mu_ (listeners run outside it)
  kWal = 105,           // storage::WalWriter::mu_ (per-basket log file;
                        // appends run under kBasket via the WAL hook)
  kTable = 110,         // Table::mu_
  kDeliveryList = 120,  // Factory::emitters_mu_ (held to copy or edit the
                        // list, and by Fire to queue its emission on every
                        // emitter; taken under kSharingRegistry/kFactory)
  kEmitterQueue = 125,  // Emitter::queue_mu_ (its pending-emission FIFO:
                        // pushed under kDeliveryList, popped under
                        // kEmitterDrain; a leaf, no call runs under it)
  kCollector = 130,     // ResultCollector::mu_ (sink leaf)
  kLogging = 140,       // logging.cc serialization (engine leaf: any engine
                        // code may log while holding any lock below 140)
  kMetrics = 150,       // monitor::MetricsRegistry::mu_ (name -> metric map;
                        // Get* may be called under any engine lock)
  kMetricsHistogram = 160,  // monitor::HistogramMetric::mu_ (one histogram;
                            // Record runs on hot paths under engine locks)
  kTraceRegistry = 170,  // trace.cc buffer registry (thread registration
                         // and DumpJson; taken before per-buffer locks)
  kTraceBuffer = 180,    // trace.cc per-thread ring buffer (uncontended on
                         // the hot path; leaf-ranked so spans may close
                         // while holding any engine lock)
  kLeaf = 1000,         // misc user code: may be taken after any engine lock
};

inline const char* LockRankName(LockRank r) {
  switch (r) {
    case LockRank::kMonitor:
      return "monitor";
    case LockRank::kEmitterDrain:
      return "emitter-drain";
    case LockRank::kSharingRegistry:
      return "sharing-registry";
    case LockRank::kDurability:
      return "durability";
    case LockRank::kEngine:
      return "engine";
    case LockRank::kCatalog:
      return "catalog";
    case LockRank::kReceptorPause:
      return "receptor-pause";
    case LockRank::kFactory:
      return "factory";
    case LockRank::kSharedNode:
      return "shared-node";
    case LockRank::kScheduler:
      return "scheduler";
    case LockRank::kBasket:
      return "basket";
    case LockRank::kWal:
      return "wal";
    case LockRank::kTable:
      return "table";
    case LockRank::kDeliveryList:
      return "delivery-list";
    case LockRank::kEmitterQueue:
      return "emitter-queue";
    case LockRank::kCollector:
      return "collector";
    case LockRank::kLogging:
      return "logging";
    case LockRank::kMetrics:
      return "metrics";
    case LockRank::kMetricsHistogram:
      return "metrics-histogram";
    case LockRank::kTraceRegistry:
      return "trace-registry";
    case LockRank::kTraceBuffer:
      return "trace-buffer";
    case LockRank::kLeaf:
      return "leaf";
  }
  return "unknown";
}

namespace sync_internal {

#if DC_LOCK_VALIDATOR

/// Per-thread stack of held locks. Fixed-size so the validator never
/// allocates (it runs inside allocator-unfriendly contexts).
inline constexpr int kMaxHeldLocks = 64;

struct HeldLock {
  int rank = 0;
  const void* cap = nullptr;
  const char* name = nullptr;
};

inline thread_local HeldLock tls_held[kMaxHeldLocks];
inline thread_local int tls_depth = 0;

/// Rank check run BEFORE blocking on the underlying lock, so an
/// inversion aborts deterministically instead of deadlocking first.
inline void ValidateAcquire(LockRank rank, const char* name) {
  if (tls_depth > 0) {
    const HeldLock& top = tls_held[tls_depth - 1];
    if (top.rank >= static_cast<int>(rank)) {
      std::fprintf(
          stderr,
          "lock rank inversion: acquiring '%s' (rank %d) while holding '%s' "
          "(rank %d); locks must be acquired in strictly increasing rank "
          "order (docs/CONCURRENCY.md)\n",
          name, static_cast<int>(rank), top.name, top.rank);
      std::abort();
    }
  }
  if (tls_depth >= kMaxHeldLocks) {
    std::fprintf(stderr, "lock validator: held-lock stack overflow (%d)\n",
                 tls_depth);
    std::abort();
  }
}

inline void RecordAcquire(LockRank rank, const void* cap, const char* name) {
  tls_held[tls_depth] = HeldLock{static_cast<int>(rank), cap, name};
  ++tls_depth;
}

inline void RecordRelease(const void* cap) {
  // Releases are almost always LIFO (RAII guards); scan from the top to
  // tolerate the rare hand-over-hand pattern.
  for (int i = tls_depth - 1; i >= 0; --i) {
    if (tls_held[i].cap != cap) continue;
    for (int j = i; j + 1 < tls_depth; ++j) tls_held[j] = tls_held[j + 1];
    --tls_depth;
    return;
  }
}

/// Test hook: number of locks the calling thread currently holds.
inline int HeldLockDepthForTest() { return tls_depth; }

#define DC_SYNC_VALIDATE_ACQUIRE(rank, name) \
  ::dc::sync_internal::ValidateAcquire((rank), (name))
#define DC_SYNC_RECORD_ACQUIRE(rank, cap, name) \
  ::dc::sync_internal::RecordAcquire((rank), (cap), (name))
#define DC_SYNC_RECORD_RELEASE(cap) ::dc::sync_internal::RecordRelease((cap))

#else  // !DC_LOCK_VALIDATOR

#define DC_SYNC_VALIDATE_ACQUIRE(rank, name) ((void)0)
#define DC_SYNC_RECORD_ACQUIRE(rank, cap, name) ((void)0)
#define DC_SYNC_RECORD_RELEASE(cap) ((void)0)

#endif  // DC_LOCK_VALIDATOR

}  // namespace sync_internal

class CondVar;

/// Capability-annotated std::mutex with a lock rank.
class DC_CAPABILITY("mutex") Mutex {
 public:
  constexpr explicit Mutex(LockRank rank) : rank_(rank) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() DC_ACQUIRE() {
    DC_SYNC_VALIDATE_ACQUIRE(rank_, LockRankName(rank_));
    mu_.lock();
    DC_SYNC_RECORD_ACQUIRE(rank_, this, LockRankName(rank_));
  }

  bool TryLock() DC_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    DC_SYNC_RECORD_ACQUIRE(rank_, this, LockRankName(rank_));
    return true;
  }

  void Unlock() DC_RELEASE() {
    DC_SYNC_RECORD_RELEASE(this);
    mu_.unlock();
  }

  LockRank rank() const { return rank_; }

 private:
  friend class CondVar;
  std::mutex mu_;
  const LockRank rank_;
};

/// RAII exclusive lock over Mutex (std::lock_guard replacement).
class DC_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) DC_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;
  ~MutexLock() DC_RELEASE() { mu_.Unlock(); }

 private:
  Mutex& mu_;
};

/// Condition variable bound to Mutex. No predicate overloads on purpose:
/// callers write `while (!cond) cv.Wait(mu);` so the predicate stays
/// inside the TSA-annotated function (lambdas cannot carry DC_REQUIRES).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu` and blocks until notified (or spuriously
  /// woken); reacquires `mu` before returning.
  void Wait(Mutex& mu) DC_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();
  }

  /// Timed Wait. Returns false if the wait timed out (a non-positive
  /// timeout returns false immediately). Callers re-check their predicate
  /// either way.
  bool WaitFor(Mutex& mu, int64_t timeout_micros) DC_REQUIRES(mu) {
    if (timeout_micros <= 0) return false;
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    const std::cv_status st =
        cv_.wait_for(lock, std::chrono::microseconds(timeout_micros));
    lock.release();
    return st == std::cv_status::no_timeout;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace dc

#endif  // DATACELL_UTIL_SYNC_H_
