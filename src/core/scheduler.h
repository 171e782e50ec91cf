// Copyright 2026 The DataCell Authors.
//
// Scheduler: the Petri-net execution model (paper §3, "Scheduler").
// Baskets are places, factories are transitions; a transition is enabled
// when its firing probe (Factory::CheckReady) holds — i.e. there are
// tuples relevant to the waiting query.
//
// The net's arcs are explicit: AttachArc(basket, factory) subscribes a
// factory to a basket's data-arrival pulses, and each pulse enqueues
// exactly the subscribed factories — never the whole factory list — onto
// one FIFO ready queue. Worker threads pop its front. One mutex guards
// the registry, the arcs, the queue, every entry's claim state and the
// worker lifecycle; it is held only for bookkeeping, never across a
// fire.
//
// Two driving modes:
//  * threaded: Start() launches N workers that fire enabled transitions
//    concurrently (a factory never fires concurrently with itself — the
//    per-entry state machine hands each factory to exactly one worker);
//  * manual:   DrainReady() synchronously fires until quiescence, in
//    factory-id order — deterministic driving for tests and
//    single-threaded experiments. Both modes share the claim/complete
//    state machine, so they can safely run concurrently with
//    AddFactory/RemoveFactory.
// In both modes the firing thread then delivers the fire's emissions to
// the sinks itself, once the entry is idle again (FireAndDeliver).
//
// A pulse enqueues a subscribed factory without probing it (probing takes
// the factory lock, which must not nest inside the scheduler lock — see
// below); the popping worker runs the probe and drops not-ready entries.
// Such drops are counted as `spurious_pops` — cheap, and the price of
// keeping producers out of factory locks.
//
// Lock ordering (deadlock-freedom invariant): the scheduler's mutex has
// rank kScheduler in the engine lock hierarchy (docs/CONCURRENCY.md,
// enforced at runtime by the debug lock validator): above the factory
// and shared-node locks, below basket locks. Factory::CheckReady()/Fire()
// are only ever called with the scheduler lock NOT held: a fire takes
// the factory lock and reads baskets, and delivery runs sinks that may
// re-enter the engine.
//
// Lifetime: baskets passed to AttachArc must outlive the scheduler (the
// destructor unregisters its pulse listeners from them). Engine satisfies
// this by declaring the scheduler after the basket map.

#ifndef DATACELL_CORE_SCHEDULER_H_
#define DATACELL_CORE_SCHEDULER_H_

#include <atomic>
#include <deque>
#include <map>
#include <thread>
#include <vector>

#include "core/factory.h"
#include "util/sync.h"

namespace dc {

/// Scheduler statistics (monitor pane; snapshot via Stats()).
struct SchedulerStats {
  /// Factory firings actually performed (threaded workers + DrainReady).
  uint64_t fires = 0;
  /// Distinct data-arrival pulses: one per basket append / heartbeat /
  /// seal on a basket with attached arcs. NOT per-worker wakeups and NOT
  /// per-factory enablements — a pulse that enables five factories still
  /// counts once.
  uint64_t notifications = 0;
  /// Of the fires, how many returned a non-OK Status.
  uint64_t fire_errors = 0;
  /// Ready-queue pushes: targeted enablements. One factory is queued at
  /// most once, so enqueues <= pulses it received.
  uint64_t enqueues = 0;
  /// Always 0: there is one ready queue, so there is nothing to steal.
  /// Kept so readers of the former work-stealing counter still compile.
  uint64_t steals = 0;
  /// Pops whose firing probe said not-ready: the pulse that enqueued the
  /// factory did not actually enable it (e.g. a window not yet complete).
  uint64_t spurious_pops = 0;
  /// Ready-queue length at snapshot time.
  uint64_t queue_depth = 0;
  /// Largest ready-queue length observed since construction.
  uint64_t max_queue_depth = 0;
  /// Registered factories and live (basket, factory) arcs — the lifecycle
  /// tests assert both return to zero after query churn.
  uint64_t factories = 0;
  uint64_t arcs = 0;
};

/// Petri-net scheduler over the registered factories.
class Scheduler {
 public:
  /// `num_workers` threads fire factories once Start() is called; 0 means
  /// manual mode only (DrainReady).
  explicit Scheduler(int num_workers = 2);
  ~Scheduler();

  /// Registers the factory (keyed by its id, which must be unique) and
  /// gives it an initial targeted kick — a from-start reader may already
  /// be enabled. Attach arcs before AddFactory so no pulse is missed.
  void AddFactory(FactoryPtr factory);
  /// Unlinks the factory and its arcs; blocks until an in-flight Fire()
  /// completes and removes a still-queued entry from the ready queue, so
  /// a busy or queued entry is never destroyed mid-flight. It never waits
  /// for a delivery (that runs once the entry is kIdle), so the caller may
  /// hold locks a sink re-enters. Must not be called from inside a Fire().
  void RemoveFactory(int factory_id);
  std::vector<FactoryPtr> Factories() const;

  /// Subscribes factory `factory_id` to `basket`'s data-arrival pulses
  /// (the Petri-net arc place -> transition). Registers one pulse
  /// listener per basket, shared by all its arcs; idempotent per
  /// (basket, factory) pair. The basket must outlive this scheduler.
  /// Arcs are detached by RemoveFactory / the destructor.
  void AttachArc(Basket* basket, int factory_id);

  /// Targeted kick for one factory (resume, registration). Does not
  /// count as a data-arrival pulse.
  void NotifyFactory(int factory_id);

  /// Launches the worker pool (idempotent).
  void Start();
  /// Stops and joins the workers.
  void Stop();

  /// Manual mode: fires enabled factories until none are ready, in
  /// factory-id order. Returns the number of firings performed.
  int DrainReady();

  /// True if some factory is currently enabled or firing. A queued but
  /// not-enabled entry (a spurious pulse) does not count.
  bool AnyBusyOrReady() const;

  SchedulerStats Stats() const;

 private:
  /// Claim state of one registered factory. An entry is in `ready_` iff
  /// state == kQueued (exactly once); a kRunning entry is owned by one
  /// firing thread, which returns it to kIdle.
  enum class EntryState { kIdle, kQueued, kRunning };

  /// Lives by value in `entries_`, so every access to `state` goes
  /// through the DC_GUARDED_BY(mu_) map.
  struct Entry {
    FactoryPtr factory;
    EntryState state = EntryState::kIdle;
  };

  /// Arcs of one basket plus the pulse listener that feeds them.
  struct ArcList {
    std::vector<int> factory_ids;
    int listener_id = -1;
  };

  struct Claimed {
    int id = 0;
    FactoryPtr factory;
  };

  /// Data-arrival pulse from `basket` (wired as its listener).
  void Pulse(Basket* basket);
  /// kIdle -> kQueued; false if absent or not idle.
  bool EnqueueIfIdleLocked(int factory_id) DC_REQUIRES(mu_);
  /// Wakes workers for `newly_queued` entries (called after unlocking).
  void WakeWorkers(int newly_queued);
  /// Claims a specific factory for DrainReady (kIdle or kQueued ->
  /// kRunning, unlinking a queued entry from the ready queue).
  bool TryClaimById(int factory_id);
  /// kRunning -> kIdle, records stats, wakes remove waiters; optionally
  /// re-enqueues the factory if its probe still holds (threaded workers;
  /// DrainReady re-scans instead).
  void CompleteFire(const Claimed& c, bool fired, bool error, bool requeue);
  /// Fires a claimed factory, completes the fire, then delivers on this
  /// thread (Factory::Deliver): the one delivery path of both modes.
  void FireAndDeliver(const Claimed& c, bool requeue);
  void WorkerLoop();

  const int num_workers_;

  /// The one scheduler lock. Never held across CheckReady()/Fire().
  mutable Mutex mu_{LockRank::kScheduler};
  /// Workers wait for `stop_ || !ready_.empty()`.
  CondVar work_cv_;
  /// Signalled when an entry leaves kRunning (RemoveFactory waits for
  /// it) and when a Stop() finishes joining (concurrent Stop()s wait).
  CondVar idle_cv_;
  // Id-ordered map so DrainReady fires deterministically.
  std::map<int, Entry> entries_ DC_GUARDED_BY(mu_);
  std::map<Basket*, ArcList> arcs_ DC_GUARDED_BY(mu_);
  /// Queued factory ids, popped FIFO.
  std::deque<int> ready_ DC_GUARDED_BY(mu_);
  /// fires, fire_errors, enqueues, spurious_pops, max_queue_depth; the
  /// other fields are filled in by Stats().
  SchedulerStats counters_ DC_GUARDED_BY(mu_);
  bool running_ DC_GUARDED_BY(mu_) = false;
  bool stop_ DC_GUARDED_BY(mu_) = false;
  /// True while one Stop() is joining workers; a concurrent Stop() waits
  /// for it instead of double-joining the same threads.
  bool stopping_ DC_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_ DC_GUARDED_BY(mu_);

  std::atomic<uint64_t> notifications_{0};
};

}  // namespace dc

#endif  // DATACELL_CORE_SCHEDULER_H_
