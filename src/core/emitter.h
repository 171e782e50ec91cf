// Copyright 2026 The DataCell Authors.
//
// Emitter: the per-client delivery process (paper §3). The factory hands
// each emission, as one immutable ColumnSet plus its trigger stamp, to the
// pending FIFO of every attached emitter at the end of a fire; that FIFO
// plays the paper's output-basket role. Drain() hands the pending
// emissions to a result sink in order, so a sink sees exactly the result
// sets the factory produced — including zero-row result sets (SQL count=0
// windows), which arrive as empty ColumnSets with the correct schema
// rather than silently swallowed.
// An emitter owns no thread: the thread that fired the query's factory (a
// scheduler worker, or the Pump() caller) drains it right after the fire
// (Factory::Deliver), holding no scheduler, factory or basket lock.

#ifndef DATACELL_CORE_EMITTER_H_
#define DATACELL_CORE_EMITTER_H_

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bat/bat.h"
#include "monitor/metrics.h"
#include "util/clock.h"
#include "util/sync.h"

namespace dc {

/// Emitter statistics.
struct EmitterStats {
  uint64_t emissions = 0;        // delivered emissions, empty ones included
  uint64_t empty_emissions = 0;  // delivered zero-row emissions
  uint64_t rows = 0;
  uint64_t pending_rows = 0;     // queued by the factory, not yet delivered
};

/// Delivers one query's emissions to one sink, on whichever thread calls
/// Drain(). Close() ends delivery for good.
class Emitter {
 public:
  /// Emissions are shared between the emitters of a factory and its
  /// tier-F aliases (docs/SHARING.md): a sink may keep the ColumnSet, but
  /// must not modify its columns.
  using Sink = std::function<void(const ColumnSet& emission)>;

  /// `latency` (optional): per-query ingest→delivery histogram; every
  /// delivered emission records `now - trigger stamp` into it
  /// (docs/OBSERVABILITY.md). The handle is shared so it outlives
  /// registry removal during query teardown.
  Emitter(std::string name, Sink sink,
          std::shared_ptr<monitor::HistogramMetric> latency = nullptr);

  const std::string& name() const { return name_; }

  /// Queues one emission for the next Drain(); `trigger_us` is the
  /// SteadyMicros() stamp of the input that made it due (< 0: unknown, no
  /// latency sample). A closed emitter drops it.
  void Enqueue(std::shared_ptr<const ColumnSet> emission, Micros trigger_us);

  /// Delivers every queued emission in order; returns how many.
  int Drain();

  /// Final flush, then no sink call ever again. Waits out an in-flight
  /// Drain on another thread (both take drain_mu_).
  void Close();

  EmitterStats Stats() const;

 private:
  struct Pending {
    std::shared_ptr<const ColumnSet> emission;
    Micros trigger_us;
  };

  int DrainLocked() DC_REQUIRES(drain_mu_);

  const std::string name_;
  Sink sink_;
  const std::shared_ptr<monitor::HistogramMetric> latency_;

  // Serializes Drain callers, so emissions reach the sink in queue order
  // even when two threads deliver one factory at once. Sinks run under it
  // and may re-enter the engine, so kEmitterDrain ranks above only
  // kMonitor.
  Mutex drain_mu_{LockRank::kEmitterDrain};
  // The pending FIFO. A leaf: held only to push, swap out or count.
  mutable Mutex queue_mu_{LockRank::kEmitterQueue};
  std::deque<Pending> queue_ DC_GUARDED_BY(queue_mu_);
  uint64_t queued_rows_ DC_GUARDED_BY(queue_mu_) = 0;
  bool closed_ DC_GUARDED_BY(queue_mu_) = false;
  std::atomic<uint64_t> emissions_{0};
  std::atomic<uint64_t> empty_emissions_{0};
  std::atomic<uint64_t> rows_{0};
};

/// Convenience sink buffering emissions for polling (tests, benches).
class ResultCollector {
 public:
  Emitter::Sink AsSink();

  /// Removes and returns all buffered emissions.
  std::vector<ColumnSet> TakeAll();

  size_t EmissionCount() const;
  uint64_t RowCount() const;

 private:
  mutable Mutex mu_{LockRank::kCollector};
  std::deque<ColumnSet> emissions_ DC_GUARDED_BY(mu_);
  uint64_t rows_ DC_GUARDED_BY(mu_) = 0;
};

}  // namespace dc

#endif  // DATACELL_CORE_EMITTER_H_
