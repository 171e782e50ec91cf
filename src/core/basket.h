// Copyright 2026 The DataCell Authors.
//
// Basket: the lightweight columnar table that buffers stream tuples between
// receptors and factories (paper §3, "Baskets/Columns"). The key DataCell
// idea: stream data lands in ordinary columns, so continuous queries
// evaluate over baskets exactly like one-time queries over tables.
//
// Responsibilities:
//  * columnar append (receptor side), with monotone per-tuple sequence
//    numbers surviving physical shrinks,
//  * capacity discipline: an optional row bound (BasketLimits) turns
//    Append into a blocking-with-timeout call, so producers experience
//    backpressure instead of growing the basket without bound,
//  * multi-reader consumption cursors: a tuple is dropped only after every
//    registered reader (factory or shared window node) has consumed it,
//  * event-time watermark (max event ts seen; heartbeats advance it
//    without data) used by RANGE-window firing,
//  * a batch log of ingest stamps, from which factories resolve the
//    arrival time that made an emission due (latency),
//  * occupancy/throughput/stall statistics for the monitor pane.
//
// Baskets serve input streams only: a factory hands its emissions
// straight to its emitters (core/emitter.h).
//
// Capacity semantics: a batch is admitted whenever the basket is below its
// bound, so occupancy may overshoot by at most one in-flight batch (this
// guarantees progress for batches larger than the bound). When full, Append
// waits on an internal condition variable that is pulsed whenever a reader
// frees space (AdvanceReader/UnregisterReader -> shrink); with a timeout it
// returns Status::ResourceExhausted so callers like the receptor can park
// in interruptible slices. Heartbeat/Seal are never blocked by capacity —
// watermarks keep advancing under backpressure. Zero-row appends carry no
// rows, so they bypass the capacity gate too: they are only counted
// (BasketStats::empty_batches) and logged.
//
// Event timestamps are required to be non-decreasing per stream; receptors
// clamp out-of-order input (documented simplification).

#ifndef DATACELL_CORE_BASKET_H_
#define DATACELL_CORE_BASKET_H_

#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bat/bat.h"
#include "storage/schema.h"
#include "util/clock.h"
#include "util/result.h"
#include "util/sync.h"

namespace dc {

/// Capacity bound of one basket. Zero means unbounded (the
/// pre-backpressure behavior).
struct BasketLimits {
  uint64_t max_rows = 0;  // resident-row bound
};

/// Statistics snapshot of one basket (monitor pane / Fig. 4).
struct BasketStats {
  uint64_t appended_total = 0;
  uint64_t dropped_total = 0;
  uint64_t resident_rows = 0;
  uint64_t append_batches = 0;
  uint64_t empty_batches = 0;  // zero-row appends (counted, not retained)
  size_t memory_bytes = 0;
  Micros event_watermark = 0;
  // Capacity / backpressure figures:
  uint64_t capacity_rows = 0;       // 0 = unbounded
  uint64_t resident_hwm_rows = 0;   // occupancy high watermark
  size_t memory_hwm_bytes = 0;
  // Append attempts that had to wait for space / wait slices that expired
  // with ResourceExhausted. A parked producer retrying in timeout slices
  // (the receptor) counts once per slice — see ReceptorStats::parks for
  // per-batch park episodes.
  uint64_t append_stalls = 0;
  uint64_t append_timeouts = 0;
  Micros stall_micros = 0;          // total time producers spent waiting
  /// Registered readers (factories, shared nodes). With sharing
  /// enabled a stream has one reader per shared node / private factory,
  /// not one per query — the multi-query benches assert this stays O(1).
  uint64_t readers = 0;
};

/// A contiguous, copied-out view of basket rows (factories never hold
/// references into the live basket; windows are materialized slices).
struct BasketView {
  uint64_t first_seq = 0;
  uint64_t rows = 0;
  std::vector<BatPtr> cols;
};

/// One entry of the basket's batch log. Ordinals are assigned densely in
/// append order and never reused; begin_seq == end_seq for a zero-row batch
/// (which the WAL logs but the batch log does not retain).
struct BasketBatch {
  uint64_t ordinal = 0;
  uint64_t begin_seq = 0;
  uint64_t end_seq = 0;
  /// Ingest stamp (SteadyMicros) of the append that created this batch:
  /// the arrival time a factory passes on as an emission's trigger stamp
  /// (docs/OBSERVABILITY.md). < 0 when unknown.
  Micros ingest_us = -1;
};

/// Thread-safe columnar stream buffer.
class Basket {
 public:
  /// Blocking sentinel for Append's timeout parameter.
  static constexpr Micros kBlockForever = -1;

  /// `ts_col` designates the event-time column, or SIZE_MAX.
  Basket(std::string name, Schema schema, size_t ts_col = SIZE_MAX,
         BasketLimits limits = {});

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  size_t ts_col() const { return ts_col_; }
  bool HasEventTime() const { return ts_col_ != SIZE_MAX; }

  // --- Producer side ---------------------------------------------------------

  /// Appends a batch of typed columns (one append = one batch-log entry;
  /// a zero-row batch is only counted and logged). Event timestamps are
  /// clamped to be non-decreasing. If the basket is at capacity, waits up to
  /// `timeout_micros` for readers to free space (kBlockForever = wait
  /// indefinitely, 0 = fail immediately) and returns
  /// Status::ResourceExhausted when the wait expires.
  ///
  /// `ingest_us` is the batch's ingest stamp: < 0 (the default) stamps
  /// the batch with SteadyMicros() at entry — *before* any capacity
  /// wait, so backpressure stalls count toward downstream latency; a
  /// caller relaying tuples it ingested earlier (receptor retry slices)
  /// passes the original source stamp through instead.
  Status Append(const std::vector<BatPtr>& cols,
                Micros timeout_micros = kBlockForever, Micros ingest_us = -1);

  /// Appends one row of values (type-coerced to the schema). Capacity
  /// semantics as Append.
  Status AppendRow(const std::vector<Value>& row,
                   Micros timeout_micros = kBlockForever);

  /// Advances the event watermark without data (stream keep-alive). Never
  /// blocked by capacity.
  void Heartbeat(Micros event_ts);

  /// Marks the stream as ended: no further appends will come. Factories
  /// use this to flush windows that can never be completed by watermark
  /// alone and then go dormant.
  void Seal();
  bool sealed() const;

  // --- Durability (docs/DURABILITY.md) --------------------------------------

  /// WAL hooks, invoked *inside* the basket lock so records land in the
  /// log in exactly the order batches/watermarks were admitted (the
  /// pulse-listener mechanism runs outside the lock and could reorder
  /// concurrent appends). A hook may only take locks ranked above
  /// kBasket — the engine's hooks take the WAL writer's kWal mutex.
  /// `on_batch` receives the batch-log entry plus the stored (post-clamp)
  /// column values, so replaying the log reproduces the basket exactly.
  /// `on_unlock` runs after an append, heartbeat or seal has released the
  /// lock, before listeners are pulsed and the call returns: the fsync a
  /// record hook left due happens there, so readers never wait it out.
  struct DurabilityHooks {
    std::function<void(const BasketBatch& batch,
                       const std::vector<BatPtr>& cols)>
        on_batch;
    std::function<void(Micros event_ts)> on_heartbeat;
    std::function<void()> on_seal;
    std::function<void()> on_unlock;
  };
  void SetDurabilityHooks(DurabilityHooks hooks);

  /// Recovery: positions an empty basket at the point its WAL starts —
  /// sequence numbers resume at `start_seq`, batch ordinals at
  /// `next_ordinal`, with the watermark/seal state accumulated by
  /// everything the log truncated away. Must run before any rows are
  /// appended (and, in practice, before readers register).
  Status RestoreLogPosition(uint64_t start_seq, uint64_t next_ordinal,
                            Micros watermark, bool sealed);

  /// Registers a callback pulsed after every append/heartbeat/seal — the
  /// scheduler subscribes one pulse listener per basket and fans the pulse
  /// out to exactly the factories with an attached arc (targeted
  /// enablement, not a broadcast). Returns a listener id for
  /// RemoveListener. Listeners are invoked outside the basket lock.
  /// RemoveListener blocks until every in-flight notify pass has finished,
  /// so once it returns the listener can never run again and its captures
  /// may be destroyed — required by scheduler teardown, whose pulse
  /// listener captures the scheduler while producers keep appending.
  /// Consequently a listener must never call RemoveListener on its own
  /// basket.
  int AddListener(std::function<void()> fn);
  void RemoveListener(int listener_id);

  // --- Consumer side ---------------------------------------------------------

  /// Registers a reader; its cursor starts at the current high sequence
  /// (readers only see tuples that arrive after registration) unless
  /// `from_start` is true.
  int RegisterReader(bool from_start = false);
  void UnregisterReader(int reader_id);

  /// Current consumed-up-to cursor of a reader (its registration origin
  /// until the first AdvanceReader).
  uint64_t ReaderCursor(int reader_id) const;

  /// Copies rows [from_seq, min(high, from_seq + max_rows)). Rows below the
  /// drop horizon are gone; from_seq is clamped up (callers track their own
  /// cursors and only ask for rows they have not released).
  BasketView Read(uint64_t from_seq,
                  uint64_t max_rows = UINT64_MAX) const;

  /// Sequence range [lo_seq, hi_seq) of resident rows with event ts in
  /// [ts_lo, ts_hi). Requires an event-time column (binary search; event
  /// timestamps are non-decreasing).
  Result<std::pair<uint64_t, uint64_t>> SeqRangeForTs(Micros ts_lo,
                                                      Micros ts_hi) const;

  /// Reads the rows covering [lo, hi) in window coordinates
  /// (src/core/window.h) for a window anchored at `origin_seq`: ROWS
  /// offsets are relative to the origin, RANGE bounds are event times.
  /// Either way nothing below the origin is read.
  Result<BasketView> ReadWindowExtent(uint64_t origin_seq, bool rows_mode,
                                      int64_t lo, int64_t hi) const;

  /// Marks rows below `upto_seq` as consumed by `reader_id`; physically
  /// drops any prefix consumed by all readers and wakes producers waiting
  /// for space. `upto_seq` may lie beyond HighSeq(): a hopping ROWS
  /// window (slide > size) releases up to its next window's start, and
  /// recovery moves restored readers to their next read before the WAL
  /// replays. The drop horizon still never passes HighSeq(); rows that
  /// every reader is already past drop when they are appended into an
  /// empty basket, since no later advance would release them.
  void AdvanceReader(int reader_id, uint64_t upto_seq);

  /// Total appended so far; row sequence numbers are [0, HighSeq).
  uint64_t HighSeq() const;

  /// First resident (not yet dropped) sequence number.
  uint64_t DropHorizon() const;

  /// Event-time watermark (max event ts observed, or heartbeat).
  Micros EventWatermark() const;

  // --- Latency stamps (docs/OBSERVABILITY.md) -------------------------------

  /// Ingest stamp of the batch that brought the row count to `end_seq`
  /// (i.e. the batch containing row end_seq-1) — the arrival time a
  /// ROWS-window emission covering [.., end_seq) became due. Falls back
  /// to the oldest surviving batch's stamp when the exact entry was
  /// already trimmed; -1 when nothing is known.
  Micros IngestStampForSeq(uint64_t end_seq) const;

  /// Ingest stamp of the append/heartbeat that first advanced the event
  /// watermark to >= `ts` — the arrival time a RANGE-window emission with
  /// boundary `ts` became due. Seal() records a stamp at ts=+inf, so
  /// sealed-flush emissions resolve to the seal time. Falls back to the
  /// oldest surviving stamp when trimmed; -1 when the watermark has not
  /// reached `ts`.
  Micros IngestStampForWatermark(Micros ts) const;

  BasketStats Stats() const;

 private:
  Status AppendLocked(const std::vector<BatPtr>& cols, Micros ingest_us)
      DC_REQUIRES(mu_);
  Status ValidateBatch(const std::vector<BatPtr>& cols, uint64_t* n) const
      DC_REQUIRES(mu_);
  /// Blocks until the basket can admit `n` more rows; see Append.
  Status WaitForSpaceLocked(uint64_t n, Micros timeout_micros)
      DC_REQUIRES(mu_);
  bool AtCapacityLocked() const DC_REQUIRES(mu_);
  void PushWatermarkStampLocked(Micros watermark, Micros at_us)
      DC_REQUIRES(mu_);
  size_t MemoryBytesLocked() const DC_REQUIRES(mu_);
  void ShrinkLocked() DC_REQUIRES(mu_);
  void NotifyAll() DC_EXCLUDES(mu_);

  const std::string name_;
  const Schema schema_;
  const size_t ts_col_;
  const BasketLimits limits_;

  mutable Mutex mu_{LockRank::kBasket};
  CondVar space_cv_;  // pulsed when readers free space
  // Resident rows, seq [base_, high_). The column pointers are fixed at
  // construction but the Bats they point at mutate under mu_.
  std::vector<BatPtr> cols_ DC_GUARDED_BY(mu_);
  uint64_t base_ DC_GUARDED_BY(mu_) = 0;  // dropped prefix length
  uint64_t high_ DC_GUARDED_BY(mu_) = 0;  // total appended
  Micros watermark_ DC_GUARDED_BY(mu_) = INT64_MIN;
  // Reader id -> consumed-up-to row sequence.
  std::map<int, uint64_t> readers_ DC_GUARDED_BY(mu_);
  int next_reader_ DC_GUARDED_BY(mu_) = 0;
  // Batch log of the data batches, trimmed in ShrinkLocked.
  std::deque<BasketBatch> batches_ DC_GUARDED_BY(mu_);
  // Watermark-advance stamps: (watermark value, ingest stamp of the
  // append/heartbeat that reached it), ascending in both fields; bounded
  // (oldest trimmed). Seal() records a terminal {INT64_MAX, seal time}.
  struct WatermarkStamp {
    Micros watermark;
    Micros at_us;
  };
  std::deque<WatermarkStamp> wm_stamps_ DC_GUARDED_BY(mu_);
  uint64_t append_batches_ DC_GUARDED_BY(mu_) = 0;  // == next batch ordinal
  uint64_t empty_batches_ DC_GUARDED_BY(mu_) = 0;
  bool sealed_ DC_GUARDED_BY(mu_) = false;
  DurabilityHooks hooks_ DC_GUARDED_BY(mu_);

  // Backpressure statistics.
  uint64_t resident_hwm_rows_ DC_GUARDED_BY(mu_) = 0;
  size_t memory_hwm_bytes_ DC_GUARDED_BY(mu_) = 0;
  uint64_t append_stalls_ DC_GUARDED_BY(mu_) = 0;
  uint64_t append_timeouts_ DC_GUARDED_BY(mu_) = 0;
  Micros stall_micros_ DC_GUARDED_BY(mu_) = 0;

  // Keyed for removal; invoked outside mu_ (NotifyAll copies first).
  std::map<int, std::function<void()>> listeners_ DC_GUARDED_BY(mu_);
  int next_listener_ DC_GUARDED_BY(mu_) = 0;
  // In-flight NotifyAll passes; RemoveListener drains them before
  // returning so removed listeners are never invoked afterwards.
  int notify_active_ DC_GUARDED_BY(mu_) = 0;
  CondVar notify_cv_;  // pulsed when notify_active_ drops to zero
};

}  // namespace dc

#endif  // DATACELL_CORE_BASKET_H_
