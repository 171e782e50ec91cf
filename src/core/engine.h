// Copyright 2026 The DataCell Authors.
//
// Engine: the public facade of MonetDB/DataCell (Fig. 1). Owns the catalog,
// the stream baskets, the scheduler, the receptors and the emitters, and
// drives the SQL stack:
//
//   Engine dc;
//   dc.Execute("CREATE STREAM trades (ts timestamp, sym string, px double)");
//   dc.Execute("CREATE TABLE limits (sym string, cap double)");
//   auto q = dc.SubmitContinuous(
//       "SELECT sym, avg(px) FROM trades [RANGE 60 SECONDS SLIDE 10 SECONDS] "
//       "GROUP BY sym", {.mode = ExecMode::kIncremental});
//   dc.PushRow("trades", {...});
//   ... results arrive via the query's emitter sink (or TakeResults()).
//
// One-time queries (`Query`) run through the identical binder/optimizer/
// compiler/executor stack — the paper's "two query paradigms in one
// processing fabric".

#ifndef DATACELL_CORE_ENGINE_H_
#define DATACELL_CORE_ENGINE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/basket.h"
#include "core/emitter.h"
#include "core/factory.h"
#include "core/receptor.h"
#include "core/scheduler.h"
#include "core/sharing.h"
#include "monitor/metrics.h"
#include "plan/explain.h"
#include "storage/catalog.h"
#include "storage/wal.h"
#include "util/result.h"
#include "util/sync.h"

namespace dc {

class Durability;

struct EngineOptions {
  /// Scheduler worker threads. 0 = synchronous mode: no threads anywhere;
  /// the caller drives execution with Pump() (deterministic, for tests).
  int scheduler_workers = 2;

  /// Capacity bound applied to every stream basket (CREATE STREAM):
  /// producers — receptors, PushRow/PushColumns — block when a basket is
  /// full until its queries consume, keeping engine RSS bounded at any
  /// ingest rate. Pushes fail fast with ResourceExhausted instead of
  /// blocking when waiting could never succeed: a full stream no query
  /// reads, or any full stream in synchronous mode (only the pushing
  /// thread could Pump()). The
  /// default is generous (tuples are consumed long before it bites);
  /// {0} restores unbounded pre-backpressure behavior.
  BasketLimits basket_limits{/*max_rows=*/1 << 20};

  /// Multi-query sharing (docs/SHARING.md): queries with matching
  /// compiled identities alias one factory, and compatible windowed
  /// prefixes share one basic-window partial store (SharedWindowNode).
  /// Off only stops reuse: every query gets its own factory, and every
  /// incremental window query its own private node, running the same
  /// code — the differential suites run both and assert identical
  /// emissions.
  bool enable_sharing = true;

  /// Durability (docs/DURABILITY.md): with a non-empty `dir`, every
  /// stream basket appends its batch log to `<dir>/<stream>.wal`, DDL and
  /// continuous-query submissions go to `<dir>/catalog.wal`, and
  /// Checkpoint() writes consistent factory-progress snapshots. A fresh
  /// Engine pointed at a populated `dir` recovers: last snapshot + WAL
  /// tail replayed through the normal append path. Empty `dir` (the
  /// default) keeps the engine fully transient.
  struct DurabilityOptions {
    std::string dir;
    /// When basket-WAL appends become durable. The catalog log is always
    /// synced (DDL/submits are rare); checkpoints force-sync everything.
    storage::FsyncPolicy fsync = storage::FsyncPolicy::kInterval;
    int fsync_interval_batches = 64;
    /// File-system abstraction override (crash-injection tests); null
    /// uses the real filesystem. Recovery always reads the real files.
    storage::WalEnv* env = nullptr;
  };
  DurabilityOptions durability;

  /// Event tracing (docs/OBSERVABILITY.md): record scoped spans (factory
  /// fires, basket appends/stalls, emitter drains) into
  /// per-thread ring buffers, dumped via trace::DumpJson() as Chrome
  /// trace_event JSON. Process-wide and refcounted across engines; off
  /// (the default) costs one relaxed atomic load per span site — the
  /// trace_overhead_guard CTest keeps the enabled cost within ~3%.
  bool enable_tracing = false;
};

/// One registered continuous query (introspection snapshot).
struct ContinuousQueryInfo {
  int id = 0;
  std::string name;
  std::string sql;
  ExecMode mode = ExecMode::kFullReeval;
  FactoryStats factory;
  EmitterStats emitter;  // pending_rows: emissions queued, not delivered
  std::vector<std::string> input_streams;
  std::vector<std::string> input_tables;
  /// Queries currently sharing this query's factory (itself included);
  /// 1 when it runs alone. `sharing` is a human-readable note for the
  /// monitor pane: "factory x3", "node pkts#1 x8", or "".
  int shared_with = 1;
  std::string sharing;
  /// Label of the SharedWindowNode serving this query's partials
  /// ("<stream>#<ordinal>"), or "" for queries that are not node tails.
  std::string shared_node;
  /// Ingest→delivery latency snapshot (p50/p95/p99 via Percentile);
  /// empty until the first delivered emission (docs/OBSERVABILITY.md).
  Histogram latency;
};

/// The DataCell engine.
class Engine {
 public:
  explicit Engine(EngineOptions options = {});
  ~Engine();

  Catalog& catalog() { return catalog_; }

  // --- DDL / DML / one-time queries ----------------------------------------

  /// Executes CREATE TABLE / CREATE STREAM / INSERT (or a ';' script of
  /// them).
  Status Execute(std::string_view sql);

  /// Runs a one-time SELECT over tables and/or current basket contents
  /// (streams read as-of-now without consuming; window clauses are not
  /// allowed in one-time queries).
  Result<ColumnSet> Query(std::string_view sql);

  /// EXPLAIN: the compiled plan in the given mode, with optimizer report.
  Result<std::string> ExplainSql(std::string_view sql, plan::PlanMode mode);

  // --- Continuous queries -----------------------------------------------------

  struct ContinuousOptions {
    ExecMode mode = ExecMode::kIncremental;
    std::string name;      // defaults to "q<id>"
    Emitter::Sink sink;    // null: results buffered for TakeResults()
  };

  /// Registers a continuous query; returns its id.
  Result<int> SubmitContinuous(std::string_view sql,
                               ContinuousOptions options);
  /// Default options: incremental mode, buffered results.
  Result<int> SubmitContinuous(std::string_view sql);

  /// Flushes the query's emitter; once this returns its sink is never
  /// called again. A sink must not remove its own query (self-deadlock).
  Status RemoveContinuous(int query_id);
  /// Note: with sharing enabled, queries aliasing one factory (identical
  /// compiled identity) pause and resume together.
  Status PauseQuery(int query_id);
  Status ResumeQuery(int query_id);

  /// Buffered emissions of a query submitted without a sink.
  Result<std::vector<ColumnSet>> TakeResults(int query_id);

  // --- Stream input -----------------------------------------------------------

  Status PushRow(std::string_view stream, const std::vector<Value>& row);
  Status PushColumns(std::string_view stream,
                     const std::vector<BatPtr>& cols);
  Status Heartbeat(std::string_view stream, Micros event_ts);
  /// Declares end-of-stream (flushes pending windows).
  Status SealStream(std::string_view stream);

  /// Attaches a rate-controlled receptor thread feeding `stream`.
  Result<int> AttachReceptor(std::string_view stream, Receptor::RowGen gen,
                             Receptor::Options options = {});
  Status PauseReceptor(int receptor_id);
  Status ResumeReceptor(int receptor_id);
  /// Blocks until the receptor's source is exhausted.
  Status WaitReceptor(int receptor_id);

  // --- Durability (docs/DURABILITY.md) ----------------------------------------

  /// Writes a consistent snapshot of factory progress and truncates each
  /// basket WAL to the *previous* checkpoint's horizon (so the rotated
  /// snapshot.prev.dc always pairs with a sufficient WAL tail). Serialized
  /// by the durability manager; safe to call concurrently with ingest and
  /// fires. InvalidArgument when durability is off.
  Status Checkpoint();

  /// What the constructor's recovery pass concluded. OK after a cold
  /// start or a successful replay; an error (and the engine left
  /// transient, with logging disabled) when the on-disk state was
  /// unusable — e.g. every snapshot corrupt after a checkpoint truncated
  /// the WALs. The constructor cannot return a Status; check this after
  /// constructing an engine with durability enabled.
  Status recovery_status() const { return recovery_status_; }

  // --- Driving / introspection -------------------------------------------------

  /// Synchronous mode: fires ready factories until quiescent, delivering
  /// each fire's emissions to the sinks on the calling thread. Returns
  /// number of factory firings.
  int Pump();

  /// Threaded mode: blocks until no factory is ready/firing and all
  /// emitters drained (bounded by `timeout_ms`). Returns false on timeout.
  bool WaitIdle(int timeout_ms = 10000);

  /// Introspection for the monitor (S8).
  std::vector<ContinuousQueryInfo> Queries() const;
  Result<BasketStats> StreamStats(std::string_view stream) const;
  SchedulerStats SchedStats() const { return scheduler_.Stats(); }
  /// Multi-query sharing snapshot: live shared nodes, per-node subscriber
  /// counts, and cumulative sharing hits (docs/SHARING.md).
  SharingStats GetSharingStats() const;
  Basket* GetBasket(std::string_view stream);
  FactoryPtr GetFactory(int query_id) const;
  std::vector<std::string> StreamNames() const {
    return catalog_.StreamNames();
  }
  /// This engine's metrics registry (docs/OBSERVABILITY.md): per-query
  /// `query.<name>.latency_us` histograms are registered at submit; the
  /// AnalysisPane publishes its sampled series here as gauges. Expose via
  /// metrics().ToJson() / metrics().ToPrometheus().
  monitor::MetricsRegistry& metrics() const { return metrics_; }

 private:
  // Recovery replays through the private live paths below, and a
  // checkpoint captures the registries under their own locks.
  friend class Durability;

  struct QueryEntry {
    int id;
    std::string sql;
    std::string name;
    ExecMode mode;
    FactoryPtr factory;
    // Shared with the factory's delivery list, and so TakeResults can
    // drain it OUTSIDE mu_ (sinks may re-enter the engine) without a
    // concurrent RemoveContinuous leaving it a dangling pointer.
    std::shared_ptr<Emitter> emitter;
    std::shared_ptr<ResultCollector> collector;  // when no sink given
    /// Sharing registry key of the factory this query subscribes to (the
    /// identity key, made unique per query with sharing disabled).
    /// Teardown is refcounted through full_entries_[full_key].
    std::string full_key;
    /// Full compiled identity (unlike full_key, never made unique).
    /// EXPLAIN matches standing queries on it to report live latency for
    /// an equivalent plan.
    std::string identity_key;
    /// Per-query ingest→delivery histogram (registry name
    /// "query.<name>.latency_us"); the emitter records into it on every
    /// delivery. Kept here so Queries()/EXPLAIN can snapshot it and so
    /// teardown can Remove() it from the registry.
    std::shared_ptr<monitor::HistogramMetric> latency;
    /// Catalog-log submit token (kSubmit/kRemove pairing and the key of
    /// this query's progress in snapshots). 0 = durability off.
    uint64_t dur_token = 0;
  };

  /// One refcounted shared factory (tier F, docs/SHARING.md): every
  /// submitted query publishes its factory here keyed by full compiled
  /// identity; later identical queries alias it (refs++) and attach their
  /// own emitters to it. The factory leaves the
  /// scheduler — and its node subscription, when it is a tail — only
  /// when refs hits zero.
  struct SharedFullEntry {
    int factory_id = 0;  // scheduler id (the first subscriber's query id)
    int refs = 0;
    FactoryPtr factory;
    SharedWindowNodePtr node;  // set when the factory is a shared tail
    int node_sub = -1;         // engine-owned node subscription
  };

  Status ExecuteOne(const sql::Statement& stmt);
  Result<ColumnSet> RunSelect(const sql::SelectStmt& stmt);
  /// SubmitContinuous body. `token` is the query's catalog-log submit
  /// token when recovery replays a kSubmit record; live submits pass 0
  /// and, on a durable engine, are logged and get a fresh one.
  Result<int> SubmitInternal(std::string_view sql, ContinuousOptions options,
                             uint64_t token);
  /// SubmitInternal's founding step: builds the query's factory — a
  /// merge tail over a joined or founded SharedWindowNode when tier P
  /// applies — and publishes it in full_entries_ with refs = 1 (setting
  /// entry->full_key). The factory does not reach the scheduler here.
  Result<SharedFullEntry*> FoundFactory(
      QueryEntry* entry, const std::shared_ptr<exec::QueryExecutor>& executor,
      ExecMode mode, const std::string& prefix_key,
      const std::string& full_key) DC_REQUIRES(share_mu_);
  /// Drops zero-subscriber shared nodes from the registry (their basket
  /// readers unregister with them).
  void PruneIdleNodesLocked() DC_REQUIRES(share_mu_);
  /// Space-wait budget for PushRow/PushColumns: block in threaded mode,
  /// fail fast in synchronous mode (blocking would self-deadlock — only
  /// the pushing thread could ever Pump()).
  Micros PushTimeout() const;

  const EngineOptions options_;
  Catalog catalog_;
  /// Internally synchronized (kMetrics/kMetricsHistogram, both leaf-side
  /// ranks), hence usable under any engine lock; mutable so const
  /// introspection can resolve handles.
  mutable monitor::MetricsRegistry metrics_;

  /// Null unless durability is on and live (docs/DURABILITY.md): set
  /// once recovery has replayed and the catalog log is open, so nothing
  /// replay does is logged again. Declared before baskets_ so the basket
  /// log writers outlive the baskets whose hooks point at them.
  std::unique_ptr<Durability> durability_;
  Status recovery_status_;

  mutable Mutex mu_{LockRank::kEngine};
  std::map<std::string, std::shared_ptr<Basket>> baskets_ DC_GUARDED_BY(mu_);
  std::map<int, QueryEntry> queries_ DC_GUARDED_BY(mu_);
  std::map<int, std::unique_ptr<Receptor>> receptors_ DC_GUARDED_BY(mu_);
  int next_query_id_ DC_GUARDED_BY(mu_) = 1;
  int next_receptor_id_ DC_GUARDED_BY(mu_) = 1;

  // Multi-query sharing registry (docs/SHARING.md). share_mu_ ranks
  // BELOW mu_ (kSharingRegistry < kEngine) because Submit/Remove hold it
  // across their whole bookkeeping — engine map updates (mu_), scheduler
  // registration, node subscription — while factory fires never touch
  // it. Declared after baskets_ so node destructors can still unregister
  // their basket readers during engine teardown.
  mutable Mutex share_mu_{LockRank::kSharingRegistry};
  std::map<std::string, SharedFullEntry> full_entries_
      DC_GUARDED_BY(share_mu_);
  /// Live tier-P nodes per prefix key; one prefix can hold several nodes
  /// with incompatible grids (non-subsumable slides).
  std::map<std::string, std::vector<SharedWindowNodePtr>> prefix_nodes_
      DC_GUARDED_BY(share_mu_);
  uint64_t full_hits_ DC_GUARDED_BY(share_mu_) = 0;
  uint64_t prefix_hits_ DC_GUARDED_BY(share_mu_) = 0;
  int next_node_ord_ DC_GUARDED_BY(share_mu_) = 1;

  // Declared last so it is destroyed first: scheduler entries hold factory
  // references whose destructors unregister basket readers — the baskets
  // (and query entries) must still be alive at that point.
  Scheduler scheduler_;
};

}  // namespace dc

#endif  // DATACELL_CORE_ENGINE_H_
