// Copyright 2026 The DataCell Authors.
//
// Multi-query sharing (docs/SHARING.md): the refcounted shared-node
// registry behind factory-graph common-subexpression elimination. Two
// tiers:
//
//   Tier F (full-factory dedup)  Queries whose full compiled identity
//       matches — prefix + finish signatures, signature parameters,
//       window geometry, execution mode — alias ONE factory; each query
//       attaches a private emitter/sink to the shared factory. This
//       covers joins (one RollingJoinIndex for M identical texts).
//
//   Tier P (prefix/partial sharing)  Every incremental query over one
//       windowed stream (plus at most one table) with a divisible window
//       runs as a merge tail over a SharedWindowNode; queries whose
//       fragment prefixes match share one. The node owns the ONLY basket
//       reader and a cache of basic-window partials at a fixed grid
//       granularity; per-query tails (Factory Shape::kSharedTail) merge
//       the grid partials covering their own window extents. Window
//       subsumption: a tail with slide S can ride a node with grid g iff
//       g | S (its window size is then also a multiple of g, since
//       incremental mode requires slide | size) — a finer-slide query's
//       partials serve any coarser compatible window. With sharing off
//       each such query founds a private node with one subscriber.
//
// Lifecycle is refcount-driven: the engine subscribes a tail to its node
// under Engine::share_mu_ (LockRank::kSharingRegistry) and a node is
// reclaimed only when its last subscriber unsubscribes. The node's own
// mutex ranks kSharedNode (between kFactory and kScheduler), so a
// firing tail — holding its factory lock — may call into the node, which
// reads baskets (kBasket) underneath.

#ifndef DATACELL_CORE_SHARING_H_
#define DATACELL_CORE_SHARING_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/basket.h"
#include "core/window.h"
#include "exec/executor.h"
#include "storage/table.h"
#include "util/result.h"
#include "util/sync.h"

namespace dc {

/// Immutable shared partials (tails in different factories hold them
/// concurrently while the node evicts).
using PartialPtr = std::shared_ptr<const exec::Partial>;

/// Monitoring snapshot of one shared window node.
struct SharedNodeStats {
  std::string label;           // "<stream>#<node-ordinal>"
  std::string stream;
  int subscribers = 0;
  int64_t grid_slide = 0;      // basic-window granularity (rows or µs)
  bool rows = false;
  uint64_t partial_builds = 0;  // grid partials actually computed
  uint64_t sharing_hits = 0;    // grid partials served from cache
  uint64_t tuples_in = 0;       // stream rows read for builds
  uint64_t cached_partials = 0;
  size_t cached_bytes = 0;
};

/// Engine-wide sharing snapshot (monitor pane, stats assertions).
struct SharingStats {
  bool enabled = false;
  /// Live tier-P nodes, including private single-subscriber nodes (with
  /// sharing off every incremental window query founds its own).
  uint64_t shared_nodes = 0;
  uint64_t shared_factories = 0;  // live tier-F factories with >1 query
  /// full_hits + prefix_hits + every node's cache hits: each unit of work
  /// (a factory registration or a grid partial) served from shared state
  /// instead of being rebuilt.
  uint64_t sharing_hits = 0;
  uint64_t full_hits = 0;    // tier-F: queries that aliased a factory
  uint64_t prefix_hits = 0;  // tier-P: queries that joined a live node
  std::vector<SharedNodeStats> nodes;
};

/// One shared basic-window partial store over one stream basket, and
/// optionally one joined table. The node owns the basket reader;
/// subscribed tails request grid partial ranges (EnsureRange) and release
/// consumed prefixes (Release) — the reader advances, and cached state
/// evicts, at the minimum released mark across subscribers, so the
/// slowest tail bounds retention.
class SharedWindowNode {
 public:
  /// Registers a from-start reader on `basket`; window coordinates of the
  /// grid are relative to the then-current cursor (ROWS) or absolute
  /// event time (RANGE). `executor` is any subscriber's executor — all
  /// subscribers share the fragment prefix, so their fragments agree.
  /// `table` is the plan's table relation, or null when it reads only
  /// the stream.
  SharedWindowNode(std::string label,
                   std::shared_ptr<Basket> basket,
                   std::shared_ptr<exec::QueryExecutor> executor,
                   bool rows_mode, int64_t grid_slide,
                   TablePtr table = nullptr);
  ~SharedWindowNode();

  SharedWindowNode(const SharedWindowNode&) = delete;
  SharedWindowNode& operator=(const SharedWindowNode&) = delete;

  const std::string& label() const { return label_; }
  Basket* basket() const { return basket_.get(); }
  const TablePtr& table() const { return table_; }
  /// Relation slot of the stream in the shared plan.
  int stream_rel() const { return stream_rel_; }
  bool rows_mode() const { return rows_mode_; }
  /// Basket cursor at node creation; ROWS tails anchor their window
  /// coordinates here (all subscribers share one origin).
  uint64_t origin_seq() const { return origin_seq_; }

  /// True iff a window with this slide can be served from this node's
  /// grid (window subsumption; slide | size is the caller's invariant).
  bool Compatible(bool rows, int64_t slide) const {
    return rows == rows_mode_ && slide % grid_slide_ == 0;
  }

  /// Recovery (docs/DURABILITY.md): re-anchors the grid at the node's
  /// original origin. Valid only on a fresh node (nothing built or
  /// cached) — Engine recovery applies it right after recreating the
  /// node, before any tail fires.
  Status RestoreOrigin(uint64_t origin_seq);

  /// Adds a subscriber; returns its id (pass to Release/Unsubscribe).
  int Subscribe();
  /// Drops a subscriber; re-evaluates eviction for the remaining ones.
  void Unsubscribe(int sub_id);
  int subscribers() const;

  /// Appends to `out` the grid partials covering window coordinates
  /// [lo, hi), computing and caching the missing ones. With a table, the
  /// call reads ONE table snapshot: cached partials built from another
  /// table version are rebuilt against it (re-running only the postjoin
  /// over the cached stream-side prejoin), so the emission sees the
  /// table as it is now. `built`/`hits`/`rows_in` are incremented (not
  /// reset) with this call's counts so the firing tail can fold them
  /// into its own FactoryStats.
  Status EnsureRange(int64_t lo, int64_t hi, std::vector<PartialPtr>* out,
                     uint64_t* built, uint64_t* hits, uint64_t* rows_in);

  /// Subscriber `sub_id` no longer needs window coordinates below
  /// `first_needed`; cached state below the minimum mark (in grid windows)
  /// across all subscribers evicts and the basket reader advances
  /// accordingly. A subscriber that never released pins everything (new
  /// tails see the full retained window).
  void Release(int sub_id, int64_t first_needed);

  SharedNodeStats Stats() const;

 private:
  /// Grid basic windows are tumbling: slide == size == grid_slide_.
  plan::WindowSpec GridSpec() const {
    return plan::WindowSpec{rows_mode_, grid_slide_, grid_slide_};
  }

  /// Builds grid window `j`'s partial; `snap` is the call's table
  /// snapshot (null without a table).
  Result<PartialPtr> BuildLocked(int64_t j, const TableVersionPtr& snap,
                                 uint64_t* rows_in) DC_REQUIRES(mu_);

  /// Evicts cache entries and advances the basket reader up to the
  /// minimum released mark; a no-op while any subscriber is unreleased.
  void EvictLocked() DC_REQUIRES(mu_);

  const std::string label_;
  const std::shared_ptr<Basket> basket_;
  const std::shared_ptr<exec::QueryExecutor> executor_;
  const bool rows_mode_;
  const int64_t grid_slide_;
  const TablePtr table_;
  // Relation slots in the shared plan (immutable after construction).
  size_t num_rels_ = 1;
  int stream_rel_ = 0;
  int table_rel_ = -1;
  int reader_id_ = -1;  // immutable after construction
  /// Immutable after construction, except for a single RestoreOrigin
  /// call during recovery (before any tail fires).
  uint64_t origin_seq_ = 0;

  /// Sentinel release mark: subscriber has not released anything yet.
  static constexpr int64_t kUnreleased = INT64_MIN;

  /// A grid partial and the table version it was built from (0 without
  /// a table).
  struct CachedPartial {
    PartialPtr partial;
    uint64_t table_version = 0;
  };

  mutable Mutex mu_{LockRank::kSharedNode};
  std::map<int64_t, CachedPartial> cache_ DC_GUARDED_BY(mu_);
  /// Stream-table nodes: the stream-side prejoin output per grid window,
  /// kept so a table change re-runs only the postjoin.
  std::map<int64_t, exec::StageInput> stream_prejoin_ DC_GUARDED_BY(mu_);
  /// Stream-table nodes: the table-side prejoin of the newest table
  /// version seen (versions only grow).
  std::optional<exec::StageInput> table_prejoin_ DC_GUARDED_BY(mu_);
  uint64_t table_prejoin_version_ DC_GUARDED_BY(mu_) = 0;
  std::map<int, int64_t> subs_ DC_GUARDED_BY(mu_);  // sub id -> release mark
  int next_sub_ DC_GUARDED_BY(mu_) = 1;
  uint64_t builds_ DC_GUARDED_BY(mu_) = 0;
  uint64_t hits_ DC_GUARDED_BY(mu_) = 0;
  uint64_t tuples_in_ DC_GUARDED_BY(mu_) = 0;
};

using SharedWindowNodePtr = std::shared_ptr<SharedWindowNode>;

}  // namespace dc

#endif  // DATACELL_CORE_SHARING_H_
