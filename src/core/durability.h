// Copyright 2026 The DataCell Authors.
//
// Durability manager (docs/DURABILITY.md): the WAL environment, the
// catalog log, one log per stream basket and the basket hooks feeding
// it, checkpoints, the wal.*/snapshot.*/recovery.*
// counters, and recovery. Recovery replays through the engine's live
// paths (ExecuteOne, SubmitInternal, RemoveContinuous, Basket::Append),
// and the engine sees the manager only once it is live — catalog log
// open — so nothing replay does is logged again.

#ifndef DATACELL_CORE_DURABILITY_H_
#define DATACELL_CORE_DURABILITY_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>

#include "core/engine.h"
#include "storage/wal.h"
#include "util/result.h"
#include "util/sync.h"

namespace dc {

class Durability {
 public:
  /// Recovers `engine` from its durability directory and opens every log.
  /// Runs before the scheduler starts, so the replay is single-threaded
  /// and deterministic. On error no basket is left hooked.
  static Result<std::unique_ptr<Durability>> Recover(Engine* engine);
  /// Syncs every log: a graceful shutdown loses nothing.
  ~Durability();
  Durability(const Durability&) = delete;
  Durability& operator=(const Durability&) = delete;

  // The engine's four logging sites. Catalog-append failures are logged,
  // not propagated: the operation is already live.
  void LogStatement(std::string_view sql);
  /// Opens `<dir>/<name>.wal` (`scan`: recovery's read of it, or null)
  /// and hooks the basket to it.
  Status AttachStream(const std::string& name,
                      const std::shared_ptr<Basket>& basket,
                      const storage::WalScan* scan = nullptr);
  /// Allocates the query's submit token and logs it with `factory`'s
  /// progress, which must be read before the factory could first fire.
  uint64_t LogSubmit(std::string_view sql,
                     const Engine::ContinuousOptions& options,
                     const Factory& factory, const SharedWindowNodePtr& node);
  void LogRemove(uint64_t token);

  /// Capture → sync → drain → snapshot → truncate.
  Status Checkpoint();

 private:
  explicit Durability(Engine* engine);

  Status Replay();

  Engine& engine_;
  const EngineOptions::DurabilityOptions opts_;
  storage::WalEnv* const env_;
  storage::WalCounters wal_counters_;
  std::shared_ptr<monitor::Counter> snapshot_writes_;
  std::shared_ptr<monitor::Counter> snapshot_bytes_;
  std::shared_ptr<monitor::Counter> replayed_records_;
  std::shared_ptr<monitor::Counter> replayed_rows_;
  std::shared_ptr<monitor::Counter> recovery_runs_;

  /// Set once recovery has replayed; always kAlways (catalog ops are rare).
  std::unique_ptr<storage::WalWriter> catalog_wal_;
  std::atomic<uint64_t> next_token_{1};

  /// Serializes checkpoints; ranks below everything a checkpoint walks.
  Mutex ckpt_mu_{LockRank::kDurability};
  /// The previous checkpoint's horizons: what the next one may truncate
  /// each basket log to, so snapshot.prev.dc keeps a sufficient tail.
  std::map<std::string, uint64_t> last_horizons_ DC_GUARDED_BY(ckpt_mu_);
  uint64_t next_checkpoint_id_ DC_GUARDED_BY(ckpt_mu_) = 1;

  /// A leaf: held only to touch the members below, never across a call.
  Mutex mu_{LockRank::kLeaf};
  /// Outlive the baskets whose hooks point at them (the engine declares
  /// the manager before its basket map).
  std::map<std::string, std::unique_ptr<storage::WalWriter>> basket_wals_
      DC_GUARDED_BY(mu_);
};

}  // namespace dc

#endif  // DATACELL_CORE_DURABILITY_H_
