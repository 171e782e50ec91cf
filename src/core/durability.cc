#include "core/durability.h"

#include "monitor/trace.h"
#include "sql/parser.h"
#include "storage/snapshot.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace dc {

namespace {

void WarnIfFailed(const Status& s) {
  if (!s.ok()) {
    DC_LOG(kWarn) << "WAL write failed: " << s.ToString();
  }
}

}  // namespace

Durability::Durability(Engine* engine)
    : engine_(*engine),
      opts_(engine->options_.durability),
      env_(opts_.env != nullptr ? opts_.env : storage::WalEnv::Default()) {
  monitor::MetricsRegistry& m = engine_.metrics_;
  wal_counters_.records = m.GetCounter("wal.records");
  wal_counters_.bytes = m.GetCounter("wal.bytes");
  wal_counters_.syncs = m.GetCounter("wal.syncs");
  wal_counters_.truncations = m.GetCounter("wal.truncations");
  snapshot_writes_ = m.GetCounter("snapshot.writes");
  snapshot_bytes_ = m.GetCounter("snapshot.bytes");
  replayed_records_ = m.GetCounter("recovery.replayed_records");
  replayed_rows_ = m.GetCounter("recovery.replayed_rows");
  recovery_runs_ = m.GetCounter("recovery.runs");
}

Durability::~Durability() {
  StopCheckpointer();
  // Graceful shutdown keeps the full logs: force the unsynced tails
  // durable so a restart replays everything (kInterval/kNever lose the
  // tail only on a crash). Nothing appends any more: the engine has
  // stopped its threads and dropped its baskets, or failed recovery
  // unhooked them.
  if (catalog_wal_ != nullptr) (void)catalog_wal_->Sync();
  for (const auto& [name, w] : basket_wals_) (void)w->Sync();
}

Result<std::unique_ptr<Durability>> Durability::Recover(Engine* engine) {
  std::unique_ptr<Durability> d(new Durability(engine));
  DC_RETURN_NOT_OK(d->Replay());
  if (d->opts_.checkpoint_interval_ms > 0 &&
      engine->options_.scheduler_workers > 0) {
    d->ckpt_thread_ = std::thread(&Durability::CheckpointLoop, d.get());
  }
  return d;
}

Status Durability::Replay() {
  DC_RETURN_NOT_OK(env_->CreateDirs(opts_.dir));

  // 1. Newest complete snapshot, if any (NotFound = cold start), and the
  // catalog log: DDL + submits in original order. A torn tail scans as a
  // shorter valid prefix (records past it were never acknowledged as
  // durable under any fsync policy that synced them).
  Result<storage::SnapshotData> loaded = storage::LoadSnapshot(opts_.dir);
  if (!loaded.ok() && !loaded.status().IsNotFound()) return loaded.status();
  const storage::SnapshotData snap =
      loaded.ok() ? std::move(loaded).value() : storage::SnapshotData{};
  std::map<uint64_t, const storage::FactoryProgress*> snap_progress;
  for (const storage::SnapshotQuery& q : snap.queries) {
    snap_progress[q.token] = &q.progress;
  }
  const std::string cat_path = opts_.dir + "/catalog.wal";
  Result<storage::WalScan> cat = storage::ReadWalFile(cat_path);
  if (!cat.ok() && !cat.status().IsNotFound()) return cat.status();
  const std::vector<storage::WalRecord> no_records;
  const std::vector<storage::WalRecord>& records =
      cat.ok() ? cat->records : no_records;
  if (loaded.ok() || !records.empty()) recovery_runs_->Add(1);

  // 2. Replay the catalog through the live paths; the engine has no
  // manager yet, so nothing is logged again. CREATE STREAM also positions
  // the basket at its log's kReset head (before any reader registers);
  // INSERTs into streams are skipped — their rows replay from the basket
  // logs. Each basket log is read once: going live reopens it from the
  // same scan. Meanwhile, record where each factory and node resumes: a
  // factory from its founding submit's cursors, overridden by the
  // snapshot entry of any submit reaching it (the founder's own record is
  // stale when it was removed before the checkpoint); a node from the
  // snapshot by label, else from the submit that founded it.
  // Basket logs in creation order, the order their data replays in.
  std::vector<std::pair<std::string, storage::WalScan>> basket_scans;
  // Each basket log's kReset start_seq: the truncation floor. Restored
  // cursors below it would read rows the log no longer has (step 5).
  std::map<std::string, uint64_t> replay_base;
  std::map<uint64_t, int> token_to_query;
  std::map<int, storage::FactoryProgress> factory_progress;
  std::map<std::string, uint64_t> node_origins;
  for (const storage::WalRecord& rec : records) {
    replayed_records_->Add(1);
    if (rec.type == storage::WalRecordType::kStatement) {
      DC_ASSIGN_OR_RETURN(std::string stmt_sql, storage::DecodeStatement(rec));
      DC_ASSIGN_OR_RETURN(std::vector<sql::Statement> stmts,
                          sql::ParseScript(stmt_sql));
      for (const sql::Statement& stmt : stmts) {
        if (std::holds_alternative<sql::InsertStmt>(stmt) &&
            engine_.catalog_.IsStream(std::get<sql::InsertStmt>(stmt).table)) {
          continue;
        }
        DC_RETURN_NOT_OK(engine_.ExecuteOne(stmt));
        const auto* create = std::get_if<sql::CreateStmt>(&stmt);
        if (create == nullptr || !create->is_stream) continue;
        Result<storage::WalScan> scan =
            storage::ReadWalFile(opts_.dir + "/" + create->name + ".wal");
        if (!scan.ok()) {
          if (scan.status().IsNotFound()) continue;
          return scan.status();
        }
        const storage::WalScan& bs =
            basket_scans.emplace_back(create->name, std::move(scan).value())
                .second;
        if (bs.records.empty()) continue;
        if (bs.records[0].type != storage::WalRecordType::kReset) {
          return Status::Internal(StrFormat(
              "basket WAL %s does not start with kReset",
              create->name.c_str()));
        }
        DC_ASSIGN_OR_RETURN(storage::WalReset reset,
                            storage::DecodeReset(bs.records[0]));
        replay_base[create->name] = reset.start_seq;
        DC_RETURN_NOT_OK(engine_.GetBasket(create->name)
                             ->RestoreLogPosition(reset.start_seq,
                                                  reset.next_ordinal,
                                                  reset.watermark,
                                                  reset.sealed));
      }
    } else if (rec.type == storage::WalRecordType::kSubmit) {
      DC_ASSIGN_OR_RETURN(storage::WalSubmit sub, storage::DecodeSubmit(rec));
      // Original sinks are process-local and cannot be persisted;
      // recovered queries get buffered collectors (TakeResults).
      Engine::ContinuousOptions co;
      co.mode = static_cast<ExecMode>(sub.mode);
      co.name = sub.name;
      DC_ASSIGN_OR_RETURN(int id,
                          engine_.SubmitInternal(sub.sql, std::move(co),
                                                 sub.token));
      token_to_query[sub.token] = id;
      next_token_ = std::max<uint64_t>(next_token_, sub.token + 1);
      const FactoryPtr f = engine_.GetFactory(id);
      if (auto it = snap_progress.find(sub.token); it != snap_progress.end()) {
        factory_progress[f->id()] = *it->second;
      } else {
        factory_progress.try_emplace(
            f->id(), storage::FactoryProgress{.origins = sub.origins,
                                              .batch_cursor = sub.batch_cursor});
      }
      if (!sub.node_label.empty()) {
        // Node labels are allocated deterministically, so an in-order
        // replay must reach the exact node it logged.
        const std::string label = f->node() ? f->node()->label() : "";
        if (label != sub.node_label) {
          return Status::Internal(StrFormat(
              "recovery divergence: replayed submit reached node '%s', log "
              "says %s",
              label.c_str(), sub.node_label.c_str()));
        }
        node_origins.try_emplace(label, sub.node_origin);
      }
    } else if (rec.type == storage::WalRecordType::kRemove) {
      DC_ASSIGN_OR_RETURN(uint64_t token, storage::DecodeRemove(rec));
      auto it = token_to_query.find(token);
      if (it == token_to_query.end()) {
        return Status::Internal(
            StrFormat("kRemove for unknown submit token %llu",
                      static_cast<unsigned long long>(token)));
      }
      DC_RETURN_NOT_OK(engine_.RemoveContinuous(it->second));
      token_to_query.erase(it);
    } else {
      return Status::Internal("unexpected record type in catalog log");
    }
  }

  // 3. One restore step, once every node has all its subscribers and
  // before anything fires: nodes take their origins, factories their
  // progress, and restored readers move to their next read — replay
  // starts at the previous checkpoint, and rows no fire will consume must
  // drop as they arrive, or a tail longer than the basket bound stalls.
  for (const storage::SnapshotNode& n : snap.nodes) {
    node_origins[n.label] = n.origin_seq;
  }
  {
    MutexLock share(engine_.share_mu_);
    for (const auto& [key, nodes] : engine_.prefix_nodes_) {
      for (const SharedWindowNodePtr& n : nodes) {
        if (auto it = node_origins.find(n->label()); it != node_origins.end()) {
          DC_RETURN_NOT_OK(n->RestoreOrigin(it->second));
        }
      }
    }
  }
  std::map<int, FactoryPtr> live;
  {
    MutexLock lock(engine_.mu_);
    for (const auto& [id, q] : engine_.queries_) {
      live.emplace(q.factory->id(), q.factory);
    }
  }
  for (const auto& [id, f] : live) {
    DC_RETURN_NOT_OK(f->RestoreProgress(factory_progress.at(id)));
    f->ReleaseRestoredPrefix();
  }

  // 4. Replay basket data through the normal append path — windows, join
  // indexes, and grid partials rebuild under their own invariants. Pump()
  // after every record keeps the replay deterministic and matches the
  // batch-at-a-time cadence the differential harness drives.
  trace::Span replay_span("recovery.replay", "recovery");
  for (const auto& [name, scan] : basket_scans) {
    Basket* basket = engine_.GetBasket(name);
    for (size_t i = 1; i < scan.records.size(); ++i) {
      const storage::WalRecord& rec = scan.records[i];
      if (rec.type == storage::WalRecordType::kBatch) {
        DC_ASSIGN_OR_RETURN(storage::WalBatch b, storage::DecodeBatch(rec));
        if (b.begin_seq != basket->HighSeq()) {
          return Status::Internal(StrFormat(
              "basket WAL %s not contiguous: batch %llu begins at %llu, "
              "basket is at %llu",
              name.c_str(), static_cast<unsigned long long>(b.ordinal),
              static_cast<unsigned long long>(b.begin_seq),
              static_cast<unsigned long long>(basket->HighSeq())));
        }
        // Only this thread can drain during recovery: fail fast on
        // backpressure and Pump() to make space.
        Status s = basket->Append(b.cols, /*timeout_micros=*/0);
        while (s.IsResourceExhausted()) {
          if (engine_.Pump() == 0) {
            return Status::Internal(StrFormat(
                "replay of %s stalled: basket full and nothing to pump",
                name.c_str()));
          }
          s = basket->Append(b.cols, /*timeout_micros=*/0);
        }
        DC_RETURN_NOT_OK(s);
        replayed_rows_->Add(b.rows);
      } else if (rec.type == storage::WalRecordType::kHeartbeat) {
        DC_ASSIGN_OR_RETURN(int64_t ts, storage::DecodeHeartbeat(rec));
        basket->Heartbeat(ts);
      } else if (rec.type == storage::WalRecordType::kSeal) {
        basket->Seal();
      } else {
        return Status::Internal(StrFormat(
            "unexpected record type in basket WAL %s", name.c_str()));
      }
      replayed_records_->Add(1);
      engine_.Pump();
    }
  }
  engine_.Pump();
  replay_span.set_arg(static_cast<int64_t>(replayed_rows_->Value()));

  // 5. The replayed data must bracket every restored cursor — a log that
  // scanned shorter than the progress a snapshot promised is unusable,
  // and a cursor below a log's kReset floor references rows truncation
  // already dropped (refuse partial recovery rather than silently
  // mis-emit either way).
  for (const auto& [id, f] : live) {
    const storage::FactoryProgress p = f->SnapshotProgress();
    const std::vector<FactoryInput>& inputs = f->inputs();
    for (size_t r = 0; r < inputs.size() && r < p.origins.size(); ++r) {
      if (!inputs[r].is_stream) continue;
      const Basket& basket = *inputs[r].basket;
      if (p.origins[r] > basket.HighSeq()) {
        return Status::Internal(StrFormat(
            "query %s: restored origin %llu beyond replayed data %llu on %s",
            f->name().c_str(), static_cast<unsigned long long>(p.origins[r]),
            static_cast<unsigned long long>(basket.HighSeq()),
            basket.name().c_str()));
      }
      // What must stay above the floor is the next sequence the query
      // will actually read (NextReadSeq), not its window anchor. RANGE
      // windows resolve reads by timestamp (clamped at the anchor from
      // below), so the floor does not constrain them.
      const std::optional<uint64_t> next_read = NextReadSeq(inputs[r], r, p);
      const auto bit = replay_base.find(basket.name());
      if (next_read.has_value() && bit != replay_base.end() &&
          *next_read < bit->second) {
        return Status::Internal(StrFormat(
            "query %s: restored cursor %llu below the WAL truncation floor "
            "%llu on %s",
            f->name().c_str(), static_cast<unsigned long long>(*next_read),
            static_cast<unsigned long long>(bit->second),
            basket.name().c_str()));
      }
    }
  }

  // 6. Go live: open the catalog log for appending (truncating any torn
  // tail to the prefix just replayed) and hook every basket to its log —
  // on failure unhook them all again — then adopt the snapshot's
  // horizons as the truncation floor.
  DC_ASSIGN_OR_RETURN(
      catalog_wal_,
      storage::WalWriter::Open(env_, cat_path, storage::FsyncPolicy::kAlways,
                               /*fsync_interval=*/1, wal_counters_,
                               cat.ok() ? &*cat : nullptr));
  std::map<std::string, std::shared_ptr<Basket>> baskets;
  {
    MutexLock lock(engine_.mu_);
    baskets = engine_.baskets_;
  }
  for (const auto& [name, basket] : baskets) {
    const auto sit =
        std::find_if(basket_scans.begin(), basket_scans.end(),
                     [&](const auto& entry) { return entry.first == name; });
    const Status s = AttachStream(
        name, basket, sit == basket_scans.end() ? nullptr : &sit->second);
    if (!s.ok()) {
      for (const auto& [n, b] : baskets) b->SetDurabilityHooks({});
      return s;
    }
  }
  MutexLock ckpt(ckpt_mu_);
  for (const storage::SnapshotBasket& b : snap.baskets) {
    last_horizons_[b.name] = b.horizon;
  }
  next_checkpoint_id_ = snap.checkpoint_id + 1;
  return Status::OK();
}

void Durability::LogStatement(std::string_view sql) {
  WarnIfFailed(catalog_wal_->Append(storage::EncodeStatement(sql)));
}

Status Durability::AttachStream(const std::string& name,
                                const std::shared_ptr<Basket>& basket,
                                const storage::WalScan* scan) {
  DC_ASSIGN_OR_RETURN(
      std::unique_ptr<storage::WalWriter> writer,
      storage::WalWriter::Open(env_, opts_.dir + "/" + name + ".wal",
                               opts_.fsync, opts_.fsync_interval_batches,
                               wal_counters_, scan));
  if (scan == nullptr || scan->records.empty()) {
    // Fresh log: declare where it starts. (Always the basket's current
    // state — zero on CREATE STREAM, the replayed position if a corrupt
    // log was truncated all the way back to its magic.)
    storage::WalReset reset;
    reset.start_seq = basket->HighSeq();
    reset.next_ordinal = basket->Stats().append_batches;
    reset.watermark = basket->EventWatermark();
    reset.sealed = basket->sealed();
    DC_RETURN_NOT_OK(writer->Append(storage::EncodeReset(reset)));
    DC_RETURN_NOT_OK(writer->Sync());
  }
  // Records are written inside the basket lock (record order == append
  // order), the fsync they leave due after it. Hook failures cannot be
  // propagated: the record is lost, like a crash before its sync.
  storage::WalWriter* w = writer.get();
  Basket::DurabilityHooks hooks;
  hooks.on_batch = [w](const BasketBatch& b, const std::vector<BatPtr>& cols) {
    WarnIfFailed(w->Write(storage::EncodeBatch(
        b.ordinal, b.begin_seq, b.end_seq - b.begin_seq, cols)));
  };
  hooks.on_heartbeat = [w](Micros event_ts) {
    WarnIfFailed(w->Write(storage::EncodeHeartbeat(event_ts)));
  };
  hooks.on_seal = [w]() { WarnIfFailed(w->Write(storage::EncodeSeal())); };
  hooks.on_unlock = [w]() { WarnIfFailed(w->SyncDue()); };
  basket->SetDurabilityHooks(std::move(hooks));
  MutexLock lock(mu_);
  basket_wals_[name] = std::move(writer);
  return Status::OK();
}

uint64_t Durability::LogSubmit(std::string_view sql,
                               const Engine::ContinuousOptions& options,
                               const Factory& factory,
                               const SharedWindowNodePtr& node) {
  const storage::FactoryProgress p = factory.SnapshotProgress();
  const uint64_t token = next_token_++;
  WarnIfFailed(catalog_wal_->Append(storage::EncodeSubmit(
      {.token = token,
       .sql = std::string(sql),
       .mode = static_cast<uint8_t>(options.mode),
       .name = options.name,
       .origins = p.origins,
       .batch_cursor = p.batch_cursor,
       .node_label = node != nullptr ? node->label() : "",
       .node_origin = node != nullptr ? node->origin_seq() : 0})));
  return token;
}

void Durability::LogRemove(uint64_t token) {
  WarnIfFailed(catalog_wal_->Append(storage::EncodeRemove(token)));
}

Status Durability::Checkpoint() {
  MutexLock ckpt(ckpt_mu_);

  // 1. Capture the cut: per-query progress, node origins, and the basket
  // horizons the NEXT checkpoint may truncate to. Everything the captured
  // progress references was appended (and hence logged) before this
  // point.
  storage::SnapshotData data;
  data.checkpoint_id = next_checkpoint_id_++;
  std::map<std::string, uint64_t> horizons;
  {
    MutexLock share(engine_.share_mu_);
    for (const auto& [key, nodes] : engine_.prefix_nodes_) {
      for (const SharedWindowNodePtr& n : nodes) {
        data.nodes.push_back({n->label(), n->origin_seq()});
      }
    }
    MutexLock lock(engine_.mu_);
    for (const auto& [name, b] : engine_.baskets_) {
      const uint64_t horizon = b->DropHorizon();
      horizons[name] = horizon;
      data.baskets.push_back({name, horizon});
    }
    for (const auto& [id, q] : engine_.queries_) {
      data.queries.push_back({q.dur_token, q.factory->SnapshotProgress()});
    }
  }
  std::vector<std::pair<std::string, storage::WalWriter*>> wals;
  {
    MutexLock lock(mu_);
    for (const auto& [name, w] : basket_wals_) wals.emplace_back(name, w.get());
  }

  // 2. Persist the logs at least through the cut.
  DC_RETURN_NOT_OK(catalog_wal_->Sync());
  for (const auto& [name, w] : wals) DC_RETURN_NOT_OK(w->Sync());

  // 3. Deliver everything produced before the cut, so a recovered engine
  // re-emits only at-or-after it (the harness dedups by position).
  for (const auto& e : engine_.SnapshotEmitters()) e->Drain();

  // 4. Snapshot (tmp + fsync + rotate current->prev + rename).
  DC_RETURN_NOT_OK(
      storage::WriteSnapshot(env_, opts_.dir, data, snapshot_bytes_.get()));
  snapshot_writes_->Add(1);

  // 5. Truncate each basket log only to the PREVIOUS checkpoint's
  // horizon: if this snapshot is torn by a later crash, snapshot.prev.dc
  // still pairs with a log tail that covers it.
  for (const auto& [name, w] : wals) {
    if (auto it = last_horizons_.find(name); it != last_horizons_.end()) {
      DC_RETURN_NOT_OK(w->TruncateTo(it->second));
    }
  }
  last_horizons_ = std::move(horizons);
  return Status::OK();
}

void Durability::StopCheckpointer() {
  if (!ckpt_thread_.joinable()) return;
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  stop_cv_.NotifyAll();
  ckpt_thread_.join();
}

void Durability::CheckpointLoop() {
  const int64_t interval_us =
      static_cast<int64_t>(opts_.checkpoint_interval_ms) * kMicrosPerMilli;
  while (true) {
    {
      MutexLock lock(mu_);
      if (!stop_) stop_cv_.WaitFor(mu_, interval_us);
      if (stop_) return;
    }
    const Status s = Checkpoint();
    if (!s.ok()) {
      DC_LOG(kWarn) << "periodic checkpoint failed: " << s.ToString();
    }
  }
}

}  // namespace dc
