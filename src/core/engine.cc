#include "core/engine.h"

#include "core/durability.h"
#include "monitor/trace.h"
#include "plan/binder.h"
#include "plan/optimizer.h"
#include "sql/parser.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace dc {

namespace {

// Canonical sharing keys (docs/SHARING.md). The prefix key identifies a
// shareable fragment build: prefix signature, masked-out literal values,
// and execution mode — window geometry deliberately excluded so window
// subsumption can serve several geometries from one node. The full key
// adds the finish signature and the exact geometry: two queries with
// equal full keys are the same factory.
void SharingKeys(const plan::CompiledQuery& cq, ExecMode mode,
                 std::string* prefix_key, std::string* full_key) {
  std::string params;
  for (const std::string& p : cq.sig_params) {
    params += p;
    params += '\x1f';
  }
  *prefix_key = cq.prefix_signature + '\x1e' + params + '\x1e' +
                ExecModeName(mode);
  std::string geom;
  for (const plan::BoundRelation& rel : cq.bound.rels) {
    if (rel.window.has_value()) {
      geom += rel.window->ToString();
      geom += ';';
    }
  }
  *full_key = *prefix_key + '\x1e' + cq.finish_signature + '\x1e' + geom;
}

// Tier-P eligibility (docs/SHARING.md), one rule for submit and EXPLAIN:
// an incremental query over exactly one windowed stream, at most one
// table, and a window plan::IncrementalEligible accepts runs as a merge
// tail over a SharedWindowNode. Returns the stream's relation slot, or -1.
int NodeStreamRel(const plan::BoundQuery& q, ExecMode mode) {
  if (mode != ExecMode::kIncremental || q.rels.empty() || q.rels.size() > 2) {
    return -1;
  }
  int stream = -1;
  for (size_t r = 0; r < q.rels.size(); ++r) {
    if (!q.rels[r].is_stream) continue;
    if (stream >= 0) return -1;
    stream = static_cast<int>(r);
  }
  if (stream < 0 || !q.rels[stream].window.has_value() ||
      !plan::IncrementalEligible({&*q.rels[stream].window})) {
    return -1;
  }
  return stream;
}

}  // namespace

Engine::Engine(EngineOptions options)
    : options_(options),
      scheduler_(options.scheduler_workers) {
  if (options_.enable_tracing) trace::AddEnableRef();
  if (!options_.durability.dir.empty()) {
    Result<std::unique_ptr<Durability>> d = Durability::Recover(this);
    recovery_status_ = d.status();
    if (d.ok()) {
      durability_ = std::move(d).value();
    } else {
      // Refuse partial recovery: run transient rather than append to logs
      // that could not be read back (docs/DURABILITY.md).
      DC_LOG(kError) << "durability disabled, recovery failed: "
                     << recovery_status_.ToString();
    }
  }
  if (options_.scheduler_workers > 0) scheduler_.Start();
}

Engine::~Engine() {
  // The checkpoint thread walks every other subsystem; stop it before
  // touching any of them.
  if (durability_ != nullptr) durability_->StopCheckpointer();
  scheduler_.Stop();
  // Take ownership of the threaded components under mu_, then stop them
  // OUTSIDE it: Stop() joins threads whose sinks may re-enter the engine,
  // which would deadlock against a held mu_.
  std::map<int, std::unique_ptr<Receptor>> receptors;
  std::vector<std::shared_ptr<Emitter>> emitters;
  {
    MutexLock lock(mu_);
    receptors = std::move(receptors_);
    receptors_.clear();
    for (auto& [id, q] : queries_) {
      if (q.emitter) emitters.push_back(q.emitter);
    }
  }
  for (auto& [id, r] : receptors) r->Stop();
  for (auto& e : emitters) e->Stop();
  // After everything that might record spans has stopped.
  if (options_.enable_tracing) trace::ReleaseEnableRef();
}

Status Engine::Execute(std::string_view sql) {
  DC_ASSIGN_OR_RETURN(std::vector<sql::Statement> stmts,
                      sql::ParseScript(sql));
  for (const sql::Statement& stmt : stmts) {
    DC_RETURN_NOT_OK(ExecuteOne(stmt));
  }
  // Logged as ONE record on full success. Caveat (docs/DURABILITY.md): a
  // multi-statement script that fails midway logs nothing, so statements
  // that DID apply before the failure are not replayed — submit scripts
  // one statement at a time if partial-failure durability matters.
  if (durability_ != nullptr) durability_->LogStatement(sql);
  return Status::OK();
}

Status Engine::ExecuteOne(const sql::Statement& stmt) {
  if (std::holds_alternative<sql::CreateStmt>(stmt)) {
    const auto& create = std::get<sql::CreateStmt>(stmt);
    Schema schema;
    for (const auto& [name, type] : create.columns) {
      DC_RETURN_NOT_OK(schema.AddColumn(name, type));
    }
    if (!create.is_stream) {
      DC_RETURN_NOT_OK(catalog_.RegisterTable(
          std::make_shared<Table>(create.name, schema)));
      return Status::OK();
    }
    StreamDef def;
    def.name = create.name;
    def.schema = schema;
    for (size_t i = 0; i < schema.NumColumns(); ++i) {
      if (schema.column(i).type == TypeId::kTs) {
        def.ts_column = i;
        break;  // first TS column is the event time
      }
    }
    DC_RETURN_NOT_OK(catalog_.RegisterStream(def));
    auto basket = std::make_shared<Basket>(create.name, schema, def.ts_column,
                                           options_.basket_limits);
    // No broadcast listener here: the scheduler attaches a targeted arc
    // per continuous query reading this basket (SubmitContinuous).
    {
      MutexLock lock(mu_);
      baskets_[create.name] = basket;
    }
    // A fresh stream opens its WAL immediately; streams replayed by
    // recovery get theirs when it goes live, so replayed appends are not
    // logged again.
    if (durability_ != nullptr) {
      DC_RETURN_NOT_OK(durability_->AttachStream(create.name, basket));
    }
    return Status::OK();
  }
  if (std::holds_alternative<sql::InsertStmt>(stmt)) {
    const auto& insert = std::get<sql::InsertStmt>(stmt);
    if (catalog_.IsStream(insert.table)) {
      for (const auto& row : insert.rows) {
        DC_RETURN_NOT_OK(PushRow(insert.table, row));
      }
      return Status::OK();
    }
    DC_ASSIGN_OR_RETURN(TablePtr table, catalog_.GetTable(insert.table));
    for (const auto& row : insert.rows) {
      DC_RETURN_NOT_OK(table->AppendRow(row));
    }
    return Status::OK();
  }
  return Status::InvalidArgument(
      "Execute() handles DDL/DML; use Query() or SubmitContinuous() for "
      "SELECT");
}

Result<ColumnSet> Engine::RunSelect(const sql::SelectStmt& stmt) {
  DC_ASSIGN_OR_RETURN(plan::BoundQuery bound, plan::Bind(stmt, catalog_));
  for (const plan::BoundRelation& rel : bound.rels) {
    if (rel.window.has_value()) {
      return Status::InvalidArgument(
          "window clauses require SubmitContinuous()");
    }
  }
  plan::Optimize(&bound);
  DC_ASSIGN_OR_RETURN(plan::CompiledQuery cq,
                      plan::Compile(std::move(bound)));
  exec::QueryExecutor executor(std::move(cq));
  const plan::BoundQuery& q = executor.compiled().bound;
  std::vector<exec::StageInput> raw(q.rels.size());
  for (size_t r = 0; r < q.rels.size(); ++r) {
    if (q.rels[r].is_stream) {
      // One-time over a stream: peek at current basket contents.
      Basket* basket = GetBasket(q.rels[r].name);
      if (basket == nullptr) {
        return Status::Internal("stream basket missing");
      }
      BasketView view = basket->Read(0);
      raw[r] = exec::StageInput{std::move(view.cols), view.rows};
    } else {
      DC_ASSIGN_OR_RETURN(TablePtr table, catalog_.GetTable(q.rels[r].name));
      const TableVersionPtr snap = table->Snapshot();
      raw[r] = exec::StageInput{snap->cols, snap->NumRows()};
    }
  }
  return executor.ExecuteFull(raw);
}

Result<ColumnSet> Engine::Query(std::string_view sql) {
  DC_ASSIGN_OR_RETURN(sql::Statement stmt, sql::ParseStatement(sql));
  if (!std::holds_alternative<sql::SelectStmt>(stmt)) {
    return Status::InvalidArgument("Query() expects a SELECT");
  }
  return RunSelect(std::get<sql::SelectStmt>(stmt));
}

Result<std::string> Engine::ExplainSql(std::string_view sql,
                                       plan::PlanMode mode) {
  DC_ASSIGN_OR_RETURN(sql::Statement stmt, sql::ParseStatement(sql));
  if (!std::holds_alternative<sql::SelectStmt>(stmt)) {
    return Status::InvalidArgument("EXPLAIN expects a SELECT");
  }
  DC_ASSIGN_OR_RETURN(
      plan::BoundQuery bound,
      plan::Bind(std::get<sql::SelectStmt>(stmt), catalog_));
  plan::OptimizerReport report = plan::Optimize(&bound);
  DC_ASSIGN_OR_RETURN(plan::CompiledQuery cq,
                      plan::Compile(std::move(bound)));
  if (mode == plan::PlanMode::kOneTime || !cq.bound.is_continuous) {
    return plan::Explain(cq, mode, &report);
  }

  // Continuous plans: report what the sharing registry would do with
  // this query (docs/SHARING.md) — "shared with N queries".
  const ExecMode exec_mode = mode == plan::PlanMode::kContinuousIncremental
                                 ? ExecMode::kIncremental
                                 : ExecMode::kFullReeval;
  std::string prefix_key, full_key;
  SharingKeys(cq, exec_mode, &prefix_key, &full_key);
  plan::SharingNote note;
  note.enabled = options_.enable_sharing;
  if (note.enabled) {
    MutexLock share(share_mu_);
    if (auto it = full_entries_.find(full_key); it != full_entries_.end()) {
      note.shared_with = it->second.refs;
      note.detail = "factory-level dedup";
    } else if (const int srel = NodeStreamRel(cq.bound, exec_mode);
               srel >= 0 && prefix_nodes_.count(prefix_key) > 0) {
      const plan::WindowSpec& w = *cq.bound.rels[srel].window;
      for (const SharedWindowNodePtr& n : prefix_nodes_.at(prefix_key)) {
        if (n->Compatible(w.rows, w.slide)) {
          note.shared_with = n->subscribers();
          note.detail = StrFormat("window node %s", n->label().c_str());
          break;
        }
      }
    }
  }
  // Observed ingest→delivery latency of standing queries with this exact
  // compiled identity (merged across duplicates submitted under different
  // names). mu_ after share_mu_ matches the engine lock order.
  {
    MutexLock lock(mu_);
    Histogram merged;
    for (const auto& [id, qe] : queries_) {
      if (qe.identity_key == full_key && qe.latency != nullptr) {
        merged.Merge(qe.latency->Snapshot());
      }
    }
    if (merged.count() > 0) note.latency = merged.Summary();
  }
  return plan::Explain(cq, mode, &report, &note);
}

Result<int> Engine::SubmitContinuous(std::string_view sql) {
  return SubmitInternal(sql, ContinuousOptions{}, /*token=*/0);
}

Result<int> Engine::SubmitContinuous(std::string_view sql,
                                     ContinuousOptions options) {
  return SubmitInternal(sql, std::move(options), /*token=*/0);
}

Result<int> Engine::SubmitInternal(std::string_view sql,
                                   ContinuousOptions options,
                                   uint64_t token) {
  DC_ASSIGN_OR_RETURN(sql::Statement stmt, sql::ParseStatement(sql));
  if (!std::holds_alternative<sql::SelectStmt>(stmt)) {
    return Status::InvalidArgument("SubmitContinuous() expects a SELECT");
  }
  DC_ASSIGN_OR_RETURN(
      plan::BoundQuery bound,
      plan::Bind(std::get<sql::SelectStmt>(stmt), catalog_));
  if (!bound.is_continuous) {
    return Status::InvalidArgument(
        "query reads no stream; use Query() for one-time queries");
  }
  plan::Optimize(&bound);
  DC_ASSIGN_OR_RETURN(plan::CompiledQuery cq,
                      plan::Compile(std::move(bound)));
  auto executor = std::make_shared<exec::QueryExecutor>(std::move(cq));

  QueryEntry entry;
  {
    MutexLock lock(mu_);
    entry.id = next_query_id_++;
  }
  entry.sql = std::string(sql);
  entry.mode = options.mode;
  const std::string name =
      options.name.empty() ? StrFormat("q%d", entry.id) : options.name;
  entry.name = name;

  std::string prefix_key, full_key;
  SharingKeys(executor->compiled(), options.mode, &prefix_key, &full_key);
  // Full compiled identity, recorded even with sharing off so EXPLAIN can
  // find standing queries with the same plan (entry.full_key is made
  // unique per query when sharing is off).
  entry.identity_key = full_key;

  // Held across all sharing decisions AND the engine/scheduler wiring
  // they produce, so a concurrent submit/remove of a matching query
  // cannot race the refcounts. Fires never take share_mu_, so a
  // RemoveFactory underneath it still drains.
  MutexLock share(share_mu_);

  // Tier F: a standing query with the same full compiled identity —
  // alias its factory; this query only adds a private emitter on the
  // shared output basket. Otherwise found a new factory.
  SharedFullEntry* fe = nullptr;
  if (auto it = full_entries_.find(full_key);
      options_.enable_sharing && it != full_entries_.end()) {
    fe = &it->second;
    ++fe->refs;
    ++full_hits_;
    entry.full_key = full_key;
  }
  const bool founded = fe == nullptr;
  if (founded) {
    DC_ASSIGN_OR_RETURN(fe, FoundFactory(&entry, executor, options.mode,
                                         prefix_key, full_key));
  }
  entry.factory = fe->factory;
  entry.out_basket = fe->out_basket;

  Emitter::Sink sink = options.sink;
  if (!sink) {
    entry.collector = std::make_shared<ResultCollector>();
    sink = entry.collector->AsSink();
  }
  entry.latency = metrics_.GetHistogram("query." + name + ".latency_us");
  entry.emitter = std::make_shared<Emitter>(name + ".emit", entry.out_basket,
                                            fe->out_names, std::move(sink),
                                            entry.latency);
  if (options_.scheduler_workers > 0) entry.emitter->Start();

  // Log BEFORE the factory reaches the scheduler: a post-fire cursor in
  // the kSubmit record would make replay resume past emissions still
  // undrained at a crash. (An alias's logged progress is informational:
  // replay restores from the snapshot or the founder's record.)
  if (durability_ != nullptr) {
    token = durability_->LogSubmit(sql, options, *entry.factory, fe->node);
  }
  entry.dur_token = token;

  if (founded) {
    // Arcs before registration so no pulse lands in the gap; the targeted
    // kick inside AddFactory covers anything that arrived before the arcs.
    for (Basket* basket : entry.factory->InputBaskets()) {
      scheduler_.AttachArc(basket, entry.id);
    }
    scheduler_.AddFactory(entry.factory);
  }
  const int id = entry.id;
  MutexLock lock(mu_);
  queries_.emplace(id, std::move(entry));
  return id;
}

Result<Engine::SharedFullEntry*> Engine::FoundFactory(
    QueryEntry* entry, const std::shared_ptr<exec::QueryExecutor>& executor,
    ExecMode mode, const std::string& prefix_key,
    const std::string& full_key) {
  const plan::BoundQuery& q = executor->compiled().bound;

  // Tier P: an incremental query over one divisible windowed stream (plus
  // at most one table) runs as a merge tail over a SharedWindowNode. With
  // sharing on it joins a grid-compatible node under its prefix (window
  // subsumption) or founds one; with sharing off it always founds a
  // private node. Every node is registered in prefix_nodes_ so
  // checkpoints capture its origin and replay re-founds it by label.
  SharedWindowNodePtr node;
  int node_sub = -1;
  if (const int srel = NodeStreamRel(q, mode); srel >= 0) {
    const plan::BoundRelation& rel = q.rels[srel];
    std::shared_ptr<Basket> stream;
    {
      MutexLock lock(mu_);
      auto bit = baskets_.find(rel.name);
      if (bit == baskets_.end()) return Status::Internal("basket missing");
      stream = bit->second;
    }
    TablePtr table;
    if (q.rels.size() == 2) {
      DC_ASSIGN_OR_RETURN(table, catalog_.GetTable(q.rels[1 - srel].name));
    }
    const plan::WindowSpec& w = *rel.window;
    std::vector<SharedWindowNodePtr>& nodes = prefix_nodes_[prefix_key];
    if (options_.enable_sharing) {
      for (const SharedWindowNodePtr& n : nodes) {
        if (n->basket() == stream.get() && n->Compatible(w.rows, w.slide)) {
          node = n;
          ++prefix_hits_;
          break;
        }
      }
    }
    if (node == nullptr) {
      node = std::make_shared<SharedWindowNode>(
          StrFormat("%s#%d", rel.name.c_str(), next_node_ord_++), stream,
          executor, w.rows, w.slide, std::move(table));
      nodes.push_back(node);
    }
    node_sub = node->Subscribe();
  }

  // Wire the factory inputs (a tail carries no reader of its own).
  std::vector<FactoryInput> inputs(q.rels.size());
  for (size_t r = 0; r < q.rels.size(); ++r) {
    if (q.rels[r].is_stream) {
      Basket* basket = GetBasket(q.rels[r].name);
      if (basket == nullptr) return Status::Internal("basket missing");
      FactoryInput in;
      in.is_stream = true;
      in.basket = basket;
      if (node == nullptr) {
        in.reader_id = basket->RegisterReader(/*from_start=*/true);
      }
      in.window = q.rels[r].window;
      inputs[r] = std::move(in);
    } else {
      DC_ASSIGN_OR_RETURN(TablePtr table, catalog_.GetTable(q.rels[r].name));
      FactoryInput in;
      in.table = std::move(table);
      inputs[r] = std::move(in);
    }
  }

  // Output basket: result schema.
  Schema out_schema;
  const std::vector<TypeId> out_types = exec::OutputTypes(executor->compiled());
  const std::vector<std::string>& out_names =
      executor->compiled().finish.out_names;
  for (size_t i = 0; i < out_types.size(); ++i) {
    // Result columns may repeat names; make them unique for the schema.
    std::string col = out_names[i];
    while (out_schema.Has(col)) col += "_";
    DC_RETURN_NOT_OK(out_schema.AddColumn(col, out_types[i]));
  }
  auto out_basket =
      std::make_shared<Basket>(entry->name + ".out", out_schema);

  auto factory = Factory::Create(entry->id, entry->name, executor, mode,
                                 std::move(inputs), out_basket, node,
                                 node_sub);
  if (!factory.ok()) {
    if (node != nullptr) {
      node->Unsubscribe(node_sub);
      PruneIdleNodesLocked();
    }
    return factory.status();
  }

  // Publish the factory for tier-F aliasing by later identical queries.
  // With sharing off the key is made unique per query, so an identical
  // later text founds its own factory; teardown is refcounted either way.
  entry->full_key = options_.enable_sharing
                        ? full_key
                        : StrFormat("%s\x1e#%d", full_key.c_str(), entry->id);
  SharedFullEntry fe;
  fe.factory_id = entry->id;
  fe.refs = 1;
  fe.factory = *std::move(factory);
  fe.out_basket = std::move(out_basket);
  fe.out_names = out_names;
  fe.node = node;
  fe.node_sub = node_sub;
  return &full_entries_.emplace(entry->full_key, std::move(fe)).first->second;
}

Status Engine::RemoveContinuous(int query_id) {
  QueryEntry entry;
  {
    // Refcounted teardown (docs/SHARING.md): the factory leaves the
    // scheduler only when its last subscriber unregisters, and its node
    // subscription is dropped — possibly reclaiming the node — in the
    // same critical section, so a concurrent submit cannot observe a
    // half-torn-down entry.
    MutexLock share(share_mu_);
    {
      MutexLock lock(mu_);
      auto it = queries_.find(query_id);
      if (it == queries_.end()) return Status::NotFound("no such query");
      entry = std::move(it->second);
      queries_.erase(it);
    }
    auto it = full_entries_.find(entry.full_key);
    if (it != full_entries_.end() && --it->second.refs == 0) {
      SharedFullEntry fe = std::move(it->second);
      full_entries_.erase(it);
      // Blocks on in-flight fires; safe under share_mu_ because fires
      // never take it.
      scheduler_.RemoveFactory(fe.factory_id);
      if (fe.node != nullptr) {
        fe.node->Unsubscribe(fe.node_sub);
        PruneIdleNodesLocked();
      }
    }
    // Logged under share_mu_, like submits, so the catalog log orders
    // removals and submits exactly as the sharing registry saw them.
    if (durability_ != nullptr) durability_->LogRemove(entry.dur_token);
  }
  // Outside both locks: Stop() joins a thread whose sink may re-enter
  // the engine.
  if (entry.emitter) entry.emitter->Stop();
  // Unregister the query's latency series so a later query reusing the
  // name starts from a fresh histogram. Holders of the old shared_ptr
  // (none, after the emitter stopped) would keep recording harmlessly.
  metrics_.Remove("query." + entry.name + ".latency_us");
  return Status::OK();
}

void Engine::PruneIdleNodesLocked() {
  for (auto it = prefix_nodes_.begin(); it != prefix_nodes_.end();) {
    std::erase_if(it->second, [](const SharedWindowNodePtr& n) {
      return n->subscribers() == 0;
    });
    it = it->second.empty() ? prefix_nodes_.erase(it) : std::next(it);
  }
}

SharingStats Engine::GetSharingStats() const {
  MutexLock share(share_mu_);
  SharingStats s;
  s.enabled = options_.enable_sharing;
  s.full_hits = full_hits_;
  s.prefix_hits = prefix_hits_;
  for (const auto& [key, fe] : full_entries_) {
    if (fe.refs > 1) ++s.shared_factories;
  }
  uint64_t node_hits = 0;
  for (const auto& [key, nodes] : prefix_nodes_) {
    for (const SharedWindowNodePtr& n : nodes) {
      s.nodes.push_back(n->Stats());
      node_hits += s.nodes.back().sharing_hits;
      ++s.shared_nodes;
    }
  }
  s.sharing_hits = s.full_hits + s.prefix_hits + node_hits;
  return s;
}

Status Engine::PauseQuery(int query_id) {
  FactoryPtr f = GetFactory(query_id);
  if (f == nullptr) return Status::NotFound("no such query");
  f->Pause();
  return Status::OK();
}

Status Engine::ResumeQuery(int query_id) {
  FactoryPtr f = GetFactory(query_id);
  if (f == nullptr) return Status::NotFound("no such query");
  f->Resume();
  scheduler_.NotifyFactory(query_id);
  return Status::OK();
}

Result<std::vector<ColumnSet>> Engine::TakeResults(int query_id) {
  // Snapshot shared ownership under mu_, drain outside it: the sink runs
  // inside Drain() and may re-enter the engine, and a concurrent
  // RemoveContinuous() must not destroy the emitter under the drainer.
  std::shared_ptr<ResultCollector> collector;
  std::shared_ptr<Emitter> emitter;
  {
    MutexLock lock(mu_);
    auto it = queries_.find(query_id);
    if (it == queries_.end()) return Status::NotFound("no such query");
    collector = it->second.collector;
    emitter = it->second.emitter;
  }
  if (collector == nullptr) {
    return Status::InvalidArgument(
        "query was submitted with a custom sink; results go there");
  }
  if (emitter != nullptr) emitter->Drain();
  return collector->TakeAll();
}

Status Engine::PushRow(std::string_view stream,
                       const std::vector<Value>& row) {
  Basket* basket = GetBasket(stream);
  if (basket == nullptr) {
    return Status::NotFound(StrFormat("no stream named '%.*s'",
                                      static_cast<int>(stream.size()),
                                      stream.data()));
  }
  return basket->AppendRow(row, PushTimeout());
}

Status Engine::PushColumns(std::string_view stream,
                           const std::vector<BatPtr>& cols) {
  Basket* basket = GetBasket(stream);
  if (basket == nullptr) return Status::NotFound("no such stream");
  return basket->Append(cols, PushTimeout());
}

Micros Engine::PushTimeout() const {
  // In synchronous mode only the pushing thread can drain the basket (via
  // Pump()), so blocking on space would self-deadlock: fail fast with
  // ResourceExhausted instead. Threaded engines block — the scheduler's
  // drain cycle frees space.
  return options_.scheduler_workers > 0 ? Basket::kBlockForever : 0;
}

Status Engine::Heartbeat(std::string_view stream, Micros event_ts) {
  Basket* basket = GetBasket(stream);
  if (basket == nullptr) return Status::NotFound("no such stream");
  basket->Heartbeat(event_ts);
  return Status::OK();
}

Status Engine::SealStream(std::string_view stream) {
  Basket* basket = GetBasket(stream);
  if (basket == nullptr) return Status::NotFound("no such stream");
  basket->Seal();
  return Status::OK();
}

Result<int> Engine::AttachReceptor(std::string_view stream,
                                   Receptor::RowGen gen,
                                   Receptor::Options options) {
  Basket* basket = GetBasket(stream);
  if (basket == nullptr) return Status::NotFound("no such stream");
  MutexLock lock(mu_);
  const int id = next_receptor_id_++;
  auto receptor = std::make_unique<Receptor>(
      StrFormat("%.*s.recv%d", static_cast<int>(stream.size()),
                stream.data(), id),
      basket, std::move(gen), options);
  receptor->Start();
  receptors_.emplace(id, std::move(receptor));
  return id;
}

Status Engine::PauseReceptor(int receptor_id) {
  // Pause() blocks until the ingestion thread acknowledges; resolve the
  // receptor under mu_ but wait outside it (same pattern as WaitReceptor)
  // so other Engine calls are not stalled behind the handshake.
  Receptor* r = nullptr;
  {
    MutexLock lock(mu_);
    auto it = receptors_.find(receptor_id);
    if (it == receptors_.end()) return Status::NotFound("no such receptor");
    r = it->second.get();
  }
  r->Pause();
  return Status::OK();
}

Status Engine::ResumeReceptor(int receptor_id) {
  MutexLock lock(mu_);
  auto it = receptors_.find(receptor_id);
  if (it == receptors_.end()) return Status::NotFound("no such receptor");
  it->second->Resume();
  return Status::OK();
}

Status Engine::WaitReceptor(int receptor_id) {
  Receptor* r = nullptr;
  {
    MutexLock lock(mu_);
    auto it = receptors_.find(receptor_id);
    if (it == receptors_.end()) return Status::NotFound("no such receptor");
    r = it->second.get();
  }
  r->WaitFinished();
  return Status::OK();
}

Status Engine::Checkpoint() {
  if (durability_ == nullptr) {
    return Status::InvalidArgument(
        "durability is not enabled (EngineOptions::durability.dir)");
  }
  return durability_->Checkpoint();
}

std::vector<std::shared_ptr<Emitter>> Engine::SnapshotEmitters() const {
  std::vector<std::shared_ptr<Emitter>> emitters;
  MutexLock lock(mu_);
  emitters.reserve(queries_.size());
  for (const auto& [id, q] : queries_) {
    if (q.emitter) emitters.push_back(q.emitter);
  }
  return emitters;
}

int Engine::Pump() {
  int total = 0;
  while (true) {
    const int fires = scheduler_.DrainReady();
    // Drain outside mu_: sinks run inside Drain() and may re-enter the
    // engine (e.g. a sink that pushes derived rows into another stream).
    int drained = 0;
    for (const auto& e : SnapshotEmitters()) drained += e->Drain();
    total += fires;
    if (fires == 0 && drained == 0) break;
  }
  return total;
}

bool Engine::WaitIdle(int timeout_ms) {
  const Micros deadline = SteadyMicros() + timeout_ms * kMicrosPerMilli;
  while (SteadyMicros() < deadline) {
    if (!scheduler_.AnyBusyOrReady()) {
      // Flush emitters (outside mu_ — sinks may re-enter the engine),
      // then double-check quiescence.
      for (const auto& e : SnapshotEmitters()) e->Drain();
      if (!scheduler_.AnyBusyOrReady()) return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

std::vector<ContinuousQueryInfo> Engine::Queries() const {
  MutexLock share(share_mu_);
  MutexLock lock(mu_);
  std::vector<ContinuousQueryInfo> out;
  for (const auto& [id, q] : queries_) {
    ContinuousQueryInfo info;
    info.id = id;
    info.name = q.name.empty() ? q.factory->name() : q.name;
    info.sql = q.sql;
    info.mode = q.mode;
    info.factory = q.factory->Stats();
    if (auto fit = full_entries_.find(q.full_key);
        fit != full_entries_.end()) {
      info.shared_with = fit->second.refs;
      if (fit->second.node != nullptr) {
        info.shared_node = fit->second.node->label();
        info.sharing = StrFormat("node %s x%d",
                                 fit->second.node->label().c_str(),
                                 fit->second.node->subscribers());
      } else if (fit->second.refs > 1) {
        info.sharing = StrFormat("factory x%d", fit->second.refs);
      }
    }
    if (q.latency != nullptr) info.latency = q.latency->Snapshot();
    if (q.emitter) info.emitter = q.emitter->Stats();
    if (q.out_basket) info.out_basket = q.out_basket->Stats();
    for (const FactoryInput& in : q.factory->inputs()) {
      if (in.is_stream) {
        info.input_streams.push_back(in.basket->name());
      } else {
        info.input_tables.push_back(in.table->name());
      }
    }
    out.push_back(std::move(info));
  }
  return out;
}

Result<BasketStats> Engine::StreamStats(std::string_view stream) const {
  MutexLock lock(mu_);
  auto it = baskets_.find(std::string(stream));
  if (it == baskets_.end()) return Status::NotFound("no such stream");
  return it->second->Stats();
}

Basket* Engine::GetBasket(std::string_view stream) {
  MutexLock lock(mu_);
  auto it = baskets_.find(std::string(stream));
  return it == baskets_.end() ? nullptr : it->second.get();
}

FactoryPtr Engine::GetFactory(int query_id) const {
  MutexLock lock(mu_);
  auto it = queries_.find(query_id);
  return it == queries_.end() ? nullptr : it->second.factory;
}

}  // namespace dc
