#include "core/factory.h"

#include <algorithm>

#include "bat/ops_join.h"
#include "monitor/trace.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace dc {

const char* ExecModeName(ExecMode m) {
  return m == ExecMode::kFullReeval ? "full" : "incremental";
}

Factory::Factory(int id, std::string name,
                 std::shared_ptr<exec::QueryExecutor> executor, ExecMode mode,
                 std::vector<FactoryInput> inputs, SharedWindowNodePtr node,
                 int sub_id)
    : id_(id),
      name_(std::move(name)),
      executor_(std::move(executor)),
      mode_(mode),
      inputs_(std::move(inputs)),
      node_(std::move(node)),
      node_sub_(sub_id) {}

Factory::~Factory() {
  for (const FactoryInput& in : inputs_) {
    if (in.is_stream && in.basket != nullptr && in.reader_id >= 0) {
      in.basket->UnregisterReader(in.reader_id);
    }
  }
}

Result<std::shared_ptr<Factory>> Factory::Create(
    int id, std::string name, std::shared_ptr<exec::QueryExecutor> executor,
    ExecMode mode, std::vector<FactoryInput> inputs, SharedWindowNodePtr node,
    int sub_id) {
  if (node != nullptr && sub_id < 0) {
    return Status::InvalidArgument("a node tail requires a subscription");
  }
  auto f = std::shared_ptr<Factory>(
      new Factory(id, std::move(name), std::move(executor), mode,
                  std::move(inputs), std::move(node), sub_id));
  {
    // Pre-publication, so uncontended — taken for the thread-safety
    // analysis, which checks Validate's guarded writes against mu_.
    MutexLock lock(f->mu_);
    DC_RETURN_NOT_OK(f->Validate());
  }
  return f;
}

Status Factory::Validate() {
  const plan::CompiledQuery& cq = executor_->compiled();
  if (inputs_.size() != cq.bound.rels.size()) {
    return Status::InvalidArgument("factory inputs do not match plan");
  }
  origin_seq_.assign(inputs_.size(), 0);
  int num_streams = 0;
  int num_windowed = 0;
  for (size_t r = 0; r < inputs_.size(); ++r) {
    FactoryInput& in = inputs_[r];
    if (in.is_stream) {
      // Tails carry no reader of their own: the node owns the one
      // reader, and window coordinates anchor at the node's origin.
      if (in.basket == nullptr ||
          (in.reader_id < 0 && node_ == nullptr)) {
        return Status::InvalidArgument("stream input missing basket/reader");
      }
      if (num_streams >= 2) {
        return Status::NotImplemented("more than two stream inputs");
      }
      stream_rels_[num_streams++] = static_cast<int>(r);
      origin_seq_[r] = node_ != nullptr
                           ? node_->origin_seq()
                           : in.basket->ReaderCursor(in.reader_id);
      if (in.window.has_value()) ++num_windowed;
    } else {
      if (in.table == nullptr) {
        return Status::InvalidArgument("table input missing table");
      }
      if (table_rel_ >= 0) {
        return Status::NotImplemented("more than one table input");
      }
      table_rel_ = static_cast<int>(r);
    }
  }
  if (num_streams == 0) {
    return Status::InvalidArgument(
        "continuous query requires at least one stream input");
  }
  if (num_streams == 2) {
    const auto& wl = inputs_[stream_rels_[0]].window;
    const auto& wr = inputs_[stream_rels_[1]].window;
    if (!wl.has_value() || !wr.has_value() || wl->rows || wr->rows) {
      return Status::NotImplemented(
          "stream-stream joins require RANGE windows on both streams");
    }
    if (wl->slide != wr->slide) {
      return Status::NotImplemented(
          "stream-stream joins require equal window slides");
    }
    shape_ = Shape::kDualWindow;
  } else if (num_windowed == 1) {
    shape_ = Shape::kSingleWindow;
  } else {
    shape_ = Shape::kPerBatch;
    batch_cursor_ = origin_seq_[stream_rels_[0]];
  }

  // Decide whether incremental processing is applicable. The rule itself
  // (plan::IncrementalEligible) is shared with the compiler's EXPLAIN
  // classification; it is evaluated here over the factory's actual input
  // windows, which tests may inject independently of the SQL.
  incremental_active_ = false;
  if (mode_ == ExecMode::kIncremental && shape_ != Shape::kPerBatch) {
    std::vector<const plan::WindowSpec*> windows;
    for (int s = 0; s < 2; ++s) {
      const int rel = stream_rels_[s];
      if (rel < 0) continue;
      windows.push_back(inputs_[rel].window.has_value()
                            ? &*inputs_[rel].window
                            : nullptr);
    }
    incremental_active_ = plan::IncrementalEligible(windows);
    stats_.fell_back_to_full = !incremental_active_;
  }
  const bool tail = shape_ == Shape::kSingleWindow && incremental_active_;
  if (tail != (node_ != nullptr)) {
    return Status::InvalidArgument(
        tail ? "incremental single-window queries run as tails over a "
               "SharedWindowNode; none was given"
             : "only an incremental, divisible single-window query can be "
               "a node tail");
  }
  if (tail) {
    // The node reads the stream (and the table) for this query, so both
    // must be the ones the plan names, at the plan's relation slots.
    const int rel = stream_rels_[0];
    const plan::WindowSpec& w = *inputs_[rel].window;
    const TablePtr table =
        table_rel_ >= 0 ? inputs_[table_rel_].table : nullptr;
    if (inputs_[rel].basket != node_->basket() ||
        rel != node_->stream_rel() || table != node_->table()) {
      return Status::InvalidArgument(
          "tail inputs do not match its node's stream/table");
    }
    if (!node_->Compatible(w.rows, w.slide)) {
      return Status::InvalidArgument(
          "tail window is not grid-compatible with its node");
    }
    shape_ = Shape::kSharedTail;
  }
  if (shape_ == Shape::kDualWindow) {
    // Local-aggregate numbering for the pre-aggregated delta path: each
    // side's DeltaGroups carries states only for the aggregates whose
    // argument lives on that side, in query order.
    const auto& pa = cq.delta_pre_agg;
    preagg_local_.assign(pa.agg_side.size(), -1);
    int next_local[2] = {0, 0};
    for (size_t i = 0; i < pa.agg_side.size(); ++i) {
      if (pa.agg_side[i] >= 0) {
        preagg_local_[i] = next_local[pa.agg_side[i]]++;
      }
    }
  }
  return Status::OK();
}

void Factory::Pause() {
  MutexLock lock(mu_);
  paused_ = true;
  stats_.paused = true;
}

void Factory::Resume() {
  MutexLock lock(mu_);
  paused_ = false;
  stats_.paused = false;
}

bool Factory::paused() const {
  MutexLock lock(mu_);
  return paused_;
}

std::vector<Basket*> Factory::InputBaskets() const {
  std::vector<Basket*> out;
  for (const FactoryInput& in : inputs_) {
    if (!in.is_stream || in.basket == nullptr) continue;
    if (std::find(out.begin(), out.end(), in.basket) == out.end()) {
      out.push_back(in.basket);
    }
  }
  return out;
}

FactoryStats Factory::Stats() const {
  MutexLock lock(mu_);
  FactoryStats s = stats_;
  s.cached_partials = partials_.size();
  size_t bytes = 0;
  for (const auto& [k, p] : partials_) bytes += p.MemoryBytes();
  // Rolling delta-join state (one of the two sets is in use, the other
  // stays empty — row path vs pre-aggregated path).
  for (int side = 0; side < 2; ++side) {
    const exec::DeltaSideState& ds = delta_side_[side];
    const exec::DeltaGroupTrack& gt = delta_groups_[side];
    s.retained_rows += ds.live_rows() + gt.live_groups();
    s.retained_dead_rows += ds.dead + gt.dead;
    s.index_entries += ds.index.live_entries() + gt.index.live_entries();
    bytes += ds.MemoryBytes() + gt.MemoryBytes();
  }
  s.cached_bytes = bytes;
  return s;
}

storage::FactoryProgress Factory::SnapshotProgress() const {
  MutexLock lock(mu_);
  storage::FactoryProgress p;
  p.origins = origin_seq_;
  p.has_next_emission = next_emission_.has_value();
  p.next_emission = next_emission_.value_or(0);
  p.batch_cursor = batch_cursor_;
  p.emissions = stats_.emissions;
  return p;
}

Status Factory::RestoreProgress(const storage::FactoryProgress& p) {
  MutexLock lock(mu_);
  if (stats_.invocations > 0) {
    return Status::InvalidArgument(StrFormat(
        "factory %s: RestoreProgress after it already fired", name_.c_str()));
  }
  if (p.origins.size() != origin_seq_.size()) {
    return Status::InvalidArgument(
        StrFormat("factory %s: progress has %zu origins, factory has %zu "
                  "inputs",
                  name_.c_str(), p.origins.size(), origin_seq_.size()));
  }
  // Only cursors are restored (the readers follow in
  // ReleaseRestoredPrefix); window/partial/join state rebuilds from the
  // replayed rows — delta_seeded_ stays false so the first dual-window
  // emission re-joins the whole initial window.
  origin_seq_ = p.origins;
  if (p.has_next_emission) {
    next_emission_ = p.next_emission;
  } else {
    next_emission_.reset();
  }
  batch_cursor_ = p.batch_cursor;
  stats_.emissions = p.emissions;
  return Status::OK();
}

void Factory::ReleaseRestoredPrefix() {
  MutexLock lock(mu_);
  if (node_ != nullptr) {
    if (next_emission_.has_value()) {
      const WindowMath wm(*inputs_[stream_rels_[0]].window);
      node_->Release(node_sub_, wm.Extent(*next_emission_).first);
    }
    return;
  }
  storage::FactoryProgress p;
  p.origins = origin_seq_;
  p.has_next_emission = next_emission_.has_value();
  p.next_emission = next_emission_.value_or(0);
  p.batch_cursor = batch_cursor_;
  for (size_t r = 0; r < inputs_.size(); ++r) {
    const FactoryInput& in = inputs_[r];
    if (!in.is_stream) continue;
    if (std::optional<uint64_t> seq = NextReadSeq(in, r, p)) {
      in.basket->AdvanceReader(in.reader_id, *seq);
    }
  }
}

std::optional<uint64_t> NextReadSeq(const FactoryInput& in, size_t rel,
                                    const storage::FactoryProgress& p) {
  if (!in.window.has_value()) return p.batch_cursor;
  if (!in.window->rows) return std::nullopt;
  const int64_t k = p.has_next_emission ? p.next_emission : 0;
  return p.origins[rel] +
         static_cast<uint64_t>(WindowMath(*in.window).RowsWindowStart(k));
}

bool Factory::CheckReady() const {
  MutexLock lock(mu_);
  return CheckReadyLocked();
}

bool Factory::EnsureRangeOrigin(int rel, int64_t* m) const {
  if (next_emission_.has_value()) {
    *m = *next_emission_;
    return true;
  }
  const FactoryInput& in = inputs_[rel];
  const BasketView view = in.basket->Read(origin_seq_[rel], 1);
  if (view.rows == 0) return false;
  const WindowMath wm(*in.window);
  const int64_t ts0 =
      view.cols[in.basket->ts_col()]->I64Data()[0];
  *m = wm.FirstRangeEmission(ts0);
  return true;
}

bool Factory::CheckReadyLocked() const {
  if (paused_ || failed_) return false;
  switch (shape_) {
    case Shape::kPerBatch: {
      const int rel = stream_rels_[0];
      return inputs_[rel].basket->HighSeq() > batch_cursor_;
    }
    case Shape::kSharedTail:
    case Shape::kSingleWindow: {
      // Tails probe exactly like full-reevaluation single-window factories:
      // origin_seq_ was anchored at the node's origin in Validate, and
      // readiness only reads the basket's high seq / watermark.
      const int rel = stream_rels_[0];
      const FactoryInput& in = inputs_[rel];
      const WindowMath wm(*in.window);
      if (in.window->rows) {
        // A sealed stream can never complete another ROWS window; the
        // factory goes dormant on the trailing partial window.
        const int64_t k = next_emission_.value_or(0);
        const uint64_t high = in.basket->HighSeq();
        return high >= origin_seq_[rel] &&
               wm.RowsReady(k, high - origin_seq_[rel]);
      }
      int64_t m = 0;
      if (!EnsureRangeOrigin(rel, &m)) return false;
      next_emission_ = m;
      return RangeSideReady(rel, wm, m);
    }
    case Shape::kDualWindow: {
      const int l = stream_rels_[0];
      const int r = stream_rels_[1];
      if (!next_emission_.has_value()) {
        // Boundaries are shared (equal slide); start at the later of the
        // two streams' first windows so both sides have coverage.
        int64_t ml = 0, mr = 0;
        if (!EnsureRangeOrigin(l, &ml)) return false;
        if (!EnsureRangeOrigin(r, &mr)) return false;
        next_emission_ = std::max(ml, mr);
      }
      const int64_t m = *next_emission_;
      return RangeSideReady(l, WindowMath(*inputs_[l].window), m) &&
             RangeSideReady(r, WindowMath(*inputs_[r].window), m);
    }
  }
  return false;
}

bool Factory::RangeSideReady(int rel, const WindowMath& wm, int64_t m) const {
  const Basket* b = inputs_[rel].basket;
  const Micros watermark = b->EventWatermark();
  if (wm.RangeReady(m, watermark)) return true;
  // A sealed stream flushes every window that could still contain data,
  // then the factory goes dormant for that side.
  return b->sealed() && wm.RangeExtent(m).first <= watermark;
}

Result<exec::StageInput> Factory::ReadStreamExtent(int rel, bool rows_mode,
                                                   int64_t lo,
                                                   int64_t hi) const {
  DC_ASSIGN_OR_RETURN(BasketView view,
                      inputs_[rel].basket->ReadWindowExtent(
                          origin_seq_[rel], rows_mode, lo, hi));
  return exec::StageInput{std::move(view.cols), view.rows};
}

exec::StageInput Factory::TableInput(int rel) const {
  const TableVersionPtr snap = inputs_[rel].table->Snapshot();
  return exec::StageInput{snap->cols, snap->NumRows()};
}

Micros Factory::TriggerStampLocked(int64_t emission) const {
  Micros stamp = -1;
  for (int s = 0; s < 2; ++s) {
    const int rel = stream_rels_[s];
    if (rel < 0) continue;
    const FactoryInput& in = inputs_[rel];
    if (!in.is_stream || in.basket == nullptr || !in.window.has_value()) {
      continue;
    }
    const WindowMath wm(*in.window);
    Micros t;
    if (in.window->rows) {
      t = in.basket->IngestStampForSeq(
          origin_seq_[rel] + static_cast<uint64_t>(wm.RowsWindowEnd(emission)));
    } else {
      t = in.basket->IngestStampForWatermark(wm.RangeBoundary(emission));
    }
    stamp = std::max(stamp, t);
  }
  return stamp;
}

void Factory::EmitResult(ColumnSet result, Micros trigger_us) {
  // Zero-row results are queued too, so the emitter delivers the empty
  // result set and `emissions` stays equal to emitter-delivered emissions.
  stats_.tuples_out += result.NumRows();
  stats_.emissions++;
  if (result.NumRows() == 0) stats_.empty_emissions++;
  if (trigger_us < 0) trigger_us = SteadyMicros();
  auto emission = std::make_shared<const ColumnSet>(std::move(result));
  MutexLock lock(emitters_mu_);
  for (const auto& e : emitters_) e->Enqueue(emission, trigger_us);
}

Status Factory::Fire() {
  MutexLock lock(mu_);
  if (!CheckReadyLocked()) return Status::OK();
  trace::Span span("factory.fire", "factory", id_);
  Stopwatch watch;
  Status st = FireLocked();
  const Micros elapsed = watch.ElapsedMicros();
  stats_.invocations++;
  stats_.total_exec_micros += elapsed;
  stats_.last_exec_micros = elapsed;
  if (!st.ok()) {
    failed_ = true;
    last_error_ = st.ToString();
    stats_.last_error = last_error_;
    DC_LOG(kError) << "factory " << name_ << " failed: " << st.ToString();
  }
  return st;
}

void Factory::AttachEmitter(std::shared_ptr<Emitter> emitter) {
  MutexLock lock(emitters_mu_);
  emitters_.push_back(std::move(emitter));
}

void Factory::DetachEmitter(const Emitter* emitter) {
  MutexLock lock(emitters_mu_);
  std::erase_if(emitters_, [emitter](const std::shared_ptr<Emitter>& e) {
    return e.get() == emitter;
  });
}

void Factory::Deliver() {
  std::vector<std::shared_ptr<Emitter>> emitters;
  {
    MutexLock lock(emitters_mu_);
    emitters = emitters_;
  }
  // Outside emitters_mu_: a sink may re-enter the engine. An emitter
  // detached and closed since the copy delivers nothing (Emitter::Close).
  for (const auto& e : emitters) e->Drain();
}

Status Factory::FireLocked() {
  switch (shape_) {
    case Shape::kPerBatch:
      return FirePerBatch();
    case Shape::kSingleWindow:
      return FireSingleWindow();
    case Shape::kDualWindow:
      return FireDualWindow();
    case Shape::kSharedTail:
      return FireSharedTail();
  }
  return Status::Internal("bad shape");
}

Status Factory::FirePerBatch() {
  const int rel = stream_rels_[0];
  const FactoryInput& in = inputs_[rel];
  const uint64_t high = in.basket->HighSeq();
  if (high <= batch_cursor_) return Status::OK();
  // The emission's response clock started when its oldest pending row
  // arrived (worst case across the consumed batches).
  const Micros trigger = in.basket->IngestStampForSeq(batch_cursor_ + 1);
  BasketView view = in.basket->Read(batch_cursor_, high - batch_cursor_);
  std::vector<exec::StageInput> raw(inputs_.size());
  raw[rel] = exec::StageInput{std::move(view.cols), view.rows};
  if (table_rel_ >= 0) raw[table_rel_] = TableInput(table_rel_);
  stats_.tuples_in += raw[rel].rows;
  DC_ASSIGN_OR_RETURN(ColumnSet result, executor_->ExecuteFull(raw));
  EmitResult(std::move(result), trigger);
  batch_cursor_ = view.first_seq + view.rows;
  in.basket->AdvanceReader(in.reader_id, batch_cursor_);
  return Status::OK();
}

Status Factory::FireSingleWindow() {
  // Full re-evaluation of one window (kFullReeval, or the non-divisible
  // incremental fallback); incremental windows run as node tails.
  const int rel = stream_rels_[0];
  const FactoryInput& in = inputs_[rel];
  const WindowMath wm(*in.window);
  const bool rows_mode = in.window->rows;
  const int64_t k = next_emission_.value_or(0);
  const auto [lo, hi] = wm.Extent(k);
  std::vector<exec::StageInput> raw(inputs_.size());
  DC_ASSIGN_OR_RETURN(raw[rel], ReadStreamExtent(rel, rows_mode, lo, hi));
  if (table_rel_ >= 0) raw[table_rel_] = TableInput(table_rel_);
  stats_.tuples_in += raw[rel].rows;
  DC_ASSIGN_OR_RETURN(ColumnSet result, executor_->ExecuteFull(raw));
  EmitResult(std::move(result), TriggerStampLocked(k));

  // Release consumed tuples: everything before the next window's start.
  const int64_t next_lo = wm.Extent(k + 1).first;
  if (rows_mode) {
    in.basket->AdvanceReader(in.reader_id,
                             origin_seq_[rel] + static_cast<uint64_t>(next_lo));
  } else {
    DC_ASSIGN_OR_RETURN(auto range,
                        in.basket->SeqRangeForTs(next_lo, next_lo + 1));
    in.basket->AdvanceReader(in.reader_id, range.first);
  }
  next_emission_ = k + 1;
  return Status::OK();
}

Status Factory::FireSharedTail() {
  const WindowMath wm(*inputs_[stream_rels_[0]].window);
  const int64_t k = next_emission_.value_or(0);
  const auto [lo, hi] = wm.Extent(k);
  const Micros trigger = TriggerStampLocked(k);

  // The node serves (and caches) the grid partials covering this window;
  // whichever subscriber fires first pays for a build, everyone else hits.
  std::vector<PartialPtr> parts;
  uint64_t built = 0, hits = 0, rows_in = 0;
  DC_RETURN_NOT_OK(node_->EnsureRange(lo, hi, &parts, &built, &hits, &rows_in));
  stats_.fragments_computed += built;
  stats_.sharing_hits += hits;
  stats_.tuples_in += rows_in;
  std::vector<const exec::Partial*> ps;
  ps.reserve(parts.size());
  for (const PartialPtr& p : parts) ps.push_back(p.get());
  DC_ASSIGN_OR_RETURN(ColumnSet result, executor_->Finish(ps));
  EmitResult(std::move(result), trigger);

  // Release everything before the next window's start; the node advances
  // its reader / evicts at the minimum mark across subscribers.
  node_->Release(node_sub_, wm.Extent(k + 1).first);
  next_emission_ = k + 1;
  return Status::OK();
}

Status Factory::FireDualWindow() {
  const int l = stream_rels_[0];
  const int r = stream_rels_[1];
  const WindowMath wl(*inputs_[l].window);
  const WindowMath wr(*inputs_[r].window);
  const int64_t m = *next_emission_;

  if (!incremental_active_ || !executor_->HasDeltaPostjoin()) {
    std::vector<exec::StageInput> raw(inputs_.size());
    const auto [llo, lhi] = wl.RangeExtent(m);
    const auto [rlo, rhi] = wr.RangeExtent(m);
    DC_ASSIGN_OR_RETURN(raw[l], ReadStreamExtent(l, false, llo, lhi));
    DC_ASSIGN_OR_RETURN(raw[r], ReadStreamExtent(r, false, rlo, rhi));
    stats_.tuples_in += raw[l].rows + raw[r].rows;
    DC_ASSIGN_OR_RETURN(ColumnSet result, executor_->ExecuteFull(raw));
    EmitResult(std::move(result), TriggerStampLocked(m));
  } else {
    DC_RETURN_NOT_OK(FireDualWindowDelta(m, wl, wr));
  }

  for (int s = 0; s < 2; ++s) {
    const int rel = stream_rels_[s];
    const WindowMath& wm = s == 0 ? wl : wr;
    const auto [next_lo, next_hi] = wm.RangeExtent(m + 1);
    DC_ASSIGN_OR_RETURN(
        auto range, inputs_[rel].basket->SeqRangeForTs(next_lo, next_lo + 1));
    inputs_[rel].basket->AdvanceReader(inputs_[rel].reader_id, range.first);
  }
  next_emission_ = m + 1;
  return Status::OK();
}

Result<exec::StageOutput> Factory::PrejoinBasicWindow(int rel, int64_t bw) {
  const WindowMath wm(*inputs_[rel].window);
  const auto [lo, hi] = wm.BasicWindowExtent(bw);
  DC_ASSIGN_OR_RETURN(exec::StageInput raw,
                      ReadStreamExtent(rel, /*rows_mode=*/false, lo, hi));
  stats_.tuples_in += raw.rows;
  return executor_->RunPrejoin(rel, raw);
}

Status Factory::FireDeltaRows(int64_t m, int64_t lfirst, int64_t rfirst,
                              int64_t nl, int64_t nr) {
  const plan::CompiledQuery& cq = executor_->compiled();
  const int64_t firsts[2] = {lfirst, rfirst};

  // Roll each side forward: mark expired basic windows dead, then append
  // the new basic window(s) — m-1 in steady state, the whole initial
  // window on the seed fire (the indexes are empty then, so every pair
  // comes out of the new x new hash join).
  std::vector<exec::StageInput> compact(inputs_.size());
  const int64_t nbw[2] = {nl, nr};
  uint64_t old_rows[2] = {0, 0};
  for (int s = 0; s < 2; ++s) {
    exec::DeltaSideState& ds = delta_side_[s];
    if (!delta_seeded_) ds.Reset(cq.delta_key_domain, cq.delta_key_slots[s]);
    if (nbw[s] == 1) {
      // Window == slide on this side: nothing is ever retained across
      // fires, so the whole window is the new basic window (aliased, not
      // copied) and the index stays empty.
      DC_ASSIGN_OR_RETURN(exec::StageOutput pre,
                          PrejoinBasicWindow(stream_rels_[s], m - 1));
      ds.AdoptSingleWindow(m - 1, pre);
    } else {
      ds.EvictBefore(firsts[s]);
      old_rows[s] = ds.rows;
      for (int64_t j = delta_seeded_ ? m - 1 : firsts[s]; j < m; ++j) {
        DC_ASSIGN_OR_RETURN(exec::StageOutput pre,
                            PrejoinBasicWindow(stream_rels_[s], j));
        DC_RETURN_NOT_OK(ds.AppendBasicWindow(j, pre));
      }
    }
    compact[stream_rels_[s]] =
        exec::StageInput{ds.cols, ds.rows, old_rows[s], &ds.index};
  }

  DC_ASSIGN_OR_RETURN(exec::DeltaFrag df,
                      executor_->RunPostjoinDelta(compact));
  stats_.fragments_computed++;
  stats_.delta_pairs += df.frag.rows;
  // Index the new rows only after the probe: the retained index must
  // never cover the emission that probes it.
  for (int s = 0; s < 2; ++s) {
    if (nbw[s] == 1) continue;  // never probed — keep the index empty
    DC_RETURN_NOT_OK(delta_side_[s].IndexNewRows(old_rows[s]));
  }

  // Bucket the new pairs by the emission at which they leave the window:
  // pair (jl, jr) is live while m' <= min(jl + nl, jr + nr), so its
  // expiry lands in [m + 1, m + min(nl, nr)] and the reusable scratch is
  // indexed by expiry - (m + 1). Partials are keyed {expiry, created}, so
  // expiry evicts whole buckets — no retained row is ever rescanned.
  const size_t nbuckets = static_cast<size_t>(std::min(nl, nr));
  if (nbuckets == 1) {
    // Every pair expires at the next emission (one side's window is a
    // single basic window) — the whole fragment is one bucket, no gather.
    if (df.frag.rows > 0) {
      DC_ASSIGN_OR_RETURN(exec::Partial p, executor_->MakePartial(df.frag));
      partials_.insert_or_assign(PartialKey{m + 1, m}, std::move(p));
    }
  } else {
    if (expiry_rows_.size() < nbuckets) expiry_rows_.resize(nbuckets);
    for (uint64_t i = 0; i < df.frag.rows; ++i) {
      const int64_t idx =
          std::min(df.left_bw[i] + nl, df.right_bw[i] + nr) - m;
      if (idx < 0 || static_cast<size_t>(idx) >= nbuckets) {
        return Status::Internal("delta join: pair expiry out of range");
      }
      expiry_rows_[idx].push_back(static_cast<Oid>(i));
    }
    for (size_t idx = 0; idx < nbuckets; ++idx) {
      std::vector<Oid>& rows = expiry_rows_[idx];
      if (rows.empty()) continue;
      exec::StageOutput bucket;
      bucket.rows = rows.size();
      for (const BatPtr& col : df.frag.cols) {
        bucket.cols.push_back(ops::FetchOids(*col, rows));
      }
      rows.clear();  // keep capacity for the next fire
      DC_ASSIGN_OR_RETURN(exec::Partial p, executor_->MakePartial(bucket));
      partials_.insert_or_assign(
          PartialKey{m + 1 + static_cast<int64_t>(idx), m}, std::move(p));
    }
  }

  for (int s = 0; s < 2; ++s) delta_side_[s].TrimIfWorthIt();
  return Status::OK();
}

Status Factory::FireDeltaPreAgg(int64_t m, int64_t lfirst, int64_t rfirst,
                                int64_t nl, int64_t nr) {
  const plan::CompiledQuery& cq = executor_->compiled();
  const auto& pa = cq.delta_pre_agg;
  const size_t nagg = pa.agg_side.size();
  const size_t nbuckets = static_cast<size_t>(std::min(nl, nr));
  if (expiry_states_.size() < nbuckets) {
    expiry_states_.resize(nbuckets);
    expiry_dirty_.resize(nbuckets, 0);
  }
  for (size_t i = 0; i < nbuckets; ++i) {
    expiry_states_[i].assign(nagg, ops::AggState{});
    expiry_dirty_[i] = 0;
  }
  if (!delta_seeded_) {
    delta_groups_[0].Reset(cq.delta_key_domain);
    delta_groups_[1].Reset(cq.delta_key_domain);
  }
  delta_groups_[0].EvictBefore(lfirst);
  delta_groups_[1].EvictBefore(rfirst);

  // Per aggregate: does the pairing need the merged extrema? Only MIN/MAX
  // read them; skipping the boxed-Value compares for SUM/AVG/COUNT keeps
  // the per-pair loop purely arithmetic.
  std::vector<char> needs_minmax(nagg, 0);
  for (size_t i = 0; i < nagg; ++i) {
    const ops::AggKind k = cq.bound.aggs[i].kind;
    needs_minmax[i] = (k == ops::AggKind::kMin || k == ops::AggKind::kMax);
  }

  // One group pairing (count_l, states_l) x (count_r, states_r) stands
  // for count_l * count_r join pairs; the product rule folds it into the
  // expiry bucket in O(aggs).
  uint64_t pairs = 0;
  auto accumulate = [&](int64_t jl, int64_t jr, uint64_t cl, uint64_t cr,
                        const ops::AggState* sl,
                        const ops::AggState* sr) -> Status {
    const int64_t idx = std::min(jl + nl, jr + nr) - m;
    if (idx < 0 || static_cast<size_t>(idx) >= nbuckets) {
      return Status::Internal("delta pre-agg: pair expiry out of range");
    }
    std::vector<ops::AggState>& bucket = expiry_states_[idx];
    expiry_dirty_[idx] = 1;
    for (size_t i = 0; i < nagg; ++i) {
      if (pa.agg_side[i] < 0) {
        bucket[i].count += cl * cr;  // COUNT(*)
      } else if (pa.agg_side[i] == 0) {
        bucket[i].ScaledMerge(sl[preagg_local_[i]], cr,
                              needs_minmax[i] != 0);
      } else {
        bucket[i].ScaledMerge(sr[preagg_local_[i]], cl,
                              needs_minmax[i] != 0);
      }
    }
    pairs += cl * cr;
    return Status::OK();
  };

  // Steady state runs one step (new basic window m-1 on both sides); the
  // seed fire replays the initial window basic window by basic window, so
  // every cross-bw pairing goes through the same retained x new probes.
  for (int64_t j = delta_seeded_ ? m - 1 : std::min(lfirst, rfirst); j < m;
       ++j) {
    const bool has_l = j >= lfirst;
    const bool has_r = j >= rfirst;
    exec::DeltaGroups gl, gr;
    if (has_l) {
      DC_ASSIGN_OR_RETURN(exec::StageOutput pre,
                          PrejoinBasicWindow(stream_rels_[0], j));
      DC_ASSIGN_OR_RETURN(gl, executor_->BuildDeltaGroups(0, pre));
      stats_.fragments_computed++;
    }
    if (has_r) {
      DC_ASSIGN_OR_RETURN(exec::StageOutput pre,
                          PrejoinBasicWindow(stream_rels_[1], j));
      DC_ASSIGN_OR_RETURN(gr, executor_->BuildDeltaGroups(1, pre));
      stats_.fragments_computed++;
    }
    // Pairing order folds new x new into the second probe: one side's new
    // groups are appended to its track before the opposite side probes it,
    // so a single probe covers retained x new and new x new at once — no
    // separate new x new join. A single-basic-window side never appends
    // (nothing of it outlives its own emission; the opposite window then
    // holds no old groups of this side either), so the append-first side
    // is chosen accordingly; when both sides are tumbling the tracks stay
    // empty and the step pairs new x new directly.
    auto probe_left_new = [&]() -> Status {  // gl vs track 1
      if (!has_l || gl.num_groups() == 0) return Status::OK();
      std::vector<Oid> probe_out, pos_out;
      DC_RETURN_NOT_OK(delta_groups_[1].index.Probe(
          *gl.keys, 0, gl.keys->size(), &probe_out, &pos_out));
      const exec::DeltaGroupTrack& t = delta_groups_[1];
      for (size_t k = 0; k < probe_out.size(); ++k) {
        const uint64_t g = probe_out[k], p = pos_out[k];
        DC_RETURN_NOT_OK(accumulate(j, t.bw_of[p], gl.counts[g], t.counts[p],
                                    gl.group_states(g), t.group_states(p)));
      }
      return Status::OK();
    };
    auto probe_right_new = [&]() -> Status {  // gr vs track 0
      if (!has_r || gr.num_groups() == 0) return Status::OK();
      std::vector<Oid> probe_out, pos_out;
      DC_RETURN_NOT_OK(delta_groups_[0].index.Probe(
          *gr.keys, 0, gr.keys->size(), &probe_out, &pos_out));
      const exec::DeltaGroupTrack& t = delta_groups_[0];
      for (size_t k = 0; k < probe_out.size(); ++k) {
        const uint64_t g = probe_out[k], p = pos_out[k];
        DC_RETURN_NOT_OK(accumulate(t.bw_of[p], j, t.counts[p], gr.counts[g],
                                    t.group_states(p), gr.group_states(g)));
      }
      return Status::OK();
    };
    auto append_left = [&]() -> Status {
      if (!has_l || nl == 1) return Status::OK();
      return delta_groups_[0].AppendGroups(j, gl);
    };
    auto append_right = [&]() -> Status {
      if (!has_r || nr == 1) return Status::OK();
      return delta_groups_[1].AppendGroups(j, gr);
    };
    if (nl == 1 && nr == 1) {
      if (has_l && has_r && gl.num_groups() > 0 && gr.num_groups() > 0) {
        DC_ASSIGN_OR_RETURN(ops::JoinResult nn,
                            ops::HashJoin(*gl.keys, *gr.keys));
        for (size_t k = 0; k < nn.left.size(); ++k) {
          const uint64_t a = nn.left[k], b = nn.right[k];
          DC_RETURN_NOT_OK(accumulate(j, j, gl.counts[a], gr.counts[b],
                                      gl.group_states(a), gr.group_states(b)));
        }
      }
    } else if (nl == 1) {
      DC_RETURN_NOT_OK(append_right());
      DC_RETURN_NOT_OK(probe_left_new());
    } else if (nr == 1) {
      DC_RETURN_NOT_OK(append_left());
      DC_RETURN_NOT_OK(probe_right_new());
    } else {
      DC_RETURN_NOT_OK(probe_left_new());
      DC_RETURN_NOT_OK(append_left());
      DC_RETURN_NOT_OK(probe_right_new());
      DC_RETURN_NOT_OK(append_right());
    }
  }
  stats_.delta_pairs += pairs;

  // One partial per touched expiry, written after all steps so seed-fire
  // steps that share an expiry accumulate into one {expiry, m} key.
  for (size_t idx = 0; idx < nbuckets; ++idx) {
    if (!expiry_dirty_[idx]) continue;
    exec::Partial p;
    p.scalar_states = std::move(expiry_states_[idx]);
    partials_.insert_or_assign(
        PartialKey{m + 1 + static_cast<int64_t>(idx), m}, std::move(p));
  }

  for (int s = 0; s < 2; ++s) delta_groups_[s].TrimIfWorthIt();
  return Status::OK();
}

Status Factory::FireDualWindowDelta(int64_t m, const WindowMath& wl,
                                    const WindowMath& wr) {
  const int64_t nl = wl.NumBasicWindows();
  const int64_t nr = wr.NumBasicWindows();
  const auto [lfirst, llast] = wl.BasicWindowsForRange(m);  // llast == m
  const auto [rfirst, rlast] = wr.BasicWindowsForRange(m);

  if (executor_->compiled().delta_pre_agg.eligible) {
    DC_RETURN_NOT_OK(FireDeltaPreAgg(m, lfirst, rfirst, nl, nr));
  } else {
    DC_RETURN_NOT_OK(FireDeltaRows(m, lfirst, rfirst, nl, nr));
  }
  delta_seeded_ = true;

  // Merge every live partial (map order: expiry, then creation — a
  // deterministic order; emission row order beyond ORDER BY is
  // unspecified, see docs/INCREMENTAL.md).
  std::vector<const exec::Partial*> ps;
  ps.reserve(partials_.size());
  for (const auto& [key, p] : partials_) ps.push_back(&p);
  DC_ASSIGN_OR_RETURN(ColumnSet result, executor_->Finish(ps));
  EmitResult(std::move(result), TriggerStampLocked(m));

  // Evict pairs gone by the next emission.
  std::erase_if(partials_,
                [&](const auto& kv) { return kv.first.a <= m + 1; });
  return Status::OK();
}

}  // namespace dc
