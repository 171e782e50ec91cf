#include "core/sharing.h"

#include <algorithm>

#include "util/string_util.h"

namespace dc {

SharedWindowNode::SharedWindowNode(
    std::string label, std::shared_ptr<Basket> basket,
    std::shared_ptr<exec::QueryExecutor> executor, bool rows_mode,
    int64_t grid_slide, TablePtr table)
    : label_(std::move(label)),
      basket_(std::move(basket)),
      executor_(std::move(executor)),
      rows_mode_(rows_mode),
      grid_slide_(grid_slide),
      table_(std::move(table)) {
  const std::vector<plan::BoundRelation>& rels =
      executor_->compiled().bound.rels;
  num_rels_ = rels.size();
  for (size_t r = 0; r < rels.size(); ++r) {
    (rels[r].is_stream ? stream_rel_ : table_rel_) = static_cast<int>(r);
  }
  reader_id_ = basket_->RegisterReader(/*from_start=*/true);
  origin_seq_ = basket_->ReaderCursor(reader_id_);
}

SharedWindowNode::~SharedWindowNode() {
  if (reader_id_ >= 0) basket_->UnregisterReader(reader_id_);
}

Status SharedWindowNode::RestoreOrigin(uint64_t origin_seq) {
  MutexLock lock(mu_);
  if (builds_ != 0 || !cache_.empty()) {
    return Status::InvalidArgument(StrFormat(
        "shared node %s: RestoreOrigin after partials were built",
        label_.c_str()));
  }
  // The reader cursor stays where registration put it (at or below the
  // restored origin after a WAL replay); it only pins retention and
  // advances through Release like any other cursor.
  origin_seq_ = origin_seq;
  return Status::OK();
}

int SharedWindowNode::Subscribe() {
  MutexLock lock(mu_);
  const int id = next_sub_++;
  subs_.emplace(id, kUnreleased);
  return id;
}

void SharedWindowNode::Unsubscribe(int sub_id) {
  MutexLock lock(mu_);
  subs_.erase(sub_id);
  // The departed subscriber may have been the one pinning retention.
  if (!subs_.empty()) EvictLocked();
}

int SharedWindowNode::subscribers() const {
  MutexLock lock(mu_);
  return static_cast<int>(subs_.size());
}

Status SharedWindowNode::EnsureRange(int64_t lo, int64_t hi,
                                     std::vector<PartialPtr>* out,
                                     uint64_t* built, uint64_t* hits,
                                     uint64_t* rows_in) {
  MutexLock lock(mu_);
  // One snapshot per call: its version tags the partials and its rows
  // feed them, so the emission sees one table state throughout.
  const TableVersionPtr snap =
      table_ != nullptr ? table_->Snapshot() : nullptr;
  const uint64_t version = snap != nullptr ? snap->version : 0;
  const WindowMath gm(GridSpec());
  const int64_t first = gm.BasicWindowOf(lo);
  // Subsumption keeps tail extents grid-aligned; tolerate a ragged end
  // anyway by covering through the last coordinate.
  const int64_t last = lo < hi ? gm.BasicWindowOf(hi - 1) + 1 : first;
  for (int64_t j = first; j < last; ++j) {
    if (auto it = cache_.find(j);
        it != cache_.end() && it->second.table_version == version) {
      out->push_back(it->second.partial);
      ++*hits;
      ++hits_;
      continue;
    }
    DC_ASSIGN_OR_RETURN(PartialPtr p, BuildLocked(j, snap, rows_in));
    cache_.insert_or_assign(j, CachedPartial{p, version});
    out->push_back(std::move(p));
    ++*built;
    ++builds_;
  }
  return Status::OK();
}

Result<PartialPtr> SharedWindowNode::BuildLocked(int64_t j,
                                                 const TableVersionPtr& snap,
                                                 uint64_t* rows_in) {
  std::vector<exec::StageInput> rels(num_rels_);
  // Only stream-table nodes fill stream_prejoin_.
  auto sit = stream_prejoin_.find(j);
  if (sit == stream_prejoin_.end()) {
    const auto [lo, hi] = WindowMath(GridSpec()).BasicWindowExtent(j);
    DC_ASSIGN_OR_RETURN(
        BasketView view,
        basket_->ReadWindowExtent(origin_seq_, rows_mode_, lo, hi));
    *rows_in += view.rows;
    tuples_in_ += view.rows;
    rels[stream_rel_] = exec::StageInput{std::move(view.cols), view.rows};
  }
  if (table_rel_ < 0) {
    DC_ASSIGN_OR_RETURN(exec::Partial p, executor_->ComputePartial(rels));
    return std::make_shared<const exec::Partial>(std::move(p));
  }
  // Stream-table: the stream-side prejoin is computed once per grid
  // window; a table change re-runs only the (cheap) postjoin.
  if (sit == stream_prejoin_.end()) {
    DC_ASSIGN_OR_RETURN(exec::StageOutput pre,
                        executor_->RunPrejoin(stream_rel_, rels[stream_rel_]));
    sit = stream_prejoin_
              .emplace(j, exec::StageInput{std::move(pre.cols), pre.rows})
              .first;
  }
  if (!table_prejoin_.has_value() || table_prejoin_version_ != snap->version) {
    DC_ASSIGN_OR_RETURN(
        exec::StageOutput pre,
        executor_->RunPrejoin(table_rel_,
                              exec::StageInput{snap->cols, snap->NumRows()}));
    table_prejoin_ = exec::StageInput{std::move(pre.cols), pre.rows};
    table_prejoin_version_ = snap->version;
  }
  rels[stream_rel_] = sit->second;
  rels[table_rel_] = *table_prejoin_;
  DC_ASSIGN_OR_RETURN(exec::StageOutput frag, executor_->RunPostjoin(rels));
  DC_ASSIGN_OR_RETURN(exec::Partial p, executor_->MakePartial(frag));
  return std::make_shared<const exec::Partial>(std::move(p));
}

void SharedWindowNode::Release(int sub_id, int64_t first_needed) {
  const int64_t first_needed_bw =
      WindowMath(GridSpec()).BasicWindowOf(first_needed);
  MutexLock lock(mu_);
  auto it = subs_.find(sub_id);
  if (it == subs_.end()) return;
  if (first_needed_bw > it->second) it->second = first_needed_bw;
  EvictLocked();
}

void SharedWindowNode::EvictLocked() {
  int64_t min_mark = INT64_MAX;
  for (const auto& [id, mark] : subs_) {
    if (mark == kUnreleased) return;  // a tail still needs everything
    min_mark = std::min(min_mark, mark);
  }
  if (subs_.empty() || min_mark == INT64_MAX) return;
  cache_.erase(cache_.begin(), cache_.lower_bound(min_mark));
  stream_prejoin_.erase(stream_prejoin_.begin(),
                        stream_prejoin_.lower_bound(min_mark));
  // Advance the shared reader to the first retained grid window's start
  // (the Factory release rule, applied at the fleet minimum).
  if (rows_mode_) {
    if (min_mark <= 0) return;
    basket_->AdvanceReader(
        reader_id_,
        origin_seq_ + static_cast<uint64_t>(min_mark) *
                          static_cast<uint64_t>(grid_slide_));
  } else {
    if (min_mark <= INT64_MIN / grid_slide_ ||
        min_mark >= INT64_MAX / grid_slide_) {
      return;
    }
    const int64_t ts = min_mark * grid_slide_;
    auto range = basket_->SeqRangeForTs(ts, ts + 1);
    if (range.ok()) basket_->AdvanceReader(reader_id_, range->first);
  }
}

SharedNodeStats SharedWindowNode::Stats() const {
  MutexLock lock(mu_);
  SharedNodeStats s;
  s.label = label_;
  s.stream = basket_->name();
  s.subscribers = static_cast<int>(subs_.size());
  s.grid_slide = grid_slide_;
  s.rows = rows_mode_;
  s.partial_builds = builds_;
  s.sharing_hits = hits_;
  s.tuples_in = tuples_in_;
  s.cached_partials = cache_.size();
  for (const auto& [j, c] : cache_) {
    s.cached_bytes += c.partial->MemoryBytes();
  }
  for (const auto& [j, in] : stream_prejoin_) {
    for (const BatPtr& col : in.cols) s.cached_bytes += col->MemoryBytes();
  }
  if (table_prejoin_.has_value()) {
    for (const BatPtr& col : table_prejoin_->cols) {
      s.cached_bytes += col->MemoryBytes();
    }
  }
  return s;
}

}  // namespace dc
