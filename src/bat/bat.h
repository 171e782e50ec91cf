// Copyright 2026 The DataCell Authors.
//
// Bat: a single column — MonetDB's Binary Association Table with a void
// (dense, implicit) head and a typed tail. Tables, baskets and every
// intermediate result in the engine are collections of Bats; operators are
// bulk: they read whole Bats (optionally restricted by a candidate list) and
// materialize whole result Bats. That full materialization is exactly what
// DataCell exploits: per-basic-window intermediates are ordinary Bats that
// can be cached and merged later.

#ifndef DATACELL_BAT_BAT_H_
#define DATACELL_BAT_BAT_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bat/candidates.h"
#include "bat/string_heap.h"
#include "bat/types.h"
#include "util/result.h"

namespace dc {

class Bat;
/// Bats are shared between plans, caches and result sets; operators return
/// shared handles.
using BatPtr = std::shared_ptr<Bat>;

/// A typed column with dense row ids [0, size).
class Bat {
 public:
  /// Creates an empty column of logical type `t`.
  explicit Bat(TypeId t);

  /// Convenience constructors from host vectors.
  static BatPtr MakeBool(std::vector<uint8_t> v);
  static BatPtr MakeI64(std::vector<int64_t> v);
  static BatPtr MakeF64(std::vector<double> v);
  static BatPtr MakeStr(const std::vector<std::string>& v);
  static BatPtr MakeTs(std::vector<int64_t> v);
  static BatPtr MakeEmpty(TypeId t) { return std::make_shared<Bat>(t); }

  TypeId type() const { return type_; }
  uint64_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Approximate memory footprint in bytes (monitoring / Fig. 4 pane).
  size_t MemoryBytes() const;

  // --- Appending (builders, baskets, tables) -------------------------------

  void Reserve(uint64_t n);
  void AppendBool(bool v);
  void AppendI64(int64_t v);
  void AppendF64(double v);
  void AppendStr(std::string_view v);
  /// Bulk-appends `n` copies of `v` (I64/TS columns; the hidden
  /// basic-window-ordinal column of delta joins is built this way).
  void AppendRepeatedI64(int64_t v, uint64_t n);
  /// Appends a boxed value (NULL allowed); aborts on type mismatch
  /// (callers type-check).
  void AppendValue(const Value& v);
  /// Appends one SQL NULL row (scalar aggregates over empty windows).
  void AppendNull();
  /// Bulk-appends rows [from, to) of `src` (same type required); null
  /// rows stay null.
  void AppendRange(const Bat& src, uint64_t from, uint64_t to);
  /// Bulk-appends the candidate rows of `src`; null rows stay null.
  void AppendCandidates(const Bat& src, const Candidates& cand);

  /// Drops the first `n` rows in place (basket shrink after consumption).
  /// Row ids of survivors shift down by n. For STR columns the heap is
  /// rebuilt to reclaim arena space.
  void DropHead(uint64_t n);

  // --- Typed access ---------------------------------------------------------

  std::span<const uint8_t> BoolData() const { return {bools_.data(), size_}; }
  std::span<const int64_t> I64Data() const { return {ints_.data(), size_}; }
  std::span<const double> F64Data() const { return {dbls_.data(), size_}; }
  /// View of the string at row `i`; valid until the column is mutated.
  std::string_view StrAt(uint64_t i) const { return heap_.Get(strs_[i]); }

  /// True when row `i` is SQL NULL. NULL rows store the type's zero in
  /// the typed payload, so bulk kernels that ignore the bitmap stay
  /// well-defined (documented divergence: expressions over NULL).
  bool IsNull(uint64_t i) const {
    return i < nulls_.size() && nulls_[i] != 0;
  }
  /// True when any row may be NULL (the bitmap exists).
  bool has_nulls() const { return !nulls_.empty(); }
  /// The NULL bitmap, one 0/1 byte per row; it may stop short of size()
  /// (rows past its end are non-null) and is empty without NULLs.
  std::span<const uint8_t> NullFlags() const { return nulls_; }
  /// Installs a whole NULL bitmap at once (`flags.size() <= size()`,
  /// nonzero = NULL), with the same result as building the column with
  /// AppendNull for every flagged row: flagged rows hold the type's
  /// zero, and a bitmap without NULLs is dropped.
  void SetNulls(std::vector<uint8_t> flags);

  /// Boxed value at row `i` (edges: printing, tests, row assembly).
  Value GetValue(uint64_t i) const;

  // --- Whole-column helpers -------------------------------------------------

  /// Copies rows [from, to) into a fresh column.
  BatPtr Slice(uint64_t from, uint64_t to) const;

  /// Copies the candidate rows into a fresh column.
  BatPtr Gather(const Candidates& cand) const;

  /// Debug rendering with a row cap.
  std::string ToString(uint64_t max_rows = 16) const;

 private:
  TypeId type_;
  uint64_t size_;
  // Exactly one of these is active, keyed by the storage class of type_.
  // (A variant would save idle capacity; empty vectors cost nothing, and
  // this keeps hot accessors branch-free.)
  std::vector<uint8_t> bools_;
  std::vector<int64_t> ints_;
  std::vector<double> dbls_;
  std::vector<uint64_t> strs_;  // heap offsets
  StringHeap heap_;
  // Lazy null bitmap: empty while the column has no NULLs; otherwise it
  // may be shorter than size_ — rows beyond its end are non-null (appends
  // through the raw typed paths never have to touch it).
  std::vector<uint8_t> nulls_;
};

/// A named bundle of equally-sized columns: the unit flowing between
/// operators, baskets, tables and result sets.
struct ColumnSet {
  std::vector<std::string> names;
  std::vector<BatPtr> cols;

  uint64_t NumRows() const { return cols.empty() ? 0 : cols[0]->size(); }
  uint64_t NumCols() const { return cols.size(); }

  /// Index of column `name`, or error.
  Result<size_t> Find(std::string_view name) const;

  /// Renders an aligned ASCII table (result printing in examples/tests).
  std::string ToString(uint64_t max_rows = 32) const;

  /// Row `i` as boxed values.
  std::vector<Value> Row(uint64_t i) const;
};

}  // namespace dc

#endif  // DATACELL_BAT_BAT_H_
