// The benchmark's three workloads: their inputs (generated up front from a
// seed), their standing and one-time queries, and an independent reference
// for every continuous query's emissions (computed here by brute force,
// never by the engine).

#ifndef DATACELL_PERFBENCH_WORKLOADS_H_
#define DATACELL_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bat/bat.h"
#include "util/clock.h"
#include "util/result.h"

namespace dc::perfbench {

/// One result row with every value widened to double (SQL NULL = NaN).
using Row = std::vector<double>;

/// Canonical form of one emission or query result: rows sorted by their
/// leading key columns, so comparison does not depend on output order.
struct Emission {
  int64_t boundary_us = 0;  // window end (RANGE boundary) it belongs to
  std::vector<Row> rows;
};

struct QuerySpec {
  std::string name;
  std::string sql;
  /// Operator family the per-layer ledger groups it under:
  /// "agg", "table_join", "stream_join" or "lr".
  std::string family;
  std::vector<int> streams;  // indices into Workload::streams
  size_t key_cols = 0;       // leading integer key columns
  /// Compare only the key columns (the reference gives keys only).
  bool keys_only = false;
};

struct AdhocSpec {
  std::string sql;
  /// True when the result is deterministic (a table read) and must equal
  /// `expected`; basket reads are as-of-now and only checked for success.
  bool exact = false;
  std::vector<Row> expected;
};

struct Workload {
  std::string name;
  bool durable = false;
  std::vector<std::string> ddl;
  std::string table;  // dimension table loaded with Table::AppendColumns
  std::vector<BatPtr> table_cols;
  std::vector<std::string> streams;
  std::vector<QuerySpec> queries;
  std::vector<AdhocSpec> adhoc;  // {table read, basket read}

  /// ticks[t][s]: the batch stream s receives at tick t (every stream gets
  /// one batch per tick; a tick is the unit of the open-loop schedule).
  using Ticks = std::vector<std::vector<std::vector<BatPtr>>>;
  Ticks ticks;
  /// tick_max_ts[s][t]: largest event timestamp in ticks[t][s].
  std::vector<std::vector<Micros>> tick_max_ts;

  size_t closed_ticks = 0;     // ticks the closed loop pushes
  size_t paced_ticks = 0;      // ticks one open-loop phase pushes (a prefix)
  double ticks_per_s = 0;      // open-loop offered rate
  Micros adhoc_interval_us = 0;  // open-loop one-time query schedule
  size_t adhoc_every_ticks = 0;  // synchronous runs: one query per N ticks
  Micros deadline_us = 0;      // per-emission deadline; 0 = none
  size_t checkpoint_every = 0;  // durable runs: Checkpoint() per N ticks
  size_t recovery_ticks = 0;    // ticks fed before the recovery measurement

  /// Expected emissions of every query (outer index = queries) when the
  /// first `n` of `ticks` are pushed and every stream is then sealed.
  std::function<std::vector<std::vector<Emission>>(const Ticks& ticks,
                                                   size_t n)>
      reference;

  uint64_t RowsIn(size_t n) const;

  /// The j-th one-time query of a schedule: three table reads, then one
  /// basket read. The table read dominates so the median is not the
  /// boundary between two query costs.
  const AdhocSpec& AdhocAt(size_t j) const {
    return adhoc[j % 4 == 3 ? 1 : 0];
  }
};

/// Names accepted by MakeWorkload, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Builds a workload's inputs and queries from `seed`. InvalidArgument for
/// an unknown name.
Result<Workload> MakeWorkload(const std::string& name, uint64_t seed);

/// Canonicalizes an engine result (see Emission).
std::vector<Row> Canonical(const ColumnSet& cs, size_t key_cols);

/// True when `got` matches `want` (keys exact, values to a relative 1e-9).
bool SameRows(const std::vector<Row>& got, const std::vector<Row>& want,
              size_t key_cols, bool keys_only);

}  // namespace dc::perfbench

#endif  // DATACELL_PERFBENCH_WORKLOADS_H_
