// dc_perfbench: the end-to-end DataCell benchmark (see README.md here).
//
//   dc_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                [--workdir <dir>]
//
// One process drives the public Engine API. Inputs are generated up front
// from the seed, so generation never counts as engine time. The load
// generator uses at most two threads of its own (the pushing thread and the
// one-time query thread); a threaded engine adds two scheduler workers and,
// as a fact of the system under test, one emitter delivery thread per
// continuous query. The process is pinned to one CPU (PinToOneCpu), and
// every measured phase runs in a forked child (InChild).
//
// --trace 0 prints the end-to-end metrics; --trace 1 drives the same inputs
// through a synchronous engine with every layer call timed from outside
// (the ledger) and prints the per-layer metrics. The last stdout line is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.

#include <fcntl.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "ledger.h"
#include "storage/wal.h"
#include "workloads.h"

namespace dc::perfbench {
namespace {

namespace fs = std::filesystem;

constexpr int kWorkers = 2;
constexpr int kRecoveryReps = 9;  // traced run
// Measuring rounds run until kTailUs before the end of --seconds, and at
// least until kMinClosedReps closed-loop repetitions, kMinPacedPhases
// open-loop phases and kMinSamples emissions and one-time queries were
// timed. The open loop gets kPacedShare of the measuring time.
constexpr Micros kTailUs = 2500 * kMicrosPerMilli;
constexpr int kMinClosedReps = 8;
constexpr int kMinPacedPhases = 8;
constexpr size_t kMinSamples = 1000;
constexpr double kPacedShare = 0.5;
constexpr Micros kDeliveryTimeout = 60 * kMicrosPerSecond;

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "dc_perfbench: %s\n", what.c_str());
  std::exit(2);
}

void CheckOk(const Status& st, const std::string& what) {
  if (!st.ok()) Die(what + ": " + st.ToString());
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank percentile over exact samples.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

/// Pins the process, and so every thread it or its engines start, to one
/// CPU. The reference host guarantees about one core; further cores come
/// and go with the host's load, and unpinned threaded figures swung by 2-3x
/// between runs with them.
void PinToOneCpu() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpu = c;
  }
  if (cpu < 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  sched_setaffinity(0, sizeof(one), &one);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Makes the calling thread's timed sleeps wake within a microsecond of
/// their due time instead of the default 50 us timer slack. Only the
/// generator threads call it; engine threads keep the default.
void TightTimerSlack() { ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

void SleepUntil(Micros due) {
  for (;;) {
    const Micros left = due - SteadyMicros();
    if (left <= 0) return;
    // No spinning: the generator must not take CPU from the engine.
    std::this_thread::sleep_for(std::chrono::microseconds(left));
  }
}

/// Operation accounting for the result line. Failures are refused pushes,
/// missing/wrong emissions, failed or wrong one-time queries, failed
/// checkpoints or recoveries, and deadline misses. Only wrong or missing
/// output makes the run incorrect.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  int reported = 0;

  void Count(bool ok, bool wrong_output, const std::string& what) {
    attempted++;
    if (ok) return;
    failed++;
    if (wrong_output) correct = false;
    if (reported++ < 10) std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
};

/// Delivered emissions of one query with their delivery stamps.
struct Collector {
  std::mutex mu;
  std::vector<ColumnSet> got;
  std::vector<Micros> at;
};

/// An engine with the workload's standing queries.
struct Live {
  std::vector<std::unique_ptr<Collector>> sinks;
  std::atomic<uint64_t> delivered{0};
  std::vector<int> qids;
  std::unique_ptr<Engine> engine;  // declared last: destroyed first

  Micros LastDelivery() {
    Micros last = 0;
    for (auto& c : sinks) {
      std::lock_guard<std::mutex> lock(c->mu);
      if (!c->at.empty()) last = std::max(last, c->at.back());
    }
    return last;
  }
};

EngineOptions Options(bool threaded, const std::string& dir) {
  EngineOptions o;
  o.scheduler_workers = threaded ? kWorkers : 0;
  o.durability.dir = dir;  // default fsync policy (interval)
  return o;
}

/// Builds the engine: construct, DDL, dimension-table load, submits. With
/// a ledger, every call is a span and deliveries are "emitter.sink" spans.
std::unique_ptr<Live> SetUp(const Workload& w, bool threaded,
                            const std::string& dir, Ledger* ledger) {
  auto live = std::make_unique<Live>();
  {
    Ledger::Scope span(ledger, "engine.construct");
    live->engine = std::make_unique<Engine>(Options(threaded, dir));
  }
  Engine& e = *live->engine;
  CheckOk(e.recovery_status(), "durability bring-up");
  for (const std::string& ddl : w.ddl) {
    Ledger::Scope span(ledger, "plan.ddl");
    CheckOk(e.Execute(ddl), ddl);
  }
  {
    Ledger::Scope span(ledger, "table.load");
    auto table = e.catalog().GetTable(w.table);
    if (!table.ok()) Die("no table " + w.table);
    CheckOk((*table)->AppendColumns(w.table_cols), "table load");
  }
  for (const QuerySpec& q : w.queries) {
    live->sinks.push_back(std::make_unique<Collector>());
    Collector* c = live->sinks.back().get();
    std::atomic<uint64_t>* delivered = &live->delivered;
    Engine::ContinuousOptions opts;
    opts.mode = ExecMode::kIncremental;
    opts.name = q.name;
    opts.sink = [c, delivered, ledger](const ColumnSet& cs) {
      Ledger::Scope span(ledger, "emitter.sink");
      const Micros now = SteadyMicros();
      {
        std::lock_guard<std::mutex> lock(c->mu);
        c->got.push_back(cs);
        c->at.push_back(now);
      }
      delivered->fetch_add(1, std::memory_order_release);
    };
    Ledger::Scope span(ledger, "plan.submit");
    auto id = e.SubmitContinuous(q.sql, opts);
    if (!id.ok()) Die(q.name + ": " + id.status().ToString());
    live->qids.push_back(*id);
  }
  return live;
}

using Expected = std::vector<std::vector<Emission>>;

uint64_t ExpectedTotal(const Expected& exp) {
  uint64_t n = 0;
  for (const auto& q : exp) n += q.size();
  return n;
}

/// Waits (threaded engines) until `n` emissions were delivered.
void WaitDelivered(Live& live, uint64_t n) {
  const Micros deadline = SteadyMicros() + kDeliveryTimeout;
  while (live.delivered.load(std::memory_order_acquire) < n &&
         SteadyMicros() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  live.engine->WaitIdle(1000);
}

/// Compares every delivered emission with the reference.
void Validate(const Workload& w, const Expected& exp, Live& live,
              Outcome* out) {
  for (size_t q = 0; q < w.queries.size(); ++q) {
    const QuerySpec& spec = w.queries[q];
    Collector& c = *live.sinks[q];
    std::lock_guard<std::mutex> lock(c.mu);
    for (size_t k = 0; k < std::max(exp[q].size(), c.got.size()); ++k) {
      if (k >= exp[q].size()) {
        out->Count(false, true, spec.name + ": unexpected extra emission");
        continue;
      }
      if (k >= c.got.size()) {
        out->Count(false, true,
                   spec.name + ": missing emission for boundary " +
                       std::to_string(exp[q][k].boundary_us));
        continue;
      }
      const bool same = SameRows(Canonical(c.got[k], spec.key_cols),
                                 exp[q][k].rows, spec.key_cols, spec.keys_only);
      out->Count(same, true,
                 spec.name + ": wrong emission for boundary " +
                     std::to_string(exp[q][k].boundary_us));
    }
  }
}

/// The durability directory of one phase: "" (transient) unless the
/// workload runs with durability on.
std::string DurableDir(const Workload& w, const std::string& workdir,
                       const char* phase) {
  return w.durable ? workdir + "/" + phase : "";
}

/// fsyncs every file under `dir`, so a later timed phase does not pay for
/// writing back what the harness itself wrote there.
void SyncTree(const std::string& dir) {
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    const int fd = ::open(entry.path().c_str(), O_RDONLY);
    if (fd < 0) continue;
    ::fsync(fd);
    ::close(fd);
  }
}

void RemoveDir(const std::string& dir) {
  std::error_code ec;
  if (!dir.empty()) fs::remove_all(dir, ec);
}

// ---------------------------------------------------------------------------
// Phases
// ---------------------------------------------------------------------------

struct ClosedResult {
  uint64_t rows = 0;
  Micros wall_us = 0;  // first push to last expected delivery
  uint64_t stall_us = 0;
  uint64_t stalls = 0;
  uint64_t resident_hwm = 0;
  SchedulerStats sched;
};

/// Closed loop on a threaded engine: one thread pushes every tick as fast
/// as the bounded baskets admit, then seals; throughput is rows over the
/// time from the first push to the last expected delivery.
ClosedResult RunClosed(const Workload& w, const Expected& exp,
                       const std::string& dir, Outcome* out) {
  RemoveDir(dir);
  auto live = SetUp(w, /*threaded=*/true, dir, nullptr);
  Engine& e = *live->engine;
  const Micros t0 = SteadyMicros();
  for (size_t t = 0; t < w.closed_ticks; ++t) {
    for (size_t s = 0; s < w.streams.size(); ++s) {
      const Status st = e.PushColumns(w.streams[s], w.ticks[t][s]);
      out->Count(st.ok(), false, "push refused: " + st.ToString());
    }
    if (!dir.empty() && (t + 1) % w.checkpoint_every == 0) {
      const Status st = e.Checkpoint();
      out->Count(st.ok(), false, "checkpoint: " + st.ToString());
    }
  }
  for (const std::string& s : w.streams) CheckOk(e.SealStream(s), "seal");
  WaitDelivered(*live, ExpectedTotal(exp));
  ClosedResult r;
  r.rows = w.RowsIn(w.closed_ticks);
  r.wall_us = std::max<Micros>(1, live->LastDelivery() - t0);
  for (const std::string& s : w.streams) {
    auto bs = e.StreamStats(s);
    if (!bs.ok()) continue;
    r.stall_us += static_cast<uint64_t>(bs->stall_micros);
    r.stalls += bs->append_stalls;
    r.resident_hwm = std::max(r.resident_hwm, bs->resident_hwm_rows);
  }
  r.sched = e.SchedStats();
  live->engine.reset();
  Validate(w, exp, *live, out);
  RemoveDir(dir);
  return r;
}

struct PacedResult {
  std::vector<double> emit_ms;   // due -> delivery, per data-closed emission
  std::vector<double> adhoc_ms;  // due -> completion, per one-time query
  std::vector<double> lag_ms;    // how late each push started
  double engine_p50_ms = 0;      // the engine's own latency histograms
  SchedulerStats sched;
};

/// Open loop: tick t is due at start + t / ticks_per_s and is appended
/// through Basket::Append stamped with that due time, whatever the engine's
/// state; emission latency runs from the due time of the tick that closed
/// the window. On a threaded engine a second thread issues one-time
/// queries on their own fixed schedule. Durable workloads log to the WAL
/// here but take no checkpoints.
PacedResult RunPaced(const Workload& w, const Expected& exp, bool threaded,
                     const std::string& dir, Outcome* out) {
  RemoveDir(dir);
  auto live = SetUp(w, threaded, dir, nullptr);
  Engine& e = *live->engine;
  std::vector<Basket*> baskets;
  for (const std::string& s : w.streams) baskets.push_back(e.GetBasket(s));
  const size_t n = w.paced_ticks;
  const Micros start = SteadyMicros() + 20000;
  auto due = [&](size_t t) {
    return start + static_cast<Micros>(static_cast<double>(t) * 1e6 /
                                       w.ticks_per_s);
  };
  const Micros end_due = due(n);
  PacedResult r;

  // One-time queries: on a threaded engine from the second generator
  // thread; on a synchronous one interleaved by due time with the ticks.
  std::vector<double> adhoc_ms;
  Outcome adhoc_out;
  auto query_due = [&](size_t j) {
    return start + static_cast<Micros>(j) * w.adhoc_interval_us;
  };
  auto run_query = [&](size_t j) {
    SleepUntil(query_due(j));
    const AdhocSpec& q = w.AdhocAt(j);
    auto res = e.Query(q.sql);
    adhoc_ms.push_back(static_cast<double>(SteadyMicros() - query_due(j)) /
                       1e3);
    bool ok = res.ok() && (res->NumRows() > 0 || q.exact);
    if (ok && q.exact) ok = SameRows(Canonical(*res, 1), q.expected, 1, false);
    adhoc_out.Count(ok, res.ok(), "one-time query: " + q.sql);
  };
  std::thread adhoc;
  if (threaded) {
    adhoc = std::thread([&] {
      TightTimerSlack();
      for (size_t j = 0; query_due(j) < end_due; ++j) run_query(j);
    });
  }
  TightTimerSlack();
  const Micros push_timeout = threaded ? Basket::kBlockForever : 0;
  size_t next_query = 0;
  for (size_t t = 0; t < n; ++t) {
    const Micros d = due(t);
    while (!threaded && query_due(next_query) < d) run_query(next_query++);
    SleepUntil(d);
    r.lag_ms.push_back(static_cast<double>(SteadyMicros() - d) / 1e3);
    for (size_t s = 0; s < baskets.size(); ++s) {
      const Status st = baskets[s]->Append(w.ticks[t][s], push_timeout, d);
      out->Count(st.ok(), false, "push refused: " + st.ToString());
    }
    if (!threaded) e.Pump();
  }
  const Micros seal_at = SteadyMicros();
  for (const std::string& s : w.streams) CheckOk(e.SealStream(s), "seal");
  if (!threaded) e.Pump();
  WaitDelivered(*live, ExpectedTotal(exp));
  if (adhoc.joinable()) adhoc.join();
  r.sched = e.SchedStats();
  // The emitter records a delivery's latency just after the sink returns;
  // give the last ones a moment to land before comparing counts.
  Histogram engine_hist;
  const Micros settle = SteadyMicros() + 500000;
  do {
    engine_hist = Histogram();
    for (const ContinuousQueryInfo& info : e.Queries()) {
      engine_hist.Merge(info.latency);
    }
  } while (engine_hist.count() < live->delivered.load() &&
           SteadyMicros() < settle);
  r.engine_p50_ms = static_cast<double>(engine_hist.Percentile(0.5)) / 1e3;
  live->engine.reset();
  Validate(w, exp, *live, out);

  // Per-emission latency from the due time of the closing tick; emissions
  // flushed by the final seal are closed by it, not by a tick.
  uint64_t delivered = 0;
  for (size_t q = 0; q < w.queries.size(); ++q) {
    Collector& c = *live->sinks[q];
    delivered += c.at.size();
    for (size_t k = 0; k < c.at.size() && k < exp[q].size(); ++k) {
      const int64_t b = exp[q][k].boundary_us;
      size_t closing = 0;
      bool by_data = true;
      for (int s : w.queries[q].streams) {
        const auto& mx = w.tick_max_ts[static_cast<size_t>(s)];
        const auto end = mx.begin() + static_cast<long>(n);
        const auto it = std::lower_bound(mx.begin(), end, b);
        if (it == end) {
          by_data = false;
          break;
        }
        closing = std::max(closing, static_cast<size_t>(it - mx.begin()));
      }
      const Micros from = by_data ? due(closing) : seal_at;
      const Micros lat = c.at[k] - from;
      if (by_data) r.emit_ms.push_back(static_cast<double>(lat) / 1e3);
      if (w.deadline_us > 0) {
        out->Count(lat <= w.deadline_us, false,
                   w.queries[q].name + ": deadline missed by " +
                       std::to_string(lat - w.deadline_us) + " us");
      }
    }
  }
  if (engine_hist.count() != delivered) {
    std::fprintf(stderr,
                 "cross-check: engine latency histograms hold %llu "
                 "deliveries, the bench saw %llu\n",
                 static_cast<unsigned long long>(engine_hist.count()),
                 static_cast<unsigned long long>(delivered));
    out->Count(false, false, "engine latency count cross-check");
  }
  out->attempted += adhoc_out.attempted;
  out->failed += adhoc_out.failed;
  out->correct = out->correct && adhoc_out.correct;
  r.adhoc_ms = std::move(adhoc_ms);
  RemoveDir(dir);
  return r;
}

/// Feeds `recovery_ticks` into a synchronous durable engine with periodic
/// checkpoints and closes it mid-stream, leaving its directory at `src`.
void MakeRecoverySource(const Workload& w, const std::string& src,
                        Outcome* out) {
  RemoveDir(src);
  auto live = SetUp(w, /*threaded=*/false, src, nullptr);
  Engine& e = *live->engine;
  for (size_t t = 0; t < w.recovery_ticks; ++t) {
    for (size_t s = 0; s < w.streams.size(); ++s) {
      const Status st = e.PushColumns(w.streams[s], w.ticks[t][s]);
      out->Count(st.ok(), false, "push refused: " + st.ToString());
    }
    e.Pump();
    if ((t + 1) % w.checkpoint_every == 0) {
      const Status st = e.Checkpoint();
      out->Count(st.ok(), false, "checkpoint: " + st.ToString());
    }
  }
}

/// Times `reps` fresh engines constructed on copies of `src` (snapshot
/// load + WAL-tail replay) until recovery_status() is OK. Returns the times
/// in seconds. There is no warm-up: a restarted process recovers once.
std::vector<double> TimeRecoveries(const std::string& src,
                                   const std::string& workdir, int reps,
                                   Outcome* out, uint64_t* replayed_rows) {
  std::vector<double> secs;
  for (int rep = 0; rep < reps; ++rep) {
    const std::string dir = workdir + "/recovery-" + std::to_string(rep);
    RemoveDir(dir);
    fs::copy(src, dir, fs::copy_options::recursive);
    SyncTree(dir);
    const Micros t0 = SteadyMicros();
    auto engine = std::make_unique<Engine>(Options(false, dir));
    secs.push_back(static_cast<double>(SteadyMicros() - t0) / 1e6);
    out->Count(engine->recovery_status().ok(), false,
               "recovery: " + engine->recovery_status().ToString());
    *replayed_rows =
        engine->metrics().GetCounter("recovery.replayed_rows")->Value();
    engine.reset();
    RemoveDir(dir);
  }
  return secs;
}

/// Times one fresh set-up of a threaded engine (construct, DDL, table
/// load, submits) after one untimed warm-up set-up.
double TimeSetUp(const Workload& w, const std::string& workdir) {
  const std::string dir = DurableDir(w, workdir, "setup");
  double secs = 0;
  for (int rep = 0; rep < 2; ++rep) {
    RemoveDir(dir);
    const Micros t0 = SteadyMicros();
    auto live = SetUp(w, /*threaded=*/true, dir, nullptr);
    secs = static_cast<double>(SteadyMicros() - t0) / 1e6;
  }
  RemoveDir(dir);
  return secs;
}

// ---------------------------------------------------------------------------
// Synchronous runs (traced and untraced)
// ---------------------------------------------------------------------------

struct FamilyStats {
  uint64_t emissions = 0;
  uint64_t tuples_in = 0;
  uint64_t fragments = 0;
  uint64_t delta_pairs = 0;
  Micros exec_us = 0;
  uint64_t state_bytes_max = 0;  // sampled maximum of cached state
  uint64_t rows_in = 0;          // rows pushed into the family's streams
};

struct SyncResult {
  double wall_ms = 0;            // whole run, set-up to teardown
  double ingest_rows_per_s = 0;  // first push to last delivery
  std::map<std::string, FamilyStats> families;
  uint64_t wal_records = 0, wal_bytes = 0, wal_syncs = 0;
  uint64_t partial_builds = 0, node_hits = 0;
  uint64_t pumps = 0;
};

/// Distinct factories per family (aliased queries share one factory), plus
/// the state and reads of the shared window nodes serving each family.
std::map<std::string, FamilyStats> FamilySnapshot(const Workload& w,
                                                  Live& live) {
  std::map<std::string, FamilyStats> out;
  std::map<std::string, std::string> node_family;
  std::set<const Factory*> seen;
  for (size_t q = 0; q < w.queries.size(); ++q) {
    const FactoryPtr f = live.engine->GetFactory(live.qids[q]);
    if (f == nullptr || !seen.insert(f.get()).second) continue;
    const FactoryStats fs = f->Stats();
    FamilyStats& fam = out[w.queries[q].family];
    fam.emissions += fs.emissions;
    fam.tuples_in += fs.tuples_in;
    fam.fragments += fs.fragments_computed;
    fam.delta_pairs += fs.delta_pairs;
    fam.exec_us += fs.total_exec_micros;
    fam.state_bytes_max += fs.cached_bytes;
  }
  for (const ContinuousQueryInfo& info : live.engine->Queries()) {
    for (size_t q = 0; q < w.queries.size(); ++q) {
      if (live.qids[q] == info.id && !info.shared_node.empty()) {
        node_family[info.shared_node] = w.queries[q].family;
      }
    }
  }
  for (const SharedNodeStats& node : live.engine->GetSharingStats().nodes) {
    auto it = node_family.find(node.label);
    if (it == node_family.end()) continue;
    FamilyStats& fam = out[it->second];
    fam.tuples_in += node.tuples_in;
    fam.state_bytes_max += node.cached_bytes;
  }
  return out;
}

/// Closed loop on a synchronous engine: one thread pushes every tick and
/// pumps, so every layer call runs on it; it also issues a one-time query
/// (with EXPLAIN) every `adhoc_every_ticks` ticks and samples factory state
/// every 16 ticks.
SyncResult RunSync(const Workload& w, const Expected& exp,
                   const std::string& dir, Ledger* ledger, Outcome* out) {
  RemoveDir(dir);
  SyncResult r;
  Ledger local;
  Ledger* timing = ledger != nullptr ? ledger : &local;
  timing->BeginWindow();
  auto live = SetUp(w, /*threaded=*/false, dir, ledger);
  Engine& e = *live->engine;
  std::map<std::string, uint64_t> state_max;
  auto sample_state = [&] {
    Ledger::Scope span(ledger, "factory.stats");
    for (const auto& [family, fam] : FamilySnapshot(w, *live)) {
      state_max[family] = std::max(state_max[family], fam.state_bytes_max);
    }
  };
  const Micros t0 = SteadyMicros();
  for (size_t t = 0; t < w.closed_ticks; ++t) {
    for (size_t s = 0; s < w.streams.size(); ++s) {
      Ledger::Scope span(ledger, "basket.append");
      const Status st = e.PushColumns(w.streams[s], w.ticks[t][s]);
      out->Count(st.ok(), false, "push refused: " + st.ToString());
    }
    {
      Ledger::Scope span(ledger, "scheduler.pump");
      e.Pump();
    }
    r.pumps++;
    if (t % w.adhoc_every_ticks == 0) {
      const AdhocSpec& q = w.AdhocAt(t / w.adhoc_every_ticks);
      {
        Ledger::Scope span(ledger, "plan.compile");
        auto plan = e.ExplainSql(q.sql, plan::PlanMode::kOneTime);
        out->Count(plan.ok(), false, "explain: " + q.sql);
      }
      Ledger::Scope span(ledger, "exec.query");
      auto res = e.Query(q.sql);
      bool ok = res.ok();
      if (ok && q.exact) {
        ok = SameRows(Canonical(*res, 1), q.expected, 1, false);
      }
      out->Count(ok, res.ok(), "one-time query: " + q.sql);
    }
    if (!dir.empty() && (t + 1) % w.checkpoint_every == 0) {
      Ledger::Scope span(ledger, "snapshot.checkpoint");
      const Status st = e.Checkpoint();
      out->Count(st.ok(), false, "checkpoint: " + st.ToString());
    }
    if (t % 16 == 0) sample_state();
  }
  for (const std::string& s : w.streams) {
    Ledger::Scope span(ledger, "basket.seal");
    CheckOk(e.SealStream(s), "seal");
  }
  {
    Ledger::Scope span(ledger, "scheduler.pump");
    e.Pump();
  }
  r.pumps++;
  r.ingest_rows_per_s =
      static_cast<double>(w.RowsIn(w.closed_ticks)) * 1e6 /
      static_cast<double>(std::max<Micros>(1, live->LastDelivery() - t0));
  {
    Ledger::Scope span(ledger, "factory.stats");
    r.families = FamilySnapshot(w, *live);
    for (auto& [family, fam] : r.families) {
      fam.state_bytes_max = std::max(fam.state_bytes_max, state_max[family]);
    }
    for (const SharedNodeStats& node : e.GetSharingStats().nodes) {
      r.partial_builds += node.partial_builds;
      r.node_hits += node.sharing_hits;
    }
    if (!dir.empty()) {
      r.wal_records = e.metrics().GetCounter("wal.records")->Value();
      r.wal_bytes = e.metrics().GetCounter("wal.bytes")->Value();
      r.wal_syncs = e.metrics().GetCounter("wal.syncs")->Value();
    }
  }
  {
    Ledger::Scope span(ledger, "engine.destroy");
    live->engine.reset();
  }
  timing->EndWindow();
  r.wall_ms = timing->WindowMs();
  for (auto& [family, fam] : r.families) {
    std::set<int> streams;
    for (const QuerySpec& q : w.queries) {
      if (q.family != family) continue;
      streams.insert(q.streams.begin(), q.streams.end());
    }
    for (size_t t = 0; t < w.closed_ticks; ++t) {
      for (int s : streams) {
        fam.rows_in += w.ticks[t][static_cast<size_t>(s)][0]->size();
      }
    }
  }
  Validate(w, exp, *live, out);
  RemoveDir(dir);
  return r;
}

/// Times the WAL codec on the workload's own batches through its public
/// entry points, per MB of encoded payload.
struct CodecResult {
  double encode_us_per_mb = 0, crc_us_per_mb = 0, frame_us_per_mb = 0,
         write_us_per_mb = 0;
};

CodecResult TimeWalCodec(const Workload& w, const std::string& dir,
                         Ledger* ledger) {
  RemoveDir(dir);
  fs::create_directories(dir);
  monitor::MetricsRegistry registry;
  storage::WalCounters counters{registry.GetCounter("records"),
                                registry.GetCounter("bytes"),
                                registry.GetCounter("syncs"),
                                registry.GetCounter("truncations")};
  auto writer = storage::WalWriter::Open(storage::WalEnv::Default(),
                                         dir + "/codec.wal",
                                         storage::FsyncPolicy::kNever, 64,
                                         counters);
  if (!writer.ok()) Die("wal open: " + writer.status().ToString());
  using Clock = std::chrono::steady_clock;
  double enc = 0, crc = 0, frame = 0, write = 0, bytes = 0;
  uint32_t crc_sink = 0;
  uint64_t seq = 0;
  auto secs = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::micro>(b - a).count();
  };
  for (size_t t = 0; t < w.closed_ticks; ++t) {
    for (size_t s = 0; s < w.streams.size(); ++s) {
      const auto& cols = w.ticks[t][s];
      const uint64_t rows = cols[0]->size();
      std::string payload;
      auto a = Clock::now();
      {
        Ledger::Scope span(ledger, "wal.encode");
        payload = storage::EncodeBatch(t, seq, rows, cols);
      }
      auto b = Clock::now();
      {
        Ledger::Scope span(ledger, "wal.crc");
        crc_sink ^= storage::Crc32(payload.data(), payload.size());
      }
      auto c = Clock::now();
      {
        Ledger::Scope span(ledger, "wal.frame");
        crc_sink ^= static_cast<uint32_t>(storage::FrameRecord(payload).size());
      }
      auto d = Clock::now();
      {
        Ledger::Scope span(ledger, "wal.write");
        CheckOk((*writer)->Append(payload), "wal append");
      }
      auto f = Clock::now();
      enc += secs(a, b);
      crc += secs(b, c);
      frame += secs(c, d);
      write += secs(d, f);
      bytes += static_cast<double>(payload.size());
      seq += rows;
    }
  }
  writer->reset();
  RemoveDir(dir);
  if (crc_sink == 0x5eed) std::fprintf(stderr, " ");  // keeps the CRCs live
  const double mb = bytes / 1e6;
  return {enc / mb, crc / mb, frame / mb, write / mb};
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(const Outcome& out, const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += out.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

bool WriteAll(int fd, const void* data, size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t k = ::write(fd, p, n);
    if (k <= 0) return false;
    p += k;
    n -= static_cast<size_t>(k);
  }
  return true;
}

bool ReadAll(int fd, void* data, size_t n) {
  char* p = static_cast<char*>(data);
  while (n > 0) {
    const ssize_t k = ::read(fd, p, n);
    if (k <= 0) return false;
    p += k;
    n -= static_cast<size_t>(k);
  }
  return true;
}

/// Runs one measurement in a forked child and returns the numbers it
/// produced. Every phase then starts from the same process state: engines
/// created one after another in one process were measured to slow down
/// after a few instances, which made a phase's figures depend on its
/// position in the run. No engine thread is alive at the fork. The child's
/// operation counts come back in the first three values and are added to
/// `out`.
using ChildFn = std::function<void(Outcome*, std::vector<double>*)>;
std::vector<double> InChild(Outcome* out, const ChildFn& fn) {
  int fds[2];
  if (::pipe(fds) != 0) Die("pipe failed");
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) Die("fork failed");
  if (pid == 0) {
    ::close(fds[0]);
    Outcome child;
    std::vector<double> values;
    fn(&child, &values);
    values.insert(values.begin(), {static_cast<double>(child.attempted),
                                   static_cast<double>(child.failed),
                                   child.correct ? 1.0 : 0.0});
    const uint64_t n = values.size();
    const bool ok = WriteAll(fds[1], &n, sizeof(n)) &&
                    WriteAll(fds[1], values.data(), n * sizeof(double));
    std::fflush(nullptr);
    ::_exit(ok ? 0 : 3);
  }
  ::close(fds[1]);
  uint64_t n = 0;
  std::vector<double> values;
  bool ok = ReadAll(fds[0], &n, sizeof(n)) && n >= 3 && n < (1u << 26);
  if (ok) {
    values.resize(n);
    ok = ReadAll(fds[0], values.data(), n * sizeof(double));
  }
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (!ok || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    Die("measurement child failed");
  }
  out->attempted += static_cast<uint64_t>(values[0]);
  out->failed += static_cast<uint64_t>(values[1]);
  out->correct = out->correct && values[2] != 0;
  return {values.begin() + 3, values.end()};
}

double PeakRssMbWithChildren() {
  rusage ru{};
  getrusage(RUSAGE_CHILDREN, &ru);
  return std::max(PeakRssMb(), static_cast<double>(ru.ru_maxrss) / 1024.0);
}

/// The end-to-end run. The reference host's speed drifts by tens of
/// percent over seconds (a fixed compute loop shows it on every CPU at
/// once), and one closed-loop repetition's throughput varies by as much
/// from the next. So the run takes many short samples of every metric,
/// interleaved across the whole measuring time, and reports the median of
/// each.
int RunEndToEnd(const Workload& w, const std::string& workdir, Micros until) {
  Outcome out;
  const Expected exp_closed = w.reference(w.ticks, w.closed_ticks);
  const Expected exp_paced = w.reference(w.ticks, w.paced_ticks);
  const std::string recovery_src = workdir + "/recovery-src";
  InChild(&out, [&](Outcome* o, std::vector<double>*) {
    MakeRecoverySource(w, recovery_src, o);
  });

  // Each round times one fresh set-up (and, every second round, one
  // recovery), then runs either a closed-loop repetition or an open-loop
  // phase, whichever kind is behind its share of the time. Everything runs
  // in its own child process on a fresh engine.
  std::vector<double> setup_s, recovery_s, rates;
  Micros closed_spent = 0, paced_spent = 0;
  int closed_reps = 0, paced_phases = 0;
  std::vector<double> emit_p50, adhoc_p50;  // per open-loop phase
  size_t emissions = 0, queries = 0;
  auto few_samples = [&] {
    return emissions < kMinSamples || queries < kMinSamples;
  };
  for (int round = 0; closed_reps < kMinClosedReps ||
                      paced_phases < kMinPacedPhases || few_samples() ||
                      SteadyMicros() < until;
       ++round) {
    setup_s.push_back(InChild(&out, [&](Outcome*, std::vector<double>* v) {
      v->push_back(TimeSetUp(w, workdir));
    })[0]);
    std::fprintf(stderr, "sample setup_ms %.4f\n", setup_s.back() * 1e3);
    if (round % 2 == 0) {
      recovery_s.push_back(
          InChild(&out, [&](Outcome* o, std::vector<double>* v) {
            uint64_t replayed = 0;
            *v = TimeRecoveries(recovery_src, workdir, 1, o, &replayed);
          })[0]);
      std::fprintf(stderr, "sample recovery_ms %.3f\n",
                   recovery_s.back() * 1e3);
    }

    const Micros t0 = SteadyMicros();
    const double spent = static_cast<double>(closed_spent + paced_spent);
    bool paced = static_cast<double>(paced_spent) < kPacedShare * spent;
    if (t0 >= until) {
      paced = paced_phases < kMinPacedPhases || few_samples();
    }
    if (!paced) {
      const std::vector<double> c =
          InChild(&out, [&](Outcome* o, std::vector<double>* v) {
            const ClosedResult r = RunClosed(
                w, exp_closed, DurableDir(w, workdir, "closed"), o);
            *v = {static_cast<double>(r.rows), static_cast<double>(r.wall_us)};
          });
      rates.push_back(c[0] * 1e6 / c[1]);
      closed_reps++;
      closed_spent += SteadyMicros() - t0;
      std::fprintf(stderr, "sample closed_rows_per_s %.0f\n", rates.back());
      continue;
    }
    const std::vector<double> p =
        InChild(&out, [&](Outcome* o, std::vector<double>* v) {
          const PacedResult r = RunPaced(w, exp_paced, /*threaded=*/true,
                                         DurableDir(w, workdir, "paced"), o);
          *v = {static_cast<double>(r.emit_ms.size()),
                Percentile(r.emit_ms, 0.5),
                Percentile(r.emit_ms, 0.99),
                static_cast<double>(r.adhoc_ms.size()),
                Percentile(r.adhoc_ms, 0.5),
                Percentile(r.adhoc_ms, 0.99),
                Percentile(r.lag_ms, 0.99)};
        });
    emissions += static_cast<size_t>(p[0]);
    emit_p50.push_back(p[1]);
    queries += static_cast<size_t>(p[3]);
    adhoc_p50.push_back(p[4]);
    paced_phases++;
    paced_spent += SteadyMicros() - t0;
    std::fprintf(stderr,
                 "sample open_loop %.0f emissions p50 %.3f p99 %.3f ms, %.0f "
                 "one-time queries p50 %.3f p99 %.3f ms, generator lag p99 "
                 "%.3f ms\n",
                 p[0], p[1], p[2], p[3], p[4], p[5], p[6]);
  }
  RemoveDir(recovery_src);
  std::fprintf(stderr,
               "%s: %d closed-loop repetitions, %d open-loop phases, %zu "
               "emissions and %zu one-time queries timed\n",
               w.name.c_str(), closed_reps, paced_phases, emissions, queries);
  PrintResult(out, {
      {"setup_s", Median(setup_s), "s"},
      {"ingest_rows_per_s", Median(rates), "rows/s"},
      {"emit_latency_p50_ms", Median(emit_p50), "ms"},
      {"adhoc_latency_p50_ms", Median(adhoc_p50), "ms"},
      {"recovery_s", Median(recovery_s), "s"},
      {"peak_rss_mb", PeakRssMbWithChildren(), "MB"},
  });
  return 0;
}

void PrintCounters(const SyncResult& a, const SyncResult& b) {
  auto u = [](uint64_t v) { return static_cast<unsigned long long>(v); };
  std::fprintf(stderr, "\nsynchronous counters, untraced/traced run:\n");
  for (const auto& [family, fa] : a.families) {
    const FamilyStats& fb = b.families.at(family);
    const bool exact = fa.emissions == fb.emissions &&
                       fa.tuples_in == fb.tuples_in &&
                       fa.fragments == fb.fragments &&
                       fa.delta_pairs == fb.delta_pairs;
    std::fprintf(stderr,
                 "  %-12s emissions %llu/%llu tuples_in %llu/%llu "
                 "fragments %llu/%llu delta_pairs %llu/%llu -> %s\n",
                 family.c_str(), u(fa.emissions), u(fb.emissions),
                 u(fa.tuples_in), u(fb.tuples_in), u(fa.fragments),
                 u(fb.fragments), u(fa.delta_pairs), u(fb.delta_pairs),
                 exact ? "exact" : "DIFFER");
  }
  const bool wal_exact =
      a.wal_records == b.wal_records && a.wal_bytes == b.wal_bytes;
  std::fprintf(stderr, "  wal records %llu/%llu bytes %llu/%llu -> %s\n",
               u(a.wal_records), u(b.wal_records), u(a.wal_bytes),
               u(b.wal_bytes), wal_exact ? "exact" : "DIFFER");
}

int RunTraced(const Workload& w, const std::string& workdir, uint64_t seed) {
  Outcome out;
  const Expected exp_closed = w.reference(w.ticks, w.closed_ticks);
  const Expected exp_paced = w.reference(w.ticks, w.paced_ticks);
  // Threaded runs: backpressure and scheduler figures, hand-off latency.
  const std::string paced_dir = DurableDir(w, workdir, "paced");
  const ClosedResult closed =
      RunClosed(w, exp_closed, DurableDir(w, workdir, "closed"), &out);
  // Open-loop phases are short; pool them up to kMinSamples emissions.
  PacedResult threaded =
      RunPaced(w, exp_paced, /*threaded=*/true, paced_dir, &out);
  while (threaded.emit_ms.size() < kMinSamples) {
    PacedResult more =
        RunPaced(w, exp_paced, /*threaded=*/true, paced_dir, &out);
    for (auto [to, from] : {std::pair{&threaded.emit_ms, &more.emit_ms},
                            {&threaded.adhoc_ms, &more.adhoc_ms},
                            {&threaded.lag_ms, &more.lag_ms}}) {
      to->insert(to->end(), from->begin(), from->end());
    }
  }
  const PacedResult sync_paced =
      RunPaced(w, exp_paced, /*threaded=*/false, paced_dir, &out);

  // Synchronous runs: untraced (baseline, overhead) and traced (ledger).
  const std::string dir = DurableDir(w, workdir, "sync");
  const SyncResult plain = RunSync(w, exp_closed, dir, nullptr, &out);
  Ledger ledger;
  const SyncResult traced = RunSync(w, exp_closed, dir, &ledger, &out);
  const double window_ms = ledger.WindowMs();
  const double covered_ms = ledger.CoveredMs();
  auto spans = ledger.Summarize();

  double append_overhead_us = 0;
  CodecResult codec;
  if (w.durable) {
    Ledger transient;
    RunSync(w, exp_closed, "", &transient, &out);
    const auto tr = transient.Summarize().at("basket.append");
    const auto& du = spans.at("basket.append");
    append_overhead_us = du.total_ms * 1e3 / static_cast<double>(du.calls) -
                         tr.total_ms * 1e3 / static_cast<double>(tr.calls);
    codec = TimeWalCodec(w, workdir + "/codec", &ledger);
  }
  uint64_t replayed = 0;
  const std::string recovery_src = workdir + "/recovery-src";
  MakeRecoverySource(w, recovery_src, &out);
  const double recovery_s = Median(
      TimeRecoveries(recovery_src, workdir, kRecoveryReps, &out, &replayed));
  RemoveDir(recovery_src);

  auto per_call = [&](const char* name, double scale) {
    auto it = spans.find(name);
    if (it == spans.end() || it->second.calls == 0) return 0.0;
    return it->second.total_ms * scale / static_cast<double>(it->second.calls);
  };
  Micros factory_exec_us = 0;
  for (const auto& [family, fam] : traced.families) {
    factory_exec_us += fam.exec_us;
  }
  const double pump_self_ms =
      spans.count("scheduler.pump") ? spans["scheduler.pump"].self_ms : 0;
  const uint64_t pops = threaded.sched.fires + threaded.sched.spurious_pops +
                        closed.sched.fires + closed.sched.spurious_pops;
  const uint64_t rows = w.RowsIn(w.closed_ticks);

  std::vector<Metric> m = {
      {"plan.submit_ms_per_query", per_call("plan.submit", 1), "ms"},
      {"table.load_ms", per_call("table.load", 1), "ms"},
      {"plan.compile_us_per_adhoc", per_call("plan.compile", 1e3), "us"},
      {"exec.run_us_per_adhoc",
       per_call("exec.query", 1e3) - per_call("plan.compile", 1e3), "us"},
      {"basket.append_us_per_batch", per_call("basket.append", 1e3), "us"},
      {"basket.stall_ms", static_cast<double>(closed.stall_us) / 1e3, "ms"},
      {"basket.append_stalls", static_cast<double>(closed.stalls), "count"},
      {"basket.resident_hwm_rows", static_cast<double>(closed.resident_hwm),
       "rows"},
      {"wal.append_overhead_us_per_batch", append_overhead_us, "us"},
      {"wal.encode_us_per_mb", codec.encode_us_per_mb, "us/MB"},
      {"wal.crc_us_per_mb", codec.crc_us_per_mb, "us/MB"},
      {"wal.frame_us_per_mb", codec.frame_us_per_mb, "us/MB"},
      {"wal.write_us_per_mb", codec.write_us_per_mb, "us/MB"},
      {"wal.bytes_per_row",
       static_cast<double>(traced.wal_bytes) / static_cast<double>(rows),
       "B/row"},
      {"wal.syncs", static_cast<double>(traced.wal_syncs), "count"},
      {"snapshot.checkpoint_ms", per_call("snapshot.checkpoint", 1), "ms"},
      {"recovery.replay_rows_per_s",
       recovery_s > 0 ? static_cast<double>(replayed) / recovery_s : 0,
       "rows/s"},
      {"scheduler.pump_us_per_batch",
       (pump_self_ms * 1e3 - static_cast<double>(factory_exec_us)) /
           static_cast<double>(traced.pumps),
       "us"},
      {"scheduler.spurious_pop_frac",
       pops == 0 ? 0
                 : static_cast<double>(threaded.sched.spurious_pops +
                                       closed.sched.spurious_pops) /
                       static_cast<double>(pops),
       "frac"},
      {"scheduler.steals",
       static_cast<double>(threaded.sched.steals + closed.sched.steals),
       "count"},
      {"scheduler.handoff_ms_p50",
       Percentile(threaded.emit_ms, 0.5) - Percentile(sync_paced.emit_ms, 0.5),
       "ms"},
  };
  for (const char* family : {"agg", "table_join", "stream_join", "lr"}) {
    FamilyStats fam;
    auto it = traced.families.find(family);
    if (it != traced.families.end()) fam = it->second;
    const std::string p = std::string("factory.") + family;
    m.push_back({p + ".exec_us_per_emission",
                 fam.emissions ? static_cast<double>(fam.exec_us) /
                                     static_cast<double>(fam.emissions)
                               : 0,
                 "us"});
    m.push_back({p + ".tuples_in_per_row",
                 fam.rows_in ? static_cast<double>(fam.tuples_in) /
                                   static_cast<double>(fam.rows_in)
                             : 0,
                 "ratio"});
    m.push_back(
        {p + ".state_bytes", static_cast<double>(fam.state_bytes_max), "B"});
    if (std::strcmp(family, "stream_join") == 0) {
      m.push_back({"factory.stream_join.delta_pairs_per_emission",
                   fam.emissions ? static_cast<double>(fam.delta_pairs) /
                                       static_cast<double>(fam.emissions)
                                 : 0,
                   "pairs"});
    }
  }
  const uint64_t builds = traced.partial_builds;
  m.push_back({"sharing.hit_ratio",
               builds + traced.node_hits
                   ? static_cast<double>(traced.node_hits) /
                         static_cast<double>(builds + traced.node_hits)
                   : 0,
               "frac"});
  m.push_back({"sharing.partial_builds", static_cast<double>(builds), "count"});
  m.push_back({"open_loop.emit_latency_p99_ms",
               Percentile(threaded.emit_ms, 0.99), "ms"});
  m.push_back({"open_loop.adhoc_latency_p99_ms",
               Percentile(threaded.adhoc_ms, 0.99), "ms"});
  m.push_back({"driver.lag_p99_ms", Percentile(threaded.lag_ms, 0.99), "ms"});
  m.push_back(
      {"trace.overhead_frac", traced.wall_ms / plain.wall_ms - 1, "frac"});
  m.push_back({"ledger.coverage_frac", covered_ms / window_ms, "frac"});
  m.push_back({"sync.ingest_rows_per_s", plain.ingest_rows_per_s, "rows/s"});

  // Ledger table: self time per layer over the traced synchronous run.
  std::fprintf(stderr,
               "\nledger (%s, seed %llu): synchronous traced run %.1f ms\n",
               w.name.c_str(), static_cast<unsigned long long>(seed),
               window_ms);
  std::fprintf(stderr, "  %-22s %8s %12s %12s %7s\n", "span", "calls",
               "total ms", "self ms", "share");
  for (const auto& [name, t] : spans) {
    std::fprintf(stderr, "  %-22s %8llu %12.2f %12.2f %6.1f%%\n", name.c_str(),
                 static_cast<unsigned long long>(t.calls), t.total_ms,
                 t.self_ms, 100.0 * t.self_ms / window_ms);
  }
  std::fprintf(stderr, "  %-22s %8s %12s %12.2f %6.1f%%\n", "unaccounted", "",
               "", window_ms - covered_ms,
               100.0 * (window_ms - covered_ms) / window_ms);
  std::fprintf(stderr, "  (factory exec inside scheduler.pump: %.2f ms)\n",
               static_cast<double>(factory_exec_us) / 1e3);
  std::fprintf(stderr,
               "  threaded open loop: emission p50 %.3f ms by the bench, "
               "%.3f ms by the engine's latency histograms\n",
               Percentile(threaded.emit_ms, 0.5), threaded.engine_p50_ms);
  PrintCounters(plain, traced);

  const std::string trace_path =
      fs::path(workdir).parent_path().string() + "/trace_" + w.name + ".json";
  if (!ledger.WriteChromeTrace(trace_path)) Die("cannot write " + trace_path);
  std::fprintf(stderr, "wrote %s\n", trace_path.c_str());
  if (covered_ms < 0.9 * window_ms) {
    std::fprintf(stderr, "ledger covers only %.1f%% of the traced run\n",
                 100.0 * covered_ms / window_ms);
  }
  PrintResult(out, m);
  return 0;
}

}  // namespace
}  // namespace dc::perfbench

int main(int argc, char** argv) {
  using namespace dc::perfbench;
  std::string workload, workdir = ".bench_build/work";
  uint64_t seed = 1;
  int seconds = 10;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      trace = std::atoi(value.c_str());
    } else if (flag == "--workdir") {
      workdir = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (seconds < 1) Die("--seconds must be >= 1");
  const dc::Micros until =
      dc::SteadyMicros() + seconds * dc::kMicrosPerSecond - kTailUs;
  PinToOneCpu();
  auto w = MakeWorkload(workload, seed);
  if (!w.ok()) Die(w.status().ToString());
  workdir += "/" + workload + "-" + std::to_string(::getpid());
  std::filesystem::create_directories(workdir);
  const int rc = trace != 0 ? RunTraced(*w, workdir, seed)
                            : RunEndToEnd(*w, workdir, until);
  std::error_code ec;
  std::filesystem::remove_all(workdir, ec);
  return rc;
}
