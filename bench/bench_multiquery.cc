// E5 — "Query Network Characteristics" (paper §4, Fig. 3): many standing
// queries sharing one stream basket.
//
// Part 1 (sync engine): N queries (mixed shapes) register on one packet
// stream; the harness feeds a fixed input and reports total processing
// time, per-query cost, and the shared basket's drop behaviour (tuples
// leave only after the slowest reader consumed them). With --dot, also
// emits the Graphviz query network (Fig. 1/Fig. 3 reproduction).
//
// Part 2 (threaded engines): the scheduler scaling sweep — fixed query
// count, worker count swept — measuring fire throughput of the one-FIFO
// scheduler at 1, 2 and 4 workers. Emits BENCH_scheduler.json (see
// docs/BENCHMARKS.md for the schema).
//
// `--smoke` shrinks the row count and skips the sync table so CI can run
// the sweep cheaply and archive the JSON.
//
// Expected shape: ingestion is shared (one basket append per batch
// regardless of N); total execution grows ~linearly with N; resident
// basket size is bounded by the largest window, not by N; sweep fires/s
// flat to rising in worker count (given the cores to back it).

#include <cstdio>
#include <cstring>
#include <set>

#include "bench/bench_common.h"
#include "monitor/network.h"
#include "workload/generators.h"

namespace dc {
namespace {

using bench::Banner;
using bench::QueryOpts;
using bench::Sync;

constexpr uint64_t kRows = 40000;
constexpr Micros kTsStep = 100;

std::string QuerySql(int i) {
  switch (i % 4) {
    case 0:
      return StrFormat(
          "SELECT count(*), sum(bytes) FROM pkts "
          "[RANGE 1 SECONDS SLIDE 250 MILLISECONDS] WHERE port = %lld",
          static_cast<long long>(i % 2 == 0 ? 80 : 443));
    case 1:
      return "SELECT port, count(*) FROM pkts "
             "[RANGE 1 SECONDS SLIDE 250 MILLISECONDS] GROUP BY port";
    case 2:
      return StrFormat(
          "SELECT src, sum(bytes) FROM pkts "
          "[RANGE 1 SECONDS SLIDE 500 MILLISECONDS] WHERE bytes > %d "
          "GROUP BY src ORDER BY sum(bytes) DESC LIMIT 10",
          200 + (i * 37) % 400);
    default:
      return "SELECT avg(bytes), max(bytes) FROM pkts "
             "[RANGE 2 SECONDS SLIDE 500 MILLISECONDS]";
  }
}

/// One measured point of the worker-count sweep.
struct SweepPoint {
  int workers = 0;
  Micros wall = 0;
  SchedulerStats sched;
};

SweepPoint RunSweep(int workers, int queries,
                    const std::vector<std::vector<BatPtr>>& batches) {
  EngineOptions o;
  o.scheduler_workers = workers;
  Engine engine(o);
  DC_CHECK_OK(engine.Execute(workload::PacketDdl("pkts")));
  for (int i = 0; i < queries; ++i) {
    DC_CHECK_OK(engine
                    .SubmitContinuous(QuerySql(i),
                                      QueryOpts(ExecMode::kIncremental,
                                                StrFormat("q%d", i),
                                                bench::NullSink()))
                    .status());
  }
  Stopwatch watch;
  for (const auto& batch : batches) {
    DC_CHECK_OK(engine.PushColumns("pkts", batch));
  }
  DC_CHECK_OK(engine.SealStream("pkts"));
  if (!engine.WaitIdle(120000)) {
    printf("  !! WaitIdle timed out at %d workers\n", workers);
  }
  SweepPoint p;
  p.workers = workers;
  p.wall = watch.ElapsedMicros();
  p.sched = engine.SchedStats();
  return p;
}

void WriteSchedulerJson(const std::vector<SweepPoint>& points, int queries,
                        uint64_t rows) {
  FILE* f = fopen("BENCH_scheduler.json", "w");
  if (f == nullptr) {
    printf("  !! cannot write BENCH_scheduler.json\n");
    return;
  }
  fprintf(f, "{\n  \"bench\": \"scheduler\",\n");
  fprintf(f, "  \"generated_by\": \"bench_multiquery\",\n");
  fprintf(f, "  \"rows\": %llu,\n  \"queries\": %d,\n  \"sweep\": [\n",
          static_cast<unsigned long long>(rows), queries);
  for (size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& p = points[i];
    const double wall_s =
        static_cast<double>(p.wall) / static_cast<double>(kMicrosPerSecond);
    fprintf(f,
            "    {\"workers\": %d, \"wall_ms\": %.3f, "
            "\"fires\": %llu, \"fires_per_s\": %.1f, \"rows_per_s\": %.1f, "
            "\"max_queue_depth\": %llu, \"enqueues\": %llu, "
            "\"spurious_pops\": %llu, \"notifications\": %llu}%s\n",
            p.workers, static_cast<double>(p.wall) / 1000.0,
            static_cast<unsigned long long>(p.sched.fires),
            static_cast<double>(p.sched.fires) / wall_s,
            static_cast<double>(rows) / wall_s,
            static_cast<unsigned long long>(p.sched.max_queue_depth),
            static_cast<unsigned long long>(p.sched.enqueues),
            static_cast<unsigned long long>(p.sched.spurious_pops),
            static_cast<unsigned long long>(p.sched.notifications),
            i + 1 < points.size() ? "," : "");
  }
  fprintf(f, "  ]\n}\n");
  fclose(f);
  printf("\nwrote BENCH_scheduler.json (%zu sweep points)\n", points.size());
}

// --- E5c: common-subexpression sharing (docs/SHARING.md) ------------------

/// One engine run of the shared-prefix family: `queries` standing queries
/// that differ only in their HAVING constant, so under sharing they ride
/// one window node (one basket reader, one partial build per basic
/// window) while unshared each keeps a private factory.
struct SharingRun {
  Micros wall = 0;
  Micros exec = 0;          // unique-factory total_exec_micros
  uint64_t builds = 0;      // unique-factory fragments_computed
  uint64_t sharing_hits = 0;
  uint64_t shared_nodes = 0;
  uint64_t readers = 0;
  uint64_t emissions = 0;
};

SharingRun RunSharedPrefix(bool sharing, int queries,
                           const std::vector<std::vector<BatPtr>>& batches) {
  EngineOptions o = Sync();
  o.enable_sharing = sharing;
  Engine engine(o);
  DC_CHECK_OK(engine.Execute(workload::PacketDdl("pkts")));
  std::vector<int> qids;
  for (int i = 0; i < queries; ++i) {
    auto qid = engine.SubmitContinuous(
        StrFormat("SELECT port, count(*), sum(bytes) FROM pkts "
                  "[RANGE 1 SECONDS SLIDE 250 MILLISECONDS] "
                  "GROUP BY port HAVING count(*) > %d ORDER BY port", i),
        QueryOpts(ExecMode::kIncremental, StrFormat("p%d", i),
                  bench::NullSink()));
    DC_CHECK_OK(qid.status());
    qids.push_back(*qid);
  }
  SharingRun r;
  r.wall = bench::FeedAndPump(engine, "pkts", batches);
  std::set<const Factory*> seen;  // dedupe tier-F-aliased factories
  for (int qid : qids) {
    const auto f = engine.GetFactory(qid);
    if (!seen.insert(f.get()).second) continue;
    const FactoryStats fs = f->Stats();
    r.builds += fs.fragments_computed;
    r.exec += fs.total_exec_micros;
    r.emissions += fs.emissions;
  }
  const SharingStats ss = engine.GetSharingStats();
  r.sharing_hits = ss.sharing_hits;
  r.shared_nodes = ss.shared_nodes;
  r.readers = engine.StreamStats("pkts")->readers;
  return r;
}

void PrintSharingRow(const char* label, const SharingRun& r) {
  printf("%9s | %10.1f %10.1f | %10llu %10llu | %6llu %8llu\n", label,
         static_cast<double>(r.wall) / 1000.0,
         static_cast<double>(r.exec) / 1000.0,
         static_cast<unsigned long long>(r.builds),
         static_cast<unsigned long long>(r.sharing_hits),
         static_cast<unsigned long long>(r.shared_nodes),
         static_cast<unsigned long long>(r.readers));
}

void SharingJsonSection(FILE* f, const char* key, const SharingRun& r,
                        const char* trail) {
  fprintf(f,
          "  \"%s\": {\"wall_ms\": %.3f, \"exec_ms\": %.3f, "
          "\"partial_builds\": %llu, \"sharing_hits\": %llu, "
          "\"shared_nodes\": %llu, \"stream_readers\": %llu, "
          "\"emissions\": %llu}%s\n",
          key, static_cast<double>(r.wall) / 1000.0,
          static_cast<double>(r.exec) / 1000.0,
          static_cast<unsigned long long>(r.builds),
          static_cast<unsigned long long>(r.sharing_hits),
          static_cast<unsigned long long>(r.shared_nodes),
          static_cast<unsigned long long>(r.readers),
          static_cast<unsigned long long>(r.emissions), trail);
}

/// BENCH_multiquery.json — schema in docs/BENCHMARKS.md. Gated in CI by
/// scripts/check_bench_regression.py --multiquery: the shared run must do
/// O(1) partial builds per slide regardless of query count.
void WriteMultiqueryJson(int queries, uint64_t rows, const SharingRun& shared,
                         const SharingRun& unshared) {
  FILE* f = fopen("BENCH_multiquery.json", "w");
  if (f == nullptr) {
    printf("  !! cannot write BENCH_multiquery.json\n");
    return;
  }
  const double ratio = shared.builds == 0
                           ? 0.0
                           : static_cast<double>(unshared.builds) /
                                 static_cast<double>(shared.builds);
  fprintf(f, "{\n  \"bench\": \"multiquery\",\n");
  fprintf(f, "  \"generated_by\": \"bench_multiquery\",\n");
  fprintf(f, "  \"rows\": %llu,\n  \"queries\": %d,\n",
          static_cast<unsigned long long>(rows), queries);
  SharingJsonSection(f, "shared", shared, ",");
  SharingJsonSection(f, "unshared", unshared, ",");
  fprintf(f, "  \"build_ratio\": %.2f\n}\n", ratio);
  fclose(f);
  printf("\nwrote BENCH_multiquery.json (build ratio %.1fx)\n", ratio);
}

void RunSharingExperiment(uint64_t rows,
                          const std::vector<std::vector<BatPtr>>& batches) {
  Banner("E5c", "shared-prefix family: one window node vs N private factories");
  constexpr int kSharedQueries = 32;
  printf("\n%d queries differing only in HAVING constant, %llu rows\n",
         kSharedQueries, static_cast<unsigned long long>(rows));
  printf("\n%9s | %10s %10s | %10s %10s | %6s %8s\n", "mode", "wall ms",
         "exec ms", "builds", "hits", "nodes", "readers");
  printf("%s\n", std::string(76, '-').c_str());
  const SharingRun shared = RunSharedPrefix(true, kSharedQueries, batches);
  const SharingRun unshared = RunSharedPrefix(false, kSharedQueries, batches);
  PrintSharingRow("shared", shared);
  PrintSharingRow("unshared", unshared);
  WriteMultiqueryJson(kSharedQueries, rows, shared, unshared);
}

}  // namespace
}  // namespace dc

int main(int argc, char** argv) {
  using namespace dc;
  const bool want_dot = argc > 1 && strcmp(argv[1], "--dot") == 0;
  const bool smoke = argc > 1 && strcmp(argv[1], "--smoke") == 0;
  const uint64_t rows = smoke ? 8000 : kRows;

  workload::PacketConfig config;
  config.ts_step = kTsStep;
  std::vector<std::vector<BatPtr>> batches;
  for (uint64_t off = 0; off < rows; off += 1000) {
    batches.push_back(workload::PacketBatch(config, off, 1000));
  }

  // E5b: the scheduler scaling sweep. Skipped under --dot, which only
  // wants the query-network graph from the E5 section below.
  if (!want_dot) {
    Banner("E5b", "scheduler scaling: fire throughput vs worker count");
    const int sweep_queries = smoke ? 8 : 16;
    printf("\n%d queries, %llu rows, one ready queue\n",
           sweep_queries, static_cast<unsigned long long>(rows));
    printf("\n%7s | %10s %10s %12s | %8s %10s %10s\n", "workers", "wall ms",
           "fires", "fires/s", "maxq", "spurious", "notifs");
    printf("%s\n", std::string(80, '-').c_str());
    std::vector<SweepPoint> points;
    for (int workers : {1, 2, 4}) {
      points.push_back(RunSweep(workers, sweep_queries, batches));
      const SweepPoint& p = points.back();
      const double wall_s =
          static_cast<double>(p.wall) / static_cast<double>(kMicrosPerSecond);
      printf("%7d | %10.1f %10llu %12.1f | %8llu %10llu %10llu\n", p.workers,
             static_cast<double>(p.wall) / 1000.0,
             static_cast<unsigned long long>(p.sched.fires),
             static_cast<double>(p.sched.fires) / wall_s,
             static_cast<unsigned long long>(p.sched.max_queue_depth),
             static_cast<unsigned long long>(p.sched.spurious_pops),
             static_cast<unsigned long long>(p.sched.notifications));
    }
    WriteSchedulerJson(points, sweep_queries, rows);
    RunSharingExperiment(rows, batches);
    if (smoke) return 0;
  }

  Banner("E5", "multi-query networks over one shared basket");

  printf("\n%4s | %12s %14s | %12s %12s %14s\n", "N", "wall ms",
         "rows/s", "exec ms", "exec/query", "basket peak");
  printf("%s\n", std::string(80, '-').c_str());
  for (int n : {1, 2, 4, 8, 16, 32, 64}) {
    Engine engine(Sync());
    DC_CHECK_OK(engine.Execute(workload::PacketDdl("pkts")));
    std::vector<int> qids;
    for (int i = 0; i < n; ++i) {
      auto qid = engine.SubmitContinuous(
          QuerySql(i), QueryOpts(ExecMode::kIncremental,
                                 StrFormat("q%d", i), bench::NullSink()));
      DC_CHECK_OK(qid.status());
      qids.push_back(*qid);
    }
    uint64_t peak_resident = 0;
    Stopwatch watch;
    for (const auto& batch : batches) {
      DC_CHECK_OK(engine.PushColumns("pkts", batch));
      engine.Pump();
      peak_resident =
          std::max(peak_resident, engine.StreamStats("pkts")->resident_rows);
    }
    DC_CHECK_OK(engine.SealStream("pkts"));
    engine.Pump();
    const Micros wall = watch.ElapsedMicros();
    Micros exec_total = 0;
    std::set<const Factory*> seen;  // identical texts alias one factory
    for (int qid : qids) {
      const auto f = engine.GetFactory(qid);
      if (seen.insert(f.get()).second) {
        exec_total += f->Stats().total_exec_micros;
      }
    }
    printf("%4d | %12.1f %14.0f | %12.1f %12.1f %14llu\n", n,
           static_cast<double>(wall) / 1000.0,
           static_cast<double>(kRows) * kMicrosPerSecond /
               static_cast<double>(wall),
           static_cast<double>(exec_total) / 1000.0,
           static_cast<double>(exec_total) / 1000.0 / n,
           static_cast<unsigned long long>(peak_resident));
    if (want_dot && n == 4) {
      printf("\n-- query network DOT (N=4), Fig. 1/3 reproduction --\n%s\n",
             monitor::ExportDot(engine).c_str());
    }
    // All readers consumed everything: bounded basket memory.
    const auto stats = *engine.StreamStats("pkts");
    if (stats.resident_rows > peak_resident) {
      printf("  !! basket did not shrink\n");
    }
  }
  printf("\nrun with --dot to also print the Graphviz query network.\n");
  return 0;
}
