// E7 — durability overhead: the same fixed ingest workload with the WAL
// off, on with fsync=never (append-only logging, OS-buffered), and on
// with the default fsync=interval policy (docs/DURABILITY.md). Reports
// wall time, ingest throughput, and the wal.* counters per configuration,
// interleaving repetitions (off/never/interval, off/never/interval, ...)
// and keeping each configuration's best run so one cold file cache
// cannot bias a single arm.
//
// Also reports recovery_ms: the best of kReps cold opens (recovery of the
// whole log, no checkpoint) of the last fsync=never run's directory.
// Report-only; no gate reads it.
//
// Emits BENCH_wal.json (schema in docs/BENCHMARKS.md), gated in CI by
// scripts/check_bench_regression.py --wal: the best fsync=never wall
// must stay within 2x of the best durability-off wall, with no absolute
// slack — the WAL rides the existing batch-ordinal log and encodes
// columns in bulk, so its cost is one framed append per batch, not a
// per-row tax.
//
// Always 200k rows (~0.6 s for all reps): at smaller sizes the walls are
// too short for a ratio-only gate to mean anything.

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "storage/wal.h"
#include "workload/generators.h"

namespace dc {
namespace {

using bench::Banner;
using bench::QueryOpts;
using bench::Sync;

constexpr uint64_t kRows = 200000;
constexpr uint64_t kBatchRows = 1000;
constexpr Micros kTsStep = 100;
constexpr int kReps = 5;

struct WalConfig {
  const char* key;    // JSON section name
  bool durable;
  storage::FsyncPolicy fsync = storage::FsyncPolicy::kNever;
};

struct WalRun {
  Micros wall = 0;
  uint64_t records = 0;
  uint64_t bytes = 0;
  uint64_t syncs = 0;
};

std::string FreshDir() {
  std::string tmpl = std::filesystem::temp_directory_path() /
                     "dc_bench_wal_XXXXXX";
  if (::mkdtemp(tmpl.data()) == nullptr) {
    std::perror("mkdtemp");
    std::exit(1);
  }
  return tmpl;
}

/// One run of `cfg`. The durability directory is removed afterwards
/// unless `keep_dir` is given, which then receives it.
WalRun RunOnce(const WalConfig& cfg,
               const std::vector<std::vector<BatPtr>>& batches,
               std::string* keep_dir = nullptr) {
  EngineOptions o = Sync();
  std::string dir;
  if (cfg.durable) {
    dir = FreshDir();
    o.durability.dir = dir;
    o.durability.fsync = cfg.fsync;
  }
  WalRun r;
  {
    Engine engine(o);
    DC_CHECK_OK(engine.Execute(workload::PacketDdl("pkts")));
    DC_CHECK_OK(engine
                    .SubmitContinuous(
                        "SELECT port, count(*), sum(bytes) FROM pkts "
                        "[RANGE 1 SECONDS SLIDE 250 MILLISECONDS] "
                        "GROUP BY port",
                        QueryOpts(ExecMode::kIncremental, "agg",
                                  bench::NullSink()))
                    .status());
    DC_CHECK_OK(engine
                    .SubmitContinuous(
                        "SELECT count(*), avg(bytes) FROM pkts "
                        "[RANGE 2 SECONDS SLIDE 500 MILLISECONDS]",
                        QueryOpts(ExecMode::kIncremental, "scalar",
                                  bench::NullSink()))
                    .status());
    r.wall = bench::FeedAndPump(engine, "pkts", batches);
    r.records = engine.metrics().GetCounter("wal.records")->Value();
    r.bytes = engine.metrics().GetCounter("wal.bytes")->Value();
    r.syncs = engine.metrics().GetCounter("wal.syncs")->Value();
  }
  if (keep_dir != nullptr) {
    *keep_dir = dir;
  } else if (!dir.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
  return r;
}

/// Best wall time, in ms, of `reps` engine constructions on `dir` — each
/// one a full recovery. Recovery leaves the logs as it found them, so
/// every open replays the same history.
double BestRecoveryMs(const std::string& dir, int reps) {
  EngineOptions o = Sync();
  o.durability.dir = dir;
  o.durability.fsync = storage::FsyncPolicy::kNever;
  Micros best = 0;
  for (int rep = 0; rep < reps; ++rep) {
    const Micros start = SteadyMicros();
    Engine engine(o);
    const Micros wall = SteadyMicros() - start;
    DC_CHECK_OK(engine.recovery_status());
    if (rep == 0 || wall < best) best = wall;
  }
  return static_cast<double>(best) / 1000.0;
}

void PrintRow(const char* label, const WalRun& r, uint64_t rows,
              const WalRun& base) {
  const double wall_ms = static_cast<double>(r.wall) / 1000.0;
  const double rows_per_s = static_cast<double>(rows) * kMicrosPerSecond /
                            static_cast<double>(r.wall);
  printf("%14s | %10.1f %12.0f | %9llu %10llu %8llu | %6.2fx\n", label,
         wall_ms, rows_per_s, static_cast<unsigned long long>(r.records),
         static_cast<unsigned long long>(r.bytes),
         static_cast<unsigned long long>(r.syncs),
         static_cast<double>(r.wall) / static_cast<double>(base.wall));
}

void JsonSection(FILE* f, const char* key, const WalRun& r, uint64_t rows,
                 const char* trail) {
  fprintf(f,
          "  \"%s\": {\"wall_ms\": %.3f, \"rows_per_s\": %.1f, "
          "\"wal_records\": %llu, \"wal_bytes\": %llu, \"wal_syncs\": "
          "%llu}%s\n",
          key, static_cast<double>(r.wall) / 1000.0,
          static_cast<double>(rows) * kMicrosPerSecond /
              static_cast<double>(r.wall),
          static_cast<unsigned long long>(r.records),
          static_cast<unsigned long long>(r.bytes),
          static_cast<unsigned long long>(r.syncs), trail);
}

}  // namespace
}  // namespace dc

int main() {
  using namespace dc;
  const uint64_t rows = kRows;

  workload::PacketConfig config;
  config.ts_step = kTsStep;
  std::vector<std::vector<BatPtr>> batches;
  for (uint64_t off = 0; off < rows; off += kBatchRows) {
    batches.push_back(workload::PacketBatch(config, off, kBatchRows));
  }

  Banner("E7", "durability overhead: WAL off vs fsync=never vs fsync=interval");
  printf("\n%llu rows in %zu batches, 2 standing queries, best of %d "
         "interleaved reps\n",
         static_cast<unsigned long long>(rows), batches.size(), kReps);

  const WalConfig configs[] = {
      {"off", false},
      {"fsync_never", true, storage::FsyncPolicy::kNever},
      {"fsync_interval", true, storage::FsyncPolicy::kInterval},
  };
  WalRun best[3];
  std::string never_dir;
  for (int rep = 0; rep < kReps; ++rep) {
    for (int c = 0; c < 3; ++c) {
      const bool keep = c == 1 && rep == kReps - 1;
      const WalRun r = RunOnce(configs[c], batches, keep ? &never_dir : nullptr);
      if (rep == 0 || r.wall < best[c].wall) best[c] = r;
    }
  }
  const double recovery_ms = BestRecoveryMs(never_dir, kReps);
  {
    std::error_code ec;
    std::filesystem::remove_all(never_dir, ec);
  }

  printf("\n%14s | %10s %12s | %9s %10s %8s | %7s\n", "config", "wall ms",
         "rows/s", "records", "bytes", "syncs", "vs off");
  printf("%s\n", std::string(84, '-').c_str());
  for (int c = 0; c < 3; ++c) {
    PrintRow(configs[c].key, best[c], rows, best[0]);
  }

  FILE* f = fopen("BENCH_wal.json", "w");
  if (f == nullptr) {
    printf("  !! cannot write BENCH_wal.json\n");
    return 1;
  }
  fprintf(f, "{\n  \"bench\": \"wal\",\n  \"generated_by\": \"bench_wal\",\n");
  fprintf(f, "  \"rows\": %llu,\n  \"reps\": %d,\n",
          static_cast<unsigned long long>(rows), kReps);
  JsonSection(f, configs[0].key, best[0], rows, ",");
  JsonSection(f, configs[1].key, best[1], rows, ",");
  JsonSection(f, configs[2].key, best[2], rows, ",");
  fprintf(f,
          "  \"overhead_never\": %.3f,\n  \"overhead_interval\": %.3f,\n"
          "  \"recovery_ms\": %.3f\n}\n",
          static_cast<double>(best[1].wall) / static_cast<double>(best[0].wall),
          static_cast<double>(best[2].wall) /
              static_cast<double>(best[0].wall),
          recovery_ms);
  fclose(f);
  printf("\nrecovery of the fsync=never log (best of %d cold opens): %.1f ms\n",
         kReps, recovery_ms);
  printf("\nwrote BENCH_wal.json (never %.2fx, interval %.2fx vs off)\n",
         static_cast<double>(best[1].wall) / static_cast<double>(best[0].wall),
         static_cast<double>(best[2].wall) /
             static_cast<double>(best[0].wall));
  return 0;
}
