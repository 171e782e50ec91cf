#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <tuple>

#include "util/string_util.h"
#include "workload/generators.h"
#include "workload/linear_road.h"

namespace dc::perfbench {
namespace {

constexpr Micros kMs = 1000;
constexpr Micros kSec = kMicrosPerSecond;

// --- netmon ----------------------------------------------------------------
// A tick is 100 ms of event time: 1000 packets (one every 100 µs) and 100
// readings on each sensor stream (one every 1 ms).
constexpr uint64_t kPktsPerTick = 1000;
constexpr Micros kPktStep = 100;
constexpr uint64_t kSensPerTick = 100;
constexpr Micros kSensStep = 1000;
constexpr uint64_t kSensors = 100;
constexpr uint64_t kHosts = 5000;
constexpr int64_t kAsns = 97;
constexpr size_t kNetmonClosedTicks = 1000;  // 1 M packets
constexpr Micros kGrid = 250 * kMs;          // finest slide of any query
constexpr int64_t kPorts[] = {80, 443, 22, 53, 8080, 25};
constexpr int kNumPorts = 6;

// --- Linear Road -------------------------------------------------------------
// A tick is one simulated second (one report per vehicle on every
// expressway). The open loop replays `kLrSpeedup` simulated seconds per
// wall second, so the LRB 5 s notification deadline scales to
// 5 s / kLrSpeedup. Expressways are separate streams (LRB processes them
// independently), so every ten simulated seconds close a window of each of
// the twenty standing queries.
constexpr int kLrSpeedup = 50;
constexpr int kLrXways = 10;
constexpr int kLrVehicles = 200;
constexpr int kLrDuration = 550;  // 1.1 M reports over ten expressways
constexpr Micros kLrSlot = 10 * kSec;  // both LR queries slide by 10 s

uint64_t Hash(uint64_t seed, uint64_t i, uint64_t salt) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + i * 0xBF58476D1CE4E5B9ull +
               salt * 0x94D049BB133111EBull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

int PortIndex(int64_t port) {
  for (int p = 0; p < kNumPorts; ++p) {
    if (kPorts[p] == port) return p;
  }
  return -1;
}

/// Window boundaries m*slide (m >= 1) a RANGE query emits over a stream
/// whose events span [0, max_ts] and which is then sealed: every window
/// whose start is at or below the final watermark (core/window.h).
std::vector<int64_t> Boundaries(Micros size, Micros slide, Micros max_ts) {
  std::vector<int64_t> out;
  for (int64_t m = 1; m * slide - size <= max_ts; ++m) {
    out.push_back(m * slide);
  }
  return out;
}

void SortRows(std::vector<Row>* rows, size_t key_cols) {
  std::sort(rows->begin(), rows->end(), [key_cols](const Row& a, const Row& b) {
    return std::lexicographical_compare(a.begin(), a.begin() + key_cols,
                                        b.begin(), b.begin() + key_cols);
  });
}

/// Per-slot accumulator: count and sum per (slot, key).
struct SlotSums {
  size_t keys = 0;
  std::vector<int64_t> count;
  std::vector<double> sum;

  SlotSums(size_t slots, size_t k)
      : keys(k), count(slots * k, 0), sum(slots * k, 0.0) {}
  void Add(size_t slot, size_t key, double v) {
    count[slot * keys + key]++;
    sum[slot * keys + key] += v;
  }
  size_t Slots() const { return keys == 0 ? 0 : count.size() / keys; }
  /// Count and sum of `key` over slots [lo, hi), clipped to the data.
  std::pair<int64_t, double> Window(int64_t lo, int64_t hi, size_t key) const {
    int64_t c = 0;
    double s = 0;
    for (int64_t slot = std::max<int64_t>(lo, 0);
         slot < hi && slot < static_cast<int64_t>(Slots()); ++slot) {
      c += count[static_cast<size_t>(slot) * keys + key];
      s += sum[static_cast<size_t>(slot) * keys + key];
    }
    return {c, s};
  }
};

// ---------------------------------------------------------------------------
// netmon_queries / netmon_durable
// ---------------------------------------------------------------------------

struct AggQuery {
  Micros size, slide;
  int64_t having;  // HAVING count(*) > having
};

std::vector<AggQuery> NetmonAggs(bool durable) {
  if (durable) return {};  // netmon_durable has its own two aggregates
  // Sixteen windowed aggregates with one fragment prefix (GROUP BY port,
  // count, sum): window sizes and HAVING thresholds differ, and the 500 ms
  // slides ride the 250 ms grid of the first eight, so all share one node.
  std::vector<AggQuery> out;
  for (int i = 0; i < 16; ++i) {
    out.push_back({500 * kMs * (1 + i % 4), (i < 8 ? 250 : 500) * kMs,
                   500 * (i % 8)});
  }
  return out;
}

Workload MakeNetmon(bool durable, uint64_t seed) {
  Workload w;
  w.name = durable ? "netmon_durable" : "netmon_queries";
  w.durable = durable;
  w.streams = durable ? std::vector<std::string>{"pkts"}
                      : std::vector<std::string>{"pkts", "s1", "s2"};
  w.ddl.push_back(workload::PacketDdl("pkts"));
  if (!durable) {
    w.ddl.push_back(workload::SensorDdl("s1"));
    w.ddl.push_back(workload::SensorDdl("s2"));
  }
  w.ddl.push_back("CREATE TABLE hosts (ip int, asn int)");
  w.table = "hosts";

  // hosts: 7 of every 8 source addresses are known, each mapped to an AS.
  std::vector<int64_t> ips, asns;
  std::vector<int64_t> host_asn(kHosts, -1);
  for (uint64_t ip = 0; ip < kHosts; ++ip) {
    if (Hash(seed, ip, 1) % 8 == 0) continue;
    const int64_t asn = static_cast<int64_t>(Hash(seed, ip, 2) % kAsns);
    ips.push_back(static_cast<int64_t>(ip));
    asns.push_back(asn);
    host_asn[ip] = asn;
  }
  w.table_cols = {Bat::MakeI64(ips), Bat::MakeI64(asns)};

  const std::vector<AggQuery> aggs = NetmonAggs(durable);
  for (size_t i = 0; i < aggs.size(); ++i) {
    w.queries.push_back(
        {StrFormat("agg%02zu", i),
         StrFormat("SELECT port, count(*), sum(bytes) FROM pkts "
                   "[RANGE %lld MILLISECONDS SLIDE %lld MILLISECONDS] "
                   "GROUP BY port HAVING count(*) > %lld ORDER BY port",
                   static_cast<long long>(aggs[i].size / kMs),
                   static_cast<long long>(aggs[i].slide / kMs),
                   static_cast<long long>(aggs[i].having)),
         "agg", {0}, 1});
  }
  if (durable) {
    // The two light aggregates of bench_wal.
    w.queries.push_back({"agg_port",
                         "SELECT port, count(*), sum(bytes) FROM pkts "
                         "[RANGE 1 SECONDS SLIDE 250 MILLISECONDS] "
                         "GROUP BY port",
                         "agg", {0}, 1});
    w.queries.push_back({"agg_scalar",
                         "SELECT count(*), avg(bytes) FROM pkts "
                         "[RANGE 2 SECONDS SLIDE 500 MILLISECONDS]",
                         "agg", {0}, 0});
  } else {
    w.queries.push_back({"table_join",
                         "SELECT asn, count(*), sum(bytes) FROM pkts "
                         "[RANGE 1 SECONDS SLIDE 250 MILLISECONDS] "
                         "JOIN hosts ON pkts.src = hosts.ip GROUP BY asn",
                         "table_join", {0}, 1});
    w.queries.push_back({"stream_join",
                         "SELECT count(*), sum(s1.temp) FROM s1 "
                         "[RANGE 1 SECONDS SLIDE 250 MILLISECONDS] JOIN s2 "
                         "[RANGE 1 SECONDS SLIDE 250 MILLISECONDS] "
                         "ON s1.sensor = s2.sensor",
                         "stream_join", {1, 2}, 0});
  }

  // One-time queries: an exact table read and an as-of-now basket read.
  AdhocSpec table_q{"SELECT asn, count(*) FROM hosts WHERE ip < 500 "
                    "GROUP BY asn",
                    true,
                    {}};
  {
    std::map<int64_t, int64_t> per_asn;
    for (size_t i = 0; i < ips.size(); ++i) {
      if (ips[i] < 500) per_asn[asns[i]]++;
    }
    for (const auto& [asn, n] : per_asn) {
      table_q.expected.push_back(
          {static_cast<double>(asn), static_cast<double>(n)});
    }
  }
  w.adhoc.push_back(std::move(table_q));
  w.adhoc.push_back(
      {"SELECT count(*), sum(bytes) FROM pkts WHERE port = 443", false, {}});

  // Schedules. The offered open-loop rates sit well below closed-loop
  // saturation (under a fifth of it): near half of it, one-time queries
  // waited on the ticks' bursts of work, and their latency grew far more
  // than the host slowed. A run pools several short phases (>= 1000 emissions and
  // >= 1000 one-time queries); the two-query durable mix emits less per
  // tick and takes the higher rate and longer phases.
  w.ticks_per_s = durable ? 150 : 60;
  w.closed_ticks = kNetmonClosedTicks;
  w.paced_ticks = durable ? 300 : 60;  // 2 s and 1 s
  w.adhoc_interval_us = 4 * kMs;
  w.adhoc_every_ticks = 4;
  w.checkpoint_every = 100;
  w.recovery_ticks = 300;

  workload::PacketConfig pcfg;
  pcfg.ts_step = kPktStep;
  pcfg.seed = seed;
  workload::SensorConfig s1cfg, s2cfg;
  s1cfg.ts_step = s2cfg.ts_step = kSensStep;
  s1cfg.num_sensors = s2cfg.num_sensors = kSensors;
  s1cfg.seed = Hash(seed, 0, 11);
  s2cfg.seed = Hash(seed, 0, 12);
  const size_t n_ticks = std::max(w.closed_ticks, w.paced_ticks);
  w.tick_max_ts.assign(w.streams.size(), {});
  for (size_t t = 0; t < n_ticks; ++t) {
    std::vector<std::vector<BatPtr>> tick;
    tick.push_back(workload::PacketBatch(pcfg, t * kPktsPerTick, kPktsPerTick));
    w.tick_max_ts[0].push_back(
        static_cast<Micros>((t + 1) * kPktsPerTick - 1) * kPktStep);
    if (!durable) {
      tick.push_back(
          workload::SensorBatch(s1cfg, t * kSensPerTick, kSensPerTick));
      tick.push_back(
          workload::SensorBatch(s2cfg, t * kSensPerTick, kSensPerTick));
      for (int s = 1; s <= 2; ++s) {
        w.tick_max_ts[s].push_back(
            static_cast<Micros>((t + 1) * kSensPerTick - 1) * kSensStep);
      }
    }
    w.ticks.push_back(std::move(tick));
  }

  // Reference: per-250 ms-slot sums by port, by AS (through a hash of
  // hosts) and by sensor, then every window summed from its slots.
  w.reference = [aggs, durable, host_asn, nq = w.queries.size()](
                    const Workload::Ticks& ticks, size_t n) {
    const Micros pkt_max = static_cast<Micros>(n * kPktsPerTick - 1) * kPktStep;
    const Micros sens_max =
        static_cast<Micros>(n * kSensPerTick - 1) * kSensStep;
    const size_t slots = static_cast<size_t>(pkt_max / kGrid) + 1;
    SlotSums by_port(slots, kNumPorts), by_asn(slots, kAsns);
    SlotSums s1(slots, kSensors), s2(slots, kSensors);
    for (size_t t = 0; t < n; ++t) {
      const auto& pk = ticks[t][0];
      const auto ts = pk[0]->I64Data();
      const auto src = pk[1]->I64Data();
      const auto port = pk[3]->I64Data();
      const auto bytes = pk[4]->I64Data();
      for (size_t i = 0; i < ts.size(); ++i) {
        const size_t slot = static_cast<size_t>(ts[i] / kGrid);
        const double b = static_cast<double>(bytes[i]);
        by_port.Add(slot, static_cast<size_t>(PortIndex(port[i])), b);
        const int64_t asn = host_asn[static_cast<size_t>(src[i])];
        if (asn >= 0) by_asn.Add(slot, static_cast<size_t>(asn), b);
      }
      if (durable) continue;
      for (int s = 1; s <= 2; ++s) {
        const auto& sb = ticks[t][s];
        const auto sts = sb[0]->I64Data();
        const auto sensor = sb[1]->I64Data();
        const auto temp = sb[2]->F64Data();
        SlotSums& acc = s == 1 ? s1 : s2;
        for (size_t i = 0; i < sts.size(); ++i) {
          acc.Add(static_cast<size_t>(sts[i] / kGrid),
                  static_cast<size_t>(sensor[i]), temp[i]);
        }
      }
    }
    std::vector<std::vector<Emission>> out(nq);
    auto port_windows = [&](Micros size, Micros slide, int64_t having,
                            std::vector<Emission>* dst) {
      for (int64_t b : Boundaries(size, slide, pkt_max)) {
        Emission e{b, {}};
        for (int p = 0; p < kNumPorts; ++p) {
          const auto [c, s] = by_port.Window((b - size) / kGrid, b / kGrid, p);
          if (c > 0 && c > having) {
            e.rows.push_back({static_cast<double>(kPorts[p]),
                              static_cast<double>(c), s});
          }
        }
        SortRows(&e.rows, 1);
        dst->push_back(std::move(e));
      }
    };
    size_t q = 0;
    for (const AggQuery& a : aggs) port_windows(a.size, a.slide, a.having,
                                                &out[q++]);
    if (durable) {
      port_windows(1 * kSec, 250 * kMs, -1, &out[q++]);
      for (int64_t b : Boundaries(2 * kSec, 500 * kMs, pkt_max)) {
        int64_t c = 0;
        double s = 0;
        for (int p = 0; p < kNumPorts; ++p) {
          const auto [pc, ps] =
              by_port.Window((b - 2 * kSec) / kGrid, b / kGrid, p);
          c += pc;
          s += ps;
        }
        out[q].push_back(
            {b, {{static_cast<double>(c), c > 0 ? s / c : std::nan("")}}});
      }
      return out;
    }
    for (int64_t b : Boundaries(1 * kSec, 250 * kMs, pkt_max)) {
      Emission e{b, {}};
      for (int64_t asn = 0; asn < kAsns; ++asn) {
        const auto [c, s] = by_asn.Window((b - kSec) / kGrid, b / kGrid,
                                          static_cast<size_t>(asn));
        if (c > 0) {
          e.rows.push_back(
              {static_cast<double>(asn), static_cast<double>(c), s});
        }
      }
      out[q].push_back(std::move(e));
    }
    ++q;
    // Stream join: pairs per sensor are count1 * count2; the sum of
    // s1.temp over the pairs is sum1 * count2.
    for (int64_t b : Boundaries(1 * kSec, 250 * kMs, sens_max)) {
      double pairs = 0, temp = 0;
      for (uint64_t k = 0; k < kSensors; ++k) {
        const auto [c1, t1] = s1.Window((b - kSec) / kGrid, b / kGrid, k);
        const auto [c2, t2] = s2.Window((b - kSec) / kGrid, b / kGrid, k);
        (void)t2;
        pairs += static_cast<double>(c1) * static_cast<double>(c2);
        temp += t1 * static_cast<double>(c2);
      }
      out[q].push_back({b, {{pairs, pairs > 0 ? temp : std::nan("")}}});
    }
    return out;
  };
  return w;
}

// ---------------------------------------------------------------------------
// lr_paced
// ---------------------------------------------------------------------------

Workload MakeLr(uint64_t seed) {
  Workload w;
  w.name = "lr_paced";
  w.ddl.push_back("CREATE TABLE segs (seg int, zone int)");
  w.table = "segs";
  std::vector<int64_t> segs, zones;
  for (int64_t s = 0; s < workload::kLrSegments; ++s) {
    segs.push_back(s);
    zones.push_back(
        static_cast<int64_t>(Hash(seed, static_cast<uint64_t>(s), 3) % 10));
  }
  w.table_cols = {Bat::MakeI64(segs), Bat::MakeI64(zones)};

  // One position stream per expressway, each with the two standing
  // queries of workload::SetupLrQueries (same SQL, per-stream names).
  const int duration = kLrDuration;
  std::vector<workload::LrConfig> configs;
  for (int x = 0; x < kLrXways; ++x) {
    const std::string stream = StrFormat("pos%d", x);
    w.streams.push_back(stream);
    w.ddl.push_back(workload::LrPositionDdl(stream));
    w.queries.push_back(
        {StrFormat("lr_segstats_%d", x),
         StrFormat("SELECT xway, dir, seg, avg(speed) AS avg_speed, "
                   "count(*) AS reports FROM %s "
                   "[RANGE 60 SECONDS SLIDE 10 SECONDS] "
                   "GROUP BY xway, dir, seg",
                   stream.c_str()),
         "lr", {x}, 3});
    w.queries.push_back(
        {StrFormat("lr_accidents_%d", x),
         StrFormat("SELECT xway, dir, seg, count(*) AS stopped_reports "
                   "FROM %s [RANGE 30 SECONDS SLIDE 10 SECONDS] "
                   "WHERE speed = 0.0 GROUP BY xway, dir, seg "
                   "HAVING count(*) >= %d ORDER BY xway, dir, seg",
                   stream.c_str(), workload::kLrAccidentReports),
         "lr", {x}, 3, /*keys_only=*/true});
    workload::LrConfig cfg;
    cfg.xways = 1;
    cfg.vehicles_per_xway = kLrVehicles;
    cfg.duration_sec = duration;
    cfg.stop_prob = 0.003;
    cfg.seed = Hash(seed, static_cast<uint64_t>(x), 21);
    configs.push_back(cfg);
  }

  AdhocSpec table_q{"SELECT zone, count(*) FROM segs WHERE seg < 50 "
                    "GROUP BY zone",
                    true,
                    {}};
  {
    std::map<int64_t, int64_t> per_zone;
    for (size_t i = 0; i < 50; ++i) per_zone[zones[i]]++;
    for (const auto& [zone, n] : per_zone) {
      table_q.expected.push_back(
          {static_cast<double>(zone), static_cast<double>(n)});
    }
  }
  w.adhoc.push_back(std::move(table_q));
  w.adhoc.push_back(
      {"SELECT count(*), max(speed) FROM pos0 WHERE speed > 80.0", false, {}});

  w.ticks_per_s = kLrSpeedup;
  w.closed_ticks = static_cast<size_t>(duration);
  w.paced_ticks = 100;  // 2 s: ~180 emissions closed by data
  w.adhoc_interval_us = 4 * kMs;
  w.adhoc_every_ticks = 1;
  w.deadline_us = 5 * kSec / kLrSpeedup;
  w.checkpoint_every = 50;
  w.recovery_ticks = 150;

  w.ticks.assign(static_cast<size_t>(duration), {});
  w.tick_max_ts.assign(configs.size(), {});
  for (size_t x = 0; x < configs.size(); ++x) {
    workload::LinearRoadGenerator gen(configs[x]);
    std::vector<Value> row;
    bool more = gen.NextRow(&row);
    for (int sec = 0; sec < duration; ++sec) {
      std::vector<BatPtr> cols{Bat::MakeEmpty(TypeId::kTs),
                               Bat::MakeEmpty(TypeId::kI64),
                               Bat::MakeEmpty(TypeId::kF64),
                               Bat::MakeEmpty(TypeId::kI64),
                               Bat::MakeEmpty(TypeId::kI64),
                               Bat::MakeEmpty(TypeId::kI64)};
      for (auto& c : cols) c->Reserve(kLrVehicles);
      while (more && row[0].AsI64() / kSec == sec) {
        for (size_t c = 0; c < cols.size(); ++c) cols[c]->AppendValue(row[c]);
        more = gen.NextRow(&row);
      }
      w.tick_max_ts[x].push_back(static_cast<Micros>(sec) * kSec);
      w.ticks[static_cast<size_t>(sec)].push_back(std::move(cols));
    }
  }

  w.reference = [configs](const Workload::Ticks& ticks, size_t n) {
    std::vector<std::vector<Emission>> out;
    const Micros max_ts = static_cast<Micros>(n - 1) * kSec;
    const size_t keys = 2 * workload::kLrSegments;  // (dir, seg); xway is 0
    for (size_t x = 0; x < configs.size(); ++x) {
      // Segment statistics: per-10 s-slot count and speed sum per segment.
      SlotSums stats(static_cast<size_t>(max_ts / kLrSlot) + 1, keys);
      for (size_t t = 0; t < n; ++t) {
        const auto& cols = ticks[t][x];
        const auto ts = cols[0]->I64Data();
        const auto speed = cols[2]->F64Data();
        const auto dir = cols[4]->I64Data();
        const auto seg = cols[5]->I64Data();
        for (size_t i = 0; i < ts.size(); ++i) {
          const int64_t key = dir[i] * workload::kLrSegments + seg[i];
          stats.Add(static_cast<size_t>(ts[i] / kLrSlot),
                    static_cast<size_t>(key), speed[i]);
        }
      }
      std::vector<Emission> seg_stats;
      for (int64_t b : Boundaries(60 * kSec, kLrSlot, max_ts)) {
        Emission e{b, {}};
        for (size_t k = 0; k < keys; ++k) {
          const auto [c, s] =
              stats.Window((b - 60 * kSec) / kLrSlot, b / kLrSlot, k);
          if (c == 0) continue;
          e.rows.push_back({0.0,
                            static_cast<double>(k / workload::kLrSegments),
                            static_cast<double>(k % workload::kLrSegments),
                            s / static_cast<double>(c),
                            static_cast<double>(c)});
        }
        seg_stats.push_back(std::move(e));
      }
      out.push_back(std::move(seg_stats));
      // Accidents: the workload library's own offline reference.
      workload::LrConfig prefix = configs[x];
      prefix.duration_sec = static_cast<int>(n);
      const auto accidents = workload::ReferenceAccidents(prefix, 30, 10);
      std::vector<Emission> acc;
      for (int64_t b : Boundaries(30 * kSec, kLrSlot, max_ts)) {
        Emission e{b, {}};
        auto it = accidents.find(b / kSec);
        if (it != accidents.end()) {
          for (const auto& [xw, d, s] : it->second) {
            e.rows.push_back({static_cast<double>(xw), static_cast<double>(d),
                              static_cast<double>(s), 0.0});
          }
        }
        acc.push_back(std::move(e));
      }
      out.push_back(std::move(acc));
    }
    return out;
  };
  return w;
}

}  // namespace

uint64_t Workload::RowsIn(size_t n) const {
  uint64_t rows = 0;
  for (size_t t = 0; t < n && t < ticks.size(); ++t) {
    for (const auto& cols : ticks[t]) rows += cols[0]->size();
  }
  return rows;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "netmon_queries", "netmon_durable", "lr_paced"};
  return names;
}

Result<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "netmon_queries") return MakeNetmon(false, seed);
  if (name == "netmon_durable") return MakeNetmon(true, seed);
  if (name == "lr_paced") return MakeLr(seed);
  return Status::InvalidArgument("unknown workload: " + name);
}

std::vector<Row> Canonical(const ColumnSet& cs, size_t key_cols) {
  std::vector<Row> rows(cs.NumRows(), Row(cs.NumCols()));
  for (size_t c = 0; c < cs.NumCols(); ++c) {
    const Bat& col = *cs.cols[c];
    for (uint64_t r = 0; r < col.size(); ++r) {
      double v;
      if (col.IsNull(r)) {
        v = std::nan("");
      } else if (col.type() == TypeId::kF64) {
        v = col.F64Data()[r];
      } else if (col.type() == TypeId::kBool) {
        v = col.BoolData()[r];
      } else {
        v = static_cast<double>(col.I64Data()[r]);
      }
      rows[r][c] = v;
    }
  }
  SortRows(&rows, key_cols);
  return rows;
}

bool SameRows(const std::vector<Row>& got, const std::vector<Row>& want,
              size_t key_cols, bool keys_only) {
  if (got.size() != want.size()) return false;
  for (size_t r = 0; r < got.size(); ++r) {
    const size_t n = keys_only ? key_cols : want[r].size();
    if (got[r].size() < n || (!keys_only && got[r].size() != n)) return false;
    for (size_t c = 0; c < n; ++c) {
      const double a = got[r][c], b = want[r][c];
      if (std::isnan(a) || std::isnan(b)) {
        if (std::isnan(a) != std::isnan(b)) return false;
        continue;
      }
      const double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
      const double tol = c < key_cols ? 0.0 : 1e-9 * scale;
      if (std::fabs(a - b) > tol) return false;
    }
  }
  return true;
}

}  // namespace dc::perfbench
