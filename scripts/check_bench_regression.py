#!/usr/bin/env python3
"""Bench-regression guard over the BENCH_*.json artifacts.

Default mode (BENCH_incremental.json): fails (exit 1) when the E2b
stream-stream join sweep no longer shows the incremental win the indexed
delta-join path is supposed to deliver: the speedup at --n-bw (default 8)
must be >= --min-speedup (default 2.0).

--multiquery mode (BENCH_multiquery.json): fails when the sharing
registry no longer collapses the shared-prefix family (docs/SHARING.md):
at N standing queries sharing a fragment prefix, the shared run must keep
one basket reader and do O(1) partial builds per slide, i.e.
build_ratio (unshared builds / shared builds) >= N / 2, and both runs
must produce the same emission count.

--linear-road mode (BENCH_linear_road.json): fails when the p99
notification response time measured on the engine's ingest->delivery
latency path (docs/OBSERVABILITY.md) exceeds --max-p99-ms (default: the
artifact's own scaled LRB deadline, 250 ms at 20x replay), or when any
notification missed the deadline.

--wal mode (BENCH_wal.json): fails when WAL logging without fsync costs
more than --max-wal-ratio (default 2.0) times the durability-off wall
time, ratio only (--wal-slack-ms defaults to 0) — the WAL rides the
batch-ordinal log with a bulk column codec, one framed append per batch,
so anything beyond that is a regression on the ingest hot path.
fsync=interval is reported but not gated (its cost is the disk's, not
the engine's).

Non-fatal diagnostics: the join speedup curve is expected to be
monotonically increasing in n_bw; inversions are printed as warnings so
noisy smoke timings do not flake CI, while the headline points stay hard
gates.

Usage: check_bench_regression.py BENCH_incremental.json [--n-bw N]
       [--min-speedup X]
       check_bench_regression.py BENCH_multiquery.json --multiquery
       check_bench_regression.py BENCH_linear_road.json --linear-road
       [--max-p99-ms X]
       check_bench_regression.py BENCH_wal.json --wal
       [--max-wal-ratio X] [--wal-slack-ms X]
"""

import argparse
import json
import sys


def check_join(bench, args) -> int:
    sweep = [p for p in bench.get("sweep", [])
             if p.get("scenario") == args.scenario]
    if not sweep:
        print(f"FAIL: no '{args.scenario}' sweep points in {args.json_path}")
        return 1

    sweep.sort(key=lambda p: p["n_bw"])
    print(f"{args.scenario} sweep ({args.json_path}):")
    for p in sweep:
        print(f"  n_bw={p['n_bw']:<3} speedup={p['speedup']:.3f}x")

    prev = None
    for p in sweep:
        if prev is not None and p["speedup"] < prev["speedup"]:
            print(f"WARN: speedup not monotone: n_bw={p['n_bw']} "
                  f"({p['speedup']:.3f}x) < n_bw={prev['n_bw']} "
                  f"({prev['speedup']:.3f}x)")
        prev = p

    gate = [p for p in sweep if p["n_bw"] == args.n_bw]
    if not gate:
        print(f"FAIL: no {args.scenario} sweep point at n_bw={args.n_bw}")
        return 1
    speedup = gate[0]["speedup"]
    if speedup < args.min_speedup:
        print(f"FAIL: {args.scenario} speedup at n_bw={args.n_bw} is "
              f"{speedup:.3f}x, below the {args.min_speedup:.1f}x floor")
        return 1
    print(f"OK: {args.scenario} speedup at n_bw={args.n_bw} is "
          f"{speedup:.3f}x (floor {args.min_speedup:.1f}x)")
    return 0


def check_multiquery(bench, args) -> int:
    try:
        queries = bench["queries"]
        shared = bench["shared"]
        unshared = bench["unshared"]
        ratio = bench["build_ratio"]
    except KeyError as e:
        print(f"FAIL: {args.json_path} is missing key {e}")
        return 1

    print(f"multiquery sharing ({args.json_path}): {queries} queries")
    print(f"  shared:   builds={shared['partial_builds']} "
          f"readers={shared['stream_readers']} "
          f"nodes={shared['shared_nodes']} wall={shared['wall_ms']:.1f}ms")
    print(f"  unshared: builds={unshared['partial_builds']} "
          f"readers={unshared['stream_readers']} "
          f"wall={unshared['wall_ms']:.1f}ms")

    failed = False
    # One receptor fan-out for the whole family: the shared node owns the
    # only basket reader regardless of query count.
    if shared["stream_readers"] != 1:
        print(f"FAIL: shared run holds {shared['stream_readers']} basket "
              f"readers for {queries} shared-prefix queries, expected 1")
        failed = True
    if shared["shared_nodes"] < 1:
        print("FAIL: shared run registered no shared window node")
        failed = True
    # O(1) builds per slide: the unshared run builds each basic-window
    # partial once per query, the shared run once total — so the ratio
    # tracks the query count. Half of N leaves slack for boundary windows.
    floor = queries / 2
    if ratio < floor:
        print(f"FAIL: build ratio {ratio:.2f}x is below the {floor:.0f}x "
              f"floor at {queries} queries — partial builds are no longer "
              f"O(1) per slide")
        failed = True
    if shared["emissions"] != unshared["emissions"]:
        print(f"FAIL: emission counts diverge (shared "
              f"{shared['emissions']} vs unshared {unshared['emissions']})")
        failed = True
    if failed:
        return 1
    print(f"OK: build ratio {ratio:.2f}x (floor {floor:.0f}x), "
          f"1 reader, {shared['shared_nodes']} node(s)")
    return 0


def check_linear_road(bench, args) -> int:
    try:
        latency = bench["latency_ms"]
        deadline = bench["deadline_ms"]
        misses = bench["deadline_misses"]
        emissions = bench["emissions"]
    except KeyError as e:
        print(f"FAIL: {args.json_path} is missing key {e}")
        return 1

    budget = args.max_p99_ms if args.max_p99_ms is not None else deadline
    print(f"linear road ({args.json_path}): xways={bench.get('xways')} "
          f"rows={bench.get('rows')} emissions={emissions}")
    print(f"  p50={latency['p50']:.3f}ms p99={latency['p99']:.3f}ms "
          f"max={latency['max']:.3f}ms misses={misses} "
          f"(deadline {deadline:.0f}ms)")

    failed = False
    if emissions == 0:
        print("FAIL: no notifications were delivered — the latency path "
              "recorded nothing")
        failed = True
    if latency["p99"] > budget:
        print(f"FAIL: p99 notification latency {latency['p99']:.3f}ms "
              f"exceeds the {budget:.0f}ms budget")
        failed = True
    if misses > 0:
        print(f"FAIL: {misses} notification(s) missed the scaled LRB "
              f"deadline")
        failed = True
    if failed:
        return 1
    print(f"OK: p99 {latency['p99']:.3f}ms within {budget:.0f}ms, "
          f"0 deadline misses over {emissions} notifications")
    return 0


def check_wal(bench, args) -> int:
    try:
        off = bench["off"]
        never = bench["fsync_never"]
        interval = bench["fsync_interval"]
    except KeyError as e:
        print(f"FAIL: {args.json_path} is missing key {e}")
        return 1

    print(f"wal overhead ({args.json_path}): {bench.get('rows')} rows, "
          f"best of {bench.get('reps')} interleaved reps")
    for key, run in (("off", off), ("fsync_never", never),
                     ("fsync_interval", interval)):
        print(f"  {key:>14}: wall={run['wall_ms']:.1f}ms "
              f"rows/s={run['rows_per_s']:.0f} "
              f"records={run['wal_records']} syncs={run['wal_syncs']}")

    failed = False
    if never["wal_records"] == 0:
        print("FAIL: fsync_never logged no WAL records — the bench "
              "measured nothing")
        failed = True
    # One framed append per batch: logging without fsync must stay within
    # the ratio gate. The bench runs at full size, so no slack by default.
    budget = max(args.max_wal_ratio * off["wall_ms"],
                 off["wall_ms"] + args.wal_slack_ms)
    if never["wall_ms"] > budget:
        print(f"FAIL: fsync_never wall {never['wall_ms']:.1f}ms exceeds "
              f"the budget {budget:.1f}ms "
              f"(max({args.max_wal_ratio:.1f}x off, off + "
              f"{args.wal_slack_ms:.0f}ms))")
        failed = True
    if failed:
        return 1
    ratio = never["wall_ms"] / off["wall_ms"] if off["wall_ms"] > 0 else 0.0
    print(f"OK: fsync_never {ratio:.2f}x of durability-off "
          f"(budget max({args.max_wal_ratio:.1f}x, +{args.wal_slack_ms:.0f}ms)); "
          f"fsync_interval {interval['wall_ms']:.1f}ms reported ungated")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("json_path", help="path to a BENCH_*.json artifact")
    parser.add_argument("--multiquery", action="store_true",
                        help="gate BENCH_multiquery.json sharing results")
    parser.add_argument("--linear-road", action="store_true",
                        help="gate BENCH_linear_road.json response times")
    parser.add_argument("--wal", action="store_true",
                        help="gate BENCH_wal.json durability overhead")
    parser.add_argument("--max-wal-ratio", type=float, default=2.0,
                        help="fsync_never wall budget as a multiple of "
                             "durability-off (default 2.0)")
    parser.add_argument("--wal-slack-ms", type=float, default=0.0,
                        help="absolute slack added to the --wal gate "
                             "(default 0)")
    parser.add_argument("--scenario", default="join")
    parser.add_argument("--n-bw", type=int, default=8)
    parser.add_argument("--min-speedup", type=float, default=2.0)
    parser.add_argument("--max-p99-ms", type=float, default=None,
                        help="p99 budget for --linear-road (default: the "
                             "artifact's deadline_ms)")
    args = parser.parse_args()

    try:
        with open(args.json_path, "r", encoding="utf-8") as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        print(f"FAIL: cannot read {args.json_path}: {e}")
        return 1

    if args.multiquery:
        return check_multiquery(bench, args)
    if args.linear_road:
        return check_linear_road(bench, args)
    if args.wal:
        return check_wal(bench, args)
    return check_join(bench, args)


if __name__ == "__main__":
    sys.exit(main())
