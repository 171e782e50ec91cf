#!/usr/bin/env python3
"""Builds and runs the end-to-end DataCell benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The engine is compiled from ./src together
with the harness in this directory (CMake, Release) into the build
directory named by CARGO_TARGET_DIR, or .bench_build. Build output goes to
stderr; the last stdout line is the harness's JSON result. Exits non-zero,
printing no result, when the build or the run fails.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(src: Path, build_dir: Path) -> Path:
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(src), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", "4"],
                   check=True, stdout=sys.stderr)
    return build_dir / "dc_perfbench"


def main(argv):
    src = Path(__file__).resolve().parent
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = (build_dir if build_dir.is_absolute()
                 else Path.cwd() / build_dir) / "perfbench"
    try:
        binary = build(src, build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    cmd = [str(binary), *argv, "--workdir", str(build_dir / "work")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"harness exited with {proc.returncode}")
        return proc.returncode or 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("last line is not JSON")
        return 1
    if set(result) != RESULT_KEYS:
        log(f"unexpected result keys {sorted(result)}")
        return 1
    print("\n".join(lines[:-1]), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
