#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

  python3 yardstick/run.py --workload lan_steady --seed 7 --seconds 10 --trace 0
  python3 yardstick/run.py --selftest

The first call configures and builds a Release copy of the library plus the
benchmark program under $CARGO_TARGET_DIR/yardstick (default
.bench_build/yardstick); later calls only rebuild what changed. Build output
goes to stderr, so the last stdout line is the program's JSON result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("lan_steady", "tpcc_durable", "wan_overload")
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "yardstick"


def child_env(bdir: Path) -> dict:
    """Environment whose TMPDIR lies inside the build directory, so the
    compiler's and the benchmark's scratch files stay inside the checkout."""
    tmp = bdir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(tmp))


def build(bdir: Path) -> None:
    configure = ["cmake", "-S", str(HERE), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (bdir / "Makefile").exists():
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    env = child_env(bdir)
    for cmd in (configure, ["cmake", "--build", str(bdir), "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            sys.exit("yardstick: build failed: " + " ".join(cmd))


def run(cmd: list, bdir: Path) -> int:
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S, env=child_env(bdir)).returncode
    except subprocess.TimeoutExpired:
        print(f"yardstick: timed out after {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


def check_benchmark_json(bdir: Path) -> int:
    """The metric names and units BENCHMARK.json declares must be exactly the
    ones the program emits."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = subprocess.run([str(bdir / "yardstick"), "--list-metrics"], check=True,
                            capture_output=True, text=True).stdout.split("\n")
    emitted = {kind: [] for kind in ("end_to_end", "per_layer")}
    for line in filter(None, listed):
        kind, name, unit = line.split()
        emitted[kind].append((name, unit))
    failures = 0
    for kind, metrics in emitted.items():
        declared = [(m["name"], m["unit"]) for m in spec[kind]]
        if declared != metrics:
            print(f"BENCHMARK.json {kind} differs from the program:\n"
                  f"  declared {declared}\n  emitted  {metrics}", file=sys.stderr)
            failures += 1
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        print("BENCHMARK.json workloads differ from the program's", file=sys.stderr)
        failures += 1
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7,
                        help="workload seed (default 7; held-out seed for claims: 1009)")
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the benchmark's own tests instead of a workload")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    bdir = build_dir()
    build(bdir)
    data_dir = bdir / "wal-data"
    if args.selftest:
        status = run([str(bdir / "yardstick_selftest"), str(data_dir)], bdir)
        return 1 if status != 0 or check_benchmark_json(bdir) else 0
    return run([str(bdir / "yardstick"), "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--data-dir", str(data_dir)], bdir)


if __name__ == "__main__":
    sys.exit(main())
