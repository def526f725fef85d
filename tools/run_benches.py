#!/usr/bin/env python3
"""Build Release and run the perf-trajectory bench suite, writing a JSON
summary (BENCH_*.json) so every PR records before/after numbers on the same
machine.

Per bench binary it records:
  * wall_clock_s     - wall time of the whole binary run (fixed-work benches
                       like tpcc_mix pin Iterations(1), so this is comparable
                       across commits; auto-tuned micro benches are not).
  * fixed_work_ms    - sum of per-iteration real_time over all benchmarks in
                       the binary: the machine-time one pass of every bench
                       costs. This is the primary wall-clock comparison metric
                       (iteration auto-tuning cancels out).
  * benchmarks       - per-benchmark real_time (+ selected counters).

Usage:
  tools/run_benches.py [--build-dir BUILD] [--out BENCH.json]
                       [--compare OLD.json] [--skip-build]
                       [--repetitions N] [--bench NAME ...]

--compare embeds the old run and computes per-binary speedups
(old fixed_work_ms / new fixed_work_ms).
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

DEFAULT_BENCHES = ["micro_components", "otp_vs_lazy", "tpcc_mix", "cross_class",
                   "scalability", "geo_mismatch", "chaos_robustness", "overload"]

# Counters worth keeping in the trajectory (throughput/latency/consistency).
KEEP_COUNTERS = (
    "txn_per_s",
    "latency_ms",
    "latency_mean_ms",
    "abort_pct",
    "audit_clean",
    "query_latency_ms",
    "lost_update_conflicts",
    "items_per_second",
    "cross_pct",
    "remote_pct",
    "serializable",
    "sites",
    "allocs_per_event",
    "sim_events",
    # Topology sweep.
    "mismatch_pct",
    "fast_path_pct",
    "ordering_gap_ms",
    # Storage-tier sweep (PR 7): group-commit WAL counters.
    "wal_commits",
    "wal_fsyncs",
    "group_commit_batch",
    "wal_kib",
    "checkpoints",
    "segments_truncated",
    # Chaos plane (PR 8): the injection ledger. These must stay nonzero on
    # the chaos profiles - a silent zero means a fault clause stopped firing
    # and the robustness rows are measuring nothing.
    "dups_injected",
    "dups_suppressed",
    "reorders_injected",
    "gray_delays",
    "deliveries_parked",
    "parked_released",
    "flap_transitions",
    "fd_suspicions",
    "fd_restores",
    "io_faults_injected",
    "wal_io_errors",
    "wal_io_retries",
    # Overload plane (PR 10): the offered-load sweep past saturation. The
    # headline row is goodput_at_saturation = goodput(2x)/goodput(1x); the
    # acceptance floor is 0.85 (plateau, not collapse).
    "load_multiplier",
    "goodput_txn_per_s",
    "goodput_peak",
    "goodput_2x",
    "goodput_at_saturation",
    "shed_fraction",
    "shed",
    "backpressured",
    "retries",
    "gave_up",
    "deadline_expired",
    "deadline_presubmit",
    "p99_ms",
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def run(cmd, **kwargs):
    print("+", " ".join(str(c) for c in cmd), flush=True)
    subprocess.run(cmd, check=True, **kwargs)


def build(build_dir: Path):
    run(["cmake", "-B", str(build_dir), "-S", str(REPO_ROOT),
         "-DCMAKE_BUILD_TYPE=Release", "-DOTPDB_BUILD_BENCHES=ON"])
    run(["cmake", "--build", str(build_dir), "-j"])


def to_ms(value: float, unit: str) -> float:
    return value * {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}[unit]


def run_bench(build_dir: Path, name: str, repetitions: int) -> dict:
    binary = build_dir / f"bench_{name}"
    if not binary.exists():
        print(f"warning: {binary} missing (benches disabled?); skipping", file=sys.stderr)
        return {"skipped": True}
    out_json = build_dir / f"bench_{name}.json"
    cmd = [str(binary), "--benchmark_format=json", f"--benchmark_out={out_json}"]
    if repetitions > 1:
        cmd += [f"--benchmark_repetitions={repetitions}",
                "--benchmark_report_aggregates_only=true"]
    start = time.monotonic()
    run(cmd, stdout=subprocess.DEVNULL)
    wall = time.monotonic() - start

    raw = json.loads(out_json.read_text())
    benchmarks = []
    fixed_work_ms = 0.0
    for b in raw.get("benchmarks", []):
        if b.get("run_type") == "aggregate" and b.get("aggregate_name") != "mean":
            continue
        entry = {
            "name": b["name"],
            "real_time": b["real_time"],
            "cpu_time": b.get("cpu_time"),
            "time_unit": b["time_unit"],
            "iterations": b.get("iterations"),
        }
        for counter in KEEP_COUNTERS:
            if counter in b:
                entry[counter] = b[counter]
        benchmarks.append(entry)
        fixed_work_ms += to_ms(b["real_time"], b["time_unit"])
    return {
        "wall_clock_s": round(wall, 3),
        "fixed_work_ms": round(fixed_work_ms, 3),
        "benchmarks": benchmarks,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir", default="build-bench")
    parser.add_argument("--out", default="BENCH_PR1.json")
    parser.add_argument("--compare", help="previous run to embed + compute speedups against")
    parser.add_argument("--skip-build", action="store_true")
    parser.add_argument("--repetitions", type=int, default=1)
    parser.add_argument("--bench", action="append",
                        help=f"bench binary names (default: {DEFAULT_BENCHES})")
    args = parser.parse_args()

    build_dir = (REPO_ROOT / args.build_dir).resolve()
    if not args.skip_build:
        build(build_dir)

    result = {
        # v2: threads axis + parallel_speedup table; v3: degraded_parallel
        # stamp + topology/channel-clock counters; v4: storage axis
        # (memory vs durable WAL) with group-commit/fsync counters; v5:
        # chaos axis (chaos_robustness bench) with injected-fault counters;
        # v6: overload axis (overload bench) with admission/backpressure/
        # deadline/retry counters and the goodput plateau ratio; v7: the
        # threads axis, parallel_speedup table and degraded_parallel stamp
        # are gone with the site-sharded engine.
        "schema": "otpdb-bench-v7",
        "host": {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
        },
        "benches": {},
    }
    for name in args.bench or DEFAULT_BENCHES:
        result["benches"][name] = run_bench(build_dir, name, args.repetitions)

    if args.compare:
        old = json.loads(Path(args.compare).read_text())
        result["compared_against"] = old
        speedups = {}
        for name, new in result["benches"].items():
            old_bench = old.get("benches", {}).get(name)
            if not old_bench or "fixed_work_ms" not in old_bench or new.get("skipped"):
                continue
            # Compare over the intersection of benchmark rows only: a binary
            # that grew new benchmarks (e.g. a new sweep) must not read
            # as a regression of its pre-existing rows. Aggregate rows
            # ("..._mean" under --repetitions) match their plain-named
            # counterparts.
            def base_name(name: str) -> str:
                return name[:-5] if name.endswith("_mean") else name
            old_rows = {base_name(b["name"]): b for b in old_bench.get("benchmarks", [])}
            old_ms = new_ms = 0.0
            for b in new.get("benchmarks", []):
                old_row = old_rows.get(base_name(b["name"]))
                if old_row is None:
                    continue
                old_ms += to_ms(old_row["real_time"], old_row["time_unit"])
                new_ms += to_ms(b["real_time"], b["time_unit"])
            if new_ms > 0:
                speedups[name] = round(old_ms / new_ms, 3)
        result["speedup_fixed_work"] = speedups

    out_path = REPO_ROOT / args.out
    out_path.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {out_path}")
    for name, bench in result["benches"].items():
        if bench.get("skipped"):
            continue
        print(f"  {name}: wall {bench['wall_clock_s']}s, fixed-work {bench['fixed_work_ms']}ms")
    if "speedup_fixed_work" in result:
        print("  speedups vs", args.compare, result["speedup_fixed_work"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
