#!/usr/bin/env python3
"""A/B the repository benchmark (yardstick) between a git ref and the working tree.

Usage, from the repository root:

  python3 tools/yardstick_ab.py --base HEAD --pairs 10 \\
      --workloads lan_steady --seeds 7,1009 --out BENCH_PRn.json
  python3 tools/yardstick_ab.py --base HEAD --pairs 6 --trace 1 \\
      --workloads lan_steady --append BENCH_PRn.json

The base ref is exported with `git archive` into .bench_build/ab/<sha>/src (a
clean copy of its committed files; the repository's .git is not touched).
Each side is built and run through its own yardstick/run.py with its own
CARGO_TARGET_DIR (.bench_build/ab/<sha>/target and .bench_build/ab/work), so
both are Release builds made the same way. For every workload x seed the
script runs --pairs pairs of one base-ref run and one working-tree run, one
process at a time, alternating which side runs first. Every run lasts
BENCHMARK.json's run_seconds.

Output is the otpdb-yardstick-ab-v1 JSON: the host (CPU count and model),
the base commit, the run length, every run (side "parent" for the base ref
or "new", pair, ran_first, correct, metrics) and a summary per workload x
seed x trace over every pair in the file: for each metric the parent and
new medians, the parent quartiles and how many pairs the new side won in the
direction BENCHMARK.json declares. --append adds runs to an existing file
made against the same base and run length, and recomputes its summary over
all of them.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
AB_DIR = ROOT / ".bench_build" / "ab"
SCHEMA = "otpdb-yardstick-ab-v1"


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export_ref(sha: str) -> Path:
    """Extracts the committed tree of `sha` once; later calls reuse it."""
    src = AB_DIR / sha / "src"
    if not (src / "yardstick" / "run.py").exists():
        shutil.rmtree(src, ignore_errors=True)
        src.mkdir(parents=True)
        archive = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT,
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(src)], input=archive, check=True)
    return src


def host_info() -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"platform": platform.platform(), "machine": platform.machine(),
            "cpus": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version()}


class Side:
    def __init__(self, name: str, src: Path, target: Path):
        self.name, self.src, self.target = name, src, target

    def run(self, workload: str, seed: int, seconds: float, trace: int) -> dict:
        cmd = [sys.executable, str(self.src / "yardstick" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        env = dict(os.environ, CARGO_TARGET_DIR=str(self.target))
        proc = subprocess.run(cmd, cwd=self.src, env=env, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            sys.exit(f"yardstick_ab: {self.name} produced no result ({' '.join(cmd)})")
        return json.loads(lines[-1])


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def directions(spec: dict) -> dict:
    return {m["name"]: m["better"] for kind in ("end_to_end", "per_layer") for m in spec[kind]}


def summarize(runs: list, better: dict) -> list:
    groups = {}
    for r in runs:
        groups.setdefault((r["workload"], r["seed"], r["trace"]), []).append(r)
    out = []
    for (workload, seed, trace), group in sorted(groups.items()):
        by_pair = {}
        for r in group:
            by_pair.setdefault(r["pair"], {})[r["side"]] = r
        pairs = [p for p in by_pair.values() if "parent" in p and "new" in p]
        metrics = {}
        for name in pairs[0]["parent"]["metrics"] if pairs else []:
            base = [p["parent"]["metrics"][name] for p in pairs]
            new = [p["new"]["metrics"][name] for p in pairs]
            sign = 1 if better.get(name, "higher") == "higher" else -1
            q1, _, q3 = statistics.quantiles(base, n=4) if len(base) > 1 else (base[0],) * 3
            metrics[name] = {
                "parent_median": statistics.median(base), "new_median": statistics.median(new),
                "parent_q1": q1, "parent_q3": q3,
                "new_wins": sum(sign * (n - b) > 0 for b, n in zip(base, new)),
                "ties": sum(n == b for b, n in zip(base, new)),
            }
        out.append({"workload": workload, "seed": seed, "trace": trace,
                    "pairs": len(pairs),
                    "all_correct": all(r["correct"] for r in group), "metrics": metrics})
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", required=True, help="git ref to compare against")
    parser.add_argument("--workloads", default="lan_steady,tpcc_durable,wan_overload")
    parser.add_argument("--seeds", default="7")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    dest = parser.add_mutually_exclusive_group(required=True)
    dest.add_argument("--out", type=Path, help="write a new result file")
    dest.add_argument("--append", type=Path, help="add runs to an existing result file")
    args = parser.parse_args()

    spec = benchmark_spec()
    seconds = spec["run_seconds"]
    sha = git("rev-parse", "--short", args.base)
    sides = {"parent": Side("parent", export_ref(sha), AB_DIR / sha / "target"),
             "new": Side("new", ROOT, AB_DIR / "work")}
    workloads = args.workloads.split(",")
    seeds = [int(s) for s in args.seeds.split(",")]

    if args.append:
        doc = json.loads(args.append.read_text())
        if (doc.get("schema") != SCHEMA or not doc.get("compared_against", "").startswith(sha)
                or doc.get("run_seconds") != seconds):
            sys.exit(f"yardstick_ab: {args.append} is not an {SCHEMA} file against {sha}"
                     f" with {seconds}-s runs")
    else:
        doc = {"schema": SCHEMA, "host": host_info(), "compared_against": f"{sha} ({args.base})",
               "run_seconds": seconds,
               "command": f"python3 yardstick/run.py --workload W --seed S --seconds {seconds}"
                          " --trace X per side, each side built by its own run.py (Release)",
               "runs": []}

    # One short run per side first: builds both, and keeps the first build
    # out of the pairs' wall time.
    for side in sides.values():
        print(f"yardstick_ab: building {side.name} ({side.src})", file=sys.stderr)
        side.run(workloads[0], seeds[0], 1, 0)

    pair_offset = 1 + max((r["pair"] for r in doc["runs"]), default=0)
    for workload in workloads:
        for seed in seeds:
            for i in range(args.pairs):
                order = ("parent", "new") if i % 2 == 0 else ("new", "parent")
                for position, name in enumerate(order):
                    result = sides[name].run(workload, seed, seconds, args.trace)
                    doc["runs"].append({
                        "workload": workload, "seed": seed,
                        "trace": args.trace, "pair": pair_offset + i, "side": name, "ran_first": position == 0,
                        "correct": result["correct"], "attempted": result["attempted"],
                        "failed": result["failed"],
                        "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
                    headline = "txn_per_cpu_s" if args.trace == 0 else "sim_net_abcast.self_ms"
                    print(f"yardstick_ab: {workload} seed {seed} trace {args.trace} pair {i + 1}"
                          f" {name}: {headline}={result['metrics'][headline]['value']:.6g}"
                          f" correct={result['correct']}", file=sys.stderr)
            pair_offset += args.pairs
    doc["summary"] = summarize(doc["runs"], directions(spec))
    (args.append or args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if all(r["correct"] for r in doc["runs"]) else 1


if __name__ == "__main__":
    sys.exit(main())
