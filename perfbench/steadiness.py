#!/usr/bin/env python3
"""Steadiness report: runs one workload N times and summarises each metric.

    python3 perfbench/steadiness.py --workload qdb-hard --runs 10 --seed-base 100 \
        --save set1.json
    python3 perfbench/steadiness.py --compare set1.json set2.json

Each run uses its own seed (seed-base, seed-base+1, ...). For every metric
the report prints the sample count, median, first and third quartile and
the relative spread (q3 - q1) / median, computed with
statistics.quantiles(values, n=4); for end-to-end metrics it also prints the
bound from BENCHMARK.json and whether the spread stays under a third of it.
--compare reads two saved sets and shows, per metric, how far the second
median is worse than the first, against the metric's bound.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench_config():
    with open(ROOT / "BENCHMARK.json") as f:
        cfg = json.load(f)
    specs = {m["name"]: m for m in cfg["end_to_end"] + cfg["per_layer"]}
    return cfg, specs


def build_type():
    cache = ROOT / ".bench_build" / "perfbench" / "CMakeCache.txt"
    if cache.exists():
        for line in cache.read_text().splitlines():
            if line.startswith("CMAKE_BUILD_TYPE:"):
                return line.split("=", 1)[1]
    return "unbuilt"


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    elapsed = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"run failed: workload={workload} seed={seed} exit={proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"incorrect result: workload={workload} seed={seed}")
    return result, elapsed


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    med = statistics.median(values)
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def report(data, specs):
    print(f"workload {data['workload']}  trace {data['trace']}  runs {len(data['seeds'])}"
          f"  seeds {data['seeds'][0]}..{data['seeds'][-1]}  nproc {data['nproc']}"
          f"  build {data['build']}  host {data['host']}"
          f"  longest run {max(data.get('elapsed', [0])):.1f} s")
    print(f"{'metric':28} {'unit':6} {'n':>3} {'median':>14} {'q1':>14} {'q3':>14}"
          f" {'rel_iqr':>8} {'bound':>6} ok")
    for name, values in data["metrics"].items():
        med, q1, q3, spread = summarise(values)
        spec = specs.get(name, {})
        bound = spec.get("bound")
        ok = "" if bound is None else ("yes" if spread < bound / 3 else "NO")
        print(f"{name:28} {spec.get('unit', ''):6} {len(values):3d} {med:14.6g}"
              f" {q1:14.6g} {q3:14.6g} {spread:8.4f}"
              f" {'' if bound is None else bound:>6} {ok}")


def compare(path_a, path_b, specs):
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    print(f"workload {a['workload']}: {path_a} (seeds {a['seeds'][0]}..) vs "
          f"{path_b} (seeds {b['seeds'][0]}..)")
    print(f"{'metric':28} {'median A':>14} {'median B':>14} {'worse_by':>9} {'bound':>6} ok")
    for name, va in a["metrics"].items():
        if name not in b["metrics"]:
            continue
        ma, mb = statistics.median(va), statistics.median(b["metrics"][name])
        spec = specs.get(name, {})
        sign = -1 if spec.get("better") == "higher" else 1
        worse = sign * (mb - ma) / ma if ma else 0.0
        bound = spec.get("bound")
        ok = "" if bound is None else ("yes" if worse <= bound else "NO")
        print(f"{name:28} {ma:14.6g} {mb:14.6g} {worse:9.4f}"
              f" {'' if bound is None else bound:>6} {ok}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", help="write the collected values to this JSON file")
    ap.add_argument("--compare", nargs=2, metavar=("SET_A", "SET_B"))
    args = ap.parse_args()
    cfg, specs = bench_config()

    if args.compare:
        compare(*args.compare, specs)
        return
    if not args.workload:
        ap.error("--workload is required unless --compare is given")
    seconds = args.seconds or cfg["run_seconds"]
    seeds = list(range(args.seed_base, args.seed_base + args.runs))
    metrics, elapsed = {}, []
    for seed in seeds:
        result, took = run_once(args.workload, seed, seconds, args.trace)
        elapsed.append(took)
        for name, m in result["metrics"].items():
            metrics.setdefault(name, []).append(m["value"])
    data = {"workload": args.workload, "trace": args.trace, "seeds": seeds,
            "seconds": seconds, "nproc": os.cpu_count(), "build": build_type(),
            "host": platform.machine(), "elapsed": elapsed, "metrics": metrics}
    report(data, specs)
    if args.save:
        Path(args.save).write_text(json.dumps(data, indent=1) + "\n")


if __name__ == "__main__":
    main()
