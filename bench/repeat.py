"""Repeat benchmark runs over several seeds and summarise each metric.

Usage:
    python3 bench/repeat.py [--runs 10] [--first-seed 0] [--seconds 30]

Runs `bench/run.py` untraced once per (workload, seed), one run at a time, and
prints for every workload its attempted and failed operations and, for
every metric, the median, the quartiles (statistics.quantiles, n=4) and
the quartile spread as a share of the median.  The raw results are
written to .bench_out/repeat-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("geodesic", "library", "cli")


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if res.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {res.returncode}:\n{res.stderr}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def summarise(workload: str, results: list) -> list:
    attempted = [r["attempted"] for r in results]
    failed = [r["failed"] for r in results]
    lines = [f"## {workload}: {len(results)} runs, correct={all(r['correct'] for r in results)}, "
             f"failed/attempted per run: {', '.join(f'{f}/{a}' for f, a in zip(failed, attempted))}",
             "", "| metric | unit | median | q1 | q3 | (q3-q1)/median |", "|---|---|---|---|---|---|"]
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        lines.append(f"| {name} | {first['unit']} | {med:.6g} | {q1:.6g} | {q3:.6g} | {spread:.3f} |")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=int,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    args = parser.parse_args(argv)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            results.append(run_once(workload, seed, args.seconds))
            print(f"{workload} seed {seed}: {json.dumps(results[-1])}", file=sys.stderr, flush=True)
        (out_dir / f"repeat-{workload}.json").write_text(json.dumps(results, indent=1))
        print("\n".join(summarise(workload, results)) + "\n", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
