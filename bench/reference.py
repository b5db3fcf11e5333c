"""Regenerate the per-solve reference figures in bench/README.md.

Usage:
    python3 bench/reference.py [--excluded]
    python3 bench/reference.py --pool

Solves each reference case once with default SolverOptions under the
scale-invariant profile b = [1, 0, 1] and prints a Markdown table: wall
time, iterations, whether the solver reported convergence, the final
sup-norm gradient, and the first iteration whose energy is within 1e-7
(relative) of the final energy.  --excluded adds the cases the workloads
leave out for their run time (N=512 and N=1024, 80 to 200 s each).

--pool instead solves every pair the `geodesic` workload can pass under
each of its symmetries, and prints per pair how many of them converged:
all of them, or none for the random-curve pairs that reproduce the false
non-convergence.  A pair with any other count has to leave the workload.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import numpy as np  # noqa: E402

from sobocurve import DiscreteCurve, Grid, SolverOptions, geodesic_bvp, make_circle  # noqa: E402
from sobocurve import scale_invariant_profile  # noqa: E402
from sobocurve.sampling import random_curve, random_field  # noqa: E402

# (kind, N, T, seed of np.random.default_rng); "random" starts from
# random_curve, "near_circle" from the unit circle, c1 = 1.3 c0 + 0.05 field.
CASES = [
    ("random", 64, 16, 0), ("random", 64, 16, 1), ("random", 64, 16, 2), ("random", 64, 16, 3),
    ("random", 128, 16, 0), ("random", 128, 16, 2), ("random", 128, 16, 5), ("random", 128, 16, 8),
    ("random", 256, 32, 0), ("random", 256, 32, 8),
    ("near_circle", 256, 32, 54),
]
EXCLUDED = [("random", 512, 32, 0), ("random", 512, 32, 1), ("random", 1024, 32, 0)]


def solve(kind: str, n_pts: int, T: int, seed: int) -> str:
    cfg = scale_invariant_profile(2, [1.0, 0.0, 1.0])
    grid = Grid(n_pts)
    rng = np.random.default_rng(seed)
    c0 = random_curve(grid, rng) if kind == "random" else make_circle(1.0, (0.0, 0.0), grid)
    c1 = DiscreteCurve(grid, 1.3 * c0.samples + 0.05 * random_field(grid, rng).values)
    t0 = time.perf_counter()
    res = geodesic_bvp(cfg, c0, c1, SolverOptions(T=T))
    wall = time.perf_counter() - t0
    trace = np.asarray(res.energy_trace)
    settled = int(np.argmax(np.abs(trace - res.energy) <= 1e-7 * res.energy))
    return (f"| {kind} | {n_pts}/{T} | {seed} | {wall:.2f} | {res.iterations} | {res.converged} "
            f"| {res.gradient_norm_final:.2e} | {settled} |")


def pool() -> None:
    import workloads

    cfg = scale_invariant_profile(2, [1.0, 0.0, 1.0])
    print("| pair | converged | iterations | slowest s |")
    print("|---|---|---|---|")
    for name, c0, c1, T, _ in workloads.geodesic_pairs():
        grid, done, iterations, slowest = c0.grid, 0, set(), 0.0
        for move in workloads.symmetries(name, grid.n_points):
            a, b = DiscreteCurve(grid, move(c0.samples)), DiscreteCurve(grid, move(c1.samples))
            t0 = time.perf_counter()
            res = geodesic_bvp(cfg, a, b, SolverOptions(T=T))
            slowest = max(slowest, time.perf_counter() - t0)
            done += res.converged
            iterations.add(res.iterations)
        print(f"| {name} | {done} of {workloads.SYMMETRIES} | {min(iterations)}-{max(iterations)} "
              f"| {slowest:.2f} |", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--excluded", action="store_true", help="add the N=512 and N=1024 cases")
    parser.add_argument("--pool", action="store_true", help="check the geodesic workload's pairs")
    args = parser.parse_args(argv)
    if args.pool:
        pool()
        return 0
    print("| pair | N/T | seed | wall s | iterations | converged | final sup grad "
          "| energy settled at iteration |")
    print("|---|---|---|---|---|---|---|---|")
    for case in CASES + (EXCLUDED if args.excluded else []):
        print(solve(*case), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
