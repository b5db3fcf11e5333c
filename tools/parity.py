"""Digests of the program's outputs, to show that two trees compute the same numbers.

Usage: python tools/parity.py [GROUP ...]
       python tools/parity.py --dump PATH
       python tools/parity.py --compare OLD NEW

Prints one sha256 line per group of outputs:

- suite:    `run_suite` JSON (sorted keys) for seeds 0-399;
- geodesic: the solves of `bench/workloads.geodesic_pairs()` under the
            benchmark's scale-invariant metric, each as `to_dict()` JSON
            plus the bytes of its path samples;
- cli:      stdout and exit code of `sobocurve.cli.main` for four
            counterexample cases and `verify --seed 3`;
- library:  `coefficient_eval` and `coefficient_deriv` of ten profiles on
            lengths 1e-6 to 1e6, `analyze` of 200 seeded random metrics,
            `eval_metric`, `radial_path_length` and `w_eval` at scales
            1e-100 to 1e100, and `radial_path_length` and `w_eval` under
            a_0 = 1, a_2 = 2 out to 1e200 and 1e-200: the evaluators
            outside the solver in range; then the bytes of `random_curve`
            and `random_field` for seeds 0-49 at N = 16, 128, 512 and
            1024, and `scaled_leg_length` between bumpy circles at N = 1024
            for T = 1, 7, 64 and 100 at three base scales.

Run it in a checkout of each tree and diff the output: a refactor that
keeps every number keeps every line.  Group names as arguments (`python
tools/parity.py suite cli`) print only those groups, in the order above.
The script reads `bench/` and changes nothing.

Where a digest moves, `--dump PATH` shows by how much.  It writes to
PATH one JSON object with:

- geodesic:        per solve of each `geodesic_pairs()` pair under the
                   first DUMP_SYMMETRIES of the workload's symmetries, its
                   name, length, energy, iterations and termination;
- counterexample:  per `cli` counterexample case, the legs `dist_leg1`
                   and `dist_leg2`, the `ds2_velocity_bound` ratios, and
                   every verdict: the exit code, `checks`, each pointwise
                   bound's `ok` and `all_ok`;
- scaled_leg_length: the `library` group's leg lengths;
- library_rest:    the `library` digest without those leg lengths.

`--compare OLD NEW` reads two such dumps and prints the largest relative
change in geodesic length and energy, the iteration totals and the
converged counts; the largest relative change of each leg quantity;
whether every counterexample verdict is unchanged; and whether the rest
of the `library` group is unchanged.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402
import workloads  # noqa: E402
from sobocurve import (  # noqa: E402
    Constant,
    DiscreteCurve,
    Grid,
    MetricConfig,
    PowerLaw,
    SolverOptions,
    Tabulated,
    TangentField,
    analyze,
    coefficient_eval,
    counterexample_metric,
    eval_metric,
    geodesic_bvp,
    make_bumpy_circle,
    make_circle,
    radial_path_length,
    scale_invariant_profile,
    w_eval,
)
from sobocurve.cli import main  # noqa: E402
from sobocurve.counterexample import scaled_leg_length  # noqa: E402
from sobocurve.metric import coefficient_deriv  # noqa: E402
from sobocurve.sampling import random_curve, random_field  # noqa: E402
from sobocurve.verify import run_suite  # noqa: E402

SUITE_SEEDS = range(400)
DUMP_SYMMETRIES = 4
SAMPLING_GRIDS = (16, 128, 512, 1024)
CLI_CASES = (
    ["counterexample", "--case", "grow", "--p", "0", "--alpha", "10"],
    ["counterexample", "--case", "shrink", "--p", "2", "--alpha", "-12"],
    ["counterexample", "--case", "grow", "--p", "-1", "--alpha", "200"],
    ["counterexample", "--case", "grow", "--p", "0.5", "--alpha", "25"],
    ["verify", "--seed", "3"],
)


def suite_digest() -> str:
    h = hashlib.sha256()
    for seed in SUITE_SEEDS:
        h.update(json.dumps(run_suite(seed=seed), sort_keys=True).encode())
    return h.hexdigest()


def geodesic_digest() -> str:
    cfg = scale_invariant_profile(2, workloads.B_SI)
    h = hashlib.sha256()
    for _, c0, c1, T, _ in workloads.geodesic_pairs():
        res = geodesic_bvp(cfg, c0, c1, SolverOptions(T=T))
        h.update(json.dumps(res.to_dict(), sort_keys=True).encode())
        h.update(res.path.samples.tobytes())
    return h.hexdigest()


def _geodesic_rows() -> list:
    cfg = scale_invariant_profile(2, workloads.B_SI)
    rows = []
    for name, c0, c1, T, _ in workloads.geodesic_pairs():
        for k, move in enumerate(workloads.symmetries(name, c0.grid.n_points)[:DUMP_SYMMETRIES]):
            a, b = DiscreteCurve(c0.grid, move(c0.samples)), DiscreteCurve(c1.grid, move(c1.samples))
            res = geodesic_bvp(cfg, a, b, SolverOptions(T=T))
            rows.append({"name": f"{name}/{k}", "length": res.length, "energy": res.energy,
                         "iterations": res.iterations, "termination": res.termination})
    return rows


def _counterexample_rows() -> list:
    """The legs, D_s^2 ratios and verdicts of each `cli` counterexample case."""
    rows = []
    for argv in CLI_CASES:
        if argv[0] != "counterexample":
            continue
        code, out = _run_cli(argv)
        report = json.loads(out)
        legs = report["entries"][:-1]
        bounds = report["pointwise_bounds"]
        rows.append({
            "case": " ".join(argv[1:]),
            "dist_leg1": [e["dist_leg1"] for e in legs],
            "dist_leg2": [e["dist_leg2"] for e in legs],
            "ds2_velocity_bound": [c["ratio"] for c in bounds["checks"] if "ratio" in c],
            "verdicts": {"exit": code, "checks": report["checks"], "all_ok": bounds["all_ok"],
                         "ok": {c["name"]: c["ok"] for c in bounds["checks"]}},
        })
    return rows


def dump(path: str) -> None:
    data = {"geodesic": _geodesic_rows(), "counterexample": _counterexample_rows(),
            "scaled_leg_length": _leg_lengths(), "library_rest": _library_rest().hexdigest()}
    Path(path).write_text(json.dumps(data, indent=1) + "\n")


def _largest_change(pairs) -> float:
    """The largest |new - old| / |old| over (old, new) pairs; |new| where old is 0."""
    return max((abs(b - a) / abs(a) if a else abs(b) for a, b in pairs), default=0.0)


def compare(old_path: str, new_path: str) -> None:
    old_dump, new_dump = (json.loads(Path(p).read_text()) for p in (old_path, new_path))
    old, new = old_dump["geodesic"], new_dump["geodesic"]
    if [r["name"] for r in old] != [r["name"] for r in new]:
        sys.exit("the dumps hold different solves")
    for key in ("length", "energy"):
        rel = _largest_change((a[key], b[key]) for a, b in zip(old, new))
        print(f"{key}: largest relative change {rel:.3g}")
    for name, rows in (("old", old), ("new", new)):
        converged = sum(r["termination"] in ("gradient", "energy_stall") for r in rows)
        print(f"{name}: {sum(r['iterations'] for r in rows)} iterations, "
              f"{converged}/{len(rows)} converged")
    changed = [a["name"] for a, b in zip(old, new)
               if (a["iterations"], a["termination"]) != (b["iterations"], b["termination"])]
    print(f"iterations or termination changed in {len(changed)} solves: {changed}")
    cases = list(zip(old_dump["counterexample"], new_dump["counterexample"]))
    if len(old_dump["counterexample"]) != len(new_dump["counterexample"]) or any(
            a["case"] != b["case"] or len(a["dist_leg1"]) != len(b["dist_leg1"]) for a, b in cases):
        sys.exit("the dumps hold different counterexample cases")
    for key in ("dist_leg1", "dist_leg2", "ds2_velocity_bound"):
        rel = _largest_change(pair for a, b in cases for pair in zip(a[key], b[key]))
        print(f"{key}: largest relative change {rel:.3g}")
    changed = [a["case"] for a, b in cases if a["verdicts"] != b["verdicts"]]
    print(f"counterexample verdicts changed in {len(changed)} cases: {changed}")
    rel = _largest_change(zip(np.ravel(old_dump["scaled_leg_length"]),
                              np.ravel(new_dump["scaled_leg_length"])))
    print(f"scaled_leg_length: largest relative change {rel:.3g}")
    same = old_dump["library_rest"] == new_dump["library_rest"]
    print(f"library without scaled_leg_length: {'unchanged' if same else 'CHANGED'}")


def _run_cli(argv: list) -> tuple:
    """The exit code and stdout of `sobocurve.cli.main(argv)`."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def cli_digest() -> str:
    h = hashlib.sha256()
    for argv in CLI_CASES:
        code, out = _run_cli(argv)
        h.update(f"{argv} -> {code}\n{out}".encode())
    return h.hexdigest()


def _table(rng: np.random.Generator) -> Tabulated:
    knots = np.cumprod(rng.uniform(1.2, 4.0, 6)) * rng.uniform(1e-3, 1.0)
    values = rng.uniform(0.5, 2.0, 6) * knots ** rng.uniform(-6.0, 6.0)
    return Tabulated(tuple(knots.tolist()), tuple(values.tolist()))


def _random_metric(rng: np.random.Generator) -> MetricConfig:
    """Order 2-4; a power law, constant or table at each k, absent for some 0 < k < n."""
    n = int(rng.integers(2, 5))
    terms = {}
    for k in range(n + 1):
        form = int(rng.integers(0, 3 if k in (0, n) else 4))
        if form == 0:
            terms[k] = PowerLaw(float(rng.uniform(0.1, 3.0)), float(rng.uniform(-8.0, 8.0)))
        elif form == 1:
            terms[k] = Constant(float(rng.uniform(0.1, 3.0)))
        elif form == 2:
            terms[k] = _table(rng)
    return MetricConfig(n, terms)


def _library_rest():
    """The sha256 state of the `library` group up to, not including, its leg lengths."""
    h = hashlib.sha256()
    rng = np.random.default_rng(0)
    profiles = [PowerLaw(1.0, -3.0), PowerLaw(1.0, 1.0), PowerLaw(2.5, 1.7), PowerLaw(0.3, -0.5),
                PowerLaw(1e-10, -2.0), Constant(2.0), *(_table(rng) for _ in range(4))]
    lengths = np.geomspace(1e-6, 1e6, 241)
    for term in profiles:
        for fn in (coefficient_eval, coefficient_deriv):
            h.update(fn(term, lengths).tobytes())
            h.update(repr([fn(term, float(x)) for x in lengths[::20]]).encode())
    for _ in range(200):
        h.update(json.dumps(analyze(_random_metric(rng)).to_dict(), sort_keys=True).encode())
    grid = Grid(64)
    metrics = [scale_invariant_profile(2, [1.0, 0.0, 1.0]),
               MetricConfig(2, {0: Constant(1.0), 2: Constant(2.0)})]
    c, f = random_curve(grid, rng), random_field(grid, rng)
    circle = make_circle(1.0, (0, 0), grid)
    for cfg in metrics:
        for j in range(-100, 101, 5):
            s = 10.0**j
            curve, field = DiscreteCurve(grid, s * c.samples), TangentField(grid, s * f.values)
            values = [eval_metric(cfg, curve, field, field), radial_path_length(cfg, circle, s, 2.0 * s),
                      w_eval(cfg, s)]
            h.update(repr(values).encode())
    for j in range(105, 201, 5):  # past 1e100, where a_0 = 1, a_2 = 2 still gives floats
        s = 10.0**j
        values = [radial_path_length(metrics[1], circle, s, 2.0 * s), w_eval(metrics[1], s),
                  w_eval(metrics[1], 1.0 / s)]
        h.update(repr(values).encode())
    for n_pts in SAMPLING_GRIDS:
        grid = Grid(n_pts)
        for seed in range(50):
            rng = np.random.default_rng(seed)
            h.update(random_curve(grid, rng).samples.tobytes())
            h.update(random_field(grid, rng).values.tobytes())
    return h


def _leg_lengths() -> list:
    """`scaled_leg_length` between bumpy circles at N = 1024, per T a list over three base scales."""
    grid = Grid(1024)
    shape0, shape1 = (make_bumpy_circle(1.0, 0.25, lam, grid).samples for lam in (3, 6))
    return [[scaled_leg_length(counterexample_metric(0.0), r, shape0, shape1, grid, T)
             for r in (1.0, 7.5, 1e150)] for T in (1, 7, 64, 100)]


def library_digest() -> str:
    h = _library_rest()
    for values in _leg_lengths():
        h.update(repr(values).encode())
    return h.hexdigest()


if __name__ == "__main__":
    digests = {"suite": suite_digest, "geodesic": geodesic_digest, "cli": cli_digest,
               "library": library_digest}
    parser = argparse.ArgumentParser(description="Digests of the program's outputs.")
    parser.add_argument("groups", nargs="*", metavar="GROUP",
                        help=f"print only these groups, of {', '.join(digests)} (default: all)")
    parser.add_argument("--dump", metavar="PATH",
                        help="write the geodesic solves and counterexample legs to PATH as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), help="compare two dumps")
    args = parser.parse_args()
    unknown = [name for name in args.groups if name not in digests]
    if unknown:
        parser.error(f"unknown group {unknown[0]!r}; choose from {', '.join(digests)}")
    if args.dump:
        dump(args.dump)
        sys.exit(0)
    if args.compare:
        compare(*args.compare)
        sys.exit(0)
    for name, digest in digests.items():
        if not args.groups or name in args.groups:
            print(f"{name} {digest()}", flush=True)
