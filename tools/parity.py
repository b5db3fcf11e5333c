"""Digests of the program's outputs, to show that two trees compute the same numbers.

Usage: python tools/parity.py [GROUP ...] [--dump PATH]
       python tools/parity.py --compare OLD NEW

Each group is one function that returns the group's outputs as JSON-able
records; an array output is recorded as the sha256 of its bytes:

- suite:    the `run_suite` payloads for seeds 0-399;
- geodesic: the solves of each `bench/workloads.geodesic_pairs()` pair
            under the benchmark's scale-invariant metric, as given and
            under the first SYMMETRIES of the workload's symmetries: each
            solve's name and `to_dict()`, with its energy trace, whose
            length varies, and its path samples as arrays;
- cli:      per `sobocurve.cli.main` case (four counterexample cases and
            `verify --seed 3`), its argv, exit code and stdout bytes, and
            the stdout read back: parsed if it is JSON, else as lines;
- library:  `coefficient_eval` and `coefficient_deriv` of ten profiles on
            lengths 1e-6 to 1e6, `analyze` of 200 seeded random metrics,
            `eval_metric`, `radial_path_length` and `w_eval` at scales
            1e-100 to 1e100, and `radial_path_length` and `w_eval` under
            a_0 = 1, a_2 = 2 out to 1e200 and 1e-200: the evaluators
            outside the solver in range; then `random_curve` and
            `random_field` for seeds 0-49 at N = 16, 128, 512 and 1024,
            and `scaled_leg_length` between bumpy circles at N = 1024 for
            T = 1, 7, 64 and 100 at three base scales.

Prints one line per group: its name and the sha256 of its records as
sorted-key JSON.  Run it in a checkout of each tree and diff the output:
a refactor that keeps every number keeps every line.  Group names as
arguments (`python tools/parity.py suite cli`) print only those groups,
in the order above.  The script reads `bench/` and changes nothing.

Where a digest moves, `--dump PATH` also writes the printed groups'
records to PATH, one JSON object keyed by group, and `--compare OLD NEW`
walks two such dumps.  It exits non-zero where their structure differs
(groups, keys or list lengths).  Otherwise it prints, per group, how many
of its values changed and, per field path with a changed value (list
indices collapsed to `[]`), how many changed, the largest relative change
and the old and new totals of its numbers, or else its first change.
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
SYMMETRIES = 4
SAMPLING_GRIDS = (16, 128, 512, 1024)
CLI_CASES = (
    ["counterexample", "--case", "grow", "--p", "0", "--alpha", "10"],
    ["counterexample", "--case", "shrink", "--p", "2", "--alpha", "-12"],
    ["counterexample", "--case", "grow", "--p", "-1", "--alpha", "200"],
    ["counterexample", "--case", "grow", "--p", "0.5", "--alpha", "25"],
    ["verify", "--seed", "3"],
)


def _sha(data) -> str:
    """The sha256 of an array's or a byte string's bytes."""
    return hashlib.sha256(data.tobytes() if isinstance(data, np.ndarray) else data).hexdigest()


def suite() -> list:
    return [run_suite(seed=seed) for seed in SUITE_SEEDS]


def geodesic() -> list:
    cfg = scale_invariant_profile(2, workloads.B_SI)
    records = []
    for name, c0, c1, T, _ in workloads.geodesic_pairs():
        moves = enumerate(workloads.symmetries(name, c0.grid.n_points)[:SYMMETRIES])
        for label, move in [(name, lambda x: x), *((f"{name}/{k}", m) for k, m in moves)]:
            a, b = (DiscreteCurve(c.grid, move(c.samples)) for c in (c0, c1))
            res = geodesic_bvp(cfg, a, b, SolverOptions(T=T))
            records.append({"name": label, **res.to_dict(), "path": _sha(res.path.samples),
                            "energy_trace": _sha(np.array(res.energy_trace))})
    return records


def cli() -> list:
    records = []
    for argv in CLI_CASES:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        text = out.getvalue()
        try:
            output = json.loads(text)
        except json.JSONDecodeError:
            output = text.splitlines()
        records.append({"argv": argv, "exit": code, "stdout": _sha(text.encode()),
                        "output": output})
    return records


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


def library() -> dict:
    rng = np.random.default_rng(0)
    profiles = [PowerLaw(1.0, -3.0), PowerLaw(1.0, 1.0), PowerLaw(2.5, 1.7), PowerLaw(0.3, -0.5),
                PowerLaw(1e-10, -2.0), Constant(2.0), *(_table(rng) for _ in range(4))]
    lengths = np.geomspace(1e-6, 1e6, 241)
    coefficients = [{name: {"array": _sha(fn(term, lengths)),
                            "floats": [fn(term, float(x)) for x in lengths[::20]]}
                     for name, fn in (("eval", coefficient_eval), ("deriv", coefficient_deriv))}
                    for term in profiles]
    reports = [analyze(_random_metric(rng)).to_dict() for _ in range(200)]
    grid = Grid(64)
    metrics = [scale_invariant_profile(2, [1.0, 0.0, 1.0]),
               MetricConfig(2, {0: Constant(1.0), 2: Constant(2.0)})]
    c, f = random_curve(grid, rng), random_field(grid, rng)
    circle = make_circle(1.0, (0, 0), grid)
    scales = []
    for cfg in metrics:
        for j in range(-100, 101, 5):
            s = 10.0**j
            curve, field = DiscreteCurve(grid, s * c.samples), TangentField(grid, s * f.values)
            scales.append({"eval_metric": eval_metric(cfg, curve, field, field),
                           "radial_path_length": radial_path_length(cfg, circle, s, 2.0 * s),
                           "w_eval": w_eval(cfg, s)})
    far_scales = []
    for j in range(105, 201, 5):  # past 1e100, where a_0 = 1, a_2 = 2 still gives floats
        s = 10.0**j
        far_scales.append({"radial_path_length": radial_path_length(metrics[1], circle, s, 2.0 * s),
                           "w_eval": w_eval(metrics[1], s),
                           "w_eval_inverse": w_eval(metrics[1], 1.0 / s)})
    sampling = []
    for n_pts in SAMPLING_GRIDS:
        grid = Grid(n_pts)
        for seed in range(50):
            rng = np.random.default_rng(seed)
            sampling.append({"curve": _sha(random_curve(grid, rng).samples),
                             "field": _sha(random_field(grid, rng).values)})
    grid = Grid(1024)
    shape0, shape1 = (make_bumpy_circle(1.0, 0.25, lam, grid).samples for lam in (3, 6))
    legs = [[scaled_leg_length(counterexample_metric(0.0), r, shape0, shape1, grid, T)
             for r in (1.0, 7.5, 1e150)] for T in (1, 7, 64, 100)]
    return {"coefficients": coefficients, "analyze": reports, "scales": scales,
            "far_scales": far_scales, "sampling": sampling, "scaled_leg_length": legs}


GROUPS = {"suite": suite, "geodesic": geodesic, "cli": cli, "library": library}


def digest(records) -> str:
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()


def _leaves(old, new, path: str, out: dict) -> None:
    """Append each pair of leaf values to `out[path]`, list indices collapsed to `[]`.

    Exits where the two differ in structure: in keys, list lengths or containers.
    """
    if isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
        for key in old:
            _leaves(old[key], new[key], f"{path}.{key}", out)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for a, b in zip(old, new):
            _leaves(a, b, f"{path}[]", out)
    elif isinstance(old, (dict, list)) or isinstance(new, (dict, list)):
        sys.exit(f"the dumps differ in structure at {path}")
    else:
        out.setdefault(path, []).append((old, new))


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _same(a, b) -> bool:
    return type(a) is type(b) and (a == b or a != a and b != b)  # NaN equals NaN here


def _largest_change(pairs) -> float:
    """The largest |new - old| / |old| over (old, new) pairs; |new| where old is 0."""
    return max((abs(b - a) / abs(a) if a else abs(b) for a, b in pairs), default=0.0)


def compare(old_path: str, new_path: str) -> None:
    old, new = (json.loads(Path(p).read_text()) for p in (old_path, new_path))
    if old.keys() != new.keys():
        sys.exit(f"the dumps hold different groups: {list(old)} and {list(new)}")
    for group in old:
        leaves = {}
        _leaves(old[group], new[group], group, leaves)
        changed = {path: [(a, b) for a, b in pairs if not _same(a, b)]
                   for path, pairs in leaves.items()}
        print(f"{group}: {sum(map(len, changed.values()))} of {sum(map(len, leaves.values()))} "
              "values changed")
        for path, diffs in changed.items():
            if not diffs:
                continue
            line = f"  {path}: {len(diffs)} of {len(leaves[path])} changed"
            numbers = [(a, b) for a, b in leaves[path] if _number(a) and _number(b)]
            if len(numbers) == len(leaves[path]):
                rel = _largest_change(diffs)
                totals = (sum(a for a, _ in numbers), sum(b for _, b in numbers))
                line += f", largest relative change {rel:.3g}, total {totals[0]!r} -> {totals[1]!r}"
            else:
                line += f", first {diffs[0][0]!r} -> {diffs[0][1]!r}"
            print(line)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Digests of the program's outputs.")
    parser.add_argument("groups", nargs="*", metavar="GROUP",
                        help=f"print only these groups, of {', '.join(GROUPS)} (default: all)")
    parser.add_argument("--dump", metavar="PATH",
                        help="also write the groups' records to PATH as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), help="compare two dumps")
    args = parser.parse_args()
    unknown = [name for name in args.groups if name not in GROUPS]
    if unknown:
        parser.error(f"unknown group {unknown[0]!r}; choose from {', '.join(GROUPS)}")
    if args.compare:
        compare(*args.compare)
        sys.exit(0)
    records = {}
    for name, group in GROUPS.items():
        if not args.groups or name in args.groups:
            records[name] = group()
            print(f"{name} {digest(records[name])}", flush=True)
    if args.dump:
        Path(args.dump).write_text(json.dumps(records, indent=1) + "\n")
