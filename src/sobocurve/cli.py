"""Command-line front end.

Subcommands: analyze, distance/geodesic, radial, counterexample, verify.
JSON is the canonical output; counterexample also writes CSV.  Exit
codes: 0 success, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from .completeness import analyze
from .counterexample import (
    CounterexampleParams,
    LEG_T,
    build_sequence,
    pointwise_bounds_check,
    verify_sequence,
)
from .curves import load_curve
from .errors import ContractError, NumericalError
from .metric import load_config
from .paths import SolverOptions, geodesic_bvp, path_to_dict, radial_path_length
from .verify import run_suite


def _write(text: str, output: str | None):
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(data, output: str | None):
    _write(json.dumps(data, indent=2, sort_keys=True) + "\n", output)


def _cmd_analyze(args) -> int:
    report = analyze(load_config(args.metric))
    _emit(report.to_dict(), args.output)
    return 0


def _cmd_distance(args) -> int:
    cfg = load_config(args.metric)
    c0 = load_curve(getattr(args, "from"))
    c1 = load_curve(args.to)
    opts = SolverOptions(max_iters=args.max_iters, gap_tol=args.gap_tol, T=args.T)
    result = geodesic_bvp(cfg, c0, c1, opts)
    out = result.to_dict()
    out["sqrt_energy"] = result.energy**0.5
    # A >1% gap between length and sqrt(energy) flags a non-constant-speed path.
    out["constant_speed_ok"] = bool(
        abs(out["sqrt_energy"] - result.length) <= 0.01 * max(result.length, 1e-300)
    )
    if args.dump_path:
        with open(args.dump_path, "w") as fh:
            json.dump(path_to_dict(result.path), fh)
    _emit(out, args.output)
    return 0


def _cmd_radial(args) -> int:
    cfg = load_config(args.metric)
    c0 = load_curve(args.curve)
    length = radial_path_length(cfg, c0, args.from_scale, args.to_scale)
    _emit({"radial_length": length}, args.output)
    return 0


def _cmd_counterexample(args) -> int:
    params = CounterexampleParams(
        case=args.case, p=args.p, alpha=args.alpha, eps=args.eps, lambda0=args.lambda0, b=args.b,
        n_max=args.nmax,
    )
    seq = build_sequence(params)
    report = verify_sequence(params, seq, T=args.T)
    bounds = pointwise_bounds_check(seq)
    out = report.to_dict()
    out["pointwise_bounds"] = bounds
    _emit(out, args.output)
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            csv.writer(fh).writerows(report.csv_rows())
    return 0 if report.ok and bounds["all_ok"] else 3


def _cmd_verify(args) -> int:
    report = run_suite(seed=args.seed)
    lines = []
    for row in report["results"]:
        status = "PASS" if row["ok"] else "FAIL"
        lines.append(f"{status}  {row['name']}: {row['detail']}")
    lines.append("all passed" if report["all_ok"] else "FAILURES present")
    _write("\n".join(lines) + "\n", args.output)
    return 0 if report["all_ok"] else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sobocurve",
        description="Length-weighted Sobolev metrics on closed curves",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="classify a metric's completeness conditions")
    p.add_argument("--metric", required=True)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_analyze)

    for name in ("distance", "geodesic"):
        p = sub.add_parser(name, help="geodesic distance by path-energy minimization")
        p.add_argument("--metric", required=True)
        p.add_argument("--from", required=True)
        p.add_argument("--to", required=True)
        p.add_argument("--T", type=int, default=SolverOptions.T)
        p.add_argument("--max-iters", type=int, default=SolverOptions.max_iters)
        p.add_argument(
            "--gap-tol",
            type=float,
            default=SolverOptions.gap_tol,
            help="stop once the predicted relative energy gap g.Pg / 2E, with the "
            "solver's preconditioner P, is at most this; on random-curve pairs the "
            "actual gap (E - E*) / E was up to 2.1 times the predicted one",
        )
        p.add_argument("--dump-path")
        p.add_argument("--output")
        p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("radial", help="closed-form radial path length")
    p.add_argument("--metric", required=True)
    p.add_argument("--curve", required=True)
    p.add_argument("--from-scale", type=float, required=True)
    p.add_argument("--to-scale", type=float, required=True)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_radial)

    p = sub.add_parser("counterexample", help="build and verify an incompleteness sequence")
    p.add_argument("--case", required=True, choices=["grow", "shrink"])
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--eps", type=float, default=CounterexampleParams.eps)
    p.add_argument("--lambda0", type=int, default=CounterexampleParams.lambda0)
    p.add_argument("--b", type=int, default=CounterexampleParams.b)
    p.add_argument("--nmax", type=int, default=CounterexampleParams.n_max)
    p.add_argument("--T", type=int, default=LEG_T)
    p.add_argument("--csv")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_counterexample)

    p = sub.add_parser("verify", help="run the full invariant suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ContractError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
