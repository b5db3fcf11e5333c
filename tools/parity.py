"""Digests of the program's outputs, to show that two trees compute the same numbers.

Usage: python tools/parity.py

Prints one sha256 line per group of outputs:

- suite:    `run_suite` JSON (sorted keys) for seeds 0-399;
- geodesic: the solves of `bench/workloads.geodesic_pairs()` under the
            benchmark's scale-invariant metric, each as `to_dict()` JSON
            plus the bytes of its path samples;
- cli:      stdout and exit code of `sobocurve.cli.main` for four
            counterexample cases and `verify --seed 3`.

Run it in a checkout of each tree and diff the output: a refactor that
keeps every number keeps every line.  The script reads `bench/` and
changes nothing.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402
from sobocurve import SolverOptions, geodesic_bvp, scale_invariant_profile  # noqa: E402
from sobocurve.cli import main  # noqa: E402
from sobocurve.verify import run_suite  # noqa: E402

SUITE_SEEDS = range(400)
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


def cli_digest() -> str:
    h = hashlib.sha256()
    for argv in CLI_CASES:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        h.update(f"{argv} -> {code}\n{out.getvalue()}".encode())
    return h.hexdigest()


if __name__ == "__main__":
    for name, digest in (("suite", suite_digest), ("geodesic", geodesic_digest), ("cli", cli_digest)):
        print(f"{name} {digest()}", flush=True)
