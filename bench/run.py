"""sobocurve benchmark: one workload, measured for a fixed time.

Usage:
    python3 bench/run.py --workload geodesic|library|cli --seed N --seconds S --trace 0|1

Run from a checkout that has `src/sobocurve`.  Inputs come from the seed
alone.  The measured phase repeats whole rounds (every operation of the
workload once, in sequence) while another round still fits in S seconds,
checks every output, and prints as the last line of stdout one JSON
object with `correct`, `attempted`, `failed` and `metrics`.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 the
per-layer ones, from untraced rounds for half of S and traced rounds for
the other half.  A summary goes to stderr.
"""

from __future__ import annotations

import os

# One process, one BLAS/OpenMP thread: set before NumPy loads, inherited by children.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("geodesic", "library", "cli")
SETUP_REPEATS = 9
IMPORT_REPEATS = 3

# Per-layer spans reported as `<span>.calls` and `<span>.self_s`.
CALL_SPANS = (
    "curves.derivative", "curves.DiscreteCurve", "curves.arc_derivative",
    "metric.coefficient_eval", "metric.coefficient_deriv", "metric.eval_metric",
    "completeness.numeric_integral_evidence", "completeness.w_eval", "completeness.analyze",
    "paths.geodesic_bvp", "paths.path_energy", "paths.path_length",
    "paths.energy_and_gradient", "paths.linear_path", "paths.radial_path_length",
    "counterexample.scaled_leg_length", "counterexample.build_sequence",
    "counterexample.verify_sequence", "counterexample.pointwise_bounds_check",
)


def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_round(ops, index: int, pause=contextlib.nullcontext, between=None) -> dict:
    """Every operation once, in sequence; wall and CPU time of each call.

    Inputs are made before, and outputs checked after, the timed call,
    both under `pause()` so that a tracer records only the program's work.
    `between()` runs after each operation, outside its time.
    """
    import workloads

    walls, cpus, outcomes = [], [], []
    for op in ops:
        with pause():
            call, check = op.make(index)
        start, cpu0 = time.perf_counter(), _cpu()
        try:
            result = call()
        except Exception as exc:  # an operation that raises has failed; keep measuring
            result = exc
        walls.append(time.perf_counter() - start)
        cpus.append(_cpu() - cpu0)
        with pause():
            outcomes.append(workloads.judge(check, result))
        if between is not None:
            between()
    return {"op_walls": walls, "op_cpus": cpus, "outcomes": outcomes}


def round_estimate(rounds: list, key: str) -> float:
    """One round's time as the sum over operations of each one's median across rounds.

    Other load on a shared machine slows single operations in bursts; a
    per-operation median drops those bursts where a median of whole
    rounds would still carry the ones inside each round.
    """
    return sum(statistics.median(col) for col in zip(*(r[key] for r in rounds)))


class Clock:
    """Time of the measured phase, less the time spent in set-up probes."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.excluded = 0.0

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0 - self.excluded


def measure_rounds(ops, seconds: float, first: int = 0, pause=contextlib.nullcontext,
                   between=None, clock=None) -> list:
    """Whole rounds, at least one, while another round of average length still fits.

    Rounds are numbered from `first`; each number gives the round's inputs.
    """
    clock = clock or Clock()
    rounds = []
    while True:
        rounds.append(run_round(ops, first + len(rounds), pause, between))
        if clock.elapsed() * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def probe(cmd) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, capture_output=True, text=True, check=True, cwd=ROOT)


class SetupProbes:
    """`setup_s`: the median of SETUP_REPEATS set-ups in fresh interpreters.

    The probes are spread evenly over the measured phase, between
    operations and outside their times, so that one burst of other load
    on the machine cannot slow all of them.
    """

    def __init__(self, workload: str, seed: int, work: Path, seconds: float, clock: Clock):
        self.cmd = [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed), str(work)]
        self.seconds, self.clock, self.times = seconds, clock, []

    def _probe(self):
        t0 = time.perf_counter()
        self.times.append(float(probe(self.cmd).stdout))
        self.clock.excluded += time.perf_counter() - t0

    def __call__(self):
        due = self.seconds * len(self.times) / SETUP_REPEATS
        if len(self.times) < SETUP_REPEATS and self.clock.elapsed() >= due:
            self._probe()

    def median(self) -> float:
        while len(self.times) < SETUP_REPEATS:
            self._probe()
        return statistics.median(self.times)


def import_seconds() -> tuple:
    """Median (curves.import_s, cli.import_s) over fresh interpreters."""
    curves, cli = [], []
    for _ in range(IMPORT_REPEATS):
        res = probe([sys.executable, "-X", "importtime", str(BENCH / "import_probe.py")])
        cli.append(float(res.stdout))
        # "import time: <self us> | <cumulative us> | <name>"
        match = re.search(r"\|\s*(\d+)\s*\|\s*sobocurve\.curves\s*$", res.stderr, re.M)
        curves.append(int(match.group(1)) * 1e-6)
    return statistics.median(curves), statistics.median(cli)


def end_to_end(workload: str, rounds: list, setup_s: float, runner) -> dict:
    walls = [w for r in rounds for w in r["op_walls"]]
    if workload == "cli":
        peak_kb = max(run.maxrss_kb for run in runner.runs)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "run_s": (round_estimate(rounds, "op_walls"), "s"),
        "cpu_s": (round_estimate(rounds, "op_cpus"), "s"),
        "op_p50_ms": (1e3 * statistics.median(walls), "ms"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(tracer, rounds: list, cli_runs: list, imports: tuple, untraced_s: float) -> dict:
    from sobocurve.verify import CHECKS

    n = len(rounds)
    out = {}
    for span in CALL_SPANS:
        out[f"{span}.calls"] = (tracer.calls(span) / n, "count")
        out[f"{span}.self_s"] = (tracer.self_s(span) / n, "s")
    out["completeness.integrand.calls"] = (tracer.calls("completeness.integrand") / n, "count")
    iterations = tracer.counters.get("paths.iterations", 0.0)
    out["paths.iterations"] = (iterations / n, "count")
    out["paths.converged"] = (tracer.counters.get("paths.converged", 0.0) / n, "count")
    solve_s = tracer.self_s("paths.geodesic_bvp")
    out["paths.ms_per_iteration"] = (1e3 * solve_s / iterations if iterations else 0.0, "ms")
    out["verify.run_suite.self_s"] = (tracer.self_s("verify.run_suite") / n, "s")
    for name, _ in CHECKS:
        out[f"verify.check.{name}.s"] = (tracer.total_s(f"verify.check.{name}") / n, "s")
    out["curves.import_s"] = (imports[0], "s")
    out["cli.import_s"] = (imports[1], "s")
    main_s = [run.trace["main_s"] for run in cli_runs if run.trace]
    out["cli.main_s"] = (statistics.median(main_s) if main_s else 0.0, "s")
    out["cli.process_s"] = (statistics.median(r.wall_s for r in cli_runs) if cli_runs else 0.0, "s")
    out["cli.output_bytes"] = (sum(r.output_bytes for r in cli_runs) / n, "bytes")
    traced_s = round_estimate(rounds, "op_walls")
    out["trace.run_s"] = (traced_s, "s")
    out["trace.untraced_run_s"] = (untraced_s, "s")
    out["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    return out


def report(args, ops, rounds, metrics, trace_file=None) -> dict:
    outcomes = [o for r in rounds for o in r["outcomes"]]
    failed = sum(o.failed for o in outcomes)
    correct = not any(o.problems for o in outcomes if not o.failed)
    log = sys.stderr
    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds of {len(ops)} "
          f"operations, {failed} of {len(outcomes)} failed, correct={correct}", file=log)
    walls = sorted(sum(r["op_walls"]) for r in rounds)
    print(f"  round s (operations only): min {walls[0]:.4f} median {statistics.median(walls):.4f} "
          f"max {walls[-1]:.4f}", file=log)
    for i, op in enumerate(ops):
        bad = [(n, o) for n, r in enumerate(rounds) if (o := r["outcomes"][i]).failed or o.problems]
        if bad:
            n, outcome = bad[0]
            status = "FAILED " if outcome.failed else "WRONG  "
            print(f"  {status}{op.name} in {len(bad)} of {len(rounds)} rounds, first round {n}: "
                  f"{'; '.join(outcome.problems)[:300]}", file=log)
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:14.6g} {unit}", file=log)
    if trace_file:
        print(f"  spans: {trace_file}", file=log)
    return {
        "correct": correct,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def measure(args, work: Path) -> dict:
    import workloads

    runner = workloads.CliRunner(SRC, work)
    if not args.trace:
        clock = Clock()
        setup = SetupProbes(args.workload, args.seed, work, args.seconds, clock)
        setup()
        ops = workloads.build(args.workload, args.seed, work, runner)
        rounds = measure_rounds(ops, args.seconds, between=setup, clock=clock)
        return report(args, ops, rounds, end_to_end(args.workload, rounds, setup.median(), runner))

    import spans

    ops = workloads.build(args.workload, args.seed, work, runner)
    imports = import_seconds()
    untraced = measure_rounds(ops, args.seconds / 2)
    untraced_s = round_estimate(untraced, "op_walls")
    first_traced = len(runner.runs)
    runner.shim = BENCH / "cli_shim.py"
    tracer = spans.Tracer()
    tracer.install(callers=[workloads])
    try:
        rounds = measure_rounds(ops, args.seconds / 2, first=len(untraced), pause=tracer.paused)
    finally:
        tracer.uninstall()
    cli_runs = runner.runs[first_traced:]
    for run in cli_runs:
        if run.trace:
            tracer.merge(run.trace["edges"])
            for name, value in run.trace["counters"].items():
                tracer.count(name, value)
    trace_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.dump(trace_file, workload=args.workload, seed=args.seed, rounds=len(rounds))
    metrics = per_layer(tracer, rounds, cli_runs, imports, untraced_s)
    return report(args, ops, rounds, metrics, trace_file)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sobocurve" / "__init__.py").is_file():
        print(f"error: no sobocurve package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        result = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
