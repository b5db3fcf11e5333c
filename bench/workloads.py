"""The benchmark's three workloads: inputs made from a seed, operations, checks.

`build(workload, seed, work, runner)` returns a workload's operations.
An operation's `make(round)` builds that round's inputs and returns
`(call, check)`.  Only `call()` is timed and traced: it is the program's
work.  `check(out, result)` then fills an `Outcome`: `failed` when the
program did not deliver (a solve that did not converge, a CLI exit code
other than the documented one) and `problems` for outputs that
contradict an oracle or a property.  Each round passes the in-process
operations new input arrays, so a result cached in one round cannot
serve the next.  Which operations fail on the current code, and why, is
listed in README.md.
"""

from __future__ import annotations

import functools
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles
from sobocurve import (
    Constant,
    DiscreteCurve,
    Grid,
    MetricConfig,
    PowerLaw,
    SolverOptions,
    Tabulated,
    TangentField,
    analyze,
    arc_derivative,
    build_sequence,
    config_to_dict,
    curve_length,
    curve_to_dict,
    derivative,
    eval_metric,
    geodesic_bvp,
    linear_path,
    make_bumpy_circle,
    make_circle,
    path_energy,
    path_length,
    pointwise_bounds_check,
    radial_path_length,
    scale_invariant_profile,
    verify_sequence,
    w_eval,
)
from sobocurve.counterexample import CounterexampleParams
from sobocurve.paths import energy_and_gradient
from sobocurve.sampling import random_curve, random_field
from sobocurve.verify import CHECKS, run_suite

B_SI = (1.0, 0.0, 1.0)
# |ln l1 - ln l0| <= sqrt(sum_{k>=1} 4^(1-k)) * length; W(l) = ln l for b = [1, 0, 1].
W_BOUND = math.sqrt(1.25)
RTOL = 1e-12


@dataclass
class Outcome:
    failed: bool = False
    problems: list = field(default_factory=list)

    def expect(self, condition, message: str):
        if not condition:
            self.problems.append(message)


@dataclass
class Op:
    name: str
    make: object  # (round: int) -> (call, check)


def judge(check, result) -> Outcome:
    """The outcome of one call; `result` is what it returned or the exception it raised."""
    out = Outcome()
    if isinstance(result, Exception):
        out.failed = True
        out.problems.append(f"raised {result!r}")
        return out
    try:
        check(out, result)
    except Exception as exc:  # output the check cannot read: the program did not deliver
        out.failed = True
        out.problems.append(f"unreadable output: {exc!r}")
    return out


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng([seed, *tags])


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# geodesic: default-option solves under the scale-invariant profile
# ---------------------------------------------------------------------------

# The solver's false non-convergence (ROADMAP item 2) makes every solve a
# lottery on roundoff: a pair that converges may stall with a sup gradient
# just above grad_tol = 1e-6 once a symmetry (below) reorders its sums.
# So every input a run can pass is fixed in advance and was checked
# (`reference.py --pool`): a pool of pairs, each under SYMMETRIES exact
# symmetries.  The seed picks the pool pairs and where in the cycle of
# symmetries the run starts; round r uses the next symmetry.
SYMMETRIES = 32
NEAR_CIRCLE_POOL = (128, 16, 32, 8)  # (N, T, pool size, pairs per run)
CONCENTRIC_POOL = (128, 16, 16, 4)
FIXED_CONCENTRIC = ((64, 16, 2.0), (64, 16, 0.5), (64, 16, 1.5), (64, 16, 0.4),
                    (256, 32, 2.0), (256, 32, 0.5), (256, 32, 1.5), (256, 32, 0.4))  # (N, T, q)
# Random-curve pairs c1 = 1.3 c0 + 0.05 random_field, from
# np.random.default_rng(sampling seed), that reproduce the false
# non-convergence under every one of their symmetries.  Their cycle
# starts at round 0 in every run, so their inputs do not depend on the seed.
FAULT_PAIRS = ((64, 16, 0), (128, 16, 8))  # (N, T, sampling seed)
POOL_TAG, SYMMETRY_TAG = 4, 5


def _symmetry(rng: np.random.Generator, n_pts: int):
    """An exact symmetry of the discrete problem, drawn from `rng`.

    A cyclic shift of the sample index and one of the eight maps of the
    square's dihedral group (swap x and y, negate either).  The stencils
    are circulant and these maps are exact in floating point, so a solve
    on moved endpoints is the same solve up to the order of summation,
    on new arrays.
    """
    shift = int(rng.integers(n_pts))
    swap, flip_x, flip_y = (bool(b) for b in rng.integers(0, 2, size=3))
    signs = np.array([-1.0 if flip_x else 1.0, -1.0 if flip_y else 1.0])

    def move(samples: np.ndarray) -> np.ndarray:
        out = np.roll(samples, shift, axis=0)
        if swap:
            out = out[:, ::-1]
        return np.ascontiguousarray(out * signs)

    return move


def _solve_op(name, cfg, c0, c1, T, symmetry, concentric=None):
    """A solve whose endpoints `symmetry(round)` moves."""
    grid = c0.grid
    options = SolverOptions(T=T)
    # The bounds a result is held to do not change under the symmetries,
    # so they are computed once, here, outside the measured phase.
    e_lin = path_energy(cfg, linear_path(c0, c1, T))
    gap = abs(math.log(oracles.spectral_length(c1.samples))
              - math.log(oracles.spectral_length(c0.samples)))
    if concentric is not None:
        # The midpoint rule in t leaves (ln q)^2 / (12 T^2) on this path;
        # allow twice that plus the order-4 stencil's share.
        exact = oracles.radial_scale_invariant(B_SI, 1.0, concentric)
        tol = math.log(concentric) ** 2 / (6.0 * T * T) + 1e-5

    def make(round_index):
        move = symmetry(round_index)
        a, b = DiscreteCurve(grid, move(c0.samples)), DiscreteCurve(grid, move(c1.samples))

        def check(out, res):
            if not res.converged:
                out.failed = True
                out.problems.append(f"converged=False after {res.iterations} iterations, "
                                    f"sup gradient {res.gradient_norm_final:.2e}")
            out.expect(res.length**2 <= res.energy * (1 + RTOL), "length^2 > energy")
            out.expect(res.energy <= e_lin * (1 + RTOL), "energy above linear-path energy")
            out.expect(
                np.array_equal(res.path.slices[0].samples, a.samples)
                and np.array_equal(res.path.slices[-1].samples, b.samples),
                "endpoints moved",
            )
            out.expect(gap <= W_BOUND * res.length * (1 + 1e-9), "W-function bound violated")
            if concentric is not None:
                out.expect(_rel(res.length, exact) <= tol,
                           f"distance {res.length!r} vs oracle {exact!r}")

        return functools.partial(geodesic_bvp, cfg, a, b, options), check

    return Op(name, make)


def near_circle_pair(i: int):
    """Pool pair i: the unit circle and 1.3 times it plus 0.05 random_field."""
    N = NEAR_CIRCLE_POOL[0]
    grid = Grid(N)
    c0 = make_circle(1.0, (0.0, 0.0), grid)
    field = random_field(grid, np.random.default_rng([POOL_TAG, 1, i]))
    return c0, DiscreteCurve(grid, 1.3 * c0.samples + 0.05 * field.values)


def concentric_pair(i: int):
    """Pool pair i: circles about a random centre, radius ratio q (q < 1 for odd i)."""
    rng = np.random.default_rng([POOL_TAG, 2, i])
    grid = Grid(CONCENTRIC_POOL[0])
    r0 = float(rng.uniform(0.5, 2.0))
    q = float(rng.uniform(1.5, 2.5)) ** (1 if i % 2 == 0 else -1)
    center = rng.normal(size=2)
    return make_circle(r0, center, grid), make_circle(r0 * q, center, grid), q


def geodesic_pairs():
    """Every pair the workload can solve: (name, c0, c1, T, q or None)."""
    pairs = []
    N, T, size, _ = NEAR_CIRCLE_POOL
    pairs += [(f"near_circle_N{N}_T{T}_{i}", *near_circle_pair(i), T, None) for i in range(size)]
    N, T, size, _ = CONCENTRIC_POOL
    for i in range(size):
        c0, c1, q = concentric_pair(i)
        pairs.append((f"concentric_N{N}_T{T}_{i}", c0, c1, T, q))
    for N, T, q in FIXED_CONCENTRIC:
        grid = Grid(N)
        pairs.append((f"concentric_N{N}_T{T}_q{q}", make_circle(1.0, (0.0, 0.0), grid),
                       make_circle(q, (0.0, 0.0), grid), T, q))
    for N, T, s in FAULT_PAIRS:
        grid = Grid(N)
        rng = np.random.default_rng(s)
        c0 = random_curve(grid, rng)
        c1 = DiscreteCurve(grid, 1.3 * c0.samples + 0.05 * random_field(grid, rng).values)
        pairs.append((f"random_curve_N{N}_T{T}_s{s}", c0, c1, T, None))
    return pairs


def symmetries(name: str, n_pts: int) -> list:
    """The SYMMETRIES symmetries that pair `name` cycles through."""
    key = [SYMMETRY_TAG, *name.encode()]
    return [_symmetry(np.random.default_rng(key + [k]), n_pts) for k in range(SYMMETRIES)]


def build_geodesic(seed: int, work: Path) -> list:
    cfg = scale_invariant_profile(2, list(B_SI))
    rng = _rng(seed, 1)
    start = int(rng.integers(SYMMETRIES))
    N, T, size, per_run = NEAR_CIRCLE_POOL
    chosen = {f"near_circle_N{N}_T{T}_{i}" for i in rng.choice(size, size=per_run, replace=False)}
    N, T, size, per_run = CONCENTRIC_POOL
    chosen |= {f"concentric_N{N}_T{T}_{i}" for i in rng.choice(size, size=per_run, replace=False)}
    chosen |= {f"concentric_N{N}_T{T}_q{q}" for N, T, q in FIXED_CONCENTRIC}
    faults = {f"random_curve_N{N}_T{T}_s{s}" for N, T, s in FAULT_PAIRS}
    ops = []
    for name, c0, c1, T, q in geodesic_pairs():
        if name in chosen or name in faults:
            moves = symmetries(name, c0.grid.n_points)
            first = 0 if name in faults else start
            ops.append(_solve_op(name, cfg, c0, c1, T,
                                 lambda r, moves=moves, first=first: moves[(first + r) % SYMMETRIES], q))
    return ops


# ---------------------------------------------------------------------------
# library: many small in-process calls across every module
# ---------------------------------------------------------------------------

NON_CRITICAL_OFFSETS = (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)
KNOTS = tuple(np.geomspace(0.25, 4.0, 8))
# (case, p, alpha); each round scales alpha by a factor in [1, 1.25),
# which keeps it past the case's threshold.
COUNTEREXAMPLES = (("grow", 0.0, 10.0), ("grow", -1.0, 6.0), ("shrink", 2.0, -12.0), ("shrink", 3.0, -8.0))
ALPHA_SPREAD = 0.25
# Suite seeds 0..399 pass on the current code except these two, whose
# metric_algebra check fails by roundoff (see README.md); they are left out.
VERIFY_FAILING = (86, 201)
VERIFY_SEEDS = tuple(s for s in range(400) if s not in VERIFY_FAILING)
VERIFY_PER_ROUND = 2
COMPLETENESS_OPS = 6
METRIC_OPS = 4
PATHS_OPS = 8
CURVES_GRIDS = (64, 128, 256, 128)


def _random_profile(rng, n: int, absent=()):
    """{k: (b, p)} for k in 0..n except `absent`, with non-critical exponents p."""
    return {k: (float(rng.uniform(0.5, 2.0)), 2 * k - 3 + float(rng.choice(NON_CRITICAL_OFFSETS)))
            for k in range(n + 1) if k not in absent}


def _completeness_op(name, n, absent, round_rng):
    knots = np.asarray(KNOTS)

    def make(round_index):
        # Same shapes every round, so the quadrature work per round is steady.
        rng = round_rng(round_index)
        terms = _random_profile(rng, n, absent)
        r_w = float(rng.uniform(2.0, 50.0))
        table = MetricConfig(n, {k: Tabulated(KNOTS, tuple(b * knots**p)) for k, (b, p) in terms.items()})
        power = MetricConfig(n, {k: PowerLaw(b, p) for k, (b, p) in terms.items()})
        exponents = {k: p for k, (_, p) in terms.items()}
        radii = (r_w, 1.0 / r_w)

        def call():
            return [analyze(table), analyze(power)], [w_eval(power, r) for r in radii]

        def check(out, result):
            reports, ws = result
            for rep in reports:
                for k in range(n + 1):
                    for end, verdicts in (("zero", rep.verdicts_zero), ("infinity", rep.verdicts_inf)):
                        want = k in exponents and oracles.power_law_diverges(k, exponents[k], end)
                        got = verdicts[k].verdict
                        out.expect(got == ("divergent" if want else "convergent"),
                                   f"k={k} {end}: {got}, rule says divergent={want}")
                out.expect(rep.classification == oracles.classification(n, exponents),
                           f"classification {rep.classification}")
            for r, got in zip(radii, ws):
                exact = oracles.w_power_law(terms, r)
                out.expect(abs(got - exact) <= 1e-7 * abs(exact) + 1e-9, f"W({r}) = {got} vs {exact}")

        return call, check

    return Op(name, make)


def _counterexample_op(case, p, alpha, round_rng):
    def make(round_index):
        scale = 1.0 + ALPHA_SPREAD * float(round_rng(round_index).random())
        params = CounterexampleParams(case=case, p=p, alpha=alpha * scale, n_max=3)
        n_pts = params.grid().n_points

        def call():
            seq = build_sequence(params)
            return verify_sequence(params, seq, T=64), pointwise_bounds_check(seq)

        def check(out, result):
            rep, bounds = result
            out.failed = not (rep.ok and bounds["all_ok"])
            for e in rep.entries:
                lam = e["lambda"]
                exact = oracles.bumpy_circle_length(params.radius_n(e["n"]), params.eps, lam)
                # The order-4 stencil shrinks mode lam by (lam h)^4 / 30.
                tol = (lam * 2.0 * math.pi / n_pts) ** 4 / 15.0 + 1e-12
                out.expect(_rel(e["ell"], exact) <= tol, f"ell_{e['n']} {e['ell']!r} vs {exact!r}")

        return call, check

    return Op(f"counterexample_{case}_p{p:g}", make)


def _metric_op(name, round_rng):
    grid = Grid(128)
    si = scale_invariant_profile(2, list(B_SI))
    v = np.array([1.0, -0.5])
    const = TangentField(grid, np.tile(v, (grid.n_points, 1)))

    def coefficient_functions(cfg):
        out = []
        for k in range(cfg.n + 1):
            term = cfg.terms.get(k)
            if isinstance(term, PowerLaw):
                out.append(lambda ell, t=term: t.b * ell**t.p)
            elif isinstance(term, Constant):
                out.append(lambda ell, t=term: t.b)
            else:
                out.append(None)
        return out

    def make(round_index):
        rng = round_rng(round_index)
        mixed = MetricConfig(3, {0: PowerLaw(float(rng.uniform(0.5, 2)), -3.0), 1: Constant(0.5),
                                 3: PowerLaw(float(rng.uniform(0.5, 2)), 1.0)})
        radii = [float(r) for r in rng.uniform(0.3, 3.0, size=3)]
        curves = [random_curve(grid, rng) for _ in range(3)]
        fields = [(random_field(grid, rng), random_field(grid, rng)) for _ in curves]
        alpha = float(rng.uniform(0.5, 2.0))
        rho = float(rng.uniform(0.1, 10.0))
        circles = [make_circle(r, (0.0, 0.0), grid) for r in radii]
        radial = [TangentField(grid, c.samples) for c in circles]
        combos = [TangentField(grid, alpha * h.values + g.values) for h, g in fields]
        scaled = [(DiscreteCurve(grid, rho * c.samples), TangentField(grid, rho * h.values))
                  for c, (h, _) in zip(curves, fields)]
        configs = (si, mixed)
        # Exact values, from the benchmark's closed forms.
        circle_exact = [[oracles.circle_radial_energy(coefficient_functions(cfg), r, grid.n_points)
                         for r in radii] for cfg in configs]
        ells = [curve_length(c) for c in curves]
        const_exact = [[coefficient_functions(cfg)[0](ell) * float(v @ v) * ell for ell in ells]
                       for cfg in configs]

        def call():
            per_config = []
            for cfg in configs:
                circle = [eval_metric(cfg, c, h, h) for c, h in zip(circles, radial)]
                pairs = [(eval_metric(cfg, c, h, g), eval_metric(cfg, c, g, h),
                          eval_metric(cfg, c, combo, g), eval_metric(cfg, c, g, g),
                          eval_metric(cfg, c, const, const))
                         for c, (h, g), combo in zip(curves, fields, combos)]
                per_config.append((circle, pairs))
            scale = [(eval_metric(si, sc, sh, sh), eval_metric(si, c, h, h))
                     for (sc, sh), c, (h, _) in zip(scaled, curves, fields)]
            return per_config, scale

        def check(out, result):
            per_config, scale = result
            for (circle, pairs), c_exact, k_exact in zip(per_config, circle_exact, const_exact):
                for r, got, exact in zip(radii, circle, c_exact):
                    out.expect(_rel(got, exact) <= 1e-11, f"G_circle(c, c) r={r}")
                for (ghg, gh_swapped, combo, ggg, gconst), exact in zip(pairs, k_exact):
                    out.expect(_rel(ghg, gh_swapped) <= RTOL, "asymmetric")
                    lin = alpha * ghg + ggg
                    out.expect(abs(combo - lin) <= 1e-11 * abs(lin), "not bilinear")
                    out.expect(_rel(gconst, exact) <= 1e-11, "constant field")
            for got, want in scale:
                out.expect(_rel(got, want) <= 1e-11, "scale invariance")

        return call, check

    return Op(name, make)


def _paths_op(name, round_rng):
    grid = Grid(64)
    cfg = scale_invariant_profile(2, list(B_SI))
    sigma = oracles.fd4_symbol(1, grid.n_points)
    steps = (4, 8, 16)

    def make(round_index):
        rng = round_rng(round_index)
        r = float(rng.uniform(0.5, 2.0))
        v = rng.normal(size=2)
        q = float(rng.uniform(1.5, 3.0))
        c_rand = random_curve(grid, rng)
        c_near = DiscreteCurve(grid, c_rand.samples + 0.1 * random_field(grid, rng).values)
        c = make_circle(r, (0.0, 0.0), grid)
        shifted = DiscreteCurve(grid, c.samples + v)
        ell = 2.0 * math.pi * r * sigma
        exact_translation = float(v @ v) / ell**2  # a_0 = ell^-3 times |v|^2 ell
        # Radial closed form; the stencil's (1 - sigma) is the only error.
        exact_radial = oracles.radial_scale_invariant(B_SI, 1.0, q)

        def call():
            translations = []
            for T in steps:
                p = linear_path(c, shifted, T)
                translations.append((path_energy(cfg, p), path_length(cfg, p),
                                     energy_and_gradient(cfg, p)[0]))
            p = linear_path(c_rand, c_near, 8)
            e, g = energy_and_gradient(cfg, p)
            return translations, (e, g, path_length(cfg, p)), radial_path_length(cfg, c, 1.0, q)

        def check(out, result):
            translations, (e, g, length), radial = result
            for energy, length_t, energy_g in translations:
                out.expect(_rel(energy, exact_translation) <= 1e-11, "translation-path energy")
                out.expect(_rel(length_t, math.sqrt(exact_translation)) <= 1e-11,
                           "translation-path length")
                out.expect(_rel(energy_g, energy) <= RTOL, "energy_and_gradient energy")
            out.expect(length**2 <= e * (1 + RTOL), "length^2 > energy")
            out.expect(g.shape == (7, grid.n_points, 2) and np.all(np.isfinite(g)), "gradient shape")
            out.expect(_rel(radial, exact_radial) <= 4.0 * abs(1.0 - sigma) + 1e-7, "radial length")

        return call, check

    return Op(name, make)


def _curves_op(name, round_rng, n_pts):
    grid = Grid(n_pts)
    theta = grid.theta

    def make(round_index):
        rng = round_rng(round_index)
        modes = [int(m) for m in rng.integers(1, 8, size=4)]
        radii = [float(r) for r in rng.uniform(0.2, 5.0, size=3)]
        lam = int(rng.integers(1, n_pts // 32 + 1))
        eps = float(rng.uniform(0.05, 0.3))
        randoms = [random_curve(grid, np.random.default_rng(int(s)))
                   for s in rng.integers(0, 2**31, size=3)]
        sines = [np.sin(m * theta) for m in modes]
        circles = [make_circle(r, (0.0, 0.0), grid) for r in radii]
        radial = [TangentField(grid, c.samples) for c in circles]
        # Exact values: the stencil's symbol, the benchmark's quadrature
        # and its spectral length.
        d_exact = [oracles.fd4_symbol(m, n_pts) * np.cos(m * theta) for m in modes]
        bumpy_exact = oracles.bumpy_circle_length(1.0, eps, lam)
        bumpy_tol = (lam * 2.0 * math.pi / n_pts) ** 4 / 15.0 + 1e-12
        random_exact = [oracles.spectral_length(c.samples) for c in randoms]

        def call():
            derivs = [derivative(s, grid) for s in sines]
            arcs = [[arc_derivative(c, h, k).values for k in (1, 2, 3)]
                    for c, h in zip(circles, radial)]
            bumpy = curve_length(make_bumpy_circle(1.0, eps, lam, grid))
            return derivs, arcs, bumpy, [curve_length(c) for c in randoms]

        def check(out, result):
            derivs, arcs, bumpy, lengths = result
            for m, got, exact in zip(modes, derivs, d_exact):
                out.expect(np.max(np.abs(got - exact)) <= 1e-12 * m * n_pts, f"d/dtheta sin({m} theta)")
            for r, per_k in zip(radii, arcs):
                for k, values in zip((1, 2, 3), per_k):
                    mod = np.linalg.norm(values, axis=1)
                    out.expect(np.max(np.abs(mod / r ** (1 - k) - 1.0)) <= 1e-11, f"|D_s^{k} c| on r={r}")
            out.expect(_rel(bumpy, bumpy_exact) <= bumpy_tol, f"bumpy length lam={lam}")
            for got, exact in zip(lengths, random_exact):
                out.expect(_rel(got, exact) <= 1e-4, "random curve length")

        return call, check

    return Op(name, make)


def _verify_op(j, suite_seeds):
    def make(round_index):
        # A run walks through its own order of the suite seeds, so no seed
        # repeats within a run of fewer than len(VERIFY_SEEDS) / 2 rounds.
        seed = int(suite_seeds[(VERIFY_PER_ROUND * round_index + j) % len(suite_seeds)])

        def check(out, rep):
            out.failed = not rep["all_ok"]
            out.expect(len(rep["results"]) == len(CHECKS), "missing checks")

        return functools.partial(run_suite, seed=seed), check

    return Op(f"verify_{j}", make)


def build_library(seed: int, work: Path) -> list:
    suite_seeds = _rng(seed, 10).permutation(VERIFY_SEEDS)
    ops = [_verify_op(j, suite_seeds) for j in range(VERIFY_PER_ROUND)]
    for j in range(COMPLETENESS_OPS):
        n, absent = (2, ()) if j % 2 == 0 else (3, (1,))
        ops.append(_completeness_op(f"completeness_{j}", n, absent, functools.partial(_rng, seed, 11, j)))
    ops += [_counterexample_op(*args, functools.partial(_rng, seed, 15, j))
            for j, args in enumerate(COUNTEREXAMPLES)]
    ops += [_metric_op(f"metric_{j}", functools.partial(_rng, seed, 12, j)) for j in range(METRIC_OPS)]
    ops += [_paths_op(f"paths_{j}", functools.partial(_rng, seed, 13, j)) for j in range(PATHS_OPS)]
    ops += [_curves_op(f"curves_{j}", functools.partial(_rng, seed, 14, j), n_pts)
            for j, n_pts in enumerate(CURVES_GRIDS)]
    return ops


# ---------------------------------------------------------------------------
# cli: one `python -m sobocurve.cli` child process per operation
# ---------------------------------------------------------------------------


@dataclass
class CliRun:
    code: int
    stdout: str
    stderr: str
    wall_s: float
    maxrss_kb: int
    output_bytes: int
    trace: dict | None


class CliRunner:
    """Runs the CLI one child at a time and reaps each with its resource usage."""

    def __init__(self, src: Path, work: Path):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.shim = None  # the tracing shim, for traced runs
        self.runs = []

    def __call__(self, *args) -> CliRun:
        out_path, err_path = self.work / "cli.stdout", self.work / "cli.stderr"
        trace_path = self.work / "cli.trace.json"
        env = self.env
        if self.shim is not None:
            cmd = [sys.executable, str(self.shim), *args]
            env = dict(env, SOBOBENCH_TRACE=str(trace_path))
        else:
            cmd = [sys.executable, "-m", "sobocurve.cli", *args]
        with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=fo, stderr=fe, stdin=subprocess.DEVNULL,
                                    cwd=self.work, env=env)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        trace = None
        if self.shim is not None and trace_path.exists():
            trace = json.loads(trace_path.read_text())
            trace_path.unlink()
        run = CliRun(proc.returncode, out_path.read_text(), err_path.read_text(), wall,
                     usage.ru_maxrss, out_path.stat().st_size + err_path.stat().st_size, trace)
        self.runs.append(run)
        return run


def _write_json(path: Path, data) -> Path:
    path.write_text(json.dumps(data))
    return path


def _cli_op(name, runner, args, check=None, expect_code=0):
    def check_run(out, res):
        if res.code != expect_code:
            out.failed = True
            out.problems.append(f"exit {res.code}, expected {expect_code}: {res.stderr.strip()[-200:]}")
        elif expect_code == 2:
            out.expect("Traceback" not in res.stderr and res.stderr.startswith("error:"),
                       "validation error without a one-line message")
        else:
            check(out, res)

    # Every child is a fresh process, so the same arguments in every round
    # leave nothing for a cache to reuse.
    call = functools.partial(runner, *args)
    return Op(name, lambda round_index: (call, check_run))


def _check_analyze(n, exponents, output_file=None):
    def check(out, res):
        rep = json.loads(output_file.read_text() if output_file else res.stdout)
        out.expect(rep["classification"] == oracles.classification(n, exponents),
                   f"classification {rep['classification']}")
        for row in rep["per_k"]:
            k = row["k"]
            want = k in exponents and oracles.power_law_diverges(k, exponents[k], row["end"])
            out.expect(row["verdict"] == ("divergent" if want else "convergent"),
                       f"k={k} {row['end']}: {row['verdict']}")
    return check


def _check_counterexample(case, p, alpha, csv_file=None):
    params = CounterexampleParams(case=case, p=p, alpha=alpha, n_max=3)
    n_pts = params.grid().n_points

    def check(out, res):
        rep = json.loads(res.stdout)
        out.expect(all(rep["checks"].values()) and rep["pointwise_bounds"]["all_ok"], "checks")
        for e in rep["entries"]:
            exact = oracles.bumpy_circle_length(params.radius_n(e["n"]), params.eps, e["lambda"])
            tol = (e["lambda"] * 2.0 * math.pi / n_pts) ** 4 / 15.0 + 1e-12
            out.expect(_rel(e["ell"], exact) <= tol, f"ell_{e['n']}")
        if csv_file is not None:
            out.expect(len(csv_file.read_text().splitlines()) == params.n_max + 2, "CSV rows")
    return check


def build_cli(seed: int, work: Path, runner: CliRunner) -> list:
    rng = _rng(seed, 20)
    si = scale_invariant_profile(2, list(B_SI))
    f_si = _write_json(work / "metric_si.json", config_to_dict(si))

    n_pow, pow_terms = 2, _random_profile(rng, 2)
    f_pow = _write_json(work / "metric_power.json", config_to_dict(
        MetricConfig(n_pow, {k: PowerLaw(b, p) for k, (b, p) in pow_terms.items()})))
    n_tab, tab_terms = 3, _random_profile(rng, 3, absent=(1,))
    knots = np.asarray(KNOTS)
    f_tab = _write_json(work / "metric_table.json", config_to_dict(MetricConfig(
        n_tab, {k: Tabulated(KNOTS, tuple(b * knots**p)) for k, (b, p) in tab_terms.items()})))

    grid = Grid(64)
    r0 = float(rng.uniform(0.5, 2.0))
    q = float(rng.uniform(1.5, 2.5))
    scale = float(rng.uniform(1.5, 3.0))
    # Centred at the origin: `radial` scales about the origin.
    f_c0 = _write_json(work / "circle0.json", curve_to_dict(make_circle(r0, (0.0, 0.0), grid)))
    f_c1 = _write_json(work / "circle1.json", curve_to_dict(make_circle(r0 * q, (0.0, 0.0), grid)))
    verify_seed = int(rng.choice(VERIFY_SEEDS))

    # Fixed invalid inputs: each must exit 2 with a one-line message.
    unit = make_circle(1.0, (0.0, 0.0), grid).samples
    header = "theta,x,y\n"
    rows = [f"{t},{x},{y}" for t, (x, y) in zip(grid.theta.tolist(), unit.tolist())]
    ragged = work / "ragged.csv"
    ragged.write_text(header + "\n".join(rows[:10] + [rows[10] + ",0.0"] + rows[11:]) + "\n")
    nonnum = work / "nonnumeric.csv"
    nonnum.write_text(header + "\n".join(rows[:10] + ["0.98,abc,0.2"] + rows[11:]) + "\n")
    nan_samples = unit.tolist()
    nan_samples[5][0] = float("nan")
    f_nan = _write_json(work / "nan_curve.json", {"N": 64, "d": 2, "samples": nan_samples})
    f_bnan = work / "metric_bnan.json"
    f_bnan.write_text('{"n": 2, "terms": [{"k": 0, "form": "power", "b": NaN, "p": -3.0},'
                      ' {"k": 2, "form": "power", "b": 1.0, "p": 1.0}]}')
    f_n1 = _write_json(work / "metric_n1.json",
                       {"n": 1, "terms": [{"k": 0, "form": "const", "b": 1.0},
                                          {"k": 1, "form": "const", "b": 1.0}]})

    def check_radial(out, res):
        got = json.loads(res.stdout)["radial_length"]
        exact = oracles.radial_scale_invariant(B_SI, 1.0, scale)
        out.expect(_rel(got, exact) <= 4.0 * abs(1.0 - oracles.fd4_symbol(1, 64)) + 1e-7,
                   f"radial {got!r} vs {exact!r}")

    def check_distance(out, res):
        rep = json.loads(res.stdout)
        out.failed = not rep["converged"]
        exact = oracles.radial_scale_invariant(B_SI, 1.0, q)
        tol = math.log(q) ** 2 / (6.0 * 16 * 16) + 1e-5
        out.expect(_rel(rep["length"], exact) <= tol, f"distance {rep['length']!r} vs {exact!r}")
        out.expect(rep["length"] ** 2 <= rep["energy"] * (1 + RTOL), "length^2 > energy")

    def check_verify(out, res):
        lines = res.stdout.splitlines()
        out.expect(lines[-1] == "all passed", "verify did not pass")
        out.expect(sum(line.startswith("PASS") for line in lines) == len(CHECKS), "PASS lines")

    tab_out = work / "analyze_table.out.json"
    grow_csv = work / "grow.csv"
    m = "--metric"
    return [
        _cli_op("analyze_power", runner, ["analyze", m, str(f_pow)], _check_analyze(n_pow, {
            k: p for k, (_, p) in pow_terms.items()})),
        _cli_op("analyze_table", runner, ["analyze", m, str(f_tab), "--output", str(tab_out)],
                _check_analyze(n_tab, {k: p for k, (_, p) in tab_terms.items()}, tab_out)),
        _cli_op("radial", runner, ["radial", m, str(f_si), "--curve", str(f_c0),
                                   "--from-scale", "1.0", "--to-scale", repr(scale)], check_radial),
        _cli_op("distance", runner, ["distance", m, str(f_si), "--from", str(f_c0), "--to",
                                     str(f_c1), "--T", "16"], check_distance),
        _cli_op("counterexample_grow", runner,
                ["counterexample", "--case", "grow", "--p", "0.0", "--alpha", "10.0",
                 "--nmax", "3", "--csv", str(grow_csv)],
                _check_counterexample("grow", 0.0, 10.0, grow_csv)),
        _cli_op("counterexample_shrink", runner,
                ["counterexample", "--case", "shrink", "--p", "2.0", "--alpha", "-12.0",
                 "--nmax", "3"], _check_counterexample("shrink", 2.0, -12.0)),
        _cli_op("verify", runner, ["verify", "--seed", str(verify_seed)], check_verify),
        _cli_op("invalid_missing_file", runner, ["analyze", m, str(work / "missing.json")],
                None, expect_code=2),
        _cli_op("invalid_order_1", runner, ["analyze", m, str(f_n1)], None, expect_code=2),
        _cli_op("invalid_ragged_csv", runner, ["radial", m, str(f_si), "--curve", str(ragged),
                                               "--from-scale", "1", "--to-scale", "2"],
                None, expect_code=2),
        _cli_op("invalid_nonnumeric_csv", runner, ["radial", m, str(f_si), "--curve", str(nonnum),
                                                   "--from-scale", "1", "--to-scale", "2"],
                None, expect_code=2),
        _cli_op("invalid_nan_sample", runner, ["radial", m, str(f_si), "--curve", str(f_nan),
                                               "--from-scale", "1", "--to-scale", "2"],
                None, expect_code=2),
        _cli_op("invalid_b_nan", runner, ["analyze", m, str(f_bnan)], None, expect_code=2),
    ]


def build(workload: str, seed: int, work: Path, runner: CliRunner) -> list:
    """The workload's operations; `cli` writes its input files to `work`."""
    if workload == "geodesic":
        return build_geodesic(seed, work)
    if workload == "library":
        return build_library(seed, work)
    if workload == "cli":
        return build_cli(seed, work, runner)
    raise ValueError(f"unknown workload {workload!r}")
