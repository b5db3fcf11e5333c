"""Self-check suite behind the `verify` CLI subcommand.

Runs the module invariants on seeded random inputs and reports one
pass/fail row per invariant.  Output is deterministic for a fixed seed.

A check on many small curves first draws all its inputs, in the order
the seed fixes (rejection loops of `random_curve` included), then
evaluates them stacked: a few `_form` (`metric._form_blocks`) or
`_true_jet` calls of at most `metric._BLOCK_POINTS` field samples each,
in place of one call per curve.  The kernels give each curve of a stack
the bits of its own call, and each item is still compared on its own,
so every row's detail is the one that per-curve calls would give.

Six checks draw nothing: `derivative_convergence_order`,
`power_law_classifier_agreement`, `completeness_reports`,
`radial_consistency`, `solver_monotone_energy` and
`counterexample_sequence`.  Their bodies take no generator and are
cached with `functools.cache`, so each row is computed once per process;
their `CHECKS` entries accept the generator and ignore it.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .completeness import (
    GAP,
    SUFFICIENT,
    analyze,
    classify_power_law,
    numeric_integral_evidence,
    w_eval,
)
from .counterexample import (
    CounterexampleParams,
    build_sequence,
    pointwise_bounds_check,
    verify_sequence,
)
from .curves import (
    DiscreteCurve,
    Grid,
    _true_jet,
    curve_length,
    derivative,
    integrate_ds,
    make_circle,
)
from .errors import _require_int
from .metric import (
    Constant,
    MetricConfig,
    PowerLaw,
    Tabulated,
    _blocks,
    _form,
    _form_blocks,
    _q_form,
    scale_invariant_profile,
)
from .paths import (
    SolverOptions,
    _midpoints,
    _speeds,
    geodesic_bvp,
    gradient_check,
    linear_path,
    path_length,
    radial_path_length,
)
from .sampling import random_curve, random_field


def w_lipschitz_constant(n: int) -> float:
    """Cauchy-Schwarz constant bounding |d W(ell)/dt| by sqrt(G(h,h))."""
    return math.sqrt(sum(4.0 ** (1 - k) for k in range(1, n + 1)))


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _rotation(angle: float) -> np.ndarray:
    return np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])


def _check_exact_identities(rng):
    grid = Grid(128)
    curves, fields, rhos, shifts, rots = [], [], [], [], []
    for _ in range(20):
        curves.append(random_curve(grid, rng))
        # Unused draw, kept so that each seed's later draws, and so its payload, stay fixed.
        rng.standard_normal(grid.n_points)
        fields.append(random_field(grid, rng).values)
        rhos.append(float(rng.uniform(0.2, 5.0)))
        shifts.append(rng.standard_normal(2))
        rots.append(_rotation(float(rng.uniform(0, 2 * np.pi))))
    c, h = np.array([ci.samples for ci in curves]), np.array(fields)
    _, dc = _true_jet(grid, c, h, 3)
    _, dscaled = _true_jet(grid, np.array(rhos)[:, None, None] * c, h, 3)
    shifted, _ = _true_jet(grid, c + np.array(shifts)[:, None])
    rc = np.array([ci @ rot.T for ci, rot in zip(c, rots)])
    rh = np.array([hi @ rot.T for hi, rot in zip(fields, rots)])
    drot = _true_jet(grid, rc, rh, 2)[1][2]

    def dev(lhs, rhs):
        return np.max(np.abs(lhs - rhs), axis=(1, 2)) / np.max(np.abs(rhs), axis=(1, 2))

    scaling = [dev(dscaled[k], np.array([r**-k for r in rhos])[:, None, None] * dc[k])
               for k in (1, 2, 3)]
    rotated = dev(drot, np.array([d2 @ rot.T for d2, rot in zip(dc[2], rots)]))
    worst = 0.0
    for i, ci in enumerate(curves):
        worst = max(worst, _rel(integrate_ds(ci, np.ones(grid.n_points)), curve_length(ci)))
        worst = max(worst, *(float(sk[i]) for sk in scaling))
        worst = max(worst, float(np.max(np.abs(shifted[i] - ci.arc_speed))), float(rotated[i]))
    return worst <= 1e-12, f"max rel dev {worst:.3e}"


@functools.cache
def _check_convergence_order():
    cases = (
        (lambda t: np.sin(3 * t), lambda t: 3 * np.cos(3 * t)),
        (lambda t: np.cos(5 * t) + np.sin(2 * t), lambda t: -5 * np.sin(5 * t) + 2 * np.cos(2 * t)),
    )
    ratios = []
    for fn, exact in cases:
        errs = []
        for n_pts in (64, 128):
            g = Grid(n_pts)
            errs.append(float(np.max(np.abs(derivative(fn(g.theta), g) - exact(g.theta)))))
        ratios.append(errs[0] / errs[1])
    ok = all(12.0 <= r <= 20.0 for r in ratios)
    return ok, f"refinement error ratios {['%.1f' % r for r in ratios]}"


def _check_poincare(rng):
    grid = Grid(512)
    slack = 1.0 + 1e-3
    curves, fields = [], []
    for _ in range(20):  # curves, each with two fields
        c = random_curve(grid, rng)
        for _ in range(2):
            curves.append(c)
            fields.append(random_field(grid, rng).values)
    samples, h = np.array([c.samples for c in curves]), np.array(fields)
    ell = np.array([curve_length(c) for c in curves])
    ell_sq = np.array([x**2 for x in ell.tolist()])
    ok = True
    for b in _blocks(len(samples), grid.n_points):
        s, u = _true_jet(grid, samples[b], h[b], 4)
        l2 = [_q_form(grid.spacing, uk, uk, s) for uk in u]  # |D_s^k h|^2_L2(ds)
        sup1 = np.max(np.sum(u[1] ** 2, axis=-1), axis=-1)
        ok = ok and (sup1 <= (ell[b] / 4.0) * l2[2] * slack).all()
        ok = ok and (l2[1] <= (ell_sq[b] / 4.0) * l2[2] * slack).all()
        for n_ord in range(2, 5):
            for k in range(n_ord + 1):
                ok = ok and (l2[k] <= (l2[0] + l2[n_ord]) * slack).all()
    return ok, "three Poincare inequalities with slack 1e-3"


def _check_metric_algebra(rng):
    grid = Grid(128)
    cfg = MetricConfig(2, {0: Constant(1.0), 2: Constant(1.0)})
    si = scale_invariant_profile(2, [1.0, 0.0, 1.0])
    draws, pairs, si_pairs = [], [], []
    for _ in range(20):
        c = random_curve(grid, rng)
        h = random_field(grid, rng).values
        g = random_field(grid, rng).values
        alpha = float(rng.uniform(0.5, 2.0))
        rot = _rotation(float(rng.uniform(0, 2 * np.pi)))
        shift = rng.standard_normal(2)
        rho = float(rng.choice([0.1, 3.0, 50.0]))
        draws.append((c, h, alpha))
        combo = alpha * h + g
        # G(h, g), G(h, h), G(g, g), G(g, h), G(combo, g), G(combo, combo), then
        # G(h, g) rotated and shifted; under si, G(h, h) scaled by rho and not.
        pairs += [(c.samples, h, g), (c.samples, h, h), (c.samples, g, g), (c.samples, g, h),
                  (c.samples, combo, g), (c.samples, combo, combo),
                  (c.samples @ rot.T + shift, h @ rot.T, g @ rot.T)]
        si_pairs += [(rho * c.samples, rho * h, rho * h), (c.samples, h, h)]
    values = _form_blocks(cfg, grid, *map(np.array, zip(*pairs))).reshape(20, 7).tolist()
    si_values = _form_blocks(si, grid, *map(np.array, zip(*si_pairs))).reshape(20, 2).tolist()
    worst = 0.0
    for (c, h, alpha), (hg, quad, gg, gh, combo_g, combo_combo, rotated), (scaled, plain) in zip(
        draws, values, si_values
    ):
        # A cross term G(h, g) can be near zero, so its deviations are
        # measured against the Cauchy-Schwarz bound sqrt(G(h,h) G(g,g)).
        cs = math.sqrt(quad * gg)
        worst = max(worst, abs(hg - gh) / cs)
        lin = combo_g - (alpha * hg + gg)
        worst = max(worst, abs(lin) / math.sqrt(combo_combo * gg))
        l2 = integrate_ds(c, np.sum(h**2, axis=1))
        if quad < l2 * (1 - 1e-12):
            worst = max(worst, 1.0)
        worst = max(worst, abs(rotated - hg) / cs)
        worst = max(worst, _rel(scaled, plain))
    return worst <= 1e-12, f"max rel dev {worst:.3e}"


@functools.cache
def _check_classifier_agreement():
    ok = True
    for k in range(0, 5):
        for dp in (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0):
            p = 2.0 * k - 3.0 + dp
            analytic = classify_power_law(k, p)
            knots = np.geomspace(0.25, 4.0, 8)
            table = Tabulated(tuple(knots), tuple(knots**p))
            for end, key in (("zero", "I0"), ("infinity", "Iinf")):
                numeric = numeric_integral_evidence(table, k, end)
                ok = ok and numeric.verdict == analytic[key].verdict
    return ok, "analytic vs numeric on non-critical power laws"


@functools.cache
def _check_completeness_reports():
    gap1 = analyze(MetricConfig(2, {0: PowerLaw(1.0, -3.0), 2: PowerLaw(1.0, 0.0)}))
    gap2 = analyze(MetricConfig(2, {0: PowerLaw(1.0, -3.0), 2: PowerLaw(1.0, 2.0)}))
    suff = analyze(scale_invariant_profile(2, [1.0, 0.0, 1.0]))
    got = [(r.classification, r.condition_I0, r.condition_Iinf) for r in (gap1, gap2)]
    ok = got == [(GAP, True, False), (GAP, False, True)] and suff.classification == SUFFICIENT
    return ok, "gap/gap/sufficient classifications"


def _check_w_function(rng):
    ok = True
    for _ in range(20):
        n = int(rng.integers(2, 4))
        terms = {0: PowerLaw(float(rng.uniform(0.5, 2.0)), float(rng.uniform(-4, 1)))}
        terms[n] = PowerLaw(float(rng.uniform(0.5, 2.0)), float(rng.uniform(-2, 3)))
        cfg = MetricConfig(n, terms)
        ok = ok and w_eval(cfg, 1.0) == 0.0
        ok = ok and w_eval(cfg, 2.0) > w_eval(cfg, 1.5)
        ok = ok and w_eval(cfg, 0.5) < 0.0
    cfg = MetricConfig(2, {0: Constant(1.0), 1: PowerLaw(1.0, -2.0), 2: PowerLaw(1.0, 3.0)})
    ok = ok and abs(w_eval(cfg, 1e-6)) >= 10.0 * abs(w_eval(cfg, 1e-3))
    ok = ok and abs(w_eval(cfg, 1e6)) >= 10.0 * abs(w_eval(cfg, 1e3))
    return ok, "W(1)=0, monotone, unbounded under divergence"


def _check_path_identities(rng):
    grid = Grid(128)
    cfg = MetricConfig(2, {0: Constant(1.0), 2: Constant(1.0)})
    draws = []  # per draw: a path, its reversal, a translation and the latter's exact energy
    for _ in range(5):
        c0 = random_curve(grid, rng)
        c1 = DiscreteCurve(grid, c0.samples + 0.1 * random_field(grid, rng).values)
        p = linear_path(c0, c1, 16)
        v = rng.standard_normal(2)
        tp = linear_path(c0, DiscreteCurve(grid, c0.samples + v), 8)
        draws.append(([p.samples, p.samples[::-1], tp.samples], curve_length(c0) * float(np.dot(v, v))))
    ok = True
    worst = 0.0
    for stacks, exact in draws:
        # The three paths' intervals in one stack; a path's dt is 1 / (its interval count).
        mids = [_midpoints(x, 1.0 / (len(x) - 1)) for x in stacks]
        values = _form_blocks(cfg, grid, *(np.concatenate(m) for m in zip(*mids)))
        forward, reverse, translation = np.split(values, [16, 32])
        e = (1.0 / 16) * float(np.sum(forward))
        ln = (1.0 / 16) * float(np.sum(_speeds(forward)))
        ok = ok and ln**2 <= e * (1 + 1e-12)
        worst = max(worst, _rel((1.0 / 16) * float(np.sum(reverse)), e))
        worst = max(worst, _rel((1.0 / 8) * float(np.sum(translation)), exact))
    return ok and worst <= 1e-12, f"Cauchy-Schwarz + reversal + translation, dev {worst:.3e}"


@functools.cache
def _check_radial_consistency():
    grid = Grid(128)
    cfg = MetricConfig(2, {0: Constant(1.0), 2: Constant(1.0)})
    circle = make_circle(1.0, (0.0, 0.0), grid)
    closed = radial_path_length(cfg, circle, 1.0, 2.0)
    big = make_circle(2.0, (0.0, 0.0), grid)
    discrete = path_length(cfg, linear_path(circle, big, 400))
    dev = _rel(closed, discrete)
    return dev <= 1e-3, f"radial closed form vs discrete path, dev {dev:.3e}"


def _check_gradient(rng):
    grid = Grid(64)
    cfg = scale_invariant_profile(2, [1.0, 0.0, 1.0])
    c0 = random_curve(grid, rng)
    c1 = DiscreteCurve(grid, c0.samples + 0.1 * random_field(grid, rng).values)
    p = linear_path(c0, c1, 8)
    dev = gradient_check(cfg, p, n_coords=10, rng=rng)
    return dev <= 1e-6, f"analytic vs FD gradient, dev {dev:.3e}"


@functools.cache
def _check_solver_monotone():
    grid = Grid(64)
    cfg = MetricConfig(2, {0: Constant(1.0), 2: Constant(1.0)})
    c0 = make_circle(1.0, (0.0, 0.0), grid)
    c1 = make_circle(1.5, (0.0, 0.0), grid)
    res = geodesic_bvp(cfg, c0, c1, SolverOptions(max_iters=50, gap_tol=3e-9, T=8))
    trace = res.energy_trace
    monotone = all(trace[i + 1] <= trace[i] + 1e-12 for i in range(len(trace) - 1))
    pinned = np.array_equal(res.path.samples[0], c0.samples) and np.array_equal(
        res.path.samples[-1], c1.samples
    )
    ok = monotone and pinned and res.energy <= trace[0]
    return ok, f"energy {trace[0]:.4f} -> {res.energy:.4f} in {res.iterations} iters"


def _check_w_length_bound(rng):
    grid = Grid(64)
    cfg = scale_invariant_profile(2, [1.0, 0.0, 1.0])
    const = w_lipschitz_constant(cfg.n)
    c0 = make_circle(1.0, (0.0, 0.0), grid)
    c1 = DiscreteCurve(grid, 1.4 * c0.samples + 0.05 * random_field(grid, rng).values)
    res = geodesic_bvp(cfg, c0, c1, SolverOptions(max_iters=40, gap_tol=3e-9, T=16))
    # The legs c_m -> c_{m+1} as one-interval paths, and each slice's length.
    legs = _speeds(_form(cfg, grid, *_midpoints(res.path.samples, 1.0))[0]).tolist()
    lengths = [grid.spacing * float(np.sum(s)) for s in _true_jet(grid, res.path.samples)[0]]
    w0 = w_eval(cfg, lengths[0])
    acc = 0.0
    ok = True
    for m in range(res.path.T):
        acc += legs[m]
        wm = w_eval(cfg, lengths[m + 1])
        ok = ok and abs(wm - w0) <= const * acc * 1.1 + 1e-12
    return ok, f"|dW| vs accumulated length, C={const:.4f}"


@functools.cache
def _check_counterexample():
    params = CounterexampleParams(case="grow", p=0.0, alpha=10.0, n_max=2)
    seq = build_sequence(params)
    rep = verify_sequence(params, seq, T=16)
    bounds = pointwise_bounds_check(seq)
    return rep.ok and bounds["all_ok"], "grow-case sequence at n_max=2"


CHECKS = [
    ("exact_discrete_identities", _check_exact_identities),
    ("derivative_convergence_order", lambda rng: _check_convergence_order()),
    ("poincare_inequalities", _check_poincare),
    ("metric_algebra", _check_metric_algebra),
    ("power_law_classifier_agreement", lambda rng: _check_classifier_agreement()),
    ("completeness_reports", lambda rng: _check_completeness_reports()),
    ("w_function", _check_w_function),
    ("path_identities", _check_path_identities),
    ("radial_consistency", lambda rng: _check_radial_consistency()),
    ("energy_gradient", _check_gradient),
    ("solver_monotone_energy", lambda rng: _check_solver_monotone()),
    ("w_length_bound", _check_w_length_bound),
    ("counterexample_sequence", lambda rng: _check_counterexample()),
]


def run_suite(seed: int = 0) -> dict:
    """Run every invariant check with a seeded RNG; deterministic output."""
    _require_int("seed", seed, 0)
    results = []
    for name, fn in CHECKS:
        rng = np.random.default_rng(seed)
        try:
            ok, detail = fn(rng)
        except Exception as exc:
            ok, detail = False, f"error: {exc}"
        results.append({"name": name, "ok": bool(ok), "detail": detail})
    return {"seed": seed, "results": results, "all_ok": all(r["ok"] for r in results)}
