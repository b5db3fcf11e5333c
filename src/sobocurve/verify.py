"""Self-check suite behind the `verify` CLI subcommand.

Runs the module invariants on seeded random inputs and reports one
pass/fail row per invariant.  Output is deterministic for a fixed seed.
"""

from __future__ import annotations

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
    TangentField,
    _arc_jet,
    arc_derivative,
    curve_length,
    derivative,
    integrate_ds,
    make_circle,
)
from .errors import ContractError, _require_int
from .metric import MetricConfig, PowerLaw, Constant, Tabulated, _q_form, eval_metric, scale_invariant_profile
from .paths import (
    SolverOptions,
    geodesic_bvp,
    gradient_check,
    linear_path,
    path_energy,
    path_length,
    radial_path_length,
    reverse_path,
)
from .sampling import random_curve, random_field


def w_lipschitz_constant(n: int) -> float:
    """Cauchy-Schwarz constant bounding |d W(ell)/dt| by sqrt(G(h,h))."""
    return math.sqrt(sum(4.0 ** (1 - k) for k in range(1, n + 1)))


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _check_exact_identities(rng):
    grid = Grid(128)
    worst = 0.0
    for _ in range(20):
        c = random_curve(grid, rng)
        # Unused draw, kept so that each seed's later draws, and so its payload, stay fixed.
        rng.standard_normal(grid.n_points)
        worst = max(worst, _rel(integrate_ds(c, np.ones(grid.n_points)), curve_length(c)))
        h = random_field(grid, rng)
        rho = float(rng.uniform(0.2, 5.0))
        scaled = DiscreteCurve(grid, rho * c.samples)
        for k in (1, 2, 3):
            lhs = arc_derivative(scaled, h, k).values
            rhs = rho**-k * arc_derivative(c, h, k).values
            worst = max(worst, float(np.max(np.abs(lhs - rhs)) / np.max(np.abs(rhs))))
        shifted = DiscreteCurve(grid, c.samples + rng.standard_normal(2))
        worst = max(worst, float(np.max(np.abs(shifted.arc_speed - c.arc_speed))))
        angle = float(rng.uniform(0, 2 * np.pi))
        rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
        rc = DiscreteCurve(grid, c.samples @ rot.T)
        rh = TangentField(grid, h.values @ rot.T)
        lhs = arc_derivative(rc, rh, 2).values
        rhs = arc_derivative(c, h, 2).values @ rot.T
        worst = max(worst, float(np.max(np.abs(lhs - rhs)) / np.max(np.abs(rhs))))
    return worst <= 1e-12, f"max rel dev {worst:.3e}"


def _check_convergence_order(rng):
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
    ok = True
    for _ in range(20):  # curves, each with two fields
        c = random_curve(grid, rng)
        ell = curve_length(c)
        for _ in range(2):
            h = random_field(grid, rng)
            e, s, _, u = _arc_jet(grid, c.samples, h.values, 4)
            s, u = np.ldexp(s, e), [np.ldexp(uk, -k * e) for k, uk in enumerate(u)]
            l2 = [_q_form(grid.spacing, uk, uk, s) for uk in u]  # |D_s^k h|^2_L2(ds)
            sup1 = float(np.max(np.sum(u[1] ** 2, axis=1)))
            ok = ok and sup1 <= (ell / 4.0) * l2[2] * slack
            ok = ok and l2[1] <= (ell**2 / 4.0) * l2[2] * slack
            for n_ord in range(2, 5):
                for k in range(n_ord + 1):
                    ok = ok and l2[k] <= (l2[0] + l2[n_ord]) * slack
    return ok, "three Poincare inequalities with slack 1e-3"


def _check_metric_algebra(rng):
    grid = Grid(128)
    cfg = MetricConfig(2, {0: Constant(1.0), 2: Constant(1.0)})
    si = scale_invariant_profile(2, [1.0, 0.0, 1.0])
    worst = 0.0
    for _ in range(20):
        c = random_curve(grid, rng)
        h = random_field(grid, rng)
        g = random_field(grid, rng)
        # A cross term G(h, g) can be near zero, so its deviations are
        # measured against the Cauchy-Schwarz bound sqrt(G(h,h) G(g,g)).
        hg = eval_metric(cfg, c, h, g)
        quad = eval_metric(cfg, c, h, h)
        gg = eval_metric(cfg, c, g, g)
        cs = math.sqrt(quad * gg)
        worst = max(worst, abs(hg - eval_metric(cfg, c, g, h)) / cs)
        alpha = float(rng.uniform(0.5, 2.0))
        combo = TangentField(grid, alpha * h.values + g.values)
        lin = eval_metric(cfg, c, combo, g) - (alpha * hg + gg)
        worst = max(worst, abs(lin) / math.sqrt(eval_metric(cfg, c, combo, combo) * gg))
        l2 = integrate_ds(c, np.sum(h.values**2, axis=1))
        if quad < l2 * (1 - 1e-12):
            worst = max(worst, 1.0)
        angle = float(rng.uniform(0, 2 * np.pi))
        rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
        shift = rng.standard_normal(2)
        rc = DiscreteCurve(grid, c.samples @ rot.T + shift)
        rh = TangentField(grid, h.values @ rot.T)
        rg = TangentField(grid, g.values @ rot.T)
        worst = max(worst, abs(eval_metric(cfg, rc, rh, rg) - hg) / cs)
        rho = float(rng.choice([0.1, 3.0, 50.0]))
        sc = DiscreteCurve(grid, rho * c.samples)
        sh = TangentField(grid, rho * h.values)
        worst = max(worst, _rel(eval_metric(si, sc, sh, sh), eval_metric(si, c, h, h)))
    return worst <= 1e-12, f"max rel dev {worst:.3e}"


def _check_classifier_agreement(rng):
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


def _check_completeness_reports(rng):
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
    ok = True
    worst = 0.0
    for _ in range(5):
        c0 = random_curve(grid, rng)
        c1 = DiscreteCurve(grid, c0.samples + 0.1 * random_field(grid, rng).values)
        p = linear_path(c0, c1, 16)
        e = path_energy(cfg, p)
        ln = path_length(cfg, p)
        ok = ok and ln**2 <= e * (1 + 1e-12)
        worst = max(worst, _rel(path_energy(cfg, reverse_path(p)), e))
        v = rng.standard_normal(2)
        trans = DiscreteCurve(grid, c0.samples + v)
        tp = linear_path(c0, trans, 8)
        expected = curve_length(c0) * float(np.dot(v, v))
        worst = max(worst, _rel(path_energy(cfg, tp), expected))
    return ok and worst <= 1e-12, f"Cauchy-Schwarz + reversal + translation, dev {worst:.3e}"


def _check_radial_consistency(rng):
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


def _check_solver_monotone(rng):
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
    slices = res.path.slices
    w0 = w_eval(cfg, curve_length(slices[0]))
    acc = 0.0
    ok = True
    for m in range(res.path.T):
        acc += path_length(cfg, linear_path(slices[m], slices[m + 1], 1))
        wm = w_eval(cfg, curve_length(slices[m + 1]))
        ok = ok and abs(wm - w0) <= const * acc * 1.1 + 1e-12
    return ok, f"|dW| vs accumulated length, C={const:.4f}"


def _check_counterexample(rng):
    params = CounterexampleParams(case="grow", p=0.0, alpha=10.0, n_max=2)
    seq = build_sequence(params)
    rep = verify_sequence(params, seq, T=16)
    bounds = pointwise_bounds_check(seq)
    return rep.ok and bounds["all_ok"], "grow-case sequence at n_max=2"


CHECKS = [
    ("exact_discrete_identities", _check_exact_identities),
    ("derivative_convergence_order", _check_convergence_order),
    ("poincare_inequalities", _check_poincare),
    ("metric_algebra", _check_metric_algebra),
    ("power_law_classifier_agreement", _check_classifier_agreement),
    ("completeness_reports", _check_completeness_reports),
    ("w_function", _check_w_function),
    ("path_identities", _check_path_identities),
    ("radial_consistency", _check_radial_consistency),
    ("energy_gradient", _check_gradient),
    ("solver_monotone_energy", _check_solver_monotone),
    ("w_length_bound", _check_w_length_bound),
    ("counterexample_sequence", _check_counterexample),
]


def run_suite(seed: int = 0) -> dict:
    """Run every invariant check with a seeded RNG; deterministic output."""
    _require_int("seed", seed)
    if seed < 0:
        raise ContractError(f"seed must be a non-negative integer, got {seed!r}")
    results = []
    for name, fn in CHECKS:
        rng = np.random.default_rng(seed)
        try:
            ok, detail = fn(rng)
        except Exception as exc:
            ok, detail = False, f"error: {exc}"
        results.append({"name": name, "ok": bool(ok), "detail": detail})
    return {"seed": seed, "results": results, "all_ok": all(r["ok"] for r in results)}
