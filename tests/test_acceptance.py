"""Acceptance suite: eight end-to-end criteria, one pass/fail line each.

Each test prints `CRITERION <n>: PASS|FAIL — <summary>` so the run log
doubles as a sign-off sheet.  Run with `pytest -v -s` to see the lines.
"""

import json
import time

import numpy as np
import pytest

import sobocurve as sc
from sobocurve.completeness import CONVERGENT, DIVERGENT, w_eval
from sobocurve.counterexample import (
    CounterexampleParams,
    build_sequence,
    pointwise_bounds_check,
    verify_sequence,
)
from sobocurve.metric import Constant, MetricConfig, PowerLaw
from sobocurve.sampling import random_curve, random_field
from sobocurve.verify import run_suite

CFG11 = MetricConfig(2, {0: Constant(1.0), 2: Constant(1.0)})

# Frozen before the solver was built: length of the energy-minimizing
# path between unit and radius-2 circles under a_0 = a_2 = 1, computed
# on a dense grid (T=128, N=256) with gradient sup-norm 2e-8.
DENSE_ORACLE_LENGTH = 3.430961228180


def report(n, ok, summary, elapsed, limit):
    in_time = elapsed <= limit
    status = "PASS" if (ok and in_time) else "FAIL"
    print(f"CRITERION {n}: {status} — {summary} ({elapsed:.2f}s, limit {limit:.0f}s)")
    assert ok, summary
    assert in_time, f"runtime {elapsed:.2f}s over {limit}s budget"


def test_criterion_1_power_law_classification_table():
    t0 = time.perf_counter()
    ok = True
    count = 0
    for k in range(5):
        crit = 2.0 * k - 3.0
        for dp in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0):
            p = crit + dp
            v = sc.classify_power_law(k, p)
            ok = ok and v["I0"].verdict == (DIVERGENT if p <= crit else CONVERGENT)
            ok = ok and v["Iinf"].verdict == (DIVERGENT if p >= crit else CONVERGENT)
            count += 1
    report(
        1,
        ok and count == 40,
        f"power-law divergence table exact on {count} (k, p) pairs",
        time.perf_counter() - t0,
        1.0,
    )


def test_criterion_2_poincare_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20)
    grid = sc.Grid(512)
    slack = 1.0 + 1e-3
    ok = True
    for _ in range(100):
        c = random_curve(grid, rng)
        ell = sc.curve_length(c)
        for _ in range(5):
            h = random_field(grid, rng)
            derivs = [sc.arc_derivative(c, h, k).values for k in range(5)]
            l2 = [sc.integrate_ds(c, np.sum(d * d, axis=1)) for d in derivs]
            sup1 = float(np.max(np.sum(derivs[1] ** 2, axis=1)))
            ok = ok and sup1 <= (ell / 4.0) * l2[2] * slack
            ok = ok and l2[1] <= (ell**2 / 4.0) * l2[2] * slack
            for n_ord in range(2, 5):
                for k in range(n_ord + 1):
                    ok = ok and l2[k] <= (l2[0] + l2[n_ord]) * slack
    report(
        2,
        ok,
        "interpolation inequalities on 100 curves x 5 fields, N=512, orders <= 4",
        time.perf_counter() - t0,
        30.0,
    )


def test_criterion_3_exact_discrete_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(30)
    grid = sc.Grid(128)
    cfg_si = sc.scale_invariant_profile(2, [1.0, 0.0, 1.0])
    ok = True
    for _ in range(100):
        c = random_curve(grid, rng)
        h = random_field(grid, rng)
        rho = float(rng.uniform(0.2, 5.0))
        # derivative scaling: D^k under rho*c picks up rho^(-k)
        for k in (1, 2):
            a = sc.arc_derivative(sc.DiscreteCurve(grid, rho * c.samples),
                                  sc.TangentField(grid, h.values), k).values
            b = rho**-k * sc.arc_derivative(c, h, k).values
            ok = ok and np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(b)))
        # scale invariance of the (1, 0, 1) profile
        base = sc.eval_metric(cfg_si, c, h, h)
        scaled = sc.eval_metric(
            cfg_si,
            sc.DiscreteCurve(grid, rho * c.samples),
            sc.TangentField(grid, rho * h.values),
            sc.TangentField(grid, rho * h.values),
        )
        ok = ok and abs(scaled - base) <= 1e-12 * abs(base)
        # Euclidean invariance
        ang = float(rng.uniform(0, 2 * np.pi))
        rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
        shift = rng.normal(size=2)
        moved = sc.eval_metric(
            CFG11,
            sc.DiscreteCurve(grid, c.samples @ rot.T + shift),
            sc.TangentField(grid, h.values @ rot.T),
            sc.TangentField(grid, h.values @ rot.T),
        )
        ok = ok and abs(moved - sc.eval_metric(CFG11, c, h, h)) <= 1e-12 * abs(moved)
    report(
        3,
        ok,
        "scaling, scale-invariance, Euclidean-invariance identities <= 1e-12 on 100 instances",
        time.perf_counter() - t0,
        30.0,
    )


def test_criterion_4_radial_cross_validation():
    t0 = time.perf_counter()
    grid = sc.Grid(256)
    c0 = sc.make_circle(1.0, (0, 0), grid)
    c1 = sc.make_circle(2.0, (0, 0), grid)
    closed = sc.radial_path_length(CFG11, c0, 1.0, 2.0)
    discrete = sc.path_length(CFG11, sc.linear_path(c0, c1, 400))
    ok = abs(discrete - closed) <= 1e-3 * closed
    for r in (0.5, 1.0, 3.0):
        mk = sc.moments(sc.make_circle(r, (0, 0), sc.Grid(512)), 2)
        for k in range(3):
            expect = 2 * np.pi * r ** (3 - 2 * k)
            ok = ok and abs(mk[k] - expect) <= 1e-8 * expect
    report(
        4,
        ok,
        f"discrete path {discrete:.6f} vs closed form {closed:.6f}; circle moments to 1e-8",
        time.perf_counter() - t0,
        10.0,
    )


def test_criterion_5_geodesic_solver_soundness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(50)
    grid = sc.Grid(64)
    cfg = MetricConfig(2, {0: PowerLaw(1.0, -3.0), 2: PowerLaw(1.0, 1.0)})
    ok = True
    for _ in range(20):
        c0 = random_curve(grid, rng)
        c1 = sc.DiscreteCurve(grid, c0.samples + 0.05 * random_curve(grid, rng).samples)
        path = sc.linear_path(c0, c1, 6)
        ok = ok and sc.gradient_check(cfg, path, n_coords=10, rng=rng) <= 1e-6

    circ0 = sc.make_circle(1.0, (0, 0), sc.Grid(128))
    circ1 = sc.make_circle(2.0, (0, 0), sc.Grid(128))
    opts = sc.SolverOptions(max_iters=300, gap_tol=1e-10, T=32)
    res = sc.geodesic_bvp(CFG11, circ0, circ1, opts)
    trace = res.energy_trace
    ok = ok and res.converged
    ok = ok and all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))
    linear_len = sc.path_length(CFG11, sc.linear_path(circ0, circ1, 32))
    ok = ok and res.length <= linear_len * (1 + 1e-12)
    ok = ok and abs(res.length - DENSE_ORACLE_LENGTH) <= 1e-3 * DENSE_ORACLE_LENGTH

    d01 = sc.geodesic_distance(CFG11, circ0, circ1, opts)
    d10 = sc.geodesic_distance(CFG11, circ1, circ0, opts)
    ok = ok and abs(d01 - d10) <= 1e-6 * d01
    report(
        5,
        ok,
        f"20 gradient checks <= 1e-6; monotone trace; symmetric; length {res.length:.6f} "
        f"vs oracle {DENSE_ORACLE_LENGTH:.6f}",
        time.perf_counter() - t0,
        300.0,
    )


def test_criterion_6_counterexample_reproduction():
    t0 = time.perf_counter()
    ok = True
    details = []
    for case, p, alpha in (("grow", 0.0, 10.0), ("shrink", 2.0, -12.0)):
        params = CounterexampleParams(case=case, p=p, alpha=alpha, n_max=3)
        seq = build_sequence(params)
        rep = verify_sequence(params, seq, T=64)
        bounds = pointwise_bounds_check(seq)
        ok = ok and rep.ok and bounds["all_ok"]
        lengths = [e["ell"] for e in rep.entries]
        if case == "grow":
            ok = ok and all(b > a for a, b in zip(lengths, lengths[1:]))
        else:
            ok = ok and all(b < a for a, b in zip(lengths, lengths[1:]))
        details.append(f"{case} ok={rep.ok and bounds['all_ok']}")
    report(
        6,
        ok,
        "; ".join(details),
        time.perf_counter() - t0,
        300.0,
    )


def test_criterion_7_w_function():
    t0 = time.perf_counter()
    rng = np.random.default_rng(70)
    ok = True
    for _ in range(50):
        n = int(rng.integers(2, 4))
        terms = {0: PowerLaw(float(rng.uniform(0.1, 2.0)), float(rng.uniform(-4, 1)))}
        terms[n] = PowerLaw(float(rng.uniform(0.1, 2.0)), float(rng.uniform(-2, 3)))
        cfg = MetricConfig(n, terms)
        ok = ok and w_eval(cfg, 1.0) == 0.0
        w_values = [w_eval(cfg, r) for r in (0.5, 1.0, 1.5, 2.0)]
        ok = ok and all(b > a for a, b in zip(w_values, w_values[1:]))
    # profile with divergent integrands at both ends: W is unbounded
    cfg = MetricConfig(
        2, {0: Constant(1.0), 1: PowerLaw(1.0, -2.0), 2: PowerLaw(1.0, 3.0)}
    )
    ok = ok and abs(w_eval(cfg, 1e-6)) >= 10 * abs(w_eval(cfg, 1e-3))
    ok = ok and abs(w_eval(cfg, 1e6)) >= 10 * abs(w_eval(cfg, 1e3))
    report(
        7,
        ok,
        "W(1)=0 and strict monotonicity on 50 profiles; 10x growth toward both ends",
        time.perf_counter() - t0,
        10.0,
    )


def test_criterion_8_verify_determinism(clear_verify_cache):
    t0 = time.perf_counter()
    clear_verify_cache()
    a = json.dumps(run_suite(seed=7), sort_keys=True)
    clear_verify_cache()
    b = json.dumps(run_suite(seed=7), sort_keys=True)
    ok = a == b and json.loads(a)["all_ok"]
    report(
        8,
        ok,
        "two invariant-suite runs with the same seed are byte-identical and all pass",
        time.perf_counter() - t0,
        60.0,
    )
