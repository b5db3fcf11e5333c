"""Bumpy-circle sequences that break metric completeness in both directions."""

import warnings

import numpy as np
import pytest

import sobocurve as sc
from sobocurve.counterexample import (
    CounterexampleParams,
    build_sequence,
    counterexample_metric,
    pointwise_bounds_check,
    scaled_leg_length,
    verify_sequence,
)
from sobocurve.errors import ContractError, NumericalError
from sobocurve.metric import PowerLaw


def grow_params(n_max=2):
    return CounterexampleParams(case="grow", p=0.0, alpha=10.0, n_max=n_max)


def shrink_params(n_max=2):
    return CounterexampleParams(case="shrink", p=2.0, alpha=-12.0, n_max=n_max)


def test_metric_shape():
    cfg = counterexample_metric(1.5)
    assert cfg.n == 2
    assert cfg.terms[0].p == -3.0
    assert cfg.terms[2].p == 1.5
    assert 1 not in cfg.terms


def test_param_validation():
    grow_params()
    shrink_params()
    # grow needs alpha > (p+9)/(1-p) = 9 at p=0
    with pytest.raises(ContractError):
        CounterexampleParams(case="grow", p=0.0, alpha=8.0, n_max=2)
    # shrink needs alpha < -(p+9)/(p-1) = -11 at p=2
    with pytest.raises(ContractError):
        CounterexampleParams(case="shrink", p=2.0, alpha=-10.0, n_max=2)
    with pytest.raises(ContractError):
        CounterexampleParams(case="sideways", p=0.0, alpha=10.0, n_max=2)
    with pytest.raises(ContractError):
        CounterexampleParams(case="grow", p=0.0, alpha=10.0, eps=0.4, n_max=2)
    # desk-scale cap: lambda_n never exceeds 48
    with pytest.raises(ContractError):
        CounterexampleParams(case="grow", p=0.0, alpha=10.0, n_max=6)
    with pytest.raises(ContractError, match="^grow case needs p < 1"):
        CounterexampleParams(case="grow", p=1.0, alpha=10.0, n_max=2)
    with pytest.raises(ContractError, match="^shrink case needs p > 1"):
        CounterexampleParams(case="shrink", p=1.0, alpha=-12.0, n_max=2)
    with pytest.raises(ContractError, match="^sequence was built with different parameters"):
        verify_sequence(grow_params(), build_sequence(shrink_params()))


@pytest.mark.parametrize("name, bad", [("lambda0", 3.5), ("b", 2.5), ("n_max", 2.5),
                                       ("lambda0", 3.0), ("b", True), ("n_max", "2"),
                                       ("lambda0", True), ("b", 2.0), ("n_max", 2.0),
                                       ("lambda0", 2), ("b", 1), ("n_max", 0)])
def test_params_reject_non_integer_counts(name, bad):
    # lambda0 = 3.5 or b = 2.5 used to fail in grid() with AttributeError.
    kwargs = {"case": "grow", "p": 0.0, "alpha": 10.0, "n_max": 2, name: bad}
    with pytest.raises(ContractError, match=f"^{name} must be an integer"):
        CounterexampleParams(**kwargs)


@pytest.mark.parametrize("name", ["p", "alpha"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_params_reject_non_finite_exponents(name, bad):
    kwargs = {"case": "grow", "p": 0.0, "alpha": 10.0, "n_max": 2, name: bad}
    with pytest.raises(ContractError, match=f"^{name} must be finite"):
        CounterexampleParams(**kwargs)


@pytest.mark.parametrize(
    "case, p, alpha",
    [("grow", 0.0, 400.0), ("grow", 0.0, 396.1), ("grow", 0.0, 395.0), ("grow", 0.5, 2000.0),
     ("shrink", 2.0, -1000.0)],
)
def test_params_reject_alpha_outside_float_range(case, p, alpha):
    # 6^400 overflows, 3^-1000 underflows to 0.  r_1 = 6^396.1 = 1.7e308 and
    # 6^395 = 2.3e307 are floats, but the samples r_1 (1 + eps sin) of c_1
    # and the length r_1 l(u_1) of c_1, respectively, are not.
    with pytest.raises(ContractError, match="normal float range"):
        CounterexampleParams(case=case, p=p, alpha=alpha, n_max=1)


def test_params_accept_alpha_at_float_range_edge():
    # r_1 = 6^390 = 3.0e303, 6^394 = 3.9e306 and 6^-390 = 3.3e-304 are normal
    # floats, and so are the lengths of c_1.
    CounterexampleParams(case="grow", p=0.0, alpha=390.0, n_max=1)
    CounterexampleParams(case="grow", p=0.0, alpha=394.0, n_max=1)
    CounterexampleParams(case="shrink", p=2.0, alpha=-390.0, n_max=1)


def test_legs_at_float_range_edge_are_finite():
    # r_1 = 6^390 = 3.0e303: leg 1 is the radial length over a factor 2^390,
    # leg 2 runs on the true curves r_1 * u.
    params = CounterexampleParams(case="grow", p=0.0, alpha=390.0, n_max=1)
    entry = verify_sequence(params, build_sequence(params), T=8).entries[0]
    assert entry["dist_leg1"] == pytest.approx(39.593, rel=1e-4)
    assert 0.0 < entry["dist_leg2"] < entry["dist_leg1"]


@pytest.mark.parametrize("params", [grow_params(), shrink_params()], ids=["grow", "shrink"])
def test_legs_are_radial_length_and_bump_swap(params):
    # Leg 1 scales r_n u_n to r_{n+1} u_n: the exact radial length, free
    # of T.  Leg 2 swaps u_n for u_{n+1} along the linear path at r_{n+1}.
    cfg, grid, seq = counterexample_metric(params.p), params.grid(), build_sequence(params)
    for T in (8, 16):
        for e in verify_sequence(params, seq, T=T).entries[:-1]:
            n = e["n"]
            r, r_next = params.radius_n(n), params.radius_n(n + 1)
            u, u_next = seq.shapes[n], seq.shapes[n + 1]
            assert e["dist_leg1"] == sc.radial_path_length(cfg, u, r, r_next)
            assert e["dist_leg2"] == scaled_leg_length(
                cfg, r_next, u.samples, u_next.samples, grid, T
            )
            assert e["dist_upper"] == e["dist_leg1"] + e["dist_leg2"]


def test_leg1_matches_geometrically_timed_path():
    # An independent oracle: the scaling path r_n (r_{n+1}/r_n)^t u_n, timed
    # so that the scale-free a_0 = ell^-3 part has constant speed; its
    # midpoint length converges to leg 1 at second order in T.
    params = grow_params(1)
    cfg, seq = counterexample_metric(params.p), build_sequence(params)
    leg1 = verify_sequence(params, seq, T=8).entries[0]["dist_leg1"]
    r, ratio = params.radius_n(0), params.radius_n(1) / params.radius_n(0)
    errors = []
    for T in (128, 256):
        t = (np.arange(T + 1) / T)[:, None, None]
        path = sc.CurvePath(params.grid(), r * ratio**t * seq.shapes[0].samples)
        errors.append(sc.path_length(cfg, path) - leg1)
    assert abs(errors[1]) <= 2e-4
    assert 3.5 <= errors[0] / errors[1] <= 4.5


@pytest.mark.parametrize("T", [0, -3, 65, 16.0, True])
def test_verify_sequence_rejects_bad_T(T):
    params = grow_params()
    with pytest.raises(ContractError, match=r"^T must be an integer in \[1, 64\]"):
        verify_sequence(params, build_sequence(params), T=T)


def test_beta_negative_and_lambda_schedule():
    params = grow_params(3)
    assert params.beta < 0
    assert [params.lambda_n(n) for n in range(4)] == [3, 6, 12, 24]
    assert params.radius_n(2) == pytest.approx(12.0**10.0)


def test_sequence_lengths_track_r_lambda():
    params = grow_params(2)
    seq = build_sequence(params)
    for n, shape in enumerate(seq.shapes):
        lam = params.lambda_n(n)
        r = params.radius_n(n)
        ell = r * sc.curve_length(shape)
        ratio = ell / (r * lam)
        assert 0.5 <= ratio <= 3.0  # fixed window around r*lambda


def test_scaled_curve_avoids_overflow():
    # r_3 = 24^200 = 1.1e276: the metric on the direct samples r_3 * u_3
    # is the scale-invariant a_0 term ell^-3 Q_0 of the shape (a_2 Q_2
    # falls like r^-2), and the legs give finite distance bounds.
    params = CounterexampleParams(case="grow", p=-1.0, alpha=200.0, n_max=3)
    seq = build_sequence(params)
    shape = seq.shapes[3]
    direct = sc.DiscreteCurve(params.grid(), params.radius_n(3) * shape.samples)
    h = sc.TangentField(direct.grid, direct.samples)
    q0 = sc.integrate_ds(shape, np.sum(shape.samples**2, axis=1))
    assert sc.eval_metric(counterexample_metric(params.p), direct, h, h) == pytest.approx(
        sc.curve_length(shape) ** -3 * q0, rel=1e-12
    )
    report = verify_sequence(params, seq, T=16)
    assert report.ok
    legs1 = [e["dist_leg1"] for e in report.entries[:-1]]
    assert legs1 == pytest.approx([20.304, 15.869, 10.108], abs=1e-3)
    dists = [e["dist_upper"] for e in report.entries[:-1]]
    assert dists == pytest.approx([20.337, 15.893, 10.123], abs=1e-3)


def test_scaled_leg_length_matches_direct_evaluation():
    # At moderate scale the scaled-path evaluation must agree with a
    # direct path_length computation on unscaled curves.
    params = grow_params(2)
    cfg = counterexample_metric(params.p)
    grid = sc.Grid(1024)
    c0 = sc.make_bumpy_circle(1.0, 0.25, 3, grid)
    c1 = sc.make_bumpy_circle(1.0, 0.25, 6, grid)
    direct = sc.path_length(cfg, sc.linear_path(c0, c1, 16))
    scaled = scaled_leg_length(cfg, 1.0, c0.samples, c1.samples, grid, 16)
    assert scaled == pytest.approx(direct, rel=1e-10)

    # and with a genuine scale factored out
    r = 7.5
    c0s = sc.DiscreteCurve(grid, r * c0.samples)
    c1s = sc.DiscreteCurve(grid, r * c1.samples)
    direct_s = sc.path_length(cfg, sc.linear_path(c0s, c1s, 16))
    scaled_s = scaled_leg_length(cfg, r, c0.samples, c1.samples, grid, 16)
    assert scaled_s == pytest.approx(direct_s, rel=1e-10)


@pytest.mark.parametrize("T", [0, -3, 2.5, 2.0, True])
def test_scaled_leg_length_rejects_a_T_that_is_not_a_positive_integer(T):
    grid = sc.Grid(128)
    shape = sc.make_bumpy_circle(1.0, 0.25, 3, grid).samples
    with pytest.raises(ContractError, match="^T must be an integer >= 1"):
        scaled_leg_length(counterexample_metric(0.0), 1.0, shape, 2.0 * shape, grid, T)


@pytest.mark.parametrize("r_base", [float("inf"), float("nan")])
def test_scaled_leg_length_rejects_non_finite_base_scale(r_base):
    grid = sc.Grid(128)
    shape = sc.make_bumpy_circle(1.0, 0.25, 3, grid).samples
    with pytest.raises(ContractError, match="base scale must be positive and finite"):
        scaled_leg_length(counterexample_metric(0.0), r_base, shape, 2.0 * shape, grid, 8)


def test_scaled_leg_length_overflowing_factor_raises():
    # With a_0 = 1, G ~ Q_0 ~ r^3 = 1e750 is not a float: a NumericalError,
    # not an OverflowError or a RuntimeWarning from the kernel.
    cfg = sc.MetricConfig(2, {0: PowerLaw(1.0, 0.0), 2: PowerLaw(1.0, 1.0)})
    grid = sc.Grid(128)
    shape = sc.make_bumpy_circle(1.0, 0.25, 3, grid).samples
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="not finite at base scale 1e\\+250"):
            scaled_leg_length(cfg, 1e250, shape, 2.0 * shape, grid, 8)


def test_scaled_leg_length_past_the_float_range_raises():
    # |u_3| reaches 1.25, so r u_3 is not a float at r = 1.5e308: a
    # NumericalError again, with no RuntimeWarning from scaling the shapes.
    grid = sc.Grid(128)
    shape = sc.make_bumpy_circle(1.0, 0.25, 3, grid).samples
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="not finite at base scale 1.5e\\+308"):
            scaled_leg_length(counterexample_metric(0.0), 1.5e308, shape, 2.0 * shape, grid, 8)


def test_scaled_leg_length_zero_term_with_overflowing_factor_adds_nothing():
    # a_1 = 0 * ell^2 would be 1e400 at r = 1e200.
    grid = sc.Grid(128)
    shape = sc.make_bumpy_circle(1.0, 0.25, 3, grid).samples
    terms = {0: PowerLaw(1.0, -3.0), 2: PowerLaw(1.0, 0.0)}
    lengths = [
        scaled_leg_length(sc.MetricConfig(2, t), 1e200, shape, 2.0 * shape, grid, 8)
        for t in (terms, {**terms, 1: PowerLaw(0.0, 2.0)})
    ]
    assert lengths[0] == lengths[1] and np.isfinite(lengths[0])


def test_grow_sequence_report():
    params = grow_params(3)
    seq = build_sequence(params)
    rep = verify_sequence(params, seq, T=32)
    assert rep.ok
    assert rep.checks["length_ratio_in_window"]
    assert rep.checks["distance_constant_stable"]
    assert rep.checks["length_trend"]
    assert rep.checks["cauchy_increments"]
    lengths = [e["ell"] for e in rep.entries]
    assert all(b > a for a, b in zip(lengths, lengths[1:]))
    # per-step growth factor consistent with b^(1+alpha) = 2^11
    for a, b in zip(lengths, lengths[1:]):
        assert b / a >= 2.0**11 / 2.0


def test_shrink_sequence_report():
    params = shrink_params(3)
    seq = build_sequence(params)
    rep = verify_sequence(params, seq, T=32)
    assert rep.ok
    lengths = [e["ell"] for e in rep.entries]
    assert all(b < a for a, b in zip(lengths, lengths[1:]))
    assert lengths[-1] < 1e-9  # heading to zero


def test_distance_bound_summable():
    params = grow_params(3)
    seq = build_sequence(params)
    rep = verify_sequence(params, seq, T=32)
    dists = [e["dist_upper"] for e in rep.entries if e["dist_upper"] is not None]
    # increments decrease for n >= 1: Cauchy evidence
    assert all(b < a for a, b in zip(dists[1:], dists[2:]))


def test_pointwise_bounds():
    for params in (grow_params(2), shrink_params(2)):
        seq = build_sequence(params)
        out = pointwise_bounds_check(seq)
        assert out["all_ok"], [c for c in out["checks"] if not c["ok"]]


def test_csv_rows():
    params = grow_params(2)
    seq = build_sequence(params)
    rep = verify_sequence(params, seq, T=16)
    rows = rep.csv_rows()
    assert rows[0] == ["n", "lambda_n", "ell_n", "dist_upper_n", "bound_n"]
    assert len(rows) == 4  # header + n_max+1 entries


def test_report_serialization():
    params = shrink_params(2)
    seq = build_sequence(params)
    rep = verify_sequence(params, seq, T=16)
    data = rep.to_dict()
    assert all(data["checks"].values())
    assert len(data["entries"]) == 3
