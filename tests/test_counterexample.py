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


@pytest.mark.parametrize("name", ["p", "alpha"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_params_reject_non_finite_exponents(name, bad):
    kwargs = {"case": "grow", "p": 0.0, "alpha": 10.0, "n_max": 2, name: bad}
    with pytest.raises(ContractError, match=f"^{name} must be finite"):
        CounterexampleParams(**kwargs)


@pytest.mark.parametrize(
    "case, p, alpha", [("grow", 0.0, 400.0), ("grow", 0.5, 2000.0), ("shrink", 2.0, -1000.0)]
)
def test_params_reject_alpha_outside_float_range(case, p, alpha):
    # 6^400 overflows, 3^-1000 underflows to 0.
    with pytest.raises(ContractError, match="normal float range"):
        CounterexampleParams(case=case, p=p, alpha=alpha, n_max=1)


def test_params_accept_alpha_at_float_range_edge():
    # r_1 = 6^390 = 3.0e303 and r_1 = 6^-390 = 3.3e-304 are normal floats.
    CounterexampleParams(case="grow", p=0.0, alpha=390.0, n_max=1)
    CounterexampleParams(case="shrink", p=2.0, alpha=-390.0, n_max=1)


def test_non_finite_leg_length_raises():
    params = CounterexampleParams(case="grow", p=0.0, alpha=390.0, n_max=1)
    with pytest.raises(NumericalError, match="not finite"):
        verify_sequence(params, build_sequence(params), T=8)


@pytest.mark.parametrize("T", [0, -3, 65, 16.0])
def test_verify_sequence_rejects_bad_T(T):
    params = grow_params()
    with pytest.raises(ContractError, match="T must be an integer"):
        verify_sequence(params, build_sequence(params), T=T)


def test_beta_negative_and_lambda_schedule():
    params = grow_params(3)
    assert params.beta < 0
    assert [params.lambda_n(n) for n in range(4)] == [3, 6, 12, 24]
    assert params.radius_n(2) == pytest.approx(12.0**10.0)


def test_sequence_lengths_track_r_lambda():
    params = grow_params(2)
    seq = build_sequence(params)
    for n, curve in enumerate(seq.curves):
        lam = params.lambda_n(n)
        r = params.radius_n(n)
        ell = curve.length
        ratio = ell / (r * lam)
        assert 0.5 <= ratio <= 3.0  # fixed window around r*lambda


def test_scaled_curve_avoids_overflow():
    # r_3 = 24^10 = 6.3e13; fourth powers of direct samples would overflow
    # in the k=2 energies; the scaled representation must stay finite.
    params = grow_params(3)
    seq = build_sequence(params)
    last = seq.curves[-1]
    assert np.isfinite(last.shape.samples).all()
    assert np.isfinite(last.length)
    assert last.length == pytest.approx(
        last.scale * sc.curve_length(last.shape), rel=1e-12
    )


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


@pytest.mark.parametrize("r_base", [float("inf"), float("nan")])
def test_scaled_leg_length_rejects_non_finite_base_scale(r_base):
    grid = sc.Grid(128)
    shape = sc.make_bumpy_circle(1.0, 0.25, 3, grid).samples
    with pytest.raises(ContractError, match="base scale must be positive and finite"):
        scaled_leg_length(counterexample_metric(0.0), r_base, shape, 2.0 * shape, grid, 8)


def test_scaled_leg_length_overflowing_factor_raises():
    # r_base^(0 + 3 - 0) = 1e750 overflows: a NumericalError, not an
    # OverflowError from the factor or a RuntimeWarning from the kernel.
    cfg = sc.MetricConfig(2, {0: PowerLaw(1.0, 0.0), 2: PowerLaw(1.0, 1.0)})
    grid = sc.Grid(128)
    shape = sc.make_bumpy_circle(1.0, 0.25, 3, grid).samples
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="not finite at base scale 1e\\+250"):
            scaled_leg_length(cfg, 1e250, shape, 2.0 * shape, grid, 8)


def test_scaled_leg_length_zero_term_with_overflowing_factor_adds_nothing():
    # a_1 = 0 * ell^2 has factor r^(2 + 3 - 2) = 1e600 at r = 1e200.
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
