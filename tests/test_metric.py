"""Coefficient profiles and the length-weighted metric form."""

import json
import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sobocurve as sc
from sobocurve.curves import _arc_jet
from sobocurve.errors import ContractError, NumericalError
from sobocurve.metric import (
    Constant,
    MetricConfig,
    PowerLaw,
    Tabulated,
    _form,
    _profile,
    coefficient_deriv,
    coefficient_eval,
)
from sobocurve.sampling import random_curve, random_field


def cfg_const(a0=1.0, a2=1.0):
    return MetricConfig(2, {0: Constant(a0), 2: Constant(a2)})


def test_coefficient_eval_closed_forms():
    assert coefficient_eval(PowerLaw(1.0, -3.0), 2.0) == 0.125
    assert coefficient_eval(Constant(5.0), 17.3) == 5.0
    assert isinstance(Constant(2.0), PowerLaw) and Constant(2.0).p == 0.0
    with pytest.raises(ContractError):
        coefficient_eval(PowerLaw(1.0, -3.0), 0.0)


def test_power_law_tail_with_small_factor_does_not_overflow():
    # ell^-3 = 1e315 overflows, b * ell^-3 = 1e305 does not: the factor
    # joins the exponent before the power is applied.
    assert coefficient_deriv(PowerLaw(1e-10, -2.0), 1e-105) == pytest.approx(-2e305, rel=1e-13)
    assert coefficient_eval(PowerLaw(1e-10, -3.0), 1e-105) == pytest.approx(1e305, rel=1e-13)


def test_tail_law_near_the_float_maximum_keeps_the_digits_of_its_quotient():
    # In power-of-two units the lengths ell * 2^1064 lie above the top knot
    # 1e306, where ell / 1e306 ~ 1e-320 keeps only a dozen bits: the tail
    # law (slope 1/2) must not be taken from that quotient.
    table = Tabulated((1e300, 1e302, 1e304, 1e306), (1.0, 10.0, 100.0, 1000.0))
    ell, shift = np.array([1e-14, 3e-14]), 1064
    for nu, public in ((0, coefficient_eval), (1, coefficient_deriv)):
        want = public(table, np.ldexp(ell, shift))
        np.testing.assert_allclose(_profile(table, ell, nu, shift), want, rtol=1e-13, atol=0.0)


def test_power_law_overflow_is_inf_and_finite_values_match_python():
    law = PowerLaw(1.0, -3.0)
    with np.errstate(over="ignore"):
        assert coefficient_eval(law, 1e-120) == math.inf
        assert coefficient_deriv(law, 1e-100) == -math.inf
        assert coefficient_eval(law, np.array([1e-120]))[0] == math.inf
    rng = np.random.default_rng(5)
    for ell, p in zip(np.exp(rng.uniform(-200, 200, 2000)), rng.uniform(-8, 8, 2000)):
        ell, p = float(ell), float(p)
        if abs(p * math.log(ell)) < 700:  # Python's float power is finite
            assert coefficient_eval(PowerLaw(2.5, p), ell) == 2.5 * ell**p


@pytest.mark.parametrize("radius", [1e-120, 1e-100, 1.0, 1e100, 1e120])
def test_eval_metric_is_finite_or_raises(radius):
    # Scale-invariant profile: G_c(c, c) is the same at every scale whose
    # samples are floats; NumericalError is left for a G that is itself
    # not a finite float.
    cfg = sc.scale_invariant_profile(2, [1.0, 0.0, 1.0])
    c = sc.make_circle(radius, (0, 0), sc.Grid(64))
    h = sc.TangentField(c.grid, c.samples)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sc.eval_metric(cfg, c, h, h) == pytest.approx(39.5035038438, rel=1e-10)
        if radius == 1e120:  # with a_0 = a_2 = 1, G ~ radius^3 is not a float
            with pytest.raises(NumericalError, match="not finite"):
                sc.eval_metric(cfg_const(1.0, 1.0), c, h, h)


def test_coefficient_deriv_matches_fd():
    terms = [PowerLaw(2.0, -1.5), Constant(3.0)]
    knots = np.geomspace(0.25, 4.0, 8)
    terms.append(Tabulated(tuple(knots), tuple(knots**2)))
    for term in terms:
        for ell in (0.5, 1.0, 2.7):
            h = 1e-6 * ell
            fd = (coefficient_eval(term, ell + h) - coefficient_eval(term, ell - h)) / (2 * h)
            an = coefficient_deriv(term, ell)
            assert abs(fd - an) <= 1e-5 * max(1.0, abs(fd))


def test_tabulated_interpolates_generator():
    knots = (0.5, 1.0, 2.0, 4.0)
    table = Tabulated(knots, knots)  # samples of the identity profile
    assert abs(coefficient_eval(table, 1.3) - 1.3) <= 1e-3
    # Fitted power-law tails continue the trend outside the knots.
    assert abs(coefficient_eval(table, 20.0) - 20.0) <= 0.5
    assert abs(coefficient_eval(table, 0.05) - 0.05) <= 0.05


def test_tabulated_tails_anchored_at_end_knots():
    # Steep tails on knots far from 1: no overflow, and each tail meets
    # its end knot's value.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        steep = Tabulated((0.001, 0.0011, 0.002, 0.003), (1e-6, 1.0, 1.0, 1.0))
        values = coefficient_eval(steep, np.array([1e-4, 0.001, 0.0015, 0.003, 0.01]))
        assert np.all(np.isfinite(values))
        assert values[1] == pytest.approx(1e-6, rel=1e-12)
        assert values[-1] == pytest.approx(1.0, rel=1e-12)
        assert 0.0 < coefficient_eval(steep, 9.9e-4) < 1e-6
    large = Tabulated((1000.0, 1001.0, 2000.0, 3000.0), (1.0, 1e6, 2e6, 3e6))
    assert coefficient_eval(large, 999.9) > 0.0
    assert coefficient_eval(large, 1000.0 * (1 - 1e-15)) == pytest.approx(1.0, rel=1e-9)


def test_tabulated_far_tails_do_not_overflow():
    # Quadratures raise on overflow; only the tail may be evaluated far
    # beyond the knots, never the cubic of the end interval.
    table = Tabulated((0.5, 1.0, 2.0, 4.0), (0.5, 1.0, 2.0, 4.0))
    ell = np.array([1e-110, 1.5, 1e110])
    with np.errstate(over="raise", invalid="raise"):
        for fn in (coefficient_eval, coefficient_deriv):
            np.testing.assert_allclose(
                fn(table, ell), [fn(table, float(x)) for x in ell], rtol=1e-15, atol=0.0
            )
    assert coefficient_eval(table, 1e110) == pytest.approx(1e110, rel=1e-9)


def _tail_reference(knot, law, ell, nu):
    """d^nu/d ell^nu of law.b * (ell / knot)**law.p in 50-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 50
        e = Decimal(law.p) - nu
        value = Decimal(law.b) * (e * (Decimal(ell).ln() - Decimal(knot).ln())).exp()
        return float(value * Decimal(law.p) / Decimal(knot) if nu else value)


def test_tails_beyond_the_float_range_of_ell_over_knot():
    # ell / knot overflows on the first table's upper tail and underflows
    # on the second's lower tail, although each value is a normal float.
    # On the third's upper tail, at 1e240, ell / knot is normal but the
    # derivative's power (ell / knot)**(p - 1) underflows before the
    # division by the knot brings it back in range.
    small = Tabulated((1e-60, 2e-60, 3e-60, 4e-60), (1.0, 1.1, 1.2, 1.3))
    large = Tabulated((1e60, 2e60, 3e60, 4e60), (1.0, 1.1, 1.2, 1.3))
    tiny = Tabulated((1e-66, 2e-66, 4e-66, 5.95e-66), (1.0, 1.0, 0.97, 0.93))
    assert coefficient_eval(small, 1e260) == pytest.approx(9.573236676106e88, rel=1e-12)
    cases = [
        (small, small.tail_high, [1e260, 1e300, 1.7e308], [2.5e-60, 1e-50, 1e200]),
        (large, large.tail_low, [1e-260, 1e-300, 5e-324], [2.5e60, 1e50, 1e-200]),
        (tiny, tiny.tail_high, [1e240, 1e250, 1.7e308], [1e-60, 1e100, 1e200]),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for table, (knot, law), far, near in cases:
            for nu, fn in ((0, coefficient_eval), (1, coefficient_deriv)):
                expect = [_tail_reference(knot, law, x, nu) for x in far]
                np.testing.assert_allclose([fn(table, x) for x in far], expect, rtol=1e-13)
                got = fn(table, np.array(far + near))
                np.testing.assert_allclose(got[:3], expect, rtol=1e-13)
                # Elements with a normal quotient take the plain power, unchanged.
                assert got[3:].tolist() == [fn(table, np.array([x]))[0] for x in near]
            assert coefficient_deriv(table, near[2]) == (
                law.b * law.p * (near[2] / knot) ** (law.p - 1.0) / knot
            )


def test_zero_coefficient_is_exactly_zero():
    # b = 0, or b * p = 0 for the derivative, gives 0 also where ell**p
    # or ell**(p - 1) overflows: no 0 * inf.
    ell = np.array([7.5, 1e-310, 1e-300, 1e300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for term in (PowerLaw(0.0, 700.0), PowerLaw(0.0, -700.0)):
            for fn in (coefficient_eval, coefficient_deriv):
                assert fn(term, 7.5) == 0.0 and isinstance(fn(term, 7.5), float)
                assert fn(term, ell).tolist() == [0.0] * 4
        for term in (PowerLaw(2.0, 0.0), Constant(2.0)):
            assert coefficient_deriv(term, 1e-310) == 0.0
            assert coefficient_deriv(term, ell).tolist() == [0.0] * 4


def test_zero_term_adds_nothing_to_the_metric():
    from sobocurve.counterexample import scaled_leg_length
    from sobocurve.paths import energy_and_gradient

    base = {0: PowerLaw(1.0, -3.0), 2: PowerLaw(1.0, 1.0)}
    plain = MetricConfig(2, base)
    padded = MetricConfig(2, {**base, 1: PowerLaw(0.0, 700.0)})  # 7.5**700 overflows
    grid = _GRID
    c = sc.make_circle(7.5 / (2.0 * math.pi), (0, 0), grid)
    _, h, g = _sample(3)
    c1 = sc.make_bumpy_circle(1.2, 0.1, 2, grid)
    path = sc.linear_path(c, c1, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sc.eval_metric(padded, c, h, g) == sc.eval_metric(plain, c, h, g)
        for got, want in zip(energy_and_gradient(padded, path), energy_and_gradient(plain, path)):
            assert np.array_equal(got, want)
        legs = [scaled_leg_length(cfg, 1.0, c.samples, c1.samples, grid, 8) for cfg in (padded, plain)]
        assert legs[0] == legs[1]


def test_tabulated_contracts():
    with pytest.raises(ContractError):
        Tabulated((1.0, 2.0, 3.0), (1.0, 2.0, 3.0))  # too few knots
    with pytest.raises(ContractError):
        Tabulated((1.0, 2.0, 3.0, 4.0), (1.0, -2.0, 3.0, 4.0))


def test_tabulated_overflowing_cubics_rejected():
    # The cubics' leading coefficients grow like jump / spacing^2, so this
    # table of finite positive values would evaluate to NaN at 1.5e-200.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractError, match="cubics overflow"):
            Tabulated((1e-200, 2e-200, 1e-100, 1.0), (1.0, 16.0, 16.0, 16.0))
        # Closely spaced knots are fine while the cubics stay finite.
        table = Tabulated((1e-200, 2e-200, 1e-100, 1.0), (1.0, 1.0, 1.0, 1.0))
        assert coefficient_eval(table, 1.5e-200) == 1.0


def test_metric_config_contracts():
    cfg_const()
    with pytest.raises(ContractError):
        MetricConfig(1, {0: Constant(1.0), 1: Constant(1.0)})
    with pytest.raises(ContractError):
        MetricConfig(2, {2: Constant(1.0)})  # missing a_0
    with pytest.raises(ContractError):
        MetricConfig(2, {0: Constant(1.0)})  # missing a_n
    with pytest.raises(ContractError):
        MetricConfig(2, {0: Constant(0.0), 2: Constant(1.0)})
    for b in (-1.0, math.nan):
        with pytest.raises(ContractError):
            Constant(b)


def test_eval_metric_zero_field():
    grid = sc.Grid(64)
    c = sc.make_circle(1.0, (0, 0), grid)
    z = sc.TangentField(grid, np.zeros((64, 2)))
    assert sc.eval_metric(cfg_const(), c, z, z) == 0.0


def test_eval_metric_circle_oracle():
    # k=0 term gives 2*pi, k=2 term gives 2*pi since |D_s^2 c| = 1.
    grid = sc.Grid(512)
    c = sc.make_circle(1.0, (0, 0), grid)
    h = sc.TangentField(grid, c.samples)
    val = sc.eval_metric(cfg_const(), c, h, h)
    assert abs(val - 4 * np.pi) <= 1e-7


def test_metric_symmetry_bilinearity_positivity():
    rng = np.random.default_rng(7)
    grid = sc.Grid(128)
    cfg = cfg_const(0.7, 1.3)
    for _ in range(25):
        c = random_curve(grid, rng)
        h1 = random_field(grid, rng)
        h2 = random_field(grid, rng)
        g = random_field(grid, rng)
        alpha = float(rng.uniform(-2, 2))
        assert sc.eval_metric(cfg, c, h1, g) == sc.eval_metric(cfg, c, g, h1)
        lhs = sc.eval_metric(
            cfg, c, sc.TangentField(grid, alpha * h1.values + h2.values), g
        )
        rhs = alpha * sc.eval_metric(cfg, c, h1, g) + sc.eval_metric(cfg, c, h2, g)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))
        quad = sc.eval_metric(cfg, c, h1, h1)
        l2 = sc.integrate_ds(c, np.sum(h1.values**2, axis=1))
        assert quad >= 0.7 * l2 * (1 - 1e-12)


def test_metric_euclidean_invariance():
    rng = np.random.default_rng(13)
    grid = sc.Grid(128)
    cfg = cfg_const()
    c = random_curve(grid, rng)
    h = random_field(grid, rng)
    g = random_field(grid, rng)
    base = sc.eval_metric(cfg, c, h, g)
    ang = 1.1
    rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
    moved = sc.DiscreteCurve(grid, c.samples @ rot.T + np.array([5.0, -3.0]))
    val = sc.eval_metric(
        cfg,
        moved,
        sc.TangentField(grid, h.values @ rot.T),
        sc.TangentField(grid, g.values @ rot.T),
    )
    assert abs(val - base) <= 1e-12 * abs(base)


def test_scale_invariant_profile():
    cfg = sc.scale_invariant_profile(2, [1.0, 0.0, 1.0])
    assert isinstance(cfg.terms[0], PowerLaw) and cfg.terms[0].p == -3.0
    assert 1 not in cfg.terms
    assert cfg.terms[2].p == 1.0
    cfg3 = sc.scale_invariant_profile(3, [1.0, 1.0, 1.0, 1.0])
    assert [cfg3.terms[k].p for k in range(4)] == [-3.0, -1.0, 1.0, 3.0]
    with pytest.raises(ContractError):
        sc.scale_invariant_profile(2, [0.0, 0.0, 1.0])


def test_scale_invariance_of_metric():
    rng = np.random.default_rng(29)
    grid = sc.Grid(128)
    cfg = sc.scale_invariant_profile(2, [1.0, 0.0, 1.0])
    c = random_curve(grid, rng)
    h = random_field(grid, rng)
    base = sc.eval_metric(cfg, c, h, h)
    for rho in (0.1, 3.0, 50.0):
        scaled = sc.DiscreteCurve(grid, rho * c.samples)
        hs = sc.TangentField(grid, rho * h.values)
        val = sc.eval_metric(cfg, scaled, hs, hs)
        assert abs(val - base) <= 1e-12 * abs(base)


def test_metric_sandwich():
    rng = np.random.default_rng(31)
    grid = sc.Grid(256)
    cfg = cfg_const(0.5, 2.0)
    for _ in range(10):
        c = random_curve(grid, rng)
        h = random_field(grid, rng)
        val = sc.eval_metric(cfg, c, h, h)
        l2 = sc.integrate_ds(c, np.sum(h.values**2, axis=1))
        dn = sc.integrate_ds(c, np.sum(sc.arc_derivative(c, h, 2).values ** 2, axis=1))
        lower = 0.5 * (l2 + dn)
        upper = 2.5 * (l2 + dn)
        assert lower * (1 - 1e-3) <= val <= upper * (1 + 1e-3)


def test_reparametrization_invariance_order():
    grid1 = sc.Grid(128)
    grid2 = sc.Grid(256)
    cfg = cfg_const()
    devs = []
    for grid in (grid1, grid2):
        c = sc.make_circle(1.0, (0, 0), grid)
        th = grid.theta
        h = sc.TangentField(grid, np.stack([np.cos(2 * th), np.sin(3 * th)], axis=1))
        base = sc.eval_metric(cfg, c, h, h)
        phi = th + 0.2 * np.sin(th)
        c2 = sc.reparametrize(c, phi)
        h2 = sc.TangentField(
            grid,
            np.stack([np.cos(2 * phi), np.sin(3 * phi)], axis=1),
        )
        devs.append(abs(sc.eval_metric(cfg, c2, h2, h2) - base))
    assert devs[1] <= devs[0] / 8.0  # at least cubic drop under refinement


def test_config_json_roundtrip(tmp_path):
    knots = np.geomspace(0.5, 8.0, 6)
    cfg = MetricConfig(
        3,
        {
            0: PowerLaw(1.0, -3.0),
            1: Constant(0.5),
            3: Tabulated(tuple(knots), tuple(knots**1.5)),
        },
    )
    data = sc.config_to_dict(cfg)
    assert data["terms"][1] == {"k": 1, "form": "const", "b": 0.5}
    assert sc.config_from_dict(data) == cfg
    path = tmp_path / "cfg.json"
    with open(path, "w") as fh:
        json.dump(data, fh)
    back = sc.load_config(path)
    assert back.n == 3
    assert back.terms[0].p == -3.0
    assert back.terms[1].b == 0.5
    assert abs(coefficient_eval(back.terms[3], 2.0) - 2.0**1.5) <= 1e-3


def test_malformed_config_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "terms": {"0": {"b": 1}}}))
    with pytest.raises(ContractError):
        sc.load_config(path)
    path.write_text(json.dumps({"n": 2, "terms": [{"k": 0, "form": "mystery", "b": 1}]}))
    with pytest.raises(ContractError):
        sc.load_config(path)


def test_duplicate_config_term_rejected():
    terms = [
        {"k": 0, "form": "const", "b": 1.0},
        {"k": 0, "form": "const", "b": 5.0},
        {"k": 2, "form": "const", "b": 1.0},
    ]
    with pytest.raises(ContractError, match="k=0"):
        sc.config_from_dict({"n": 2, "terms": terms})


@pytest.mark.parametrize(
    "data, name",
    [
        ({"n": 2, "terms": [{"k": 0.6, "form": "const", "b": 1.0}]}, "k"),
        ({"n": 2.9, "terms": [{"k": 0, "form": "const", "b": 1.0}]}, "n"),
        ({"n": "2", "terms": [{"k": 0, "form": "const", "b": 1.0}]}, "n"),
    ],
)
def test_config_integer_fields_not_truncated(data, name):
    terms = data["terms"] + [{"k": 2, "form": "const", "b": 1.0}]
    with pytest.raises(ContractError, match=f"{name} must be an integer"):
        sc.config_from_dict(dict(data, terms=terms))


def test_config_integral_floats_accepted():
    terms = [{"k": 0.0, "form": "const", "b": 1.0}, {"k": 2, "form": "const", "b": 1.0}]
    cfg = sc.config_from_dict({"n": 2.0, "terms": terms})
    assert cfg == MetricConfig(2, {0: Constant(1.0), 2: Constant(1.0)})


@pytest.mark.parametrize("seed", [-1, 1.5, 2.0, "0", True])
def test_verify_suite_rejects_bad_seed(seed):
    from sobocurve.verify import run_suite

    with pytest.raises(ContractError, match="^seed must be an integer >= 0"):
        run_suite(seed)


@pytest.mark.parametrize("seed", [86, 201])
def test_verify_suite_passes_with_near_zero_cross_terms(seed):
    # These seeds draw field pairs whose cross term G(h, g) is close to zero.
    from sobocurve.verify import run_suite

    assert run_suite(seed)["all_ok"]


def _profiles():
    knots = (0.5, 1.0, 2.0, 4.0, 8.0)
    return [
        PowerLaw(2.0, -1.5),
        Constant(3.0),
        Tabulated(knots, tuple(k**1.3 + 0.1 for k in knots)),
    ]


@pytest.mark.parametrize("term", _profiles(), ids=["power", "const", "table"])
def test_coefficient_profiles_on_arrays(term):
    # 0.1 and 20 exercise both fitted tails of the tabulated profile.
    ell = np.array([[0.1, 0.5, 0.7], [1.3, 8.0, 20.0]])
    for fn in (coefficient_eval, coefficient_deriv):
        got = fn(term, ell)
        assert isinstance(got, np.ndarray) and got.shape == ell.shape
        expect = np.array([[fn(term, float(x)) for x in row] for row in ell])
        np.testing.assert_allclose(got, expect, rtol=1e-15, atol=0.0)
        assert isinstance(fn(term, 1.3), float)
        with pytest.raises(ContractError):
            fn(term, np.array([1.0, 0.0, 2.0]))
        with pytest.raises(ContractError):
            fn(term, np.array([1.0, -2.0]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("term", _profiles(), ids=["power", "const", "table"])
def test_coefficient_profiles_reject_non_finite_lengths(term, bad):
    for fn in (coefficient_eval, coefficient_deriv):
        for ell in (bad, np.array([1.0, bad, 2.0]), np.array([[1.0, 2.0], [3.0, bad]])):
            with pytest.raises(ContractError, match="positive and finite"):
                fn(term, ell)


@st.composite
def _pchip_tables(draw):
    """4-16 knots; values on a few integer levels give flat runs and slope sign changes."""
    size = draw(st.integers(4, 16))
    steps = draw(st.lists(st.floats(0.01, 5.0), min_size=size, max_size=size))
    knots = draw(st.floats(1e-3, 1e3)) * np.cumsum(steps)
    level = st.integers(1, 4).map(float) | st.floats(0.1, 10.0)
    values = draw(st.lists(level, min_size=size, max_size=size))
    return Tabulated(tuple(knots.tolist()), tuple(values))


# End slopes zeroed (the three-point slope has the wrong sign), clamped to
# 3 m0 (m0 and m1 of opposite sign), and one of each around a flat run.
@settings(max_examples=200, deadline=None, derandomize=True)
@example(table=Tabulated((1.0, 2.0, 3.0, 4.0), (1.0, 1.1, 3.1, 3.2)), seed=0)
@example(table=Tabulated((1.0, 2.0, 3.0, 4.0), (10.0, 11.0, 1.0, 2.0)), seed=0)
@example(table=Tabulated((1.0, 2.0, 3.0, 4.0, 5.0, 6.0), (1.0, 1.1, 3.1, 3.1, 8.1, 7.1)), seed=0)
@given(table=_pchip_tables(), seed=st.integers(0, 2**32 - 1))
def test_tabulated_matches_scipy_pchip_exactly(table, seed):
    from scipy.interpolate import PchipInterpolator

    knots = np.array(table.knots)
    reference = PchipInterpolator(knots, np.array(table.values))
    rng = np.random.default_rng(seed)
    inner = rng.uniform(knots[0], knots[-1], (3, 96))  # shaped like log_quad's nodes
    for nu, fn in ((0, coefficient_eval), (1, coefficient_deriv)):
        for ell in (inner, knots):
            assert np.array_equal(fn(table, ell), reference(ell, nu))
        for ell in (*knots, *inner[0, :8]):
            assert fn(table, float(ell)) == float(reference(ell, nu))
            assert fn(table, np.array(ell)) == reference(ell, nu)  # 0-d array


# Property tests of the invariants `verify` samples on eval_metric.  The
# curve and fields come from seeded band-limited samplers; hypothesis
# draws the seeds and the group elements.

_GRID = sc.Grid(64)
_CONFIGS = [
    cfg_const(0.7, 1.3),
    sc.scale_invariant_profile(2, [1.0, 0.4, 1.0]),
    MetricConfig(3, {0: Constant(1.0), 1: _profiles()[2], 3: PowerLaw(0.5, 1.0)}),
]
_PROPERTY = settings(max_examples=25, deadline=None, derandomize=True)


def _sample(seed):
    rng = np.random.default_rng(seed)
    return random_curve(_GRID, rng), random_field(_GRID, rng), random_field(_GRID, rng)


def _cs_scale(cfg, c, h, g):
    return math.sqrt(sc.eval_metric(cfg, c, h, h) * sc.eval_metric(cfg, c, g, g))


@_PROPERTY
@given(seed=st.integers(0, 2**32 - 1), cfg=st.sampled_from(_CONFIGS))
def test_property_metric_symmetric(seed, cfg):
    c, h, g = _sample(seed)
    assert sc.eval_metric(cfg, c, h, g) == sc.eval_metric(cfg, c, g, h)


@_PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    cfg=st.sampled_from(_CONFIGS),
    alpha=st.floats(-10.0, 10.0),
)
def test_property_metric_bilinear(seed, cfg, alpha):
    c, h, g = _sample(seed)
    f = random_field(_GRID, np.random.default_rng([seed, 1]))
    combo = sc.TangentField(_GRID, alpha * h.values + f.values)
    lhs = sc.eval_metric(cfg, c, combo, g)
    rhs = alpha * sc.eval_metric(cfg, c, h, g) + sc.eval_metric(cfg, c, f, g)
    assert abs(lhs - rhs) <= 1e-12 * _cs_scale(cfg, c, combo, g)


@_PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    cfg=st.sampled_from(_CONFIGS),
    angle=st.floats(-math.pi, math.pi),
    shift=st.tuples(st.floats(-100.0, 100.0), st.floats(-100.0, 100.0)),
)
def test_property_metric_euclidean_invariant(seed, cfg, angle, shift):
    c, h, g = _sample(seed)
    rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    moved = sc.DiscreteCurve(_GRID, c.samples @ rot.T + np.asarray(shift))
    val = sc.eval_metric(
        cfg, moved, sc.TangentField(_GRID, h.values @ rot.T), sc.TangentField(_GRID, g.values @ rot.T)
    )
    assert abs(val - sc.eval_metric(cfg, c, h, g)) <= 1e-12 * _cs_scale(cfg, c, h, g)


@_PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    b=st.tuples(st.floats(0.0, 5.0), st.floats(0.0, 5.0), st.floats(0.1, 5.0)),
    j=st.integers(-1000, 1000),
)
def test_property_scale_invariant_profile(seed, b, j):
    # Scaling curve and field by rho = 2^j is exact on these samples, and
    # the kernel's power-of-two units keep every other step exact.  Only
    # libm's pow(ell, p) for p < 0 is not exactly covariant under powers
    # of two (1 ulp in about 5e-5 of draws), hence the 4-ulp bound.
    cfg = sc.scale_invariant_profile(3, (1.0,) + b)
    c, h, _ = _sample(seed)
    scaled = sc.DiscreteCurve(_GRID, np.ldexp(c.samples + 10.0, j))
    hs = sc.TangentField(_GRID, np.ldexp(h.values, j))
    assert np.array_equal(np.ldexp(scaled.samples, -j), c.samples + 10.0)
    base = sc.eval_metric(cfg, sc.DiscreteCurve(_GRID, c.samples + 10.0), h, h)
    assert sc.eval_metric(cfg, scaled, hs, hs) == pytest.approx(base, rel=1e-15, abs=0.0)


_POSITIVE = st.floats(1e-6, 1e6)


@st.composite
def _tables(draw):
    """A power law b * ell^p times a wiggle in [0.5, 2], tabulated at 4-8 knots."""
    ratios = draw(st.lists(st.floats(1.01, 10.0), min_size=3, max_size=7))
    knots = draw(st.floats(1e-3, 1e3)) * np.cumprod([1.0, *ratios])
    size = knots.size
    wiggle = np.array(draw(st.lists(st.floats(0.5, 2.0), min_size=size, max_size=size)))
    values = draw(_POSITIVE) * knots ** draw(st.floats(-10.0, 10.0)) * wiggle
    return Tabulated(tuple(knots.tolist()), tuple(values.tolist()))


_TERM = st.one_of(
    st.builds(PowerLaw, _POSITIVE, st.floats(-10.0, 10.0)),
    st.builds(Constant, _POSITIVE),
    _tables(),
)


@st.composite
def _metric_configs(draw):
    n = draw(st.integers(2, 4))
    terms = {k: draw(_TERM) for k in (0, n)}
    for k in range(1, n):
        if draw(st.booleans()):
            terms[k] = draw(_TERM)
    return MetricConfig(n, terms)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(cfg=_metric_configs())
def test_property_config_dict_roundtrip_exact(cfg):
    data = sc.config_to_dict(cfg)
    assert sc.config_from_dict(data) == cfg
    text = json.dumps(data)
    back = sc.config_from_dict(json.loads(text))
    assert back == cfg
    assert json.dumps(sc.config_to_dict(back)) == text


@pytest.mark.parametrize("scale", [1e-150, 1.0, 3e120])
def test_form_from_the_curves_derivative_equals_form_from_samples(scale):
    # A caller that holds d samples/dtheta spares its stencil.
    grid = sc.Grid(64)
    rng = np.random.default_rng(5)
    stack = scale * np.stack([random_curve(grid, rng).samples for _ in range(3)])
    field = scale * random_field(grid, rng).values  # one field for the whole stack
    cfg = MetricConfig(3, {0: PowerLaw(1.0, -3.0), 1: PowerLaw(0.5, -1.0), 3: PowerLaw(2.0, 3.0)})
    values, pieces = _form(cfg, grid, stack, field.copy())
    dc = sc.derivative(stack, grid, axis=-2)
    got, got_pieces = _form(cfg, grid, None, field.copy(), dc=dc.copy())
    assert np.array_equal(got, values)
    assert all(np.array_equal(a, b) for a, b in zip(got_pieces[2], pieces[2]))
    e = pieces[5]  # the returned dc is the stencil's, in the curves' power-of-two units
    assert np.array_equal(pieces[-1], np.ldexp(dc, -e[:, None, None]))


@st.composite
def _near_scale_invariant_configs(draw):
    """a_k near the scale-invariant b ell^(2k-3), as power laws, constants (k = 1, 2) or
    tables, so that G stays a float on curves scaled by 2^600 or 2^-600."""
    n = draw(st.integers(2, 3))
    terms = {}
    for k in range(n + 1):
        if k not in (0, n) and draw(st.booleans()):
            continue
        b, p = draw(st.floats(0.5, 2.0)), 2 * k - 3 + draw(st.floats(-0.5, 0.5))
        form = draw(st.sampled_from(["power", "const", "table"] if k in (1, 2) else ["power", "table"]))
        if form == "power":
            terms[k] = PowerLaw(b, p)
        elif form == "const":
            terms[k] = Constant(b)
        else:
            knots = draw(st.floats(0.1, 10.0)) * 2.0 ** np.arange(6)
            wiggle = np.array(draw(st.lists(st.floats(0.8, 1.25), min_size=6, max_size=6)))
            terms[k] = Tabulated(tuple(knots.tolist()), tuple((b * knots**p * wiggle).tolist()))
    return MetricConfig(n, terms)


@_PROPERTY
@given(cfg=_near_scale_invariant_configs(), seed=st.integers(0, 2**32 - 1),
       j=st.sampled_from([-600, 600]), pairs=st.booleans())
def test_property_stacked_form_and_jet_equal_single_curve_calls(cfg, seed, j, pairs):
    # Batching is only a speed-up if every curve of a stack gets the bits of
    # its own call.  The stack mixes a unit curve with its copy scaled by 2^j,
    # whose lengths make the plain power-law step over- or underflow, so
    # `_law`'s split path runs for the whole stack.  With pairs the fields
    # h, g get a leading pair axis: `_form` stacks them, `_arc_jet` is given them stacked.
    rng = np.random.default_rng(seed)
    base = [random_curve(_GRID, rng).samples for _ in range(3)]
    fields = [random_field(_GRID, rng).values for _ in range(8)]
    curves = np.stack([base[0], np.ldexp(base[0], j), base[1], base[2]])
    h = np.stack(fields[:4])
    h[1] = np.ldexp(h[0], j)
    g = np.stack(fields[4:]) if pairs else None
    if pairs:
        g[1] = np.ldexp(g[0], j)
    stacked = _form(cfg, _GRID, curves, h.copy(), g)[0]
    single = [_form(cfg, _GRID, curves[i], h[i].copy(), None if g is None else g[i])[0]
              for i in range(len(curves))]
    assert np.array_equal(stacked, single)
    field = h if g is None else np.stack([h, g])
    e, s, ell, u = _arc_jet(_GRID, curves, field, cfg.n)
    for i in range(len(curves)):
        e_i, s_i, ell_i, u_i = _arc_jet(_GRID, curves[i], field[..., i, :, :], cfg.n)
        assert e[i] == e_i and ell[i] == ell_i and np.array_equal(s[i], s_i)
        assert all(np.array_equal(uk[..., i, :, :], uk_i) for uk, uk_i in zip(u, u_i))
