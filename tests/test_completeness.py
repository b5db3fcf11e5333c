"""Divergence classification of the completeness integrals and the W-function."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sobocurve as sc
from sobocurve.completeness import (
    CONVERGENT,
    DIVERGENT,
    GAP,
    INCONCLUSIVE,
    NECESSARY_FAIL,
    SUFFICIENT,
    _radial_speed,
    log_quad,
    w_eval,
)
from sobocurve.errors import ContractError, NumericalError
from sobocurve.metric import Constant, MetricConfig, PowerLaw, Tabulated, coefficient_eval


def two_term(q, p):
    return MetricConfig(2, {0: PowerLaw(1.0, q), 2: PowerLaw(1.0, p)})


def speed(term, k, r):
    """The integrand per unit of ln r, r^(3/2-k) sqrt(a_k(r)), at one r."""
    return float(_radial_speed(np.float64(r), [(k, term, 1.0, 0)]))


def test_integrand_closed_forms():
    assert speed(PowerLaw(1.0, -3.0), 0, 4.0) == pytest.approx(1.0, rel=1e-12)
    assert speed(Constant(1.0), 2, 1.0) == pytest.approx(1.0, rel=1e-12)
    assert speed(Constant(4.0), 1, 9.0) == pytest.approx(6.0, rel=1e-12)
    assert speed(Constant(0.0), 1, 3.0) == 0.0


def test_classify_power_law_table():
    # k=0: both ends flip at q = -3; k=2: at p = 1.
    v = sc.classify_power_law(0, -3.0)
    assert v["I0"].verdict == DIVERGENT and v["Iinf"].verdict == DIVERGENT
    v = sc.classify_power_law(2, 0.0)
    assert v["I0"].verdict == DIVERGENT and v["Iinf"].verdict == CONVERGENT
    v = sc.classify_power_law(2, 2.0)
    assert v["I0"].verdict == CONVERGENT and v["Iinf"].verdict == DIVERGENT
    v = sc.classify_power_law(1, 5.0, b=0.0)
    assert v["I0"].verdict == CONVERGENT and v["Iinf"].verdict == CONVERGENT
    # A law that is not a PowerLaw is refused, not classified.
    for p, b in ((math.nan, 1.0), (1.0, -1.0), (1.0, math.inf)):
        with pytest.raises(ContractError):
            sc.classify_power_law(0, p, b)


def test_classify_power_law_full_grid():
    # 40 (k, p) pairs across the critical exponents p = 2k - 3.
    for k in range(5):
        crit = 2.0 * k - 3.0
        for dp in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0):
            p = crit + dp
            v = sc.classify_power_law(k, p)
            assert v["I0"].verdict == (DIVERGENT if p <= crit else CONVERGENT)
            assert v["Iinf"].verdict == (DIVERGENT if p >= crit else CONVERGENT)
            assert v["I0"].method == "analytic_power_law"


def test_classify_convergent_values():
    # I_{inf,2} for constant a_2 = 1: integral of r^(-3/2) from 1 = 2.
    v = sc.classify_power_law(2, 0.0, b=1.0)
    assert v["Iinf"].value == pytest.approx(2.0, rel=1e-12)


def test_numeric_evidence_matches_analytic():
    knots = np.geomspace(0.25, 4.0, 8)
    for k in (0, 2):
        for p in (2.0 * k - 3.0 - 1.0, 2.0 * k - 3.0 + 1.0):
            table = Tabulated(tuple(knots), tuple(knots**p))
            analytic = sc.classify_power_law(k, p)
            for end, key in (("zero", "I0"), ("infinity", "Iinf")):
                numeric = sc.numeric_integral_evidence(table, k, end)
                assert numeric.verdict == analytic[key].verdict, (k, p, end)
                assert numeric.method == "numeric_evidence"


def test_numeric_evidence_critical_never_convergent():
    # Integrand exactly 1/r at both ends (k=2, p=1): log-divergent.
    knots = np.geomspace(0.25, 4.0, 8)
    table = Tabulated(tuple(knots), tuple(knots**1.0))
    for end in ("zero", "infinity"):
        verdict = sc.numeric_integral_evidence(table, 2, end).verdict
        assert verdict == DIVERGENT


@pytest.mark.parametrize("offset", [-1e-9, 1e-9])
def test_numeric_evidence_near_critical_tail(offset):
    # 1e-9 off the critical exponent one end converges: only roundoff-sized
    # departures from p = 2k - 3 count as critical.
    knots = np.geomspace(0.25, 4.0, 8)
    table = Tabulated(tuple(knots), tuple(knots ** (1.0 + offset)))
    analytic = sc.classify_power_law(2, 1.0 + offset)
    for end, key in (("zero", "I0"), ("infinity", "Iinf")):
        assert sc.numeric_integral_evidence(table, 2, end).verdict == analytic[key].verdict


def test_numeric_evidence_zero_coefficient():
    v = sc.numeric_integral_evidence(Constant(0.0), 1, "zero")
    assert v.verdict == CONVERGENT and v.value == 0.0


def test_numeric_evidence_bad_end():
    with pytest.raises(ContractError):
        sc.numeric_integral_evidence(Constant(1.0), 0, "middle")


def test_analyze_gap_families():
    rep = sc.analyze(two_term(-3.0, 0.0))
    assert rep.condition_I0 is True
    assert rep.condition_Iinf is False
    assert rep.necessary_I0_any_k is True
    assert rep.necessary_Iinf_any_k is True
    assert rep.classification == GAP

    rep = sc.analyze(two_term(-3.0, 2.0))
    assert rep.condition_Iinf is True
    assert rep.condition_I0 is False
    assert rep.classification == GAP


def test_analyze_sufficient():
    rep = sc.analyze(sc.scale_invariant_profile(2, [1.0, 0.0, 1.0]))
    assert rep.condition_I0 is True and rep.condition_Iinf is True
    assert rep.classification == SUFFICIENT


def test_analyze_necessary_fail():
    # q > -3 and p > 1 make every integral at the zero end finite, so even
    # the necessary condition fails in that direction.
    rep = sc.analyze(two_term(-2.0, 2.0))
    assert rep.necessary_I0_any_k is False
    assert rep.classification == NECESSARY_FAIL


def test_analyze_monotone_in_added_terms():
    base = sc.analyze(two_term(-3.0, 0.0))
    richer = sc.analyze(
        MetricConfig(
            2, {0: PowerLaw(1.0, -3.0), 1: PowerLaw(1.0, 5.0), 2: PowerLaw(1.0, 0.0)}
        )
    )
    assert base.condition_I0 is True and richer.condition_I0 is True
    assert richer.condition_Iinf is True  # k=1 term diverges at infinity


def test_report_serialization():
    rep = sc.analyze(two_term(-3.0, 0.0))
    data = rep.to_dict()
    assert data["classification"] == GAP
    rows = data["per_k"]
    assert len(rows) == 2 * 3
    assert {row["end"] for row in rows} == {"zero", "infinity"}
    # The absent k = 1 term is a_1 = 0: both ends converge to 0.
    assert [row for row in rows if row["k"] == 1] == [
        {"k": 1, "end": end, "verdict": "convergent", "method": "analytic_power_law", "value": 0.0}
        for end in ("zero", "infinity")
    ]


def test_w_eval_closed_form():
    cfg = MetricConfig(2, {0: Constant(1.0), 2: Constant(1.0)})
    assert w_eval(cfg, 1.0) == 0.0
    for r in (0.25, 0.7, 2.0, 9.0, 100.0):
        expect = 2.0 * (1.0 - r**-0.5)
        assert w_eval(cfg, r) == pytest.approx(expect, abs=1e-9)
    with pytest.raises(ContractError):
        w_eval(cfg, 0.0)


def test_w_eval_scale_invariant_is_log_at_every_decade():
    # Under SI the W integrand is 1/r: W(r) = ln r, with no intermediate
    # r^(1/2-k) or a_k(r) leaving the float range.
    cfg = sc.scale_invariant_profile(2, [1.0, 0.0, 1.0])
    for j in range(-300, 301):
        r = 10.0**j
        assert w_eval(cfg, r) == pytest.approx(math.log(r), rel=1e-12)


def test_w_eval_to_the_top_of_the_float_range():
    # W is proportional to ln r under SI; the decade grid stops at 1e308.
    cfg = sc.scale_invariant_profile(2, [1.0, 0.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = w_eval(cfg, 1.5e308)
    assert value == pytest.approx(w_eval(cfg, 10.0) * math.log(1.5e308) / math.log(10.0), rel=1e-12)
    # An integrand past the float range is a NumericalError, not a non-finite W.
    cfg = MetricConfig(2, {0: Constant(1.0), 1: PowerLaw(1.0, 8.0), 2: Constant(1.0)})
    with pytest.raises(NumericalError, match=r"^W quadrature failed on \[1.0, 1e\+200\]"):
        w_eval(cfg, 1e200)


def test_integrand_and_w_eval_far_from_the_unit_scale():
    # a_2 = ell^3 makes the integrand per unit of ln r sqrt(r^3 r^-1) = r,
    # though r^3 leaves the float range past r = 1e103 and below 1e-103;
    # with a_1 = ell^2 and a_2 = ell, W(r) = (2/3)(r^1.5 - 1) + ln r.
    for j in range(-300, 301):
        r = 10.0**j
        assert speed(PowerLaw(1.0, 3.0), 2, r) == pytest.approx(r, rel=1e-13)
    cfg = MetricConfig(2, {0: Constant(1.0), 1: PowerLaw(1.0, 2.0), 2: PowerLaw(1.0, 1.0)})
    for r in (1e150, 1e200):
        assert w_eval(cfg, r) == pytest.approx((2.0 / 3.0) * (r**1.5 - 1.0) + math.log(r), rel=1e-12)


def test_w_eval_far_below_the_unit_scale():
    # Under a_0 = a_2 = 1, W(r) = -2 (r^-1/2 - 1): a float at r = 1e-300,
    # though the integrand r^-3/2 is not; its value per unit of ln r is.
    cfg = MetricConfig(2, {0: Constant(1.0), 2: Constant(1.0)})
    r = 1e-300
    assert w_eval(cfg, r) == pytest.approx(-2.0 * (r**-0.5 - 1.0), rel=1e-13)


def test_w_monotone_random_profiles():
    rng = np.random.default_rng(19)
    for _ in range(50):
        n = int(rng.integers(2, 4))
        terms = {0: PowerLaw(float(rng.uniform(0.1, 2.0)), float(rng.uniform(-4, 1)))}
        terms[n] = PowerLaw(float(rng.uniform(0.1, 2.0)), float(rng.uniform(-2, 3)))
        cfg = MetricConfig(n, terms)
        r_values = [0.5, 1.0, 1.5, 2.0]
        w_values = [w_eval(cfg, r) for r in r_values]
        assert all(b > a for a, b in zip(w_values, w_values[1:]))
        assert w_eval(cfg, 1.0) == 0.0


def test_w_unbounded_under_divergence():
    # Profile with strongly divergent I0 and Iinf integrands (power
    # growth, not just log): W blows up at both ends.
    cfg = MetricConfig(
        2, {0: Constant(1.0), 1: PowerLaw(1.0, -2.0), 2: PowerLaw(1.0, 3.0)}
    )
    assert abs(w_eval(cfg, 1e-6)) >= 10 * abs(w_eval(cfg, 1e-3))
    assert abs(w_eval(cfg, 1e6)) >= 10 * abs(w_eval(cfg, 1e3))


def test_numeric_evidence_overflow_is_inconclusive():
    # The lower tail ~ ell^8 converges at k = 5 and its value at the knot
    # 1e-100 is a float, but the integral over the stretch up to r = 1 is
    # not: per unit of ln r the integrand reaches 1e309 at r = 1e-98.
    table = Tabulated((1e-100, 1e-99, 1e-98, 1.0), (1e-84, 1e-76, 1e-68, 1.0))
    v = sc.numeric_integral_evidence(table, 5, "zero")
    assert v.verdict == INCONCLUSIVE and "error" in v.evidence


def test_numeric_evidence_tail_overflow_is_inconclusive_without_warning():
    # The lower tail ~ ell^-2.5 converges at k = 0, but its integral up to
    # r = 1, 250 decades below the end knot, is about 1e313.
    j = np.arange(4)
    table = Tabulated(tuple(1e250 * 2.0**j), tuple(2.0 ** (-2.5 * j)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = sc.numeric_integral_evidence(table, 0, "zero")
    assert v.verdict == INCONCLUSIVE and "overflow" in v.evidence["error"]


def test_numeric_evidence_tail_converges_where_only_the_integrand_overflows():
    # The lower tail ~ ell^-2 converges at k = 0 to 2 sqrt(a_0(1)) = 2e200
    # over (0, 1]: a_0(1) = 1e400 is not a float, the value is.
    table = Tabulated((1e200, 2e200, 4e200, 8e200), (1.0, 1 / 4, 1 / 16, 1 / 64))
    v = sc.numeric_integral_evidence(table, 0, "zero")
    assert v.verdict == CONVERGENT
    assert v.value == pytest.approx(2e200, rel=1e-10)


def test_numeric_evidence_propagates_unrelated_errors(monkeypatch):
    import sobocurve.completeness as completeness

    real = completeness._radial_speed

    def broken(r, *args):
        if np.ndim(r):  # the quadrature's nodes, not the tail's one point
            raise TypeError("not a quadrature failure")
        return real(r, *args)

    monkeypatch.setattr(completeness, "_radial_speed", broken)
    knots = np.geomspace(0.25, 4.0, 8)
    table = Tabulated(tuple(knots), tuple(knots**2.5))
    with pytest.raises(TypeError, match="not a quadrature failure"):
        sc.numeric_integral_evidence(table, 1, "zero")


@pytest.mark.parametrize("e", [-11.0, -6.5, -3.0, -1.5, -1.0, -0.5, 0.0, 2.5, 9.0])
def test_log_quad_power_law_decades_exact(e):
    edges = 10.0 ** np.arange(-8, 9)
    calls = []

    def f(r):  # integrated per unit of ln r: r^e dr
        calls.append(r.shape)
        return r ** (e + 1.0)

    pieces, errors = log_quad(f, edges)
    lo = edges[:-1]
    if e == -1.0:
        exact = np.full(lo.shape, math.log(10.0))
    else:
        exact = lo ** (e + 1) * math.expm1((e + 1) * math.log(10.0)) / (e + 1)
    assert len(calls) == 1
    assert np.max(np.abs(pieces - exact) / exact) <= 1e-13
    assert np.max(errors / exact) <= 1e-13


def knot_split_reference(term, k, lo, hi):
    """integral_lo^hi r^(1/2-k) sqrt(a_k(r)) dr by adaptive quad in ln r.

    The integrand per unit of ln r, r^(3/2-k) sqrt(a_k(r)), comes from the
    public coefficient_eval; the pieces split at decades and knots.
    """
    from scipy.integrate import quad

    points = {lo, hi} | {10.0**m for m in range(-20, 21) if lo < 10.0**m < hi}
    points |= {x for x in term.knots if lo < x < hi}
    points = sorted(points)
    total = 0.0
    for a, b in zip(points[:-1], points[1:]):
        piece, _ = quad(
            lambda x: math.exp((1.5 - k) * x) * math.sqrt(coefficient_eval(term, math.exp(x))),
            math.log(a), math.log(b), epsrel=1e-13, epsabs=0.0, limit=200,
        )
        total += piece
    return total


def test_w_eval_tabulated_matches_knot_split_reference():
    knots = np.geomspace(0.3, 6.0, 7)
    table = Tabulated(tuple(knots), tuple(knots**1.7 * (1.0 + 0.3 * np.sin(2.0 * knots))))
    cfg = MetricConfig(2, {0: Constant(1.0), 2: table})
    for r in (0.02, 0.45, 2.5, 50.0):
        lo, hi = sorted((1.0, r))
        expect = math.copysign(knot_split_reference(table, 2, lo, hi), r - 1.0)
        assert w_eval(cfg, r) == pytest.approx(expect, rel=1e-12), r


@pytest.mark.parametrize("r", [float("nan"), float("inf")])
def test_w_eval_rejects_non_finite_argument(r):
    with pytest.raises(ContractError):
        w_eval(MetricConfig(2, {0: Constant(1.0), 2: Constant(1.0)}), r)


def test_numeric_evidence_reports_quadrature_error():
    knots = np.geomspace(0.25, 4.0, 8)
    table = Tabulated(tuple(knots), tuple(knots**2.5))
    for k, end in ((1, "zero"), (3, "infinity")):  # the convergent ends
        v = sc.numeric_integral_evidence(table, k, end)
        assert v.verdict == CONVERGENT
        assert 0.0 <= v.evidence["quadrature_error"] <= 1e-12 * v.value


@pytest.mark.parametrize("q, expected", [(1.0, SUFFICIENT), (0.0, GAP)])
def test_analyze_tabulated_critical_tails(q, expected):
    # a_0 = ell^-3 with a_2 = ell (the complete metric) or a_2 = 1, as
    # tables: their critical tails classify as the power laws do.
    knots = np.geomspace(0.25, 4.0, 8)
    table = {k: Tabulated(tuple(knots), tuple(knots**p)) for k, p in ((0, -3.0), (2, q))}
    power = {0: PowerLaw(1.0, -3.0), 2: PowerLaw(1.0, q)}
    table_report = sc.analyze(MetricConfig(2, table)).to_dict()
    power_report = sc.analyze(MetricConfig(2, power)).to_dict()
    assert table_report["classification"] == power_report["classification"] == expected
    for key in ("condition_I0", "condition_Iinf", "necessary_I0_any_k", "necessary_Iinf_any_k"):
        assert table_report[key] == power_report[key]
    for row_t, row_p in zip(table_report["per_k"], power_report["per_k"]):
        assert row_t["verdict"] == row_p["verdict"], (row_t, row_p)


def test_analyze_reads_every_end_from_numeric_integral_evidence():
    # Power law, constant, table and an absent k (a_2 = 0): one rule for all.
    knots = np.geomspace(0.25, 4.0, 8)
    terms = {0: PowerLaw(1.0, -3.5), 1: Constant(2.0),
             3: Tabulated(tuple(knots), tuple(knots**2.5)), 4: PowerLaw(0.5, 6.0)}
    report = sc.analyze(MetricConfig(4, terms))
    for k in range(5):
        term = terms.get(k, PowerLaw(0.0, 0.0))
        assert report.verdicts_zero[k] == sc.numeric_integral_evidence(term, k, "zero"), k
        assert report.verdicts_inf[k] == sc.numeric_integral_evidence(term, k, "infinity"), k
    assert report.verdicts_zero[3].method == "numeric_evidence"
    assert {report.verdicts_inf[k].method for k in (0, 1, 2, 4)} == {"analytic_power_law"}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    k=st.integers(0, 4),
    offset=st.one_of(st.just(0.0), st.floats(0.1, 4.0), st.floats(-4.0, -0.1)),
    b=st.floats(0.1, 10.0),
    lo_exp=st.floats(-3.0, 2.0),
    span=st.floats(0.5, 2.0),
    n_knots=st.integers(4, 12),
)
@example(k=2, offset=0.0, b=1.0, lo_exp=-0.6, span=1.2, n_knots=8)  # critical, straddles 1
@example(k=1, offset=1.5, b=2.0, lo_exp=0.5, span=1.0, n_knots=5)  # all knots above 1
@example(k=3, offset=-1.5, b=0.5, lo_exp=-2.5, span=1.0, n_knots=6)  # all knots below 1
def test_tabulated_power_law_classifies_as_power_law(k, offset, b, lo_exp, span, n_knots):
    # A table of b * ell^p has the tails of PowerLaw(b, p), so each end gets
    # the power law's verdict, including at the critical p = 2k - 3.  A
    # convergent end's value is the power law's tail integral up to the
    # end knot (or r = 1) plus the table's integral between knot and 1.
    p = 2.0 * k - 3.0 + offset
    knots = np.geomspace(10.0**lo_exp, 10.0 ** (lo_exp + span), n_knots)
    table = Tabulated(tuple(knots), tuple(b * knots**p))
    analytic = sc.classify_power_law(k, p, b)
    e = 0.5 - k + p / 2.0
    for end, key in (("zero", "I0"), ("infinity", "Iinf")):
        v = sc.numeric_integral_evidence(table, k, end)
        assert v.verdict == analytic[key].verdict, (end, v)
        if v.verdict != CONVERGENT:
            continue
        c = min(knots[0], 1.0) if end == "zero" else max(knots[-1], 1.0)
        expect = math.sqrt(b) * c ** (e + 1.0) / abs(e + 1.0)
        if c != 1.0:
            expect += knot_split_reference(table, k, min(c, 1.0), max(c, 1.0))
        else:
            assert v.value == pytest.approx(analytic[key].value, rel=1e-12)
        assert v.value == pytest.approx(expect, rel=1e-12), end
