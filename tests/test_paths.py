"""Path energy and length, radial closed forms, and the geodesic solver."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sobocurve as sc
from sobocurve import metric as metric_module
from sobocurve import paths as paths_module
from sobocurve.counterexample import scaled_leg_length
from sobocurve.curves import _arc_jet
from sobocurve.errors import ContractError, ImmersionError, NumericalError
from sobocurve.metric import (
    Constant,
    MetricConfig,
    PowerLaw,
    Tabulated,
    coefficient_eval,
    scale_invariant_profile,
)
from sobocurve.paths import _spectral_preconditioner, path_from_dict, path_to_dict
from sobocurve.sampling import random_curve, random_field

CFG = MetricConfig(2, {0: Constant(1.0), 2: Constant(1.0)})


def circle_pair(n=128, r0=1.0, r1=2.0):
    grid = sc.Grid(n)
    return sc.make_circle(r0, (0, 0), grid), sc.make_circle(r1, (0, 0), grid)


def test_linear_path_basics():
    c0, c1 = circle_pair(64)
    path = sc.linear_path(c0, c1, 8)
    assert path.T == 8
    assert path.dt == 0.125
    assert np.array_equal(path.slices[0].samples, c0.samples)
    assert np.array_equal(path.slices[-1].samples, c1.samples)
    with pytest.raises(ContractError):
        sc.linear_path(c0, sc.make_circle(1.0, (0, 0), sc.Grid(32)), 8)


def test_endpoints_of_different_dimension_rejected():
    c0, c1 = circle_pair(64)
    space = sc.DiscreteCurve(c1.grid, np.column_stack([c1.samples, np.zeros(64)]))
    for a, b in ((c0, space), (space, c0)):
        with pytest.raises(ContractError, match="different dimensions: d=[23] and d=[23]"):
            sc.linear_path(a, b, 8)
        with pytest.raises(ContractError, match="different dimensions"):
            sc.geodesic_bvp(CFG, a, b, sc.SolverOptions(T=4))


def test_curve_path_contracts():
    c0, c1 = circle_pair(64)
    samples = sc.linear_path(c0, c1, 4).samples
    for bad in (
        samples[0],  # one curve, not a stack
        samples[:, ::2],  # 32 samples on a 64-point grid
        samples[:1],  # a single slice
        samples[..., :1],  # d = 1
    ):
        with pytest.raises(ContractError):
            sc.CurvePath(c0.grid, bad)
    nan = samples.copy()
    nan[2, 5, 1] = np.nan
    with pytest.raises(ContractError):
        sc.CurvePath(c0.grid, nan)
    collapsed = samples.copy()
    collapsed[2] = 0.0
    with pytest.raises(ImmersionError, match="degenerates at t=0.5"):
        sc.CurvePath(c0.grid, collapsed)
    path = sc.CurvePath(c0.grid, samples)
    assert all(np.array_equal(c.samples, samples[m]) for m, c in enumerate(path.slices))
    ragged = path_to_dict(path)
    ragged["slices"][1]["samples"].pop()
    with pytest.raises(ContractError):
        path_from_dict(ragged)


@pytest.mark.parametrize("gap_tol", [float("inf"), float("nan")])
def test_solver_options_reject_bad_gap_tol(gap_tol):
    with pytest.raises(ContractError, match="gap_tol"):
        sc.SolverOptions(gap_tol=gap_tol)


@pytest.mark.parametrize("name", ["T", "max_iters"])
@pytest.mark.parametrize("bad", [4.5, 4.0, True, "4", 0])
def test_solver_options_and_linear_path_reject_non_integer_counts(name, bad):
    # T = 4.5 used to give a 5-interval path that missed c1 by 0.089.
    with pytest.raises(ContractError, match=f"^{name} must be an integer"):
        sc.SolverOptions(**{name: bad})
    if name == "T":
        c0 = sc.make_circle(1.0, (0, 0), sc.Grid(32))
        with pytest.raises(ContractError, match="^T must be an integer"):
            sc.linear_path(c0, sc.make_circle(1.7, (0.1, 0), sc.Grid(32)), bad)


def test_solver_options_accept_numpy_integers():
    opts = sc.SolverOptions(max_iters=np.int64(7), T=np.int32(4))
    assert (opts.max_iters, opts.T) == (7, 4)


def test_path_dict_grid_holds_only_N():
    c0, c1 = circle_pair(64)
    data = path_to_dict(sc.linear_path(c0, c1, 4))
    assert data["grid"] == {"N": 64}
    # A stencil key in an older file is ignored: the samples do not depend on it.
    data["grid"]["scheme_order"] = 2
    assert path_from_dict(data).grid == sc.Grid(64)
    for bad in ("abc", None, [64], 64.5):
        data["grid"]["N"] = bad
        with pytest.raises(ContractError, match="malformed path data"):
            path_from_dict(data)


def test_path_dict_T_must_match_slices():
    c0, c1 = circle_pair(64)
    data = path_to_dict(sc.linear_path(c0, c1, 8))
    assert path_from_dict(dict(data, T=8.0)).T == 8
    for bad in (3, 9):
        with pytest.raises(ContractError, match=f"T={bad} but 9 slices"):
            path_from_dict(dict(data, T=bad))
    with pytest.raises(ContractError, match="T must be an integer"):
        path_from_dict(dict(data, T=7.5))
    del data["T"]
    with pytest.raises(ContractError, match="malformed path data"):
        path_from_dict(data)


def test_linear_path_degeneration():
    grid = sc.Grid(64)
    c0 = sc.make_circle(1.0, (0, 0), grid)
    c1 = sc.DiscreteCurve(grid, -c0.samples)  # midpoint collapses to a point
    with pytest.raises(ImmersionError, match="degenerates at t="):
        sc.linear_path(c0, c1, 10)


@pytest.mark.parametrize("bad", [[3], [300], [70, 300], [399, 400]])
def test_curve_path_is_checked_in_blocks_and_names_the_first_bad_slice(monkeypatch, bad):
    # At N = 128 a block holds 64 slices, so T = 400 takes seven.
    c0, c1 = circle_pair(128)
    path = sc.linear_path(c0, c1, 400)
    sizes = []

    def recording_jet(grid, samples, *args):
        sizes.append(samples.shape[:-1])
        return _arc_jet(grid, samples, *args)

    monkeypatch.setattr(paths_module, "_arc_jet", recording_jet)
    sc.CurvePath(path.grid, path.samples)
    assert sum(size[0] for size in sizes) == 401
    assert max(np.prod(size) for size in sizes) <= metric_module._BLOCK_POINTS
    collapsed = path.samples.copy()
    collapsed[bad] = 0.0
    with pytest.raises(ImmersionError, match=f"degenerates at t={bad[0] / 400:.6g}: not an immersion"):
        sc.CurvePath(path.grid, collapsed)


@pytest.mark.parametrize("T", [1, 63, 64, 400])
def test_linear_path_in_blocks_equals_one_convex_combination(T):
    c0, c1 = pair_of_kind("random", 128, 3)
    t = (np.arange(T + 1) / T)[:, None, None]
    assert np.array_equal(sc.linear_path(c0, c1, T).samples, (1.0 - t) * c0.samples + t * c1.samples)


def test_energy_length_cauchy_schwarz_and_reversal():
    rng = np.random.default_rng(2)
    grid = sc.Grid(64)
    c0 = random_curve(grid, rng)
    c1 = sc.DiscreteCurve(grid, c0.samples + 0.1 * random_curve(grid, rng).samples)
    path = sc.linear_path(c0, c1, 16)
    energy = sc.path_energy(CFG, path)
    length = sc.path_length(CFG, path)
    assert length**2 <= energy * (1 + 1e-12)
    rev = sc.CurvePath(path.grid, path.samples[::-1])
    assert sc.path_energy(CFG, rev) == pytest.approx(energy, rel=1e-12)
    assert sc.path_length(CFG, rev) == pytest.approx(length, rel=1e-12)


def test_path_energy_matches_eval_metric_sum():
    c0, c1 = circle_pair(64)
    path = sc.linear_path(c0, c1, 4)
    total = 0.0
    for m in range(path.T):
        mid = sc.DiscreteCurve(
            path.grid, 0.5 * (path.slices[m].samples + path.slices[m + 1].samples)
        )
        v = sc.TangentField(
            path.grid, (path.slices[m + 1].samples - path.slices[m].samples) / path.dt
        )
        total += sc.eval_metric(CFG, mid, v, v)
    assert sc.path_energy(CFG, path) == pytest.approx(path.dt * total, rel=1e-12)


def test_moments_circle_closed_form():
    # M_k = 2 pi r^(3-2k) for circles.
    for r in (0.5, 1.0, 3.0):
        c = sc.make_circle(r, (0, 0), sc.Grid(512))
        mk = sc.moments(c, 2)
        for k in range(3):
            expect = 2 * np.pi * r ** (3 - 2 * k)
            assert mk[k] == pytest.approx(expect, rel=1e-8)


def test_radial_path_length_closed_form():
    # Unit circle under a_0 = a_2 = 1: speed^2 = 2 pi (r + r^-3), so the
    # length from 1 to 2 is int_1^2 sqrt(2 pi (r + r^-3)) dr.
    from scipy.integrate import quad

    c = sc.make_circle(1.0, (0, 0), sc.Grid(256))
    oracle, _ = quad(lambda r: np.sqrt(2 * np.pi * (r + r**-3.0)), 1.0, 2.0)
    val = sc.radial_path_length(CFG, c, 1.0, 2.0)
    assert val == pytest.approx(oracle, rel=1e-7)
    # direction independence and degenerate interval
    assert sc.radial_path_length(CFG, c, 2.0, 1.0) == pytest.approx(val, rel=1e-12)
    assert sc.radial_path_length(CFG, c, 1.5, 1.5) == 0.0
    with pytest.raises(ContractError):
        sc.radial_path_length(CFG, c, 0.0, 1.0)


def test_radial_path_length_scale_invariant_at_every_decade():
    # Under SI the radial length from R to 2R does not depend on R.
    c = sc.make_circle(1.0, (0, 0), sc.Grid(64))
    unit = sc.radial_path_length(SI, c, 1.0, 2.0)
    for j in range(-300, 301):
        R = 10.0**j
        assert sc.radial_path_length(SI, c, R, 2.0 * R) == pytest.approx(unit, rel=1e-12)


def test_radial_path_length_to_the_top_of_the_float_range():
    # Under SI the length per unit of ln r is constant.  The decade grid
    # stops at 1e308, so no power of ten overflows past it.
    c = sc.make_circle(1.0, (0, 0), sc.Grid(64))
    per_decade = sc.radial_path_length(SI, c, 1.0, 10.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = sc.radial_path_length(SI, c, 1.0, 1.5e308)
    assert value == pytest.approx(per_decade * np.log(1.5e308) / np.log(10.0), rel=1e-12)


def test_radial_path_length_far_above_the_unit_scale_matches_closed_form():
    # Under CFG the radial speed is sqrt(M_0 r + M_2 r^-3); from R = 1e150 on
    # the second term is below roundoff, so the length is sqrt(M_0) (2/3)
    # ((2R)^1.5 - R^1.5): a float, though (r * speed)^2 ~ r^3 is not.
    c = sc.make_circle(1.0, (0, 0), sc.Grid(64))
    m0 = sc.moments(c, 2)[0]
    for R in (1e150, 1e200):
        closed = np.sqrt(m0) * (2.0 / 3.0) * ((2.0 * R) ** 1.5 - R**1.5)
        assert sc.radial_path_length(CFG, c, R, 2.0 * R) == pytest.approx(closed, rel=1e-12)


def test_radial_path_length_far_below_the_unit_scale_matches_closed_form():
    # From R = 1e-300 the radial speed is sqrt(M_2) r^-3/2 to roundoff, so the
    # length is 2 sqrt(M_2) (R^-1/2 - (2R)^-1/2) ~ 1e150: a float, though the
    # speed ~ 1e450 is not (its value per unit of ln r is).
    c = sc.make_circle(1.0, (0, 0), sc.Grid(64))
    m2 = sc.moments(c, 2)[2]
    R = 1e-300
    closed = 2.0 * np.sqrt(m2) * (R**-0.5 - (2.0 * R) ** -0.5)
    assert sc.radial_path_length(CFG, c, R, 2.0 * R) == pytest.approx(closed, rel=1e-12)


def test_radial_path_length_tabulated_matches_knot_split_reference():
    # a_2(ell) is piecewise cubic between the knots, i.e. between r = knots / ell0.
    from scipy.integrate import quad

    knots = np.geomspace(0.5, 40.0, 9)
    cfg = MetricConfig(
        2, {0: Constant(1.0), 2: Tabulated(tuple(knots), tuple(1.0 + np.sqrt(knots)))}
    )
    c = sc.make_circle(1.0, (0, 0), sc.Grid(256))
    ell0 = sc.curve_length(c)
    mk = sc.moments(c, 2)

    def speed(r):
        return np.sqrt(sum(coefficient_eval(term, r * ell0) * r ** (1 - 2 * k) * mk[k]
                           for k, term in cfg.terms.items()))

    points = sorted({0.2, 5.0, 1.0} | {x / ell0 for x in knots if 0.2 < x / ell0 < 5.0})
    oracle = sum(
        quad(speed, a, b, epsrel=1e-13, epsabs=0.0, limit=200)[0]
        for a, b in zip(points[:-1], points[1:])
    )
    assert sc.radial_path_length(cfg, c, 0.2, 5.0) == pytest.approx(oracle, rel=1e-12)


def test_radial_path_length_tiny_scales():
    # Below r = 1e-40 the a_0 term is 1e-160 of the a_2 term, so the speed
    # is sqrt(M_2) r^(-3/2) and the length has a closed form.
    c = sc.make_circle(1.0, (0, 0), sc.Grid(64))
    m2 = sc.moments(c, 2)[2]
    lo, hi = 1e-50, 1e-40
    expect = 2.0 * np.sqrt(m2) * (lo**-0.5 - hi**-0.5)
    assert sc.radial_path_length(CFG, c, lo, hi) == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("radius", [1e-160, 1e200])
def test_moments_out_of_range_raise(radius):
    # M_0 underflows to 0 at 1e-160 and overflows to inf at 1e200.
    c = sc.make_circle(radius, (0, 0), sc.Grid(64))
    with pytest.raises(NumericalError, match="curve moments must be positive and finite"):
        sc.moments(c, 2)


@pytest.mark.parametrize("bounds", [(1.0, float("nan")), (float("inf"), 1.0), (float("nan"), 2.0)])
def test_radial_path_length_rejects_non_finite_scales(bounds):
    c = sc.make_circle(1.0, (0, 0), sc.Grid(64))
    with pytest.raises(ContractError):
        sc.radial_path_length(CFG, c, *bounds)


def test_radial_vs_discrete_path():
    c0, c1 = circle_pair(256)
    closed = sc.radial_path_length(CFG, c0, 1.0, 2.0)
    discrete = sc.path_length(CFG, sc.linear_path(c0, c1, 400))
    assert abs(discrete - closed) <= 1e-3 * closed


def loop_gradient_check(cfg, path, n_coords, rng):
    """Reference `gradient_check`: four `path_energy` calls on perturbed copies per coordinate."""
    _, grad = sc.paths.energy_and_gradient(cfg, path)
    scale = np.max(np.abs(grad))
    n, d = path.samples.shape[1:]
    worst, hit = 0.0, set()
    for _ in range(n_coords):
        m = int(rng.integers(1, path.T))
        j = int(rng.integers(0, n))
        axis = int(rng.integers(0, d))
        hit.add(m)

        def energy_at(delta):
            samples = path.samples.copy()
            samples[m, j, axis] += delta
            return sc.path_energy(cfg, sc.CurvePath(path.grid, samples))

        step = paths_module._FD_STEP
        fd_h = (energy_at(step) - energy_at(-step)) / (2.0 * step)
        fd_2h = (energy_at(2 * step) - energy_at(-2 * step)) / (4.0 * step)
        fd = (4.0 * fd_h - fd_2h) / 3.0
        an = grad[m - 1, j, axis]
        denom = max(abs(fd), abs(an), scale, 1e-12)
        worst = max(worst, abs(fd - an) / denom)
    return worst, hit


@pytest.mark.parametrize("T", [2, 3, 8, 16])
@pytest.mark.parametrize("n_coords", [1, 10])
def test_gradient_check_equals_path_energy_loop(T, n_coords):
    # Only the two intervals a perturbation touches are evaluated anew; the
    # energies, and so the deviation, are those of whole-path evaluations.
    hit = set()
    for seed in range(100):  # at least 8 seeds, until the first and last interior slices are hit
        if seed >= 8 and {1, T - 1} <= hit:
            break
        c0, c1 = pair_of_kind("random", 64, seed)
        path = sc.linear_path(c0, c1, T)
        want, ms = loop_gradient_check(SI, path, n_coords, np.random.default_rng(seed))
        assert sc.gradient_check(SI, path, n_coords, np.random.default_rng(seed)) == want
        hit |= ms
    assert {1, T - 1} <= hit


def test_gradient_check_random_paths():
    rng = np.random.default_rng(8)
    grid = sc.Grid(64)
    cfg = MetricConfig(2, {0: PowerLaw(1.0, -3.0), 2: PowerLaw(1.0, 1.0)})
    for _ in range(5):
        c0 = random_curve(grid, rng)
        c1 = sc.DiscreteCurve(grid, c0.samples + 0.05 * random_curve(grid, rng).samples)
        path = sc.linear_path(c0, c1, 6)
        assert sc.gradient_check(cfg, path, n_coords=10, rng=rng) <= 1e-6


@pytest.mark.parametrize("n_coords", [0, -2, 2.5, 2.0, True])
def test_gradient_check_rejects_n_coords_that_is_not_a_positive_integer(n_coords):
    # n_coords = 0 or -2 would certify nothing with a deviation of 0.
    c0, c1 = pair_of_kind("random", 64, 0)
    with pytest.raises(ContractError, match="^n_coords must be an integer >= 1"):
        sc.gradient_check(SI, sc.linear_path(c0, c1, 4), n_coords=n_coords)


def test_geodesic_identical_endpoints():
    c0, _ = circle_pair(64)
    res = sc.geodesic_bvp(CFG, c0, c0, sc.SolverOptions(T=8))
    assert res.energy == 0.0
    assert res.length == 0.0
    assert res.iterations == 0
    assert res.converged


def test_geodesic_between_circles():
    c0, c1 = circle_pair(128)
    opts = sc.SolverOptions(max_iters=200, gap_tol=1e-10, T=32)
    res = sc.geodesic_bvp(CFG, c0, c1, opts)
    assert res.converged
    # monotone energy along accepted iterates
    trace = res.energy_trace
    assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))
    # never longer than the initializer, close to the radial path
    linear_len = sc.path_length(CFG, sc.linear_path(c0, c1, 32))
    radial = sc.radial_path_length(CFG, c0, 1.0, 2.0)
    assert res.length <= linear_len * (1 + 1e-12)
    assert radial * 0.95 <= res.length <= radial * (1 + 1e-3)
    # energy minimizers run at constant speed: length^2 = energy
    assert res.length**2 == pytest.approx(res.energy, rel=1e-6)
    # endpoints pinned bitwise
    assert np.array_equal(res.path.slices[0].samples, c0.samples)
    assert np.array_equal(res.path.slices[-1].samples, c1.samples)


def test_geodesic_distance_symmetry():
    c0, c1 = circle_pair(64)
    opts = sc.SolverOptions(max_iters=200, gap_tol=1e-10, T=16)
    d01 = sc.geodesic_distance(CFG, c0, c1, opts)
    d10 = sc.geodesic_distance(CFG, c1, c0, opts)
    assert abs(d01 - d10) <= 1e-6 * d01


@pytest.mark.parametrize("n0, n1", [(64, 32), (32, 64)])
def test_geodesic_endpoints_on_different_grids(n0, n1):
    c0, c1 = sc.make_circle(1.0, (0, 0), sc.Grid(n0)), sc.make_circle(2.0, (0, 0), sc.Grid(n1))
    with pytest.raises(ContractError, match="endpoint curves live on different grids"):
        sc.geodesic_bvp(CFG, c0, c1)


SI = scale_invariant_profile(2, [1.0, 0.0, 1.0])


def _sweep_values(radius):
    """Each public evaluator on circles `radius` and 2 * `radius` under SI."""
    c0, c1 = circle_pair(64, radius, 2.0 * radius)
    path = sc.linear_path(c0, c1, 8)
    h = sc.TangentField(c0.grid, c0.samples)
    return {
        "path_energy": lambda: sc.path_energy(SI, path),
        "path_length": lambda: sc.path_length(SI, path),
        "energy_and_gradient": lambda: paths_module.energy_and_gradient(SI, path),
        "eval_metric": lambda: sc.eval_metric(SI, c0, h, h),
    }


@pytest.mark.parametrize(
    "name", ["path_energy", "path_length", "energy_and_gradient", "eval_metric"]
)
@pytest.mark.parametrize(
    "radius", [1e-160, 1e-120, 1e-100, 1e-50, 1.0, 1e50, 1e100, 1e120, 1e200]
)
def test_evaluators_scale_invariant_or_raise(name, radius):
    # SI is scale-invariant: every evaluator returns its radius-1 value at
    # every radius whose samples are floats, never a NaN, a RuntimeWarning
    # or a NumericalError (raised only where G, E or the gradient is
    # itself not a finite float).
    expected = _sweep_values(1.0)[name]()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = _sweep_values(radius)[name]()
    if name == "energy_and_gradient":
        (value, grad), (expected, expected_grad) = value, expected
        # Rounding radius * samples moves this near-stationary gradient by ~1e-9 of its size.
        scale = np.max(np.abs(expected_grad))
        np.testing.assert_allclose(radius * grad, expected_grad, rtol=0.0, atol=1e-8 * scale)
    assert value == pytest.approx(expected, rel=1e-12)


def _offset_pair(n=64, seed=0):
    """A random curve c0 and 1.3 c0 + noise, moved so no sample is near 0."""
    c0, c1 = random_pair(n, seed)
    return [sc.DiscreteCurve(c.grid, c.samples + 10.0) for c in (c0, c1)]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(j=st.integers(-1000, 1000))
def test_property_path_evaluators_scale_exactly(j):
    # Scaling by 2^j is exact on these samples and on the gradient's
    # entries, so energy, length and R * grad are the R = 1 values up to
    # libm's pow(ell, p < 0), which is covariant under powers of two only
    # to 1 ulp (see test_metric.py::test_property_scale_invariant_profile).
    base = sc.linear_path(*_offset_pair(), 8)
    scaled = sc.CurvePath(base.grid, np.ldexp(base.samples, j))
    got, want = ([sc.path_energy(SI, p), sc.path_length(SI, p),
                  *paths_module.energy_and_gradient(SI, p)] for p in (scaled, base))
    assert got[:3] == pytest.approx(want[:3], rel=1e-15, abs=0.0)
    np.testing.assert_allclose(np.ldexp(got[3], j), want[3], rtol=0.0, atol=1e-15 * np.abs(want[3]).max())


@pytest.mark.parametrize("j", [-1000, -500, -300, -280, -266, -100, 100, 266, 280, 300, 500, 1000])
def test_geodesic_bitwise_at_power_of_two_scales(j):
    # The descent runs on the path divided by one power of two, so the
    # solve at R = 2^j is the R = 1 solve scaled, bit for bit.
    c0, c1 = _offset_pair(32, 1)
    opts = sc.SolverOptions(T=8)
    base = sc.geodesic_bvp(SI, c0, c1, opts)
    res = sc.geodesic_bvp(
        SI, *(sc.DiscreteCurve(c.grid, np.ldexp(c.samples, j)) for c in (c0, c1)), opts
    )
    assert base.converged and res.iterations == base.iterations
    assert res.length == base.length and res.energy_trace == base.energy_trace
    assert np.array_equal(np.ldexp(res.path.samples, -j), base.path.samples)


def random_pair(n, seed):
    """c1 = 1.3 c0 + 0.05 random_field, both drawn from default_rng(seed)."""
    grid = sc.Grid(n)
    rng = np.random.default_rng(seed)
    c0 = random_curve(grid, rng)
    c1 = sc.DiscreteCurve(grid, 1.3 * c0.samples + 0.05 * random_field(grid, rng).values)
    return c0, c1


def is_monotone(trace):
    return all(b <= a for a, b in zip(trace, trace[1:]))


@pytest.mark.parametrize("n, T, seed", [(64, 16, 0), (128, 16, 2), (128, 16, 8)])
def test_geodesic_random_pairs_converge_on_gradient(n, T, seed):
    c0, c1 = random_pair(n, seed)
    res = sc.geodesic_bvp(SI, c0, c1, sc.SolverOptions(T=T))
    assert res.converged
    assert res.termination == "gradient"
    assert res.iterations <= 60
    assert res.gradient_norm_final**2 / 2 <= sc.SolverOptions().gap_tol
    assert is_monotone(res.energy_trace)
    assert res.to_dict()["termination"] == "gradient"


def ellipse_pair(n):
    """The unit circle and (1.4 cos + 0.1, 0.8 sin + 0.2 sin 2theta)."""
    grid = sc.Grid(n)
    th = grid.theta
    c1 = np.stack([1.4 * np.cos(th) + 0.1, 0.8 * np.sin(th) + 0.2 * np.sin(2 * th)], axis=1)
    return sc.make_circle(1.0, (0, 0), grid), sc.DiscreteCurve(grid, c1)


@pytest.mark.parametrize("n", [32, 64])
def test_geodesic_coarse_ellipse_converges_fast(n):
    # The preconditioner uses the stencil's own symbol, so the highest
    # modes of a coarse grid are weighted as the energy weights them.
    c0, c1 = ellipse_pair(n)
    res = sc.geodesic_bvp(SI, c0, c1, sc.SolverOptions(T=16))
    assert res.termination == "gradient"
    assert res.iterations <= 60
    assert is_monotone(res.energy_trace)
    tight = sc.geodesic_bvp(SI, c0, c1, sc.SolverOptions(T=16, gap_tol=1e-15))
    assert tight.converged
    assert res.length == pytest.approx(tight.length, rel=1e-7)


@pytest.mark.parametrize("n", [32, 64, 128, 256, 512])
def test_geodesic_predicted_gap_calibrated(n):
    # g.Pg / 2 estimates E - E* at every N, so the stop rule leaves the
    # same relative energy gap on coarse and fine grids.
    c0, c1 = ellipse_pair(n)
    res = sc.geodesic_bvp(SI, c0, c1, sc.SolverOptions(T=16))
    tight = sc.geodesic_bvp(SI, c0, c1, sc.SolverOptions(T=16, gap_tol=1e-14))
    assert res.termination == tight.termination == "gradient"
    gap = (res.energy - tight.energy) / tight.energy
    predicted = res.gradient_norm_final**2 / 2
    assert predicted <= sc.SolverOptions().gap_tol
    assert 0.1 <= gap / predicted <= 10.0


def test_geodesic_random_pair_gap_within_twice_predicted():
    # gap_tol bounds the predicted gap g.Pg / 2E.  On this non-circular
    # pair the frozen-coefficient P underweights some directions, and the
    # gap actually left is 1.64 times the predicted one (above gap_tol).
    c0, c1 = random_pair(64, 0)
    res = sc.geodesic_bvp(SI, c0, c1, sc.SolverOptions(T=16))
    tight = sc.geodesic_bvp(SI, c0, c1, sc.SolverOptions(T=16, gap_tol=1e-16))
    assert res.termination == "gradient" and tight.converged
    gap = (res.energy - tight.energy) / tight.energy
    predicted = res.gradient_norm_final**2 / 2
    assert predicted <= sc.SolverOptions().gap_tol
    assert 0.0 < gap / predicted <= 2.0


def test_geodesic_one_preconditioner_apply_per_step(monkeypatch):
    calls = []
    build = paths_module._spectral_preconditioner

    def counting(*args):
        apply = build(*args)

        def wrapped(grad):
            calls.append(grad.shape)
            return apply(grad)

        return wrapped

    monkeypatch.setattr(paths_module, "_spectral_preconditioner", counting)
    res = sc.geodesic_bvp(SI, *ellipse_pair(64), sc.SolverOptions(T=16))
    accepted = len(res.energy_trace) - 1
    assert accepted == res.iterations > 10
    assert len(calls) == 1 + accepted


@pytest.mark.parametrize("n, T", [(32, 8), (64, 16), (256, 32)])
def test_preconditioner_matches_dst_reference(n, T):
    """The Green's-matrix apply equals a DST-I form with the closed-form stencil symbol."""
    from scipy.fft import dst, idst

    c0, c1 = ellipse_pair(n)
    grid, dt = c0.grid, 1.0 / T
    h = grid.spacing
    m = np.arange(n // 2 + 1)
    sigma = (8 * np.sin(m * h) - np.sin(2 * m * h)) / (6 * h)
    s_bar = 0.5 * (np.mean(c0.arc_speed) + np.mean(c1.arc_speed))
    l_bar = 0.5 * (sc.curve_length(c0) + sc.curve_length(c1))
    symbol = sum(
        coefficient_eval(term, l_bar) * (sigma / s_bar) ** (2 * k) for k, term in SI.terms.items()
    ) * (s_bar * grid.spacing)
    lam_t = (2.0 / dt) * 4.0 * np.sin(np.pi * np.arange(1, T) / (2 * T)) ** 2

    def reference(g):
        spec = np.fft.rfft(dst(g, type=1, axis=0), axis=1)
        spec /= lam_t[:, None, None] * symbol[None, :, None]
        return idst(np.fft.irfft(spec, n=n, axis=1), type=1, axis=0)

    e, speeds, lengths, _ = _arc_jet(grid, sc.linear_path(c0, c1, T).samples)
    apply = _spectral_preconditioner(SI, grid, np.ldexp(speeds, e[:, None]), np.ldexp(lengths, e), 0)
    g = np.random.default_rng(n + T).standard_normal((T - 1, n, 2))
    expected = reference(g)
    assert np.max(np.abs(apply(g) - expected)) <= 1e-13 * np.max(np.abs(expected))


def test_geodesic_symmetric_copy_same_iterations():
    c0, c1 = random_pair(64, 0)
    res = sc.geodesic_bvp(SI, c0, c1, sc.SolverOptions(T=16))

    def move(c):
        return sc.DiscreteCurve(c.grid, np.roll(c.samples, 17, axis=0)[:, ::-1].copy())

    moved = sc.geodesic_bvp(SI, move(c0), move(c1), sc.SolverOptions(T=16))
    assert moved.converged
    assert moved.iterations == res.iterations
    assert moved.length == pytest.approx(res.length, rel=1e-10)


def test_geodesic_tolerance_below_roundoff_stalls():
    c0, c1 = random_pair(128, 2)
    res = sc.geodesic_bvp(SI, c0, c1, sc.SolverOptions(T=16, gap_tol=1e-18))
    assert res.termination in ("energy_stall", "line_search")
    assert res.converged == (res.termination == "energy_stall")
    assert res.iterations <= 100
    assert is_monotone(res.energy_trace)


def test_geodesic_iteration_cap_is_reported():
    c0, c1 = random_pair(64, 0)
    res = sc.geodesic_bvp(SI, c0, c1, sc.SolverOptions(T=16, max_iters=2))
    assert res.iterations == 2
    assert res.termination == "max_iters"
    assert not res.converged
    assert res.gradient_norm_final**2 / 2 > sc.SolverOptions().gap_tol


def test_geodesic_translated_circles():
    # A non-radial problem: same circle shifted sideways.  The geodesic
    # is close to a pure translation; check convergence and symmetry.
    grid = sc.Grid(64)
    c0 = sc.make_circle(1.0, (0, 0), grid)
    c1 = sc.make_circle(1.0, (0.4, 0.1), grid)
    opts = sc.SolverOptions(max_iters=300, gap_tol=1e-9, T=16)
    res = sc.geodesic_bvp(CFG, c0, c1, opts)
    assert res.converged
    lin = sc.path_length(CFG, sc.linear_path(c0, c1, 16))
    assert res.length <= lin * (1 + 1e-12)


def test_solver_options_contracts():
    with pytest.raises(ContractError):
        sc.SolverOptions(max_iters=0)
    with pytest.raises(ContractError):
        sc.SolverOptions(gap_tol=0.0)
    with pytest.raises(ContractError):
        sc.SolverOptions(T=1)


def test_result_serialization_roundtrip():
    c0, c1 = circle_pair(64)
    res = sc.geodesic_bvp(CFG, c0, c1, sc.SolverOptions(max_iters=50, T=8))
    data = res.to_dict()
    assert set(data) >= {"energy", "length", "iterations", "converged"}
    back = path_from_dict(path_to_dict(res.path))
    assert back.T == res.path.T
    assert np.array_equal(back.slices[3].samples, res.path.slices[3].samples)


def test_path_kernels_construct_no_curves(monkeypatch):
    c0, c1 = random_pair(64, 0)
    built = []
    init = sc.DiscreteCurve.__post_init__

    def counted(self):
        built.append(1)
        init(self)

    monkeypatch.setattr(sc.DiscreteCurve, "__post_init__", counted)
    path = sc.linear_path(c0, c1, 16)
    sc.path_energy(SI, path)
    sc.path_length(SI, path)
    sc.paths.energy_and_gradient(SI, path)
    sc.gradient_check(SI, path, n_coords=2)
    sc.geodesic_bvp(SI, c0, c1, sc.SolverOptions(T=16))
    assert len(built) == 0


@pytest.mark.parametrize("n, T", [(64, 16), (128, 16), (256, 32)])
@pytest.mark.parametrize("q", [0.4, 0.5, 1.5, 2.0])
def test_geodesic_concentric_starts_at_constant_speed(n, T, q):
    # The geodesic between concentric circles is the radial segment at
    # constant metric speed, which is where the solve now starts.
    c0, c1 = circle_pair(n, 1.0, q)
    res = sc.geodesic_bvp(SI, c0, c1, sc.SolverOptions(T=T))
    assert res.termination == "gradient"
    assert res.iterations <= 2
    # The midpoint rule in t leaves (ln q)^2 / (12 T^2); allow twice that
    # plus the order-4 stencil's share.
    radial = sc.radial_path_length(SI, c0, 1.0, q)
    assert abs(res.length - radial) <= (np.log(q) ** 2 / (6 * T * T) + 1e-5) * radial


def pair_of_kind(kind, n, seed):
    """c1 = 1.3 c0 + 0.05 random_field, c0 the unit circle or a random curve."""
    grid = sc.Grid(n)
    rng = np.random.default_rng(seed)
    c0 = sc.make_circle(1.0, (0, 0), grid) if kind == "near_circle" else random_curve(grid, rng)
    return c0, sc.DiscreteCurve(grid, 1.3 * c0.samples + 0.05 * random_field(grid, rng).values)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["near_circle", "random"]),
    n=st.sampled_from([32, 64, 128]),
    T=st.integers(2, 24),
    seed=st.integers(0, 2**32 - 1),
)
def test_constant_speed_start_properties(kind, n, T, seed):
    c0, c1 = pair_of_kind(kind, n, seed)
    linear = sc.linear_path(c0, c1, T)
    start = paths_module._constant_speed_start(SI, linear)
    assert np.array_equal(start.samples[0], c0.samples)
    assert np.array_equal(start.samples[-1], c1.samples)
    # Every slice lies on the segment; read its time off the projection.
    h = c1.samples - c0.samples
    tau = np.sum((start.samples - c0.samples) * h, axis=(1, 2)) / np.sum(h * h)
    assert np.all(np.diff(tau) >= 0)
    energy = sc.path_energy(SI, start)
    assert energy <= sc.path_energy(SI, linear) * (1 + 1e-12)
    res = sc.geodesic_bvp(SI, c0, c1, sc.SolverOptions(T=T, max_iters=1))
    assert res.energy_trace[0] == energy


def test_geodesic_falls_back_when_only_the_finer_pass_degenerates():
    # c1 = -(2K - 1) c0 with K = r*T finer intervals vanishes at t = 1/(2K),
    # the first finer midpoint, and at no slice or midpoint of the T-grid.
    # Dyadic samples and powers of two for T and r make that exact.
    T = 4
    n_fine = paths_module._RETIME_REFINE * T
    grid = sc.Grid(32)
    c0 = sc.DiscreteCurve(grid, np.round(sc.make_circle(1.0, (0, 0), grid).samples * 2**20) / 2**20)
    c1 = sc.DiscreteCurve(grid, -(2 * n_fine - 1) * c0.samples)
    linear = sc.linear_path(c0, c1, T)
    with pytest.raises(ImmersionError):
        paths_module._constant_speed_start(SI, linear)
    opts = sc.SolverOptions(T=T, max_iters=3)
    res = sc.geodesic_bvp(SI, c0, c1, opts)
    ref = paths_module._minimize(SI, linear, opts)
    assert res.to_dict() == ref.to_dict()
    assert np.array_equal(res.path.samples, ref.path.samples)


def test_geodesic_runs_the_linear_fallback_once(monkeypatch):
    # Under a_0 = a_2 = ell^60 the metric speed along the segment between
    # circles of radius 1e-8 and 2e-8 underflows to 0, so the start raises
    # and the one descent runs from the linear path, which fails as before.
    cfg = MetricConfig(2, {0: PowerLaw(1.0, 60.0), 2: PowerLaw(1.0, 60.0)})
    c0, c1 = circle_pair(64, 1e-8, 2e-8)
    linear = sc.linear_path(c0, c1, 8)
    with pytest.raises(NumericalError, match="not strictly increasing"):
        paths_module._constant_speed_start(cfg, linear)
    minimize, starts = paths_module._minimize, []

    def recording_minimize(cfg, path, opts):
        starts.append(path)
        return minimize(cfg, path, opts)

    monkeypatch.setattr(paths_module, "_minimize", recording_minimize)
    with pytest.raises(NumericalError, match="preconditioned gradient is not finite at the start"):
        sc.geodesic_bvp(cfg, c0, c1, sc.SolverOptions(T=8))
    assert len(starts) == 1
    assert np.array_equal(starts[0].samples, linear.samples)


def test_geodesic_overshoot_below_roundoff_stalls():
    # The last search's one trial overshoots the minimum along its
    # direction and raises E by about 15 ulps; that rise is curvature, not
    # a failure, so the solve is stationary to roundoff.
    c0, c1 = ellipse_pair(64)
    res = sc.geodesic_bvp(SI, c0, c1, sc.SolverOptions(T=16, gap_tol=1e-15))
    assert res.termination == "energy_stall"
    assert res.converged


def test_geodesic_rise_not_explained_by_curvature_is_line_search(monkeypatch):
    # Every trial after the first evaluation rises by the same 1e-6 E, at
    # any step length: not the t^2 rise of a smooth E, so not roundoff.
    c0, c1 = ellipse_pair(32)
    start = sc.geodesic_bvp(SI, c0, c1, sc.SolverOptions(T=8)).path
    exact = paths_module._stacked_energy_and_gradient
    calls = []

    def bumped(*args):
        energy, grad, values = exact(*args)
        calls.append(energy)
        return (energy if len(calls) == 1 else energy + 1e-6 * calls[0]), grad, values

    monkeypatch.setattr(paths_module, "_stacked_energy_and_gradient", bumped)
    res = paths_module._minimize(SI, start, sc.SolverOptions(T=8, gap_tol=1e-16))
    assert res.termination == "line_search"
    assert not res.converged
    assert res.iterations == 1 and res.energy == calls[0]
    assert len(calls) > 2


def test_geodesic_line_search_backtracks_on_numerical_error(monkeypatch):
    # The first trial step fails as an overflowing metric would: the
    # search halves the step, as for a degenerate trial, and goes on.
    c0, c1 = ellipse_pair(32)
    exact = paths_module._stacked_energy_and_gradient
    calls = []

    def failing(cfg, grid, stacked, dt, unit):
        calls.append(stacked[1:-1])
        if len(calls) == 2:
            raise NumericalError("metric value is not finite")
        return exact(cfg, grid, stacked, dt, unit)

    monkeypatch.setattr(paths_module, "_stacked_energy_and_gradient", failing)
    res = sc.geodesic_bvp(SI, c0, c1, sc.SolverOptions(T=8))
    assert res.converged and res.iterations >= 1
    start, first_trial, second_trial = calls[:3]
    np.testing.assert_allclose(
        second_trial - start, 0.5 * (first_trial - start), rtol=0.0, atol=1e-15
    )


def test_geodesic_length_from_last_evaluation():
    c0, c1 = random_pair(64, 0)
    res = sc.geodesic_bvp(SI, c0, c1, sc.SolverOptions(T=16))
    assert res.length == sc.path_length(SI, res.path)


def fine_midpoint_speeds(cfg, linear, exact_velocity):
    """sigma at the start's fine midpoints from explicit midpoint stacks.

    With exact_velocity=False this is an earlier computation: `_form` at
    the midpoints of a finer linear path, T intervals at a time, whose
    velocity is a difference quotient of the fine slices.
    """
    grid, T = linear.grid, linear.T
    c0, c1 = linear.samples[0], linear.samples[-1]
    n_fine = paths_module._RETIME_REFINE * T
    if exact_velocity:
        mid = ((np.arange(n_fine) + 0.5) / n_fine)[:, None, None]
        return np.sqrt(paths_module._form(cfg, grid, c0 + mid * (c1 - c0), c1 - c0)[0])
    tau = (np.arange(n_fine + 1) / n_fine)[:, None, None]
    return np.concatenate([
        np.sqrt(paths_module._form(cfg, grid, *paths_module._midpoints(
            (1.0 - t) * c0 + t * c1, 1.0 / n_fine))[0])
        for t in (tau[j:j + T + 1] for j in range(0, n_fine, T))
    ])


def start_speeds(monkeypatch, cfg, linear):
    """The start and the sigma it interpolated, read off `_segment_speeds`."""
    seen = []

    def recording_segment_speeds(*args):
        seen.append(segment_speeds(*args))
        return seen[-1]

    segment_speeds = paths_module._segment_speeds
    monkeypatch.setattr(paths_module, "_segment_speeds", recording_segment_speeds)
    start = paths_module._constant_speed_start(cfg, linear)
    monkeypatch.setattr(paths_module, "_segment_speeds", segment_speeds)
    (sigma,) = seen
    return start, sigma


def bumpy_shapes(n):
    """The radius-1 bumpy circles u_lam and u_2lam, lam = n/64, on Grid(n)."""
    grid = sc.Grid(n)
    return tuple(sc.make_bumpy_circle(1.0, 0.25, lam, grid).samples for lam in (n // 64, n // 32))


def bumpy_leg(n, r):
    """Leg 2 of the counterexample at radius r: r u_lam -> r u_2lam, scaled as in the library."""
    return tuple(sc.DiscreteCurve(sc.Grid(n), r * shape) for shape in bumpy_shapes(n))


def assert_start_speeds_match_explicit_midpoint_stacks(monkeypatch, c0, c1, T):
    linear = sc.linear_path(c0, c1, T)
    _, sigma = start_speeds(monkeypatch, SI, linear)
    exact = fine_midpoint_speeds(SI, linear, exact_velocity=True)
    assert np.max(np.abs(sigma - exact) / exact) <= 1e-14
    # The difference quotient (c_{j+1} - c_j) r T of the earlier
    # computation carries roundoff of about r T eps max|c| / max|h|.
    quotient = fine_midpoint_speeds(SI, linear, exact_velocity=False)
    h = c1.samples - c0.samples
    bound = 8 * paths_module._RETIME_REFINE * T * np.finfo(float).eps
    bound *= np.abs(linear.samples).max() / np.abs(h).max()
    assert np.max(np.abs(sigma - quotient) / quotient) <= max(bound, 1e-14)


@pytest.mark.parametrize("kind", ["near_circle", "random"])
@pytest.mark.parametrize("n, T", [(32, 5), (64, 16), (128, 16), (256, 32)])
def test_constant_speed_start_speeds_match_explicit_midpoint_stacks(monkeypatch, kind, n, T):
    for seed in range(3):
        assert_start_speeds_match_explicit_midpoint_stacks(
            monkeypatch, *pair_of_kind(kind, n, seed), T)


@pytest.mark.parametrize("n, T", [(64, 5), (256, 16), (1024, 16)])
@pytest.mark.parametrize("r", [1.0, 7.5, 3e150])
def test_constant_speed_start_speeds_match_explicit_midpoint_stacks_on_bumpy_legs(
    monkeypatch, n, T, r
):
    assert_start_speeds_match_explicit_midpoint_stacks(monkeypatch, *bumpy_leg(n, r), T)


SEGMENT_CASES = [("random", 128, count) for count in (1, 64, 132)] + [
    (r, n, count) for r in (1.0, 7.5, 3e150)
    for n, count in [(1024, 1), (1024, 7), (1024, 8), (1024, 9), (1024, 100), (64, 64)]
]


@pytest.mark.parametrize(
    "kind, n, count", SEGMENT_CASES, ids=[f"{kind}-{n}-{count}" for kind, n, count in SEGMENT_CASES]
)
def test_segment_speeds_in_blocks_equal_one_form_call(monkeypatch, kind, n, count):
    # A block holds 64 curves at N = 128, 8 at N = 1024 and 128 at N = 64,
    # so 132 speeds at N = 128, and 7, 9 and 100 at N = 1024, end on a
    # partial block; forced smaller blocks give the same bits.  A float
    # kind is the radius of a counterexample leg.
    c0, c1 = pair_of_kind(kind, n, 1) if kind == "random" else bumpy_leg(n, kind)
    grid, c0, c1 = c0.grid, c0.samples, c1.samples
    t = (np.arange(count) + 0.5) / count
    h = c1 - c0
    dc0, dh = sc.derivative(c0, grid), sc.derivative(h, grid)
    values, _ = metric_module._form(SI, grid, None, h.copy(), dc=dc0 + t[:, None, None] * dh)
    want = np.sqrt(values)
    sizes = []
    form = paths_module._form

    def recording_form(cfg, grid, samples, h, *args, dc=None, **kwargs):
        sizes.append(dc.shape[:-1])
        return form(cfg, grid, samples, h, *args, dc=dc, **kwargs)

    monkeypatch.setattr(paths_module, "_form", recording_form)
    for points in (metric_module._BLOCK_POINTS, grid.n_points, 3 * grid.n_points, 1):
        monkeypatch.setattr(metric_module, "_BLOCK_POINTS", points)
        sizes.clear()
        assert np.array_equal(paths_module._segment_speeds(SI, grid, c0, c1, t), want)
        assert sum(size[0] for size in sizes) == count
        assert max(size[0] for size in sizes) == min(count, max(1, points // grid.n_points))
        if kind != "random":  # leg 2 is the mean speed at the interval midpoints
            assert scaled_leg_length(SI, kind, *bumpy_shapes(n), grid, count) == np.mean(want)


@pytest.mark.parametrize("T", [1, 63, 64, 65, 400])
def test_path_energy_and_length_in_blocks_equal_single_stack(monkeypatch, T):
    # At N = 128 a block holds 64 intervals.
    c0, c1 = pair_of_kind("random", 128, 2)
    path = sc.linear_path(c0, c1, T)
    values, _ = paths_module._form(SI, path.grid, *paths_module._midpoints(path.samples, path.dt))
    sizes = []
    form = paths_module._form

    def recording_form(cfg, grid, samples, *args, **kwargs):
        sizes.append(samples.shape[:-1])
        return form(cfg, grid, samples, *args, **kwargs)

    monkeypatch.setattr(paths_module, "_form", recording_form)
    assert sc.path_energy(SI, path) == path.dt * float(np.sum(values))
    assert sc.path_length(SI, path) == path.dt * float(np.sum(np.sqrt(values)))
    assert sum(size[0] for size in sizes) == 2 * T
    assert max(np.prod(size) for size in sizes) <= metric_module._BLOCK_POINTS
