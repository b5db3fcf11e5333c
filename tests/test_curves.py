"""Discrete curve calculus: derivatives, arc-length quantities, I/O."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sobocurve as sc
from sobocurve.curves import TWO_PI, _arc_jet, _dot
from sobocurve.errors import ContractError, ImmersionError
from sobocurve.paths import path_to_dict
from sobocurve.sampling import random_curve, random_field


def test_grid_validation():
    sc.Grid(16)
    assert sc.Grid(np.int64(64)) == sc.Grid(64)
    with pytest.raises(ContractError):
        sc.Grid(8)
    with pytest.raises(ContractError):
        sc.Grid(33)


def test_numpy_integer_counts_write_plain_json(tmp_path):
    # Grid and MetricConfig keep a NumPy integer count as a plain int.
    grid = sc.Grid(np.int64(64))
    assert type(grid.n_points) is int
    c = sc.make_circle(1.0, (0, 0), grid)
    sc.save_curve(c, tmp_path / "c.json")
    assert sc.load_curve(tmp_path / "c.json").grid == sc.Grid(64)
    cfg = sc.MetricConfig(np.int64(2), {np.int64(0): sc.Constant(1.0), np.int32(2): sc.Constant(1.0)})
    assert json.loads(json.dumps(sc.config_to_dict(cfg)))["n"] == 2
    path = sc.linear_path(c, sc.make_circle(2.0, (0, 0), grid), 2)
    assert json.loads(json.dumps(path_to_dict(path)))["grid"] == {"N": 64}


_GRID = sc.Grid(64)
_CIRCLE = sc.make_circle(1.0, (0, 0), _GRID)
_ONE = sc.Constant(1.0)
# Count arguments: (name, call with the value, values that are not a count in range).
_COUNTS = {
    "Grid": ("N", sc.Grid, [64.0, True, 14]),
    "MetricConfig": ("n", lambda v: sc.MetricConfig(v, {0: _ONE, 2: _ONE}), [3.0, True, 1]),
    "MetricConfig term": ("k", lambda v: sc.MetricConfig(2, {0: _ONE, 2: _ONE, v: _ONE}),
                          [1.5, 1.0, True, -1, 3]),
    "scale_invariant_profile": ("n", lambda v: sc.scale_invariant_profile(v, [1.0, 0.0, 1.0]),
                                [2.0, True, 1]),
    "arc_derivative": ("k", lambda v: sc.arc_derivative(
        _CIRCLE, sc.TangentField(_GRID, _CIRCLE.samples), v), [2.5, 2.0, True, -1]),
    "make_circle": ("dim", lambda v: sc.make_circle(1.0, (0, 0), _GRID, dim=v), [2.0, True, 1]),
    "moments": ("n", lambda v: sc.moments(_CIRCLE, v), [2.5, 2.0, True, -1]),
    "random_curve": ("dim", lambda v: random_curve(_GRID, np.random.default_rng(0), dim=v),
                     [2.0, True, 1]),
    "random_field": ("dim", lambda v: random_field(_GRID, np.random.default_rng(0), dim=v),
                     [2.0, True, 0]),
    "classify_power_law": ("k", lambda v: sc.classify_power_law(v, 0.0), [1.5, 1.0, True, -1]),
    "numeric_integral_evidence": ("k", lambda v: sc.numeric_integral_evidence(_ONE, v, "zero"),
                                  [1.5, 1.0, True, -1]),
    "SolverOptions": ("T", lambda v: sc.SolverOptions(T=v), [1]),
}


@pytest.mark.parametrize(
    "entry, bad", [(entry, bad) for entry, (_, _, bads) in _COUNTS.items() for bad in bads]
)
def test_count_arguments_must_be_integers_in_range(entry, bad):
    # Before one rule covered them, Grid(64.0), MetricConfig(3.0, ...) and
    # the others took floats and failed later with a TypeError or an
    # IndexError, and arc_derivative(c, h, True) returned a result.
    name, call, _ = _COUNTS[entry]
    with pytest.raises(ContractError, match=f"^{name} must be an integer"):
        call(bad)


def test_derivative_constant_is_zero():
    grid = sc.Grid(32)
    vals = np.full((32, 2), 3.7)
    assert np.max(np.abs(sc.derivative(vals, grid))) == 0.0


def test_derivative_circle_oracle():
    # Order-4 truncation of d/dtheta cos is h^4/30 = 1.21e-8 at N=256.
    grid = sc.Grid(256)
    th = grid.theta
    vals = np.stack([np.cos(th), np.sin(th)], axis=1)
    expect = np.stack([-np.sin(th), np.cos(th)], axis=1)
    assert np.max(np.abs(sc.derivative(vals, grid) - expect)) <= 1.3e-8


def test_derivative_fourth_order_convergence():
    errs = []
    for n in (64, 128):
        grid = sc.Grid(n)
        vals = np.sin(3 * grid.theta)[:, None] * np.ones((1, 2))
        expect = 3 * np.cos(3 * grid.theta)[:, None] * np.ones((1, 2))
        errs.append(np.max(np.abs(sc.derivative(vals, grid) - expect)))
    ratio = errs[0] / errs[1]
    assert 12.0 <= ratio <= 20.0


def test_derivative_length_mismatch():
    with pytest.raises(ContractError):
        sc.derivative(np.zeros((20, 2)), sc.Grid(32))


def test_arc_speed_circle():
    # The speed is constant to rounding at any N; its value carries the
    # order-4 truncation error, which drops below 1e-10 by N=1024.
    c = sc.make_circle(2.0, (0.5, -1.0), sc.Grid(64))
    assert np.max(c.arc_speed) - np.min(c.arc_speed) <= 1e-12
    fine = sc.make_circle(2.0, (0.5, -1.0), sc.Grid(1024))
    assert np.max(np.abs(fine.arc_speed - 2.0)) <= 1e-10 * 2.0


def test_arc_speed_bumpy_at_theta0():
    # |c'(0)| = r*sqrt(1 + eps^2 lam^2) from the explicit derivative.
    r, eps, lam = 1.5, 0.2, 4
    c = sc.make_bumpy_circle(r, eps, lam, sc.Grid(256))
    expect = r * np.sqrt(1.0 + eps**2 * lam**2)
    assert abs(c.arc_speed[0] - expect) <= 1e-5 * expect


def test_degenerate_curve_rejected():
    # A "curve" collapsing to a point has zero derivative everywhere.
    grid = sc.Grid(32)
    with pytest.raises(ImmersionError, match="not an immersion at resolution N=32"):
        sc.DiscreteCurve(grid, np.zeros((32, 2)))


def test_cusp_rejected():
    # Stall the parametrization: five consecutive equal samples force a
    # zero derivative at the middle one.
    grid = sc.Grid(64)
    samples = sc.make_circle(1.0, (0, 0), grid).samples.copy()
    samples[0:5] = samples[2]
    with pytest.raises(ImmersionError):
        sc.DiscreteCurve(grid, samples)


@pytest.mark.parametrize("bad", ["zero", "stationary_sample"])
@pytest.mark.parametrize("position", [0, 1, 2])
def test_batched_arc_jet_rejects_one_degenerate_curve(bad, position):
    # A stack of three circles in which one curve is the zero curve
    # (largest speed 0) or stalls at one sample (speed 0 there only).
    grid = sc.Grid(64)
    stack = np.stack([sc.make_circle(r, (0, 0), grid).samples for r in (1.0, 2.0, 0.5)])
    _arc_jet(grid, stack)
    if bad == "zero":
        stack[position] = 0.0
    else:
        stack[position, 0:5] = stack[position, 2]
    with pytest.raises(ImmersionError, match="not an immersion at resolution N=64") as info:
        _arc_jet(grid, stack)
    assert info.value.index == position


def test_arc_derivative_unit_tangent_and_curvature():
    grid = sc.Grid(256)
    r = 2.5
    c = sc.make_circle(r, (0, 0), grid)
    h = sc.TangentField(grid, c.samples)
    th = grid.theta
    tangent = sc.arc_derivative(c, h, 1).values
    expect = np.stack([-np.sin(th), np.cos(th)], axis=1)
    assert np.max(np.abs(tangent - expect)) <= 1e-8
    second = sc.arc_derivative(c, h, 2).values
    expect2 = -np.stack([np.cos(th), np.sin(th)], axis=1) / r
    assert np.max(np.abs(second - expect2)) <= 1e-8


def test_arc_derivative_k0_identity_and_errors():
    grid = sc.Grid(32)
    c = sc.make_circle(1.0, (0, 0), grid)
    h = sc.TangentField(grid, np.ones((32, 2)))
    assert sc.arc_derivative(c, h, 0).values is h.values
    with pytest.raises(ContractError):
        sc.arc_derivative(c, h, -1)
    h_other = sc.TangentField(sc.Grid(64), np.ones((64, 2)))
    with pytest.raises(ContractError):
        sc.arc_derivative(c, h_other, 1)


def test_arc_derivative_scaling_law():
    rng = np.random.default_rng(3)
    grid = sc.Grid(128)
    for _ in range(20):
        c = random_curve(grid, rng)
        h = random_field(grid, rng)
        rho = float(rng.uniform(0.2, 5.0))
        c_scaled = sc.DiscreteCurve(grid, rho * c.samples)
        for k in (1, 2, 3):
            lhs = sc.arc_derivative(c_scaled, h, k).values
            rhs = rho ** (-k) * sc.arc_derivative(c, h, k).values
            denom = np.max(np.abs(rhs))
            assert np.max(np.abs(lhs - rhs)) <= 1e-12 * denom


def test_integrate_ds_and_length():
    grid = sc.Grid(128)
    r = 3.0
    c = sc.make_circle(r, (0, 0), grid)
    assert sc.integrate_ds(c, np.ones(128)) == sc.curve_length(c)
    a = 2.5
    assert abs(sc.integrate_ds(c, np.full(128, a)) - a * sc.curve_length(c)) <= 1e-12
    fine = sc.make_circle(r, (0, 0), sc.Grid(4096))
    assert abs(sc.curve_length(fine) - TWO_PI * r) <= 1e-12 * TWO_PI * r
    # |D_s^2 c|^2 = 1 on the unit circle, so it integrates to 2*pi.
    c1 = sc.make_circle(1.0, (0, 0), sc.Grid(1024))
    h = sc.TangentField(c1.grid, c1.samples)
    d2 = sc.arc_derivative(c1, h, 2).values
    val = sc.integrate_ds(c1, np.sum(d2 * d2, axis=1))
    assert abs(val - TWO_PI) <= 1e-8


def test_length_homogeneity():
    rng = np.random.default_rng(5)
    grid = sc.Grid(64)
    c = random_curve(grid, rng)
    rho = 7.25
    scaled = sc.DiscreteCurve(grid, rho * c.samples)
    assert abs(sc.curve_length(scaled) - rho * sc.curve_length(c)) <= 1e-12 * sc.curve_length(scaled)


def test_length_of_huge_circle_does_not_overflow():
    grid = sc.Grid(32)
    unit = sc.curve_length(sc.make_circle(1.0, (0, 0), grid))
    for r in (1e200, 1e-200, 1e-300):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            length = sc.curve_length(sc.make_circle(r, (0, 0), grid))
        assert length == pytest.approx(r * unit, rel=1e-13)


def test_zero_curve_is_rejected_without_warning():
    # Tiny curves rescale their differences; a zero curve has nothing to
    # rescale by and must not divide 0 by 0.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ImmersionError, match="not an immersion"):
            sc.DiscreteCurve(sc.Grid(32), np.zeros((32, 3)))


def test_bumpy_circle_length_window():
    # High-resolution quadrature oracle: 10.565597630116 (adaptive quad of
    # the analytic speed, abs err 3e-13).
    oracle = 10.565597630116
    c = sc.make_bumpy_circle(1.0, 0.25, 8, sc.Grid(1024))
    assert abs(sc.curve_length(c) - oracle) <= 1e-5
    c_fine = sc.make_bumpy_circle(1.0, 0.25, 8, sc.Grid(8192))
    assert abs(sc.curve_length(c_fine) - oracle) <= 1e-8
    # lower bound ell >= 4 eps r lam from integrating the |cos| part
    assert sc.curve_length(c) >= 4 * 0.25 * 1.0 * 8


def test_translation_and_rotation_invariance():
    rng = np.random.default_rng(17)
    grid = sc.Grid(64)
    c = random_curve(grid, rng)
    h = random_field(grid, rng)
    shifted = sc.DiscreteCurve(grid, c.samples + np.array([4.0, -2.0]))
    assert np.max(np.abs(c.arc_speed - shifted.arc_speed)) <= 1e-13
    ang = 0.77
    rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
    c_rot = sc.DiscreteCurve(grid, c.samples @ rot.T)
    h_rot = sc.TangentField(grid, h.values @ rot.T)
    for k in (1, 2):
        lhs = sc.arc_derivative(c_rot, h_rot, k).values
        rhs = sc.arc_derivative(c, h, k).values @ rot.T
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(rhs))


def test_make_bumpy_circle_contracts():
    grid = sc.Grid(256)
    with pytest.raises(ContractError):
        sc.make_bumpy_circle(1.0, 0.4, 4, grid)
    with pytest.raises(ContractError):
        sc.make_bumpy_circle(1.0, 0.25, 9, grid)  # needs N >= 288
    with pytest.raises(ContractError):
        sc.make_bumpy_circle(-1.0, 0.25, 4, grid)
    with pytest.raises(ContractError):
        sc.make_bumpy_circle(1.0, 0.0, 4, grid)
    for lam in (True, 4.0, 2.5, 0):
        with pytest.raises(ContractError, match="^bump frequency must be an integer"):
            sc.make_bumpy_circle(1.0, 0.25, lam, grid)
    bumpy = sc.make_bumpy_circle(1.0, 0.25, 4, grid)
    assert float(np.min(bumpy.arc_speed)) >= 0.75


def test_reparametrize():
    grid = sc.Grid(512)
    c = sc.make_circle(1.0, (0, 0), grid)
    same = sc.reparametrize(c, grid.theta)
    assert np.max(np.abs(same.samples - c.samples)) <= 1e-12
    rotated = sc.reparametrize(c, grid.theta + 0.5)
    assert abs(sc.curve_length(rotated) - TWO_PI) <= 1e-8
    smooth = sc.reparametrize(c, grid.theta + 0.3 * np.sin(grid.theta))
    assert abs(sc.curve_length(smooth) - TWO_PI) <= 1e-6
    with pytest.raises(ContractError):
        sc.reparametrize(c, -grid.theta)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_reparametrize_rejects_non_finite_phi(bad):
    grid = sc.Grid(64)
    phi = grid.theta.copy()
    phi[5] = bad
    with pytest.raises(ContractError, match="phi must be finite"):
        sc.reparametrize(sc.make_circle(1.0, (0, 0), grid), phi)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([32, 64, 128, 256]),
    dim=st.sampled_from([2, 3]),
    shift=st.floats(-TWO_PI, TWO_PI),
    steps=st.integers(-40, 40),
)
def test_reparametrize_is_exact_on_band_limited_curves(seed, n, dim, shift, steps):
    # random_curve has 10 modes, below every N/2 here, so the
    # trigonometric interpolant is the curve itself.
    grid = sc.Grid(n)
    c = random_curve(grid, np.random.default_rng(seed), dim=dim)
    tol = 1e-13 * np.max(np.abs(c.samples))
    theta = grid.theta
    assert np.max(np.abs(sc.reparametrize(c, theta).samples - c.samples)) <= tol
    rolled = sc.reparametrize(c, theta + steps * grid.spacing).samples
    assert np.max(np.abs(rolled - np.roll(c.samples, -steps, axis=0))) <= tol
    back = sc.reparametrize(sc.reparametrize(c, theta + shift), theta - shift)
    assert np.max(np.abs(back.samples - c.samples)) <= tol


def test_curve_io_roundtrip(tmp_path):
    rng = np.random.default_rng(23)
    grid = sc.Grid(64)
    c = random_curve(grid, rng)
    path = tmp_path / "curve.json"
    sc.save_curve(c, path)
    back = sc.load_curve(path)
    assert np.max(np.abs(back.samples - c.samples)) <= 1e-15


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_points=st.sampled_from([16, 32, 64, 128]),
    scale=st.floats(1e-100, 1e100),
    shift=st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
    suffix=st.sampled_from([".json", ".csv", ".CSV"]),
)
def test_property_curve_file_roundtrip_exact(
    tmp_path_factory, seed, n_points, scale, shift, suffix
):
    grid = sc.Grid(n_points)
    base = random_curve(grid, np.random.default_rng(seed))
    c = sc.DiscreteCurve(grid, scale * base.samples + np.asarray(shift) * scale)
    path = tmp_path_factory.mktemp("curve") / f"curve{suffix}"
    sc.save_curve(c, path)
    back = sc.load_curve(path)
    assert back.grid == c.grid
    assert np.array_equal(back.samples, c.samples)


def test_save_curve_csv_header(tmp_path):
    grid = sc.Grid(16)
    flat = sc.make_circle(1.0, (0, 0), grid).samples
    for dim, header in ((2, "theta,x,y"), (3, "theta,x,y,z")):
        c = sc.DiscreteCurve(grid, np.hstack([flat, np.ones((16, dim - 2))]))
        path = tmp_path / f"curve{dim}.csv"
        sc.save_curve(c, path)
        lines = path.read_text().splitlines()
        assert lines[0] == header and len(lines) == 17
        assert float(lines[3].split(",")[0]) == grid.theta[2]
        assert np.array_equal(sc.load_curve(path).samples, c.samples)


def test_curve_csv_load(tmp_path):
    grid = sc.Grid(32)
    c = sc.make_circle(1.0, (0, 0), grid)
    path = tmp_path / "curve.csv"
    with open(path, "w") as fh:
        fh.write("theta,x,y\n")
        for th, (x, y) in zip(grid.theta, c.samples):
            fh.write(f"{th},{x},{y}\n")
    back = sc.load_curve(path)
    assert np.max(np.abs(back.samples - c.samples)) <= 1e-12


def test_malformed_curve_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"N": 32, "samples": [[0, 0]]}))
    with pytest.raises(ContractError):
        sc.load_curve(path)


@pytest.mark.parametrize("key, value", [("N", 64.7), ("d", 2.5), ("N", "64"), ("d", True)])
def test_curve_dict_fields_must_be_integers(key, value):
    data = sc.curve_to_dict(sc.make_circle(1.0, (0, 0), sc.Grid(64)))
    assert sc.curve_from_dict(dict(data, N=64.0)).grid == sc.Grid(64)
    with pytest.raises(ContractError, match=f"{key} must be an integer"):
        sc.curve_from_dict(dict(data, **{key: value}))


def test_derivative_axis_matches_per_slice():
    grid = sc.Grid(64)
    stack = np.random.default_rng(5).standard_normal((5, 64, 3))
    per_slice = np.stack([sc.derivative(x, grid) for x in stack])
    assert np.array_equal(sc.derivative(stack, grid, axis=1), per_slice)
    assert np.array_equal(sc.derivative(stack, grid, axis=-2), per_slice)


def test_derivative_one_dimensional():
    grid = sc.Grid(64)
    f = np.sin(3 * grid.theta)
    d = sc.derivative(f, grid)
    assert d.shape == (64,)
    assert np.array_equal(d, sc.derivative(f[:, None], grid)[:, 0])


def test_derivative_axis_mismatch_raises():
    grid = sc.Grid(32)
    with pytest.raises(ContractError):
        sc.derivative(np.zeros((4, 20, 2)), grid, axis=1)
    with pytest.raises(ContractError):
        sc.derivative(np.zeros((32, 2)), grid, axis=1)
    with pytest.raises(ContractError):
        sc.derivative(np.zeros((32, 2)), grid, axis=2)


def test_tangent_field_rejects_non_finite():
    grid = sc.Grid(32)
    for bad in (np.nan, np.inf):
        values = np.ones((32, 2))
        values[3, 1] = bad
        with pytest.raises(ContractError, match="finite"):
            sc.TangentField(grid, values)


def test_random_curve_propagates_unrelated_errors(monkeypatch):
    import sobocurve.sampling as sampling

    def broken(grid, samples):
        raise TypeError("not an immersion failure")

    monkeypatch.setattr(sampling, "DiscreteCurve", broken)
    with pytest.raises(TypeError, match="not an immersion failure"):
        random_curve(sc.Grid(32), np.random.default_rng(0))


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("lead", [(), (2,), (9,)], ids=["N_d", "2_N_d", "T_N_d"])
def test_dot_adds_coordinates_like_np_sum(d, lead):
    rng = np.random.default_rng([d, len(lead)])
    for n in (16, 64, 128):
        a, b = rng.standard_normal((2, *lead, n, d))
        assert np.array_equal(_dot(a, b), np.sum(a * b, axis=-1))
        # One (N, d) field against a stack of curves, as the kernels pass it.
        assert np.array_equal(_dot(a[-1], b), np.sum(a[-1] * b, axis=-1))


def test_dot_equals_einsum_in_the_plane():
    rng = np.random.default_rng(2)
    for shape in [(64, 2), (2, 64, 2), (16, 128, 2), (32, 256, 2)]:
        a, b = rng.standard_normal((2, *shape))
        assert np.array_equal(_dot(a, b), np.einsum("...d,...d->...", a, b))
        if len(shape) == 3:
            assert np.array_equal(_dot(a, b), np.einsum("tnd,tnd->tn", a, b))


@pytest.mark.parametrize("d", [3, 4])
def test_dot_in_space_is_einsum_up_to_the_order_of_its_sum(d):
    # einsum may add the products in another order ((p0 + p2) + p1 at d = 3
    # on NumPy 2.4); both orders are within a few ulps of sum |p_i|.
    rng = np.random.default_rng(d)
    a, b = rng.standard_normal((2, 16, 128, d))
    gap = np.abs(_dot(a, b) - np.einsum("...d,...d->...", a, b))
    assert np.max(gap / np.sum(np.abs(a * b), axis=-1)) <= 4e-16
