"""Band-limited sampling: the one-draw sampler against a mode-by-mode loop."""

import numpy as np
import pytest

import sobocurve as sc
from sobocurve import sampling
from sobocurve.errors import ImmersionError
from sobocurve.sampling import _band_limited, random_curve, random_field


def loop_band_limited(grid, rng, dim):
    """Reference: one a, b pair of draws per mode, added mode by mode."""
    theta = grid.theta
    values = np.zeros((grid.n_points, dim))
    for m in range(1, 11):
        amp = (1.0 + m) ** -3.0
        a = rng.standard_normal(dim) * amp
        b = rng.standard_normal(dim) * amp
        values += np.outer(np.cos(m * theta), a) + np.outer(np.sin(m * theta), b)
    return values


def loop_random_curve(grid, rng, dim):
    """Reference `random_curve`; also returns how many samples it drew."""
    theta = grid.theta
    circle = np.zeros((grid.n_points, dim))
    circle[:, 0] = np.cos(theta)
    circle[:, 1] = np.sin(theta)
    tries = 0
    while True:
        tries += 1
        samples = circle + loop_band_limited(grid, rng, dim)
        try:
            c = sc.DiscreteCurve(grid, samples)
        except ImmersionError:
            continue
        if np.min(c.arc_speed) >= 0.1 * np.mean(c.arc_speed):
            return c.samples, tries


class ScriptedNormals:
    """Hands out a fixed stream of standard normals, in any shapes."""

    def __init__(self, values):
        self.values, self.used = values, 0

    def standard_normal(self, size):
        n = int(np.prod(size))
        out = self.values[self.used:self.used + n].reshape(size)
        self.used += n
        return out


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("n_pts", [16, 64, 512, 1024])
def test_band_limited_equals_mode_by_mode_loop(n_pts, dim):
    grid = sc.Grid(n_pts)
    for seed in range(50):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        assert np.array_equal(_band_limited(grid, rng, dim), loop_band_limited(grid, ref, dim))
        assert rng.random() == ref.random()  # the same draws were consumed


@pytest.mark.parametrize("dim", [2, 3])
def test_random_curve_and_field_equal_loop_reference(dim):
    grid = sc.Grid(64)
    for seed in range(10):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        assert np.array_equal(random_curve(grid, rng, dim).samples, loop_random_curve(grid, ref, dim)[0])
        field = loop_band_limited(grid, ref, dim)
        field += ref.standard_normal(dim) * 0.5
        assert np.array_equal(random_field(grid, rng, dim).values, field)
        assert rng.random() == ref.random()


def test_random_curve_rejection_retry_equals_loop_reference():
    # Default-seeded N = 16 samples are never rejected (min|c'|/mean|c'|
    # stays near 0.4 or above), so the stream is scripted: the first
    # sample cancels the circle to the zero curve (amplitude 1/8 at m = 1),
    # the second has an 8x bump whose speed ratio is about 0.05, the third
    # is accepted.
    first = np.zeros(40)
    first[[0, 3]] = -8.0  # a_1 = (-8, 0), b_1 = (0, -8)
    second, third = np.random.default_rng(8).standard_normal((2, 40))
    stream = np.concatenate([first, 8.0 * second, third])
    grid = sc.Grid(16)
    rng, ref = ScriptedNormals(stream), ScriptedNormals(stream)
    expected, tries = loop_random_curve(grid, ref, 2)
    assert tries == 3
    assert np.array_equal(random_curve(grid, rng, 2).samples, expected)
    assert rng.used == ref.used == 120


def test_basis_is_cached_and_read_only():
    grid = sc.Grid(32)
    cos, sin = sampling._basis(grid)
    assert sampling._basis(sc.Grid(32)) is sampling._basis(grid)
    assert cos.shape == sin.shape == (sampling._MODES, 32)
    with pytest.raises(ValueError):
        cos[0, 0] = 2.0
    with pytest.raises(ValueError):
        sin[0, 0] = 2.0
