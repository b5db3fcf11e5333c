"""Random band-limited test curves and tangent fields.

Curves are truncated Fourier series with coefficient decay
(1+|m|)^-3, rejection-sampled until min|c'| >= 0.1 * mean|c'| so every
sample is a comfortable discrete immersion.
"""

from __future__ import annotations

import numpy as np

from .curves import DiscreteCurve, Grid, TangentField
from .errors import ImmersionError, NumericalError

_DECAY = 3.0
# Fourier modes of a band-limited sample; tries before random_curve gives up.
_MODES = 10
_MAX_TRIES = 200


def _band_limited(grid: Grid, rng: np.random.Generator, dim: int) -> np.ndarray:
    theta = grid.theta
    values = np.zeros((grid.n_points, dim))
    for m in range(1, _MODES + 1):
        amp = (1.0 + m) ** -_DECAY
        a = rng.standard_normal(dim) * amp
        b = rng.standard_normal(dim) * amp
        values += np.outer(np.cos(m * theta), a) + np.outer(np.sin(m * theta), b)
    return values


def random_curve(grid: Grid, rng: np.random.Generator, dim: int = 2) -> DiscreteCurve:
    """Random smooth immersion; the unit circle plus a band-limited bump."""
    theta = grid.theta
    circle = np.zeros((grid.n_points, dim))
    circle[:, 0] = np.cos(theta)
    circle[:, 1] = np.sin(theta)
    for _ in range(_MAX_TRIES):
        samples = circle + _band_limited(grid, rng, dim)
        try:
            c = DiscreteCurve(grid, samples)
        except ImmersionError:
            continue
        if np.min(c.arc_speed) >= 0.1 * np.mean(c.arc_speed):
            return c
    raise NumericalError("failed to sample an immersed random curve")


def random_field(grid: Grid, rng: np.random.Generator, dim: int = 2) -> TangentField:
    """Random band-limited tangent field with a constant part."""
    values = _band_limited(grid, rng, dim)
    values += rng.standard_normal(dim) * 0.5
    return TangentField(grid, values)
