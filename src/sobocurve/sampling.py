"""Random band-limited test curves and tangent fields.

Curves are truncated Fourier series with coefficient decay
(1+|m|)^-3, rejection-sampled until min|c'| >= 0.1 * mean|c'| so every
sample is a comfortable discrete immersion.  Each sample draws all its
coefficients in one call, in the order of a mode-by-mode loop (a_m then
b_m for m = 1, 2, ...), against a cos(m theta)/sin(m theta) basis cached
per grid, whose m = 1 rows are also the base circle.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .curves import DiscreteCurve, Grid, TangentField
from .errors import ImmersionError, NumericalError, _require_int

_DECAY = 3.0
# Fourier modes of a band-limited sample; tries before random_curve gives up.
_MODES = 10
_MAX_TRIES = 200
_AMP = tuple((1.0 + m) ** -_DECAY for m in range(1, _MODES + 1))


@lru_cache(maxsize=16)
def _basis(grid: Grid) -> tuple:
    """Read-only (_MODES, N) arrays cos(m theta) and sin(m theta), m = 1.._MODES."""
    theta = grid.theta
    basis = tuple(np.array([f(m * theta) for m in range(1, _MODES + 1)]) for f in (np.cos, np.sin))
    for b in basis:
        b.flags.writeable = False
    return basis


def _band_limited(grid: Grid, rng: np.random.Generator, dim: int) -> np.ndarray:
    """(N, dim) sum of the modes, C-ordered.

    The terms are built coordinate-major, (modes, dim, N), so the inner
    loops run over N; the (dim, N) sum is transposed into a C-ordered
    copy, which keeps later field arithmetic on contiguous rows.
    """
    cos, sin = _basis(grid)
    ab = rng.standard_normal((_MODES, 2, dim)) * np.array(_AMP)[:, None, None]
    terms = ab[:, 0, :, None] * cos[:, None] + ab[:, 1, :, None] * sin[:, None]
    return np.ascontiguousarray(np.add.reduce(terms, axis=0).T)  # modes summed in order m = 1, 2, ...


def random_curve(grid: Grid, rng: np.random.Generator, dim: int = 2) -> DiscreteCurve:
    """Random smooth immersion; the unit circle plus a band-limited bump."""
    _require_int("dim", dim, 2)
    cos, sin = _basis(grid)
    circle = np.zeros((grid.n_points, dim))
    circle[:, 0] = cos[0]  # 1 * theta == theta
    circle[:, 1] = sin[0]
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
    _require_int("dim", dim, 1)
    values = _band_limited(grid, rng, dim)
    values += rng.standard_normal(dim) * 0.5
    return TangentField(grid, values)
