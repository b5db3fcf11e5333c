"""Discrete calculus for closed curves on a uniform periodic grid.

Curves are sampled at theta_j = 2*pi*j/N.  Differentiation uses periodic
central finite differences of fourth order, integration the periodic
trapezoid rule with uniform weights 2*pi/N.  Arc-length quantities are
built from the pointwise speed |c'|.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ContractError, ImmersionError, NumericalError, _require_int

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class Grid:
    """Uniform periodic sampling of the circle with N points."""

    n_points: int

    def __post_init__(self):
        _require_int("N", self.n_points, 16)
        if self.n_points % 2 != 0:
            raise ContractError(f"N must be even, got {self.n_points}")
        object.__setattr__(self, "n_points", int(self.n_points))  # a plain int writes as JSON

    @property
    def theta(self) -> np.ndarray:
        return TWO_PI * np.arange(self.n_points) / self.n_points

    @property
    def spacing(self) -> float:
        """Grid step 2*pi/N, also the weight of the periodic trapezoid rule."""
        return TWO_PI / self.n_points


def derivative(values: np.ndarray, grid: Grid, axis: int = 0) -> np.ndarray:
    """Fourth-order periodic central difference d/dtheta of a sampled field.

    `values` holds grid.n_points samples along `axis`, e.g. (N,), (N, d)
    or a stack (T, N, d) with axis=1.  Exact on constants; fourth-order
    accurate on smooth periodic data.
    """
    values = np.asarray(values, dtype=float)
    n = grid.n_points
    if not -values.ndim <= axis < values.ndim or values.shape[axis] != n:
        raise ContractError(f"field has no axis {axis} with {n} samples: shape {values.shape}")
    # Wrap by padding r samples on each side, then difference shifted slices.
    r = 2
    lead = (slice(None),) * (axis % values.ndim)
    padded = np.concatenate(
        (values[lead + (slice(n - r, n),)], values, values[lead + (slice(0, r),)]), axis=axis
    )

    def shift(j):  # values[i + j], periodically
        return padded[lead + (slice(r + j, r + j + n),)]

    # 8 (f[i+1] - f[i-1]) - (f[i+2] - f[i-2]): differences first, so
    # constants cancel exactly.
    out = shift(1) - shift(-1)
    out *= 8.0
    out -= shift(2) - shift(-2)
    out /= 12.0 * grid.spacing
    return out


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_i a[..., i] * b[..., i] in index order, rounded as np.sum(a * b, axis=-1) for d < 8."""
    out = a[..., 0] * b[..., 0]
    for i in range(1, a.shape[-1]):
        out += a[..., i] * b[..., i]
    return out


def _arc_jet(grid: Grid, samples: np.ndarray, field=None, n: int = 0):
    """Speed, length and arc-length derivatives of (..., N, d) curves: `_jet` of their d/dtheta."""
    return _jet(grid, derivative(samples, grid, axis=-2), field, n)


def _jet(grid: Grid, dc: np.ndarray, field=None, n: int = 0):
    """Speed, length and arc-length derivatives of batched curves, in power-of-two units.

    dc = d samples/dtheta, of shape (..., N, d), is divided in place by
    2^e, e of shape (...) the np.frexp exponent of each curve's largest
    |dc|.  Returns (e, s, ell, u): speed / 2^e of shape (..., N), length
    / 2^e of shape (...) and u = [field, D_s field, ..., D_s^n field],
    D_s^k in units of 2^(-k e), for a field that broadcasts against dc
    (u = [] without one).  Raises ImmersionError if a curve's speed
    (nearly) vanishes, with `index` the flat index of the first such curve.
    """
    big = np.abs(dc).max(axis=(-2, -1))
    if not (big < np.inf).all():  # samples within 16x of the float maximum overflow
        raise NumericalError("curve differences d samples/dtheta are not finite floats")
    e = np.frexp(big)[1]  # 0 for an all-zero curve
    np.ldexp(dc, -e[..., None, None], out=dc)
    s = np.sqrt(_dot(dc, dc))
    s_max = s.max(axis=-1)
    bad = (s_max == 0.0) | (s.min(axis=-1) < 1e-12 * s_max)
    if bad.any():
        exc = ImmersionError(f"not an immersion at resolution N={grid.n_points}")
        exc.index = int(np.argmax(bad))
        raise exc
    ell = grid.spacing * s.sum(axis=-1)
    if field is None:
        return e, s, ell, []
    inv_s = _per_point(1.0 / s, dc.shape[-1])
    u = [field]
    for k in range(n):
        u.append(derivative(u[-1], grid, axis=-2) * inv_s)
    return e, s, ell, u


def _per_point(f: np.ndarray, d: int) -> np.ndarray:
    """A (..., N) factor copied to (..., N, d): a same-shape multiply beats broadcasting it."""
    out = np.empty(f.shape + (d,))
    for i in range(d):
        out[..., i] = f
    return out


@dataclass(frozen=True)
class DiscreteCurve:
    """Samples of a closed immersed curve plus cached speed |c'|."""

    grid: Grid
    samples: np.ndarray
    arc_speed: np.ndarray = field(init=False)

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 2 or samples.shape[1] < 2:
            raise ContractError("samples must be an (N, d) array with d >= 2")
        if samples.shape[0] != self.grid.n_points:
            raise ContractError(
                f"curve has {samples.shape[0]} samples, grid has {self.grid.n_points}"
            )
        if not np.all(np.isfinite(samples)):
            raise ContractError("curve samples must be finite")
        object.__setattr__(self, "samples", samples)
        e, s, _, _ = _arc_jet(self.grid, samples)
        object.__setattr__(self, "arc_speed", np.ldexp(s, e, out=s))

    @property
    def dim(self) -> int:
        return self.samples.shape[1]


@dataclass(frozen=True)
class TangentField:
    """A vector field along a curve, sampled on the same grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise ContractError("tangent field values must be an (N, d) array")
        if values.shape[0] != self.grid.n_points:
            raise ContractError(
                f"field has {values.shape[0]} samples, grid has {self.grid.n_points}"
            )
        if not np.all(np.isfinite(values)):
            raise ContractError("tangent field values must be finite")
        object.__setattr__(self, "values", values)


def arc_derivative(c: DiscreteCurve, h: TangentField, k: int) -> TangentField:
    """k-fold arc-length derivative ((1/|c'|) d/dtheta)^k of h along c."""
    _require_int("k", k, 0)
    if c.grid != h.grid:
        raise ContractError("curve and tangent field live on different grids")
    e, _, _, u = _arc_jet(c.grid, c.samples, h.values, k)
    return TangentField(c.grid, np.ldexp(u[k], -k * e) if k else h.values)


def integrate_ds(c: DiscreteCurve, f: np.ndarray) -> float:
    """Arc-length integral of a scalar field: sum f |c'| * (2*pi/N)."""
    f = np.asarray(f, dtype=float)
    if f.shape[0] != c.grid.n_points:
        raise ContractError("integrand length does not match grid")
    return c.grid.spacing * float(np.dot(f, c.arc_speed))


def curve_length(c: DiscreteCurve) -> float:
    return c.grid.spacing * float(np.sum(c.arc_speed))


def make_circle(r: float, center, grid: Grid, dim: int = 2) -> DiscreteCurve:
    """Circle of radius r in the first two coordinates, zeros beyond."""
    if r <= 0:
        raise ContractError(f"radius must be positive, got {r}")
    _require_int("dim", dim, 2)
    theta = grid.theta
    samples = np.zeros((grid.n_points, dim))
    samples[:, 0] = r * np.cos(theta)
    samples[:, 1] = r * np.sin(theta)
    center = np.asarray(center, dtype=float)
    return DiscreteCurve(grid, samples + center)


def make_bumpy_circle(r: float, eps: float, lam: int, grid: Grid) -> DiscreteCurve:
    """Circle of radius r with 2*lam bumps: r(1 + eps*sin(lam*theta)) * n(theta).

    Requires 0 < eps < 1/3 and N >= 32*lam so the highest mode is
    resolved.
    """
    if r <= 0:
        raise ContractError(f"radius must be positive, got {r}")
    _require_int("bump frequency", lam, 1)
    if not (0.0 < eps < 1.0 / 3.0):
        raise ContractError(f"eps must lie in (0, 1/3), got {eps}")
    if grid.n_points < 32 * lam:
        raise ContractError(
            f"N={grid.n_points} too small for lambda={lam}; need N >= {32 * lam}"
        )
    theta = grid.theta
    radial = r * (1.0 + eps * np.sin(lam * theta))
    samples = np.stack([radial * np.cos(theta), radial * np.sin(theta)], axis=1)
    return DiscreteCurve(grid, samples)


def reparametrize(c: DiscreteCurve, phi: np.ndarray) -> DiscreteCurve:
    """Resample c at new parameter values phi (finite, strictly increasing mod 2*pi).

    Evaluates the trigonometric interpolant of c.samples, the sum of the
    curve's own discrete Fourier modes with the Nyquist mode taken as a
    cosine, at phi.  It is exact on curves band-limited below N/2 modes:
    resampling at theta + a and then at theta - a returns the samples to
    roundoff, and a shift by whole grid steps is np.roll.  The sum is
    dense, O(N^2) in time and memory: best of 7 calls on one core of a
    2-core Xeon, 0.16 / 1.4 / 16 / 61 ms at N = 64 / 256 / 1024 / 2048,
    with a 34 MB peak at N = 2048.
    """
    phi = np.asarray(phi, dtype=float)
    n = c.grid.n_points
    if phi.shape != (n,):
        raise ContractError("phi must have one value per grid point")
    if not np.all(np.isfinite(phi)):
        raise ContractError("phi must be finite")
    incr = np.diff(phi)
    wrap = phi[0] + TWO_PI - phi[-1]
    if np.any(incr <= 0) or wrap <= 0:
        raise ContractError("phi must be strictly increasing modulo 2*pi")
    coef = np.fft.rfft(c.samples, axis=0) / n
    coef[1 : n // 2] *= 2.0
    coef[n // 2] = coef[n // 2].real
    angle = np.outer(phi, np.arange(n // 2 + 1))
    return DiscreteCurve(c.grid, np.cos(angle) @ coef.real - np.sin(angle) @ coef.imag)


def curve_to_dict(c: DiscreteCurve) -> dict:
    return {
        "N": c.grid.n_points,
        "d": c.dim,
        "samples": c.samples.tolist(),
    }


def _integral(value, name: str) -> int:
    """A JSON field that must hold an integer; 64.0 passes, 64.7 and "64" do not."""
    integral = isinstance(value, (int, float, np.integer, np.floating)) and float(value).is_integer()
    if isinstance(value, bool) or not integral:
        raise ContractError(f"{name} must be an integer, got {value!r}")
    return int(value)


def curve_from_dict(data: dict) -> DiscreteCurve:
    try:
        samples = np.asarray(data["samples"], dtype=float)
        n, d = _integral(data["N"], "N"), _integral(data["d"], "d")
    except (KeyError, TypeError, ValueError) as exc:
        raise ContractError(f"malformed curve file: {exc}") from exc
    if samples.shape != (n, d):
        raise ContractError("curve file: samples shape disagrees with N, d")
    return DiscreteCurve(Grid(n), samples)


def load_curve(path) -> DiscreteCurve:
    """Load a curve from JSON ({"N", "d", "samples"}) or CSV (theta,x,y[,z...])."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if not header or header[0].strip().lower() != "theta":
                raise ContractError("curve CSV must start with header theta,x,y[,...]")
            try:
                rows = [[float(v) for v in row[1:]] for row in reader if row]
            except ValueError as exc:
                raise ContractError(f"curve CSV {path}: {exc}") from exc
        if len({len(row) for row in rows}) > 1:
            raise ContractError(f"curve CSV {path}: rows have different numbers of columns")
        samples = np.asarray(rows, dtype=float)
        return DiscreteCurve(Grid(samples.shape[0]), samples)
    with open(path) as fh:
        return curve_from_dict(json.load(fh))


def save_curve(c: DiscreteCurve, path):
    """Write c as CSV (theta,x,y[,z...]) for a .csv suffix, else as JSON; see load_curve."""
    if Path(path).suffix.lower() == ".csv":
        axes = ["x", "y", "z"][: c.dim] + [f"x{i}" for i in range(4, c.dim + 1)]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["theta", *axes])
            writer.writerows([t, *row] for t, row in zip(c.grid.theta.tolist(), c.samples.tolist()))
        return
    with open(path, "w") as fh:
        json.dump(curve_to_dict(c), fh)
        fh.write("\n")
