"""Length-weighted Sobolev metrics on curves.

The metric is G_c(h, g) = sum_k a_k(ell_c) * integral <D_s^k h, D_s^k g> ds
with coefficients a_k that are functions of the curve length ell_c.
Coefficient profiles are power laws, constants, or tabulated values with
fitted power-law tails.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .curves import DiscreteCurve, TangentField, _arc_jet, _integral
from .errors import ContractError, NumericalError


@dataclass(frozen=True)
class PowerLaw:
    """a(ell) = b * ell**p."""

    b: float
    p: float

    def __post_init__(self):
        if not (math.isfinite(self.b) and math.isfinite(self.p)):
            raise ContractError(f"power-law b and p must be finite, got b={self.b}, p={self.p}")
        if self.b < 0:
            raise ContractError(f"power-law coefficient must have b >= 0, got {self.b}")


@dataclass(frozen=True)
class Constant:
    """a(ell) = b."""

    b: float

    def __post_init__(self):
        if not math.isfinite(self.b):
            raise ContractError(f"constant coefficient must be finite, got {self.b}")
        if self.b < 0:
            raise ContractError(f"constant coefficient must have b >= 0, got {self.b}")


@dataclass(frozen=True)
class Tabulated:
    """Monotone-cubic interpolation of (knots, values) with power-law tails.

    Between the knots the profile is the PCHIP interpolant (Fritsch &
    Carlson, SIAM J. Numer. Anal. 17, 1980) with SciPy's slope rules: a
    weighted harmonic mean of the secant slopes inside, zero where they
    change sign or vanish, and a shape-preserving three-point rule at the
    ends.  It equals scipy.interpolate.PchipInterpolator bit for bit
    (tests/test_metric.py::test_tabulated_matches_scipy_pchip_exactly),
    in value and derivative, without importing SciPy.

    Each tail is v_end * (ell / k_end)**p, anchored at its end knot so the
    profile is continuous there, with p the least-squares log-log slope
    over the outer 25% of knots (at least two points each), so improper
    integrals of the profile can still be classified from its end
    behaviour.  A tail is stored as (k_end, PowerLaw(v_end, p)), a power
    law in ell / k_end, so no tail coefficient over- or underflows.
    """

    knots: tuple
    values: tuple
    tail_low: tuple = field(init=False, compare=False)
    tail_high: tuple = field(init=False, compare=False)
    _knots: np.ndarray = field(init=False, repr=False, compare=False)
    _coef: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if knots.size < 4 or knots.size != values.size:
            raise ContractError("tabulated profile needs >= 4 knots with matching values")
        if not (np.all(np.isfinite(knots)) and np.all(np.isfinite(values))):
            raise ContractError("tabulated knots and values must be finite")
        if np.any(knots <= 0) or np.any(np.diff(knots) <= 0):
            raise ContractError("tabulated knots must be positive and strictly increasing")
        if np.any(values < 0):
            raise ContractError("tabulated values must be nonnegative")
        if np.any(values == 0):
            raise ContractError("tabulated values must be positive for tail fitting")
        object.__setattr__(self, "knots", tuple(knots))
        object.__setattr__(self, "values", tuple(values))
        object.__setattr__(self, "_knots", knots)
        # Knots spaced far below 1 with O(1) jumps overflow the cubics,
        # whose leading coefficients grow like jump / spacing^2.
        with np.errstate(all="ignore"):
            coef = _pchip_coefficients(knots, values)
        if not np.all(np.isfinite(coef)):
            raise ContractError(
                "tabulated knots are too closely spaced for their value jumps: "
                "the interpolating cubics overflow"
            )
        object.__setattr__(self, "_coef", coef)
        m = max(2, int(math.ceil(0.25 * knots.size)))
        object.__setattr__(self, "tail_low", _fit_tail(knots[:m], values[:m], 0))
        object.__setattr__(self, "tail_high", _fit_tail(knots[-m:], values[-m:], -1))


def _pchip_coefficients(knots: np.ndarray, values: np.ndarray) -> np.ndarray:
    """(4, K-1) power-basis cubics c0 s^3 + c1 s^2 + c2 s + c3, s = ell - knot_i.

    Divides by zero slopes and may overflow; the caller masks both.
    """
    h = np.diff(knots)
    m = np.diff(values) / h
    w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
    flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
    whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
    inner = np.where(flat, 0.0, 1.0 / whmean)
    d = np.concatenate(
        ([_end_slope(h[0], h[1], m[0], m[1])], inner, [_end_slope(h[-1], h[-2], m[-1], m[-2])])
    )
    t = (d[:-1] + d[1:] - 2 * m) / h
    return np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], values[:-1]))


def _end_slope(h0, h1, m0, m1):
    """One-sided three-point end slope, kept from overshooting."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _fit_tail(knots: np.ndarray, values: np.ndarray, end: int) -> tuple:
    slope = np.polyfit(np.log(knots), np.log(values), 1)[0]
    return float(knots[end]), PowerLaw(b=float(values[end]), p=float(slope))


CoefficientTerm = Union[PowerLaw, Constant, Tabulated]


def _check_lengths(ell):
    if isinstance(ell, np.ndarray):
        ok = (ell > 0) & (ell < math.inf)  # False for NaN too
        if not ok.all():
            bad = ell[~ok].flat[0]
            raise ContractError(f"curve lengths must be positive and finite, got {bad}")
    elif not 0 < ell < math.inf:
        raise ContractError(f"curve length must be positive and finite, got {ell}")


def _pchip(term: Tabulated, ell, nu: int):
    """The interpolant (nu = 0) or its derivative (nu = 1) on the knot cubics.

    Summed as SciPy's PPoly sums, not by Horner's rule, so the results are
    SciPy's bit for bit.
    """
    i = np.searchsorted(term._knots[1:-1], ell, side="right")
    c0, c1, c2, c3 = term._coef.take(i, axis=1)
    s = ell - term._knots.take(i)
    if nu == 0:
        return c3 + c2 * s + c1 * (s * s) + c0 * (s * s * s)
    return c2 + c1 * s * 2 + c0 * (s * s) * 3


def _tabulated(term: Tabulated, ell, nu: int):
    """Interpolant (nu = 0) or its derivative (nu = 1), with power-law tails."""
    power_law = coefficient_eval if nu == 0 else coefficient_deriv

    def tail(end, x):  # d^nu/d ell^nu of v_end * (ell / k_end)**p
        knot, law = end
        return power_law(law, x / knot) / knot**nu

    if not isinstance(ell, np.ndarray):
        if ell < term.knots[0]:
            return tail(term.tail_low, ell)
        if ell > term.knots[-1]:
            return tail(term.tail_high, ell)
        return float(_pchip(term, ell, nu))
    low, high = ell < term.knots[0], ell > term.knots[-1]
    inside = ~(low | high)
    out = np.empty(ell.shape)
    out[inside] = _pchip(term, ell[inside], nu)  # no cubic far outside: no overflow
    for mask, end in ((low, term.tail_low), (high, term.tail_high)):
        if mask.any():
            out[mask] = tail(end, ell[mask])
    return out


def _power(ell, p: float):
    """ell**p for a float or an array ell, inf where it overflows.

    A float goes through a NumPy scalar, whose power equals Python's
    where Python's is finite but returns inf where Python's raises
    OverflowError, as the array power does.
    """
    return ell**p if isinstance(ell, np.ndarray) else float(np.float64(ell) ** p)


def coefficient_eval(term: CoefficientTerm, ell):
    """Evaluate a coefficient profile at curve length ell > 0.

    `ell` is a float (returns a float) or an array (returns an array of
    the same shape).  Quadrature and path kernels pass arrays.  A power
    law that overflows evaluates to inf.
    """
    _check_lengths(ell)
    if isinstance(term, PowerLaw):
        return term.b * _power(ell, term.p)
    if isinstance(term, Constant):
        return np.full(ell.shape, term.b) if isinstance(ell, np.ndarray) else term.b
    return _tabulated(term, ell, 0)


def coefficient_deriv(term: CoefficientTerm, ell):
    """d a / d ell at ell > 0 (used by the path-energy gradient); float or array."""
    _check_lengths(ell)
    if isinstance(term, PowerLaw):
        return term.b * term.p * _power(ell, term.p - 1.0)
    if isinstance(term, Constant):
        return np.zeros(ell.shape) if isinstance(ell, np.ndarray) else 0.0
    return _tabulated(term, ell, 1)


@dataclass(frozen=True)
class MetricConfig:
    """Order n and the coefficient profile for each k in 0..n.

    Absent k means a_k identically zero; k = 0 and k = n must be present
    with positive coefficient so the metric is definite.
    """

    n: int
    terms: dict

    def __post_init__(self):
        if self.n < 2:
            raise ContractError(f"metric order must be >= 2, got {self.n}")
        terms = dict(self.terms)
        for k, term in terms.items():
            if not (0 <= k <= self.n):
                raise ContractError(f"coefficient index {k} outside 0..{self.n}")
            if not isinstance(term, (PowerLaw, Constant, Tabulated)):
                raise ContractError(f"unknown coefficient form for k={k}")
        for k in (0, self.n):
            term = terms.get(k)
            if term is None:
                raise ContractError(f"a_{k} must be present and positive")
            if isinstance(term, (PowerLaw, Constant)) and term.b <= 0:
                raise ContractError(f"a_{k} must be strictly positive")
        object.__setattr__(self, "terms", terms)


def scale_invariant_profile(n: int, b) -> MetricConfig:
    """Coefficients a_k(ell) = b_k * ell**(2k-3), the scale-invariant choice."""
    b = np.asarray(b, dtype=float)
    if b.shape != (n + 1,):
        raise ContractError(f"need n+1 = {n + 1} coefficients, got shape {b.shape}")
    if b[0] <= 0 or b[n] <= 0:
        raise ContractError("b_0 and b_n must be strictly positive")
    terms = {
        k: PowerLaw(float(b[k]), 2.0 * k - 3.0) for k in range(n + 1) if b[k] != 0.0
    }
    return MetricConfig(n=n, terms=terms)


def _q_form(w: float, uh: np.ndarray, ug: np.ndarray, s: np.ndarray):
    """Q = w * sum_j <uh_j, ug_j> s_j over the last two axes of (..., N, d) fields.

    The j-sum is a dot product per curve (matmul), rounded like np.dot.
    """
    inner = np.einsum("...nd,...nd->...n", uh, ug)
    return w * (inner[..., None, :] @ s[..., :, None])[..., 0, 0]


def eval_metric(
    cfg: MetricConfig, c: DiscreteCurve, h: TangentField, g: TangentField
) -> float:
    """The bilinear form G_c(h, g) = sum_k a_k(ell) Q_k(h, g).

    Raises NumericalError if it is not finite in floating point, as for
    curves so large or small that a_k(ell) or Q_k overflows.
    """
    if c.grid != h.grid or c.grid != g.grid:
        raise ContractError("curve and tangent fields live on different grids")
    s, ell, u = _arc_jet(c.grid, c.samples, np.stack([h.values, g.values]), cfg.n)
    total = 0.0
    # Overflow or 0 * inf shows as a non-finite total, reported below.
    with np.errstate(over="ignore", invalid="ignore"):
        for k, term in cfg.terms.items():
            total += coefficient_eval(term, ell) * _q_form(c.grid.weight, u[k][0], u[k][1], s)
    if not math.isfinite(total):
        raise NumericalError(f"metric value is not finite at curve length {ell}: {total}")
    return float(total)


def config_to_dict(cfg: MetricConfig) -> dict:
    terms = []
    for k in sorted(cfg.terms):
        term = cfg.terms[k]
        if isinstance(term, PowerLaw):
            terms.append({"k": k, "form": "power", "b": term.b, "p": term.p})
        elif isinstance(term, Constant):
            terms.append({"k": k, "form": "const", "b": term.b})
        else:
            terms.append(
                {
                    "k": k,
                    "form": "table",
                    "knots": list(term.knots),
                    "values": list(term.values),
                }
            )
    return {"n": cfg.n, "terms": terms}


def config_from_dict(data: dict) -> MetricConfig:
    try:
        terms = {}
        for entry in data["terms"]:
            k = _integral(entry["k"], "k")
            if k in terms:
                raise ContractError(f"metric config has more than one term for k={k}")
            form = entry["form"]
            if form == "power":
                terms[k] = PowerLaw(float(entry["b"]), float(entry["p"]))
            elif form == "const":
                terms[k] = Constant(float(entry["b"]))
            elif form == "table":
                terms[k] = Tabulated(tuple(entry["knots"]), tuple(entry["values"]))
            else:
                raise ContractError(f"unknown coefficient form {form!r}")
        n = _integral(data["n"], "n")
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ContractError(f"malformed metric config: {exc}") from exc
    return MetricConfig(n=n, terms=terms)


def load_config(path) -> MetricConfig:
    with open(path) as fh:
        return config_from_dict(json.load(fh))
