"""Length-weighted Sobolev metrics on curves.

The metric is G_c(h, g) = sum_k a_k(ell_c) * integral <D_s^k h, D_s^k g> ds
with coefficients a_k that are functions of the curve length ell_c.
Coefficient profiles are power laws (a constant is the one with p = 0)
or tabulated values with fitted power-law tails; beyond its end knots
every profile is a power law b * (ell / knot)**p, and `_profile`
evaluates all of them by that rule.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .curves import DiscreteCurve, TangentField, _dot, _integral, _jet, derivative
from .errors import ContractError, NumericalError, _require_int


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
class Constant(PowerLaw):
    """a(ell) = b, the power law with p = 0."""

    p: float = field(default=0.0, init=False)


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


CoefficientTerm = Union[PowerLaw, Tabulated]


_TINY = float(np.finfo(float).tiny)  # a float below it has lost digits


def _end_law(term: CoefficientTerm, end: str) -> tuple:
    """(knot, law): the profile is law(ell / knot) beyond `knot` towards `end`.

    `end` is "zero" or "infinity".  A power law (a constant included) is
    its own end law with knot 1, a tabulated profile its fitted tail there.
    """
    if isinstance(term, Tabulated):
        return term.tail_low if end == "zero" else term.tail_high
    return 1.0, term


def _law(knot: float, law: PowerLaw, ell: np.ndarray, nu: int, shift):
    """(v, n), v 2^n the d^nu/d ell^nu of law.b * (ell / knot)**law.p at the lengths ell * 2^shift.

    A zero factor (b, or b * p for nu = 1) gives zeros, never 0 * inf.
    Unless a plain step over- or underflows (the floating-point flags
    tell), the value is plain arithmetic, n = 0.  Otherwise entries with
    normal ell / knot, ell 2^shift / knot and value keep it; the rest split
    length, knot and factor into mantissas and powers of two, n collecting
    the latter: exact for integral p, else good to 1e-16 |p log2(ell /
    knot)| for |p| below about 1000.  Callers set np.errstate as for `_profile`.
    """
    factor = law.b if nu == 0 else law.b * law.p
    if factor == 0.0:
        return np.zeros(ell.shape), 0
    q = law.p - nu
    with np.errstate(over="raise", under="raise"):  # flags a step that loses digits
        try:
            return factor * np.ldexp(ell if knot == 1.0 else ell / knot, shift) ** q / knot**nu, 0
        except FloatingPointError:
            pass
    quot = ell / knot
    ratio = np.ldexp(quot, shift)
    plain = factor * ratio**q / knot**nu
    ok = np.logical_and.reduce([(a >= _TINY) & (a < math.inf) for a in (abs(plain), ratio, quot)])
    (m, e), (mk, ek), (mf, ef) = np.frexp(ell), math.frexp(knot), math.frexp(factor)
    y = q * (e + shift - ek)
    power = np.clip(np.rint(y), -9999, 9999)  # beyond it the value is 0 or inf
    mantissa = mf * (m / mk) ** q * np.exp2(y - power) / mk**nu
    return np.where(ok, plain, mantissa), np.where(ok, 0, power.astype(int) + (ef - nu * ek))


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


def _profile(term: CoefficientTerm, ell, nu: int, shift=0, x=0):
    """2^x d^nu a / d ell^nu (nu = 0 or 1) at the lengths ell * 2^shift; for x=None its np.frexp pair.

    The one place where a curve's size meets a coefficient: `ell` holds
    positive finite lengths (`_lengths`), the integers `shift` and `x` are
    scalars or arrays of its shape, and neither the true length nor the
    true coefficient need be a float.  Callers set np.errstate(over,
    divide, invalid="ignore").
    """
    ell = np.asarray(ell)
    if not isinstance(term, Tabulated):
        v, n = _law(*_end_law(term, "zero"), ell, nu, shift)
    else:
        true = np.ldexp(ell, shift)  # 0 or inf beyond the float range: a tail
        low, high = true < term._knots[0], true > term._knots[-1]
        inside = ~(low | high)
        v, n = np.empty(ell.shape), np.zeros(ell.shape, dtype=np.intc)
        v[inside] = _pchip(term, true[inside], nu)  # no cubic far outside its knots: no overflow
        for mask, end in ((low, "zero"), (high, "infinity")):
            if mask.any():
                at = shift[mask] if np.ndim(shift) else shift
                v[mask], n[mask] = _law(*_end_law(term, end), ell[mask], nu, at)
    if x is None:
        f, e = np.frexp(v)
        return f, e + n
    return np.ldexp(v, n + x)


def _lengths(ell) -> np.ndarray:
    """`ell` as a float array, or ContractError unless every entry is positive and finite."""
    x = np.asarray(ell, dtype=float)
    lo, hi = (float(x.min(initial=math.inf)), float(x.max(initial=0.0))) if x.ndim else (x, x)
    if not (lo > 0.0 and hi < math.inf):  # NaN fails too
        bad = x[~((x > 0) & (x < math.inf))].flat[0]
        raise ContractError(f"curve length must be positive and finite, got {bad}")
    return x


def coefficient_eval(term: CoefficientTerm, ell):
    """The coefficient a(ell) at curve length ell > 0.

    `ell` is a float (returns a float) or an array (returns an array of
    the same shape).  Beyond its end knots a profile is b * (ell / k)**p:
    a power law with k = 1, a constant with p = 0, a tabulated profile
    with its fitted tails.  A zero coefficient evaluates to 0, an
    overflowing one to inf.
    """
    return _at(term, ell, 0)


def coefficient_deriv(term: CoefficientTerm, ell):
    """d a / d ell at ell > 0 (used by the path-energy gradient); float or array."""
    return _at(term, ell, 1)


def _at(term: CoefficientTerm, ell, nu: int):
    with np.errstate(all="ignore"):
        out = _profile(term, _lengths(ell), nu)
    return out if isinstance(ell, np.ndarray) else float(out)


@dataclass(frozen=True)
class MetricConfig:
    """Order n and the coefficient profile for each k in 0..n.

    Absent k means a_k identically zero; k = 0 and k = n must be present
    with positive coefficient so the metric is definite.
    """

    n: int
    terms: dict

    def __post_init__(self):
        _require_int("n", self.n, 2)
        terms = dict(self.terms)
        for k, term in terms.items():
            _require_int("k", k, 0, self.n)
            if not isinstance(term, (PowerLaw, Tabulated)):
                raise ContractError(f"unknown coefficient form for k={k}")
        for k in (0, self.n):
            term = terms.get(k)
            if term is None:
                raise ContractError(f"a_{k} must be present and positive")
            if isinstance(term, PowerLaw) and term.b <= 0:
                raise ContractError(f"a_{k} must be strictly positive")
        # Plain ints, so that a NumPy integer count still writes as JSON.
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "terms", {int(k): term for k, term in terms.items()})


def scale_invariant_profile(n: int, b) -> MetricConfig:
    """Coefficients a_k(ell) = b_k * ell**(2k-3), the scale-invariant choice."""
    _require_int("n", n, 2)
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
    inner = _dot(uh, ug)
    return w * (inner[..., None, :] @ s[..., :, None])[..., 0, 0]


# Most samples per `_form` call where a caller evaluates many curves, so
# that the temporaries stay small enough to be reused rather than mapped afresh.
_BLOCK_POINTS = 8192


def _blocks(count: int, n_points: int, fields: int = 1) -> list:
    """Slices of a stack of `count` items, each slice at most `_BLOCK_POINTS` field samples.

    An item holds `fields` fields of `n_points` samples (2 for a pair h, g).
    """
    step = max(1, _BLOCK_POINTS // (fields * n_points))
    return [slice(i, i + step) for i in range(0, count, step)]


def _form(cfg: MetricConfig, grid, samples, h, g=None, unit: int = 0, dc=None):
    """G = sum_k a_k(ell) * Q_k(h, g) per curve of a (..., N, d) stack.

    `samples` and the fields h and g (default h), which broadcast against
    it, are in units of 2^unit.  A caller holding dc = d samples/dtheta
    passes it (samples may then be None) and spares that stencil.
    `_jet` divides each curve's dc by 2^e, in place, and each field is
    divided by 2^e_h, e_h the exponent of its largest entry (in place: a
    caller passing h alone passes an array of its own), so Q_k comes out as Q_k / 2^x_k, x_k = e_h + e_g + (1 - 2k) e + (3 - 2k)
    unit, and the terms a_k(ell) 2^x_k (`_profile`) times it are summed in
    true units: bit for bit plain arithmetic wherever that stays normal.
    Returns G and the pieces (s, lengths, u, q, coeffs, e, e_h, x, dc / 2^e)
    by k where keyed.  Raises NumericalError if a G is not finite.
    """
    fields = h if g is None else np.stack([h, g])
    eh = np.frexp(np.abs(fields).max(axis=(-2, -1)))[1]
    # Overflow or 0 * inf shows as a non-finite value, reported below.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        dc = derivative(samples, grid, axis=-2) if dc is None else dc
        np.ldexp(fields, -eh[..., None, None], out=fields)
        e, s, lengths, u = _jet(grid, dc, fields, cfg.n)
        uh, ug = (u, u) if g is None else ([uk[0] for uk in u], [uk[1] for uk in u])
        shift = e + unit  # the exponent of each curve's true unit
        eh_sum = 2 * eh if g is None else eh[0] + eh[1]
        x = {k: eh_sum + 2 * unit + (1 - 2 * k) * shift for k in cfg.terms}
        q = {k: _q_form(grid.spacing, uh[k], ug[k], s) for k in cfg.terms}
        coeffs = {k: _profile(term, lengths, 0, shift, x[k]) for k, term in cfg.terms.items()}
        values = sum(coeffs[k] * q[k] for k in cfg.terms)
    if not np.isfinite(values).all():
        i = np.argmin(np.isfinite(values))  # the first curve whose value is not finite
        ell = f"{np.ravel(lengths)[i]!r} * 2**{np.ravel(shift)[i]}"
        raise NumericalError(f"metric value is not finite at curve length {ell}: {np.ravel(values)[i]}")
    return values, (s, lengths, u, q, coeffs, e, eh, x, dc)


def _form_blocks(cfg: MetricConfig, grid, samples, h, g=None) -> np.ndarray:
    """`_form`'s G per item of (B, N, d) stacks, evaluated `_blocks` at a time.

    Bit for bit B single-curve calls; rescales h in place, as `_form` does, when g is None.
    """
    return np.concatenate([
        _form(cfg, grid, samples[b], h[b], None if g is None else g[b])[0]
        for b in _blocks(len(samples), grid.n_points, 1 if g is None else 2)
    ])


def eval_metric(
    cfg: MetricConfig, c: DiscreteCurve, h: TangentField, g: TangentField
) -> float:
    """The bilinear form G_c(h, g) = sum_k a_k(ell) Q_k(h, g).

    Raises NumericalError if the value itself is not a finite float.
    """
    if c.grid != h.grid or c.grid != g.grid:
        raise ContractError("curve and tangent fields live on different grids")
    return float(_form(cfg, c.grid, c.samples, h.values, g.values)[0])


def config_to_dict(cfg: MetricConfig) -> dict:
    terms = []
    for k, term in sorted(cfg.terms.items()):
        if isinstance(term, Constant):
            entry = {"form": "const", "b": term.b}
        elif isinstance(term, PowerLaw):
            entry = {"form": "power", "b": term.b, "p": term.p}
        else:
            entry = {"form": "table", "knots": list(term.knots), "values": list(term.values)}
        terms.append({"k": k, **entry})
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
