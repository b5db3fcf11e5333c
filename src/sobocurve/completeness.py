"""Divergence conditions on coefficient profiles.

For each order k the improper integrals

    I_0k  = integral_0^1   r^(1/2-k) sqrt(a_k(r)) dr
    Iinfk = integral_1^inf r^(1/2-k) sqrt(a_k(r)) dr

decide whether curves can shrink to a point or blow up along finite
paths.  Divergence of some I with 1 <= k <= n at both ends is sufficient
for completeness; divergence of some I with 0 <= k <= n is necessary.
Whether an end diverges depends only on the profile's end law
b (r / knot)^p, which metric._end_law gives, and one function,
numeric_integral_evidence, decides every end by it (analyze and
classify_power_law call it): a power law, a constant being the one with
p = 0, is that law everywhere with knot 1 and an exact exponent; a
tabulated profile is its fitted tail law beyond each end knot, and a
convergent end's value adds the closed-form tail integral and a
quadrature between the knot and r = 1.

These integrals, W and the length of the scaling path r*c
(paths.radial_path_length) all integrate one speed per unit of ln r,
_radial_speed; each fails only where that speed at a quadrature node,
or the integral itself, is not a float.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, NumericalError, _require_int
from .metric import MetricConfig, PowerLaw, Tabulated, _end_law, _profile

DIVERGENT = "divergent"
CONVERGENT = "convergent"
INCONCLUSIVE = "inconclusive"

# |e + 1| at most this is the critical 1/r end.  Tabulated tail exponents
# are least-squares fits: on 2000 random exact power-law tables (knots
# spanning 10^0.1 to 10^3, |p| <= 10) e was off by at most 2.7e-13.
CRITICAL_TOL = 1e-12
# Gauss-Legendre nodes per piece of a log_quad integral.
GL_POINTS = 32


def _radial_speed(r, terms, e: int = 0, ell: float = 1.0):
    """g(r) = sqrt(sum a_k(r ell 2^e) r^(3-2k) M_k 2^x_k) over terms (k, a_k, M_k, x_k).

    r > 0 is a NumPy float or array.  g is the speed per unit of ln r of
    the scaling path r*c, for a curve c of length ell 2^e and moments
    M_k 2^x_k; for one term with ell = M_k = 1 it is r times the integrand
    r^(1/2-k) sqrt(a_k(r)) of I_0k, I_infk and W.  Plain arithmetic unless a step over- or underflows.  Then, with
    r = m 2^E and each a_k as its np.frexp pair, the terms are summed in
    units of the even exponent of the largest, which the square root
    halves exactly: g is inf or 0 only where it is itself not a float.
    """
    with np.errstate(over="raise", under="raise"):
        try:
            return np.sqrt(sum(_profile(a, r * ell, 0, e, x) * r ** (3 - 2 * k) * mk
                               for k, a, mk, x in terms))
        except FloatingPointError:
            pass
    m, er = np.frexp(r)
    parts = []
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for k, a, mk, x in terms:
            f, n = _profile(a, m * ell, 0, er + e, None)
            parts.append((f * m ** (3 - 2 * k) * mk, n + x + (3 - 2 * k) * er))
        top = np.max([np.where(v == 0, -(2**30), n + np.frexp(v)[1]) for v, n in parts], axis=0)
        top -= top % 2
        return np.ldexp(np.sqrt(sum(np.ldexp(v, n - top) for v, n in parts)), top // 2)


@functools.cache
def _gauss_legendre():
    # Built on first use: numpy.polynomial is not loaded by `import numpy`.
    from numpy.polynomial.legendre import leggauss

    return leggauss(GL_POINTS)


def log_quad(f, edges):
    """Integrate f(r) d(ln r) over each piece [edges[i], edges[i+1]] of 0 < edges ascending.

    Gauss-Legendre in x = ln r, where a power law r^e becomes the smooth
    exp(e x), so one decade needs no adaptivity.  f is called once, on an
    array of every node, under np.errstate(over="raise", invalid="raise");
    a value that is not finite raises FloatingPointError too.  Each piece
    is integrated whole and as two halves; returns (the halves' sums,
    |halves - whole|) as arrays, one entry per piece, the second an error
    estimate.
    """
    x, w = _gauss_legendre()
    t = np.log(np.asarray(edges, dtype=float))
    a, b = t[:-1, None], t[1:, None]
    half = 0.5 * (b - a)
    mid = a + half
    quarter = 0.5 * half
    nodes = np.concatenate(
        [mid + half * x, a + quarter * (1.0 + x), mid + quarter * (1.0 + x)], axis=1
    )
    with np.errstate(over="raise", invalid="raise"):
        g = f(np.exp(nodes))
    if not np.isfinite(g).all():
        raise FloatingPointError("integrand is not finite")
    n = x.size
    whole = half[:, 0] * (g[:, :n] @ w)
    halves = quarter[:, 0] * (g[:, n : 2 * n] @ w + g[:, 2 * n :] @ w)
    return halves, np.abs(halves - whole)


def _radial_integral(terms, lo: float, hi: float, e: int = 0, ell: float = 1.0) -> tuple:
    """(value, error estimate) of integral_lo^hi _radial_speed d(ln r), as floats.

    One log_quad over pieces split at every power of ten and at every r
    where r ell 2^e is the knot of a tabulated a_k.
    """
    size = np.ldexp(ell, e)
    knots = [np.asarray(a.knots) / size for _, a, _, _ in terms if isinstance(a, Tabulated)]
    top = min(math.ceil(math.log10(hi)), 308)  # 1e309 is not a float
    decades = 10.0 ** np.arange(math.floor(math.log10(lo)), top + 1)
    inner = np.concatenate([decades, *knots])
    edges = np.unique(np.concatenate([[lo], inner[(inner > lo) & (inner < hi)], [hi]]))
    pieces, errors = log_quad(lambda r: _radial_speed(r, terms, e, ell), edges)
    return float(pieces.sum()), float(errors.sum())


@dataclass(frozen=True)
class IntegralVerdict:
    verdict: str
    method: str  # "analytic_power_law" | "numeric_evidence"
    value: float | None = None  # finite value when convergent, inf when divergent
    evidence: dict | None = None

    def to_dict(self) -> dict:
        out = {"verdict": self.verdict, "method": self.method}
        if self.value is not None:
            out["value"] = self.value if math.isfinite(self.value) else "inf"
        if self.evidence is not None:
            out["evidence"] = self.evidence
        return out


def classify_power_law(k: int, p: float, b: float = 1.0) -> dict:
    """Verdicts for a_k = b * r**p at both ends: numeric_integral_evidence of PowerLaw(b, p).

    The integrand is b^(1/2) * r^(1/2-k+p/2), so I_0 diverges iff
    p <= 2k-3 and I_inf diverges iff p >= 2k-3; at the critical exponent
    p = 2k-3 the integrand is 1/r and both ends diverge.
    """
    law = PowerLaw(b, p)
    return {"I0": numeric_integral_evidence(law, k, "zero"),
            "Iinf": numeric_integral_evidence(law, k, "infinity")}


def numeric_integral_evidence(term, k: int, end: str) -> IntegralVerdict:
    """Classify one end of the improper integral by the profile's end law.

    The one divergence rule.  Beyond its end knot every profile is the
    power law b (ell / knot)^p (metric._end_law), so the integrand is a
    multiple of r^e with e = 1/2 - k + p/2: the end diverges iff e <= -1
    at zero and iff e >= -1 at infinity.  A convergent end's value is the
    tail integral in closed form plus, for a knot other than 1, one
    log_quad over the stretch between the knot and r = 1.  A power law
    (a constant included) has its exponent exactly and gets method
    "analytic_power_law"; a tabulated tail's exponent is fitted, so
    |e + 1| <= CRITICAL_TOL counts as critical, the method is
    "numeric_evidence" and `evidence` holds the end exponent, the knot
    and, when convergent, the quadrature error.
    """
    _require_int("k", k, 0)
    if end not in ("zero", "infinity"):
        raise ContractError(f"end must be 'zero' or 'infinity', got {end!r}")
    knot, law = _end_law(term, end)
    fitted = isinstance(term, Tabulated)
    method = "numeric_evidence" if fitted else "analytic_power_law"
    if law.b == 0.0:
        return IntegralVerdict(CONVERGENT, method, value=0.0)
    e = 0.5 - k + law.p / 2.0
    evidence = {"end_exponent": e, "end_knot": knot} if fitted else None
    if abs(e + 1.0) <= (CRITICAL_TOL if fitted else 0.0) or (e + 1.0 < 0.0) == (end == "zero"):
        return IntegralVerdict(DIVERGENT, method, value=math.inf, evidence=evidence)
    c = min(knot, 1.0) if end == "zero" else max(knot, 1.0)
    terms = [(k, term, 1.0, 0)]
    # Over (0, c] or [c, inf) the integrand is (g(c) / c) (r / c)^e, g = _radial_speed.
    value, error = float(_radial_speed(np.float64(c), terms)) / abs(e + 1.0), 0.0
    try:
        if c != 1.0:  # the stretch between the end knot and r = 1
            stretch, error = _radial_integral(terms, min(c, 1.0), max(c, 1.0))
            value += stretch
        if not math.isfinite(value):
            raise OverflowError(f"integral overflows: {value}")
    except ArithmeticError as exc:  # overflow
        return IntegralVerdict(INCONCLUSIVE, method, evidence={"error": str(exc)})
    if fitted:
        evidence["quadrature_error"] = error
    return IntegralVerdict(CONVERGENT, method, value=value, evidence=evidence)


SUFFICIENT = "sufficient_conditions_hold"
NECESSARY_FAIL = "necessary_fail"
GAP = "gap"


@dataclass(frozen=True)
class CompletenessReport:
    n: int
    verdicts_zero: dict = field(default_factory=dict)  # k -> IntegralVerdict
    verdicts_inf: dict = field(default_factory=dict)
    condition_I0: bool | None = None
    condition_Iinf: bool | None = None
    necessary_I0_any_k: bool | None = None
    necessary_Iinf_any_k: bool | None = None
    classification: str = INCONCLUSIVE

    def to_dict(self) -> dict:
        rows = []
        for k in range(self.n + 1):
            rows.append({"k": k, "end": "zero", **self.verdicts_zero[k].to_dict()})
            rows.append({"k": k, "end": "infinity", **self.verdicts_inf[k].to_dict()})
        return {
            "n": self.n,
            "per_k": rows,
            "condition_I0": self.condition_I0,
            "condition_Iinf": self.condition_Iinf,
            "necessary_I0_any_k": self.necessary_I0_any_k,
            "necessary_Iinf_any_k": self.necessary_Iinf_any_k,
            "classification": self.classification,
        }


def _any_divergent(verdicts: dict, ks) -> bool | None:
    """True if some k diverges, False if all converge, None if blocked."""
    found = {verdicts[k].verdict for k in ks}
    return True if DIVERGENT in found else None if INCONCLUSIVE in found else False


def analyze(cfg: MetricConfig) -> CompletenessReport:
    """Classify a metric configuration against the divergence conditions."""
    verdicts_zero, verdicts_inf = {}, {}
    for k in range(cfg.n + 1):
        term = cfg.terms.get(k, PowerLaw(0.0, 0.0))  # an absent term is a_k = 0
        verdicts_zero[k] = numeric_integral_evidence(term, k, "zero")
        verdicts_inf[k] = numeric_integral_evidence(term, k, "infinity")

    higher = range(1, cfg.n + 1)
    all_k = range(0, cfg.n + 1)
    cond0 = _any_divergent(verdicts_zero, higher)
    condinf = _any_divergent(verdicts_inf, higher)
    nec0 = _any_divergent(verdicts_zero, all_k)
    necinf = _any_divergent(verdicts_inf, all_k)

    if cond0 and condinf:
        classification = SUFFICIENT
    elif nec0 is False or necinf is False:
        classification = NECESSARY_FAIL
    elif None in (cond0, condinf, nec0, necinf):
        classification = INCONCLUSIVE
    else:
        classification = GAP
    return CompletenessReport(
        cfg.n, verdicts_zero, verdicts_inf, cond0, condinf, nec0, necinf, classification
    )


def w_eval(cfg: MetricConfig, r: float) -> float:
    """W(r) = sum_{k=1}^n integral_1^r rho^(1/2-k) sqrt(a_k(rho)) drho.

    Strictly increasing with W(1) = 0; diverges at both ends exactly when
    the sufficient conditions hold.  Raises NumericalError if a quadrature
    over- or underflows.
    """
    if not (math.isfinite(r) and r > 0):
        raise ContractError(f"W argument must be positive and finite, got {r}")
    if r == 1.0:
        return 0.0
    lo, hi = sorted((1.0, r))
    try:
        total = sum(_radial_integral([(k, term, 1.0, 0)], lo, hi)[0]
                    for k, term in sorted(cfg.terms.items()) if k >= 1)
    except FloatingPointError as exc:
        raise NumericalError(f"W quadrature failed on [{lo}, {hi}]: {exc}") from exc
    return total if r > 1.0 else -total
