"""Divergence conditions on coefficient profiles.

For each order k the improper integrals

    I_0k  = integral_0^1   r^(1/2-k) sqrt(a_k(r)) dr
    Iinfk = integral_1^inf r^(1/2-k) sqrt(a_k(r)) dr

decide whether curves can shrink to a point or blow up along finite
paths.  Divergence of some I with 1 <= k <= n at both ends is sufficient
for completeness; divergence of some I with 0 <= k <= n is necessary.
Whether an end diverges depends only on the profile's end law
b (r / knot)^p, which metric._end_law gives: power laws and constants
are that law everywhere and are classified symbolically; a tabulated
profile is its fitted tail law beyond each end knot, so each end is
classified by the same rule, and a convergent end's value adds the
closed-form tail integral and a quadrature between the knot and r = 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, NumericalError
from .metric import MetricConfig, PowerLaw, Tabulated, _end_law, _lengths, _profile, coefficient_eval

DIVERGENT = "divergent"
CONVERGENT = "convergent"
INCONCLUSIVE = "inconclusive"

# |e + 1| at most this is the critical 1/r end.  Tabulated tail exponents
# are least-squares fits: on 2000 random exact power-law tables (knots
# spanning 10^0.1 to 10^3, |p| <= 10) e was off by at most 2.7e-13.
CRITICAL_TOL = 1e-12
# Gauss-Legendre nodes per piece of a log_quad integral.
GL_POINTS = 32


def _split(r):
    """r = m 4^K as (m, 2K), m in [0.5, 2): a square root halves 4^K exactly."""
    m, e = np.frexp(r)
    return np.ldexp(m, e % 2), e - e % 2


def integrand(term, k: int, r):
    """r^(1/2-k) * sqrt(a_k(r)); r > 0 is a float or an array.

    Plain arithmetic unless a step over- or underflows.  Then, with r = m
    4^K and a_k(r) = f 2^E (np.frexp), it is m^(1/2-k) sqrt(f 2^(E mod 2))
    2^((1-2k) K + E // 2): no intermediate leaves the float range unless
    the value does.
    """
    r = _lengths(r)  # raises ContractError unless r > 0
    with np.errstate(over="raise", under="raise"):
        try:
            return r ** (0.5 - k) * np.sqrt(_profile(term, r, 0))
        except FloatingPointError:
            pass
    m, two_k = _split(r)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        f, e = _profile(term, m, 0, two_k, None)
    return np.ldexp(m ** (0.5 - k) * np.sqrt(np.ldexp(f, e % 2)), (1 - 2 * k) * two_k // 2 + e // 2)


@functools.cache
def _gauss_legendre():
    # Built on first use: numpy.polynomial is not loaded by `import numpy`.
    from numpy.polynomial.legendre import leggauss

    return leggauss(GL_POINTS)


def log_quad(f, edges):
    """Integrate f(r) dr over each piece [edges[i], edges[i+1]] of 0 < edges ascending.

    Gauss-Legendre in x = ln r, where a power law r^e becomes the smooth
    exp((e+1)x), so one decade needs no adaptivity.  f is called once, on
    an array of every node, under np.errstate(over="raise",
    invalid="raise"); a value that is not finite raises FloatingPointError
    too.  Each piece is integrated whole and as two halves; returns (the
    halves' sums, |halves - whole|) as arrays, one entry per piece, the
    second an error estimate.
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
    r = np.exp(nodes)
    with np.errstate(over="raise", invalid="raise"):
        g = f(r) * r  # dr = r dx
    if not np.isfinite(g).all():
        raise FloatingPointError("integrand is not finite")
    n = x.size
    whole = half[:, 0] * (g[:, :n] @ w)
    halves = quarter[:, 0] * (g[:, n : 2 * n] @ w + g[:, 2 * n :] @ w)
    return halves, np.abs(halves - whole)


def _edges(lo: float, hi: float, breaks=()) -> np.ndarray:
    """lo, hi and every power of ten and break point strictly between them, ascending."""
    decades = 10.0 ** np.arange(math.floor(math.log10(lo)), math.ceil(math.log10(hi)) + 1)
    inner = np.concatenate([decades, np.asarray(breaks, dtype=float)])
    return np.unique(np.concatenate([[lo], inner[(inner > lo) & (inner < hi)], [hi]]))


def _breaks(term) -> tuple:
    """Where a profile is not smooth: a Tabulated profile's knots."""
    return term.knots if isinstance(term, Tabulated) else ()


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
    """Symbolic verdicts for a_k = b * r**p at both ends.

    The integrand is b^(1/2) * r^(1/2-k+p/2), so I_0 diverges iff
    p <= 2k-3 and I_inf diverges iff p >= 2k-3; at the critical exponent
    p = 2k-3 the integrand is 1/r and both ends diverge.
    """
    if b == 0.0:
        zero = IntegralVerdict(CONVERGENT, "analytic_power_law", value=0.0)
        return {"I0": zero, "Iinf": zero}
    e = 0.5 - k + p / 2.0

    def verdict(diverges: bool, sign: float) -> IntegralVerdict:
        if diverges:
            return IntegralVerdict(DIVERGENT, "analytic_power_law", value=math.inf)
        return IntegralVerdict(CONVERGENT, "analytic_power_law", value=sign * math.sqrt(b) / (e + 1.0))

    return {"I0": verdict(e <= -1.0, 1.0), "Iinf": verdict(e >= -1.0, -1.0)}


def numeric_integral_evidence(term, k: int, end: str) -> IntegralVerdict:
    """Classify one end of the improper integral by the profile's end law.

    Beyond its end knot the profile is the power law b (ell / knot)^p, so
    the integrand is a multiple of r^e with e = 1/2 - k + p/2, and the
    end diverges by the rule of classify_power_law.  A convergent end's
    value is the tail integral in closed form plus one log_quad over the
    stretch between the knot and r = 1, whose error estimate is
    evidence["quadrature_error"].
    """
    if end not in ("zero", "infinity"):
        raise ContractError(f"end must be 'zero' or 'infinity', got {end!r}")
    knot, law = _end_law(term, end)
    if law.b == 0.0:
        return IntegralVerdict(CONVERGENT, "numeric_evidence", value=0.0)
    e = 0.5 - k + law.p / 2.0
    evidence = {"end_exponent": e, "end_knot": knot}
    if abs(e + 1.0) <= CRITICAL_TOL or (e + 1.0 < 0.0) == (end == "zero"):
        return IntegralVerdict(DIVERGENT, "numeric_evidence", value=math.inf, evidence=evidence)
    c = min(knot, 1.0) if end == "zero" else max(knot, 1.0)
    try:
        # Over (0, c] or [c, inf) the integrand is f(c) (r / c)^e.
        with np.errstate(over="raise"):
            value = c ** (1.5 - k) * math.sqrt(coefficient_eval(law, c / knot)) / abs(e + 1.0)
        error = 0.0
        if c != 1.0:  # the stretch between the end knot and r = 1
            edges = _edges(min(c, 1.0), max(c, 1.0), _breaks(term))
            pieces, errors = log_quad(lambda r: integrand(term, k, r), edges)
            value += float(pieces.sum())
            error = float(errors.sum())
        if not math.isfinite(value):
            raise OverflowError(f"integral overflows: {value}")
    except ArithmeticError as exc:  # overflow
        return IntegralVerdict(INCONCLUSIVE, "numeric_evidence", evidence={"error": str(exc)})
    evidence["quadrature_error"] = error
    return IntegralVerdict(CONVERGENT, "numeric_evidence", value=value, evidence=evidence)


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
        if not isinstance(term, Tabulated):
            _, law = _end_law(term, "zero")
            both = classify_power_law(k, law.p, law.b)
            verdicts_zero[k], verdicts_inf[k] = both["I0"], both["Iinf"]
        else:
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
    total = 0.0
    for k in range(1, cfg.n + 1):
        term = cfg.terms.get(k)
        if term is None:
            continue
        try:
            pieces, _ = log_quad(lambda rho: integrand(term, k, rho), _edges(lo, hi, _breaks(term)))
        except FloatingPointError as exc:
            raise NumericalError(f"W quadrature failed on [{lo}, {hi}]: {exc}") from exc
        total += float(pieces.sum())
    return total if r > 1.0 else -total
