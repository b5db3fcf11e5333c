"""Incompleteness counterexample: bumpy-circle sequences with summable gaps.

Two geometric sequences r_n = lambda_n^alpha, lambda_n = b^n * lambda0
drive curves c_n = r_n (1 + eps sin(lambda_n theta)) (cos theta, sin theta)
under the two-term metric a_0 = ell^-3, a_2 = ell^p.  With alpha chosen
past the case threshold the two-leg linear-path distances are summable
while the lengths run to infinity (grow, p < 1) or zero (shrink, p > 1).

Radii reach lambda^(+-10..12), so every metric evaluation here runs on
O(1) shape coordinates, with the scale of |c'|, ds and D_s^k taken out
as per-term factors r^(p_k + 3 - 2k), inf where they overflow.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .curves import DiscreteCurve, Grid, _arc_jet, curve_length, derivative, make_bumpy_circle
from .errors import ContractError, NumericalError
from .metric import MetricConfig, PowerLaw, _form

GROW = "grow"
SHRINK = "shrink"

# Desk-scale caps: geometric growth of lambda_n makes n_max = 3..4 the
# feasible and sufficient range.
MAX_LAMBDA = 48
MAX_N = 2048
MAX_T = 64


def counterexample_metric(p: float) -> MetricConfig:
    """The two-term second-order metric a_0 = ell^-3, a_2 = ell^p."""
    return MetricConfig(n=2, terms={0: PowerLaw(1.0, -3.0), 2: PowerLaw(1.0, p)})


def _next_pow2(x: int) -> int:
    n = 16
    while n < x:
        n *= 2
    return n


@dataclass(frozen=True)
class CounterexampleParams:
    case: str
    p: float
    alpha: float
    eps: float = 0.25
    lambda0: int = 3
    b: int = 2
    n_max: int = 3

    def __post_init__(self):
        if self.case not in (GROW, SHRINK):
            raise ContractError(f"case must be '{GROW}' or '{SHRINK}', got {self.case!r}")
        for name, value in (("p", self.p), ("alpha", self.alpha)):
            if not math.isfinite(value):
                raise ContractError(f"{name} must be finite, got {value}")
        if not (0.0 < self.eps < 1.0 / 3.0):
            raise ContractError(f"eps must lie in (0, 1/3), got {self.eps}")
        if self.lambda0 <= 2 or self.b <= 1:
            raise ContractError("need integer lambda0 > 2 and b > 1")
        if self.n_max < 1:
            raise ContractError("n_max must be >= 1")
        if self.case == GROW:
            if not self.p < 1.0:
                raise ContractError(f"grow case needs p < 1, got p={self.p}")
            threshold = (self.p + 9.0) / (1.0 - self.p)
            if not self.alpha > threshold:
                raise ContractError(
                    f"alpha below grow-case threshold: need alpha > {threshold}, got {self.alpha}"
                )
        else:
            if not self.p > 1.0:
                raise ContractError(f"shrink case needs p > 1, got p={self.p}")
            threshold = -(self.p + 9.0) / (self.p - 1.0)
            if not self.alpha < threshold:
                raise ContractError(
                    f"alpha above shrink-case threshold: need alpha < {threshold}, got {self.alpha}"
                )
        if self.beta >= 0:
            raise ContractError(f"summability exponent beta must be negative, got {self.beta}")
        if self.lambda_n(self.n_max) > MAX_LAMBDA:
            raise ContractError(
                f"lambda_{self.n_max} = {self.lambda_n(self.n_max)} exceeds desk cap {MAX_LAMBDA}"
            )
        for n in range(self.n_max + 1):
            try:
                r = self.radius_n(n)
            except OverflowError:
                r = math.inf
            if not sys.float_info.min <= r < math.inf:
                raise ContractError(
                    f"alpha={self.alpha} puts r_{n} = {self.lambda_n(n)}^alpha outside "
                    "the normal float range"
                )

    @property
    def beta(self) -> float:
        return self.alpha * (self.p - 1.0) + self.p + 9.0

    def lambda_n(self, n: int) -> int:
        return self.lambda0 * self.b**n

    def radius_n(self, n: int) -> float:
        return float(self.lambda_n(n)) ** self.alpha

    def grid(self) -> Grid:
        return Grid(min(_next_pow2(32 * self.lambda_n(self.n_max)), MAX_N))


@dataclass(frozen=True)
class ScaledCurve:
    """A curve stored as scale * shape to keep coordinates O(1)."""

    scale: float
    shape: DiscreteCurve

    @property
    def length(self) -> float:
        return self.scale * curve_length(self.shape)


@dataclass(frozen=True)
class CounterexampleSequence:
    params: CounterexampleParams
    curves: tuple  # c_0 .. c_{n_max}
    intermediates: tuple  # ctilde_0 .. ctilde_{n_max - 1}


def build_sequence(params: CounterexampleParams) -> CounterexampleSequence:
    grid = params.grid()
    curves = []
    intermediates = []
    for n in range(params.n_max + 1):
        shape = make_bumpy_circle(1.0, params.eps, params.lambda_n(n), grid)
        curves.append(ScaledCurve(params.radius_n(n), shape))
        if n < params.n_max:
            # Same bump frequency, next radius.
            intermediates.append(ScaledCurve(params.radius_n(n + 1), shape))
    return CounterexampleSequence(params, tuple(curves), tuple(intermediates))


def scaled_leg_length(
    cfg: MetricConfig, r_base: float, shape0: np.ndarray, shape1: np.ndarray,
    grid: Grid, T: int,
) -> float:
    """Length of the linear path between r_base*shape0 and r_base*shape1.

    All coefficient profiles must be power laws; each term contributes
    b_k * r_base^(p_k + 3 - 2k) * ell_shape^p_k * Q_k with the overall
    scale handled in closed form (the kernel's per-term `scale`), so huge
    or tiny radii never enter the grid arithmetic.
    """
    if not all(isinstance(term, PowerLaw) for term in cfg.terms.values()):
        raise ContractError("scaled evaluation needs power-law coefficients")
    if not 0 < r_base < math.inf:
        raise ContractError(f"base scale must be positive and finite, got {r_base}")
    log_r = math.log(r_base)
    scale = {}
    for k, term in cfg.terms.items():  # r_base^(p_k + 3 - 2k), inf where it overflows
        try:
            scale[k] = math.exp((term.p + 3.0 - 2.0 * k) * log_r)
        except OverflowError:  # a zero term stays zero
            scale[k] = math.inf if term.b else 0.0
    dt = 1.0 / T
    t_mid = ((np.arange(T) + 0.5) * dt)[:, None, None]
    gamma = (1.0 - t_mid) * shape0 + t_mid * shape1
    try:
        # d(curve)/dt in r_base units, the same on every slice.
        values, _ = _form(cfg, grid, gamma, shape1 - shape0, scale=scale)
    except NumericalError as exc:
        raise NumericalError(f"leg length is not finite at base scale {r_base}: {exc}") from exc
    return dt * float(np.sum(np.sqrt(values)))


def _leg_lengths(cfg: MetricConfig, seq: CounterexampleSequence, n: int, T: int):
    grid = seq.curves[0].shape.grid
    c_n, ctilde, c_next = seq.curves[n], seq.intermediates[n], seq.curves[n + 1]
    # Leg 1 is radial: shapes r_n*u -> r_{n+1}*u, expressed in units of r_n.
    a = c_next.scale / c_n.scale
    d1 = scaled_leg_length(
        cfg, c_n.scale, c_n.shape.samples, a * c_n.shape.samples, grid, T
    )
    # Leg 2 swaps the bump frequency at fixed radius r_{n+1}.
    d2 = scaled_leg_length(
        cfg, ctilde.scale, ctilde.shape.samples, c_next.shape.samples, grid, T
    )
    return d1, d2


@dataclass(frozen=True)
class SequenceReport:
    params: CounterexampleParams
    entries: tuple  # one dict per n
    window: tuple  # length-ratio window fitted at n = 0
    checks: dict  # named boolean verdicts

    @property
    def ok(self) -> bool:
        return all(self.checks.values())

    def to_dict(self) -> dict:
        return {
            "case": self.params.case,
            "p": self.params.p,
            "alpha": self.params.alpha,
            "beta": self.params.beta,
            "window": list(self.window),
            "entries": list(self.entries),
            "checks": dict(self.checks),
        }

    def csv_rows(self) -> list:
        rows = [["n", "lambda_n", "ell_n", "dist_upper_n", "bound_n"]]
        for e in self.entries:
            rows.append(
                [
                    e["n"],
                    e["lambda"],
                    repr(e["ell"]),
                    repr(e["dist_upper"]) if e["dist_upper"] is not None else "",
                    repr(e["bound"]) if e["bound"] is not None else "",
                ]
            )
        return rows


# Length-ratio window half-width fitted on the n = 0 curve; the ratio
# ell/(r*lambda) drifts from ~2.4 at lambda = 3 toward ~4*eps + O(1/lambda),
# which stays well inside a factor 3.
WINDOW_FACTOR = 3.0


def verify_sequence(
    params: CounterexampleParams, seq: CounterexampleSequence, T: int = 64
) -> SequenceReport:
    """Quantitative checks of the incompleteness construction at desk scale."""
    if not isinstance(T, (int, np.integer)) or not 1 <= T <= MAX_T:
        raise ContractError(f"T must be an integer in [1, {MAX_T}], got {T}")
    if seq.params != params:
        raise ContractError("sequence was built with different parameters")
    beta = params.beta
    cfg = counterexample_metric(params.p)
    entries = []
    partial = 0.0
    for n in range(params.n_max + 1):
        lam = params.lambda_n(n)
        ell = seq.curves[n].length
        entry = {
            "n": n,
            "lambda": lam,
            "r": params.radius_n(n),
            "ell": ell,
            "ratio": ell / (params.radius_n(n) * lam),
            "dist_upper": None,
            "bound": None,
            "fitted_constant": None,
            "partial_sum": None,
        }
        if n < params.n_max:
            d1, d2 = _leg_lengths(cfg, seq, n, T)
            dist_upper = d1 + d2
            partial += dist_upper
            bound = lam**-1.0 + lam ** (beta / 2.0)
            entry.update(
                dist_leg1=d1,
                dist_leg2=d2,
                dist_upper=dist_upper,
                bound=bound,
                fitted_constant=dist_upper / bound,
                partial_sum=partial,
            )
        entries.append(entry)

    ratio0 = entries[0]["ratio"]
    window = (ratio0 / WINDOW_FACTOR, ratio0 * WINDOW_FACTOR)
    in_window = all(window[0] <= e["ratio"] <= window[1] for e in entries)

    constants = [e["fitted_constant"] for e in entries if e["fitted_constant"]]
    stable = max(constants) / min(constants) <= 3.0

    lengths = [e["ell"] for e in entries]
    factor = float(params.b) ** (1.0 + params.alpha)
    if params.case == GROW:
        trend = all(
            lengths[i + 1] >= lengths[i] * factor / 2.0 for i in range(len(lengths) - 1)
        )
    else:
        trend = all(
            lengths[i + 1] <= lengths[i] * factor * 2.0 for i in range(len(lengths) - 1)
        ) and factor * 2.0 < 1.0

    dists = [e["dist_upper"] for e in entries if e["dist_upper"] is not None]
    cauchy = all(dists[i + 1] < dists[i] for i in range(1, len(dists) - 1))
    # The first increment may sit above the asymptotic regime; from n = 1
    # on the increments must fall monotonically.
    if len(dists) >= 2:
        cauchy = cauchy and dists[-1] < dists[0]

    checks = {
        "length_ratio_in_window": in_window,
        "distance_constant_stable": stable,
        "length_trend": trend,
        "cauchy_increments": cauchy,
    }
    return SequenceReport(params=params, entries=tuple(entries), window=window, checks=checks)


_INTERIOR_T = np.arange(1, 6) / 6.0


def pointwise_bounds_check(seq: CounterexampleSequence) -> dict:
    """Verify the displayed pointwise estimates on the grid for every n.

    Absolute inequalities get a small finite-difference tolerance; the
    D_s^2 velocity estimate uses a single constant fitted at n = 0 and
    later n may not exceed it by more than a factor 3.
    """
    params = seq.params
    grid = seq.curves[0].shape.grid
    eps = params.eps
    fd_tol = 1.0 + 1e-3
    checks = []

    ds2_ratios = []
    for n in range(params.n_max + 1):
        lam = params.lambda_n(n)
        u = seq.curves[n].shape
        du = derivative(u.samples, grid)
        for name, values, bound in (
            ("position", u.samples, 1 + eps),
            ("velocity", du, 2 + lam),
            ("acceleration", derivative(du, grid), 2 + 2 * lam + lam * lam),
        ):
            ok = np.max(np.linalg.norm(values, axis=1)) <= bound * fd_tol
            checks.append({"name": f"{name}_bound_n{n}", "ok": bool(ok)})
        if n == params.n_max:
            continue

        # Leg 1 (radial, r_n units): |gamma'| >= (1-eps) * min(1, a).
        a = seq.curves[n + 1].scale / seq.curves[n].scale
        min_speed, ds2_max = _leg_bounds(u.samples, a * u.samples, grid)
        scale_t = (1.0 - _INTERIOR_T) + _INTERIOR_T * a
        ok1 = np.all(min_speed >= (1.0 - eps) * scale_t / fd_tol)
        checks.append({"name": f"leg1_speed_lower_n{n}", "ok": bool(ok1)})
        # true D_s^2(dc/dt) = ds2 / r_n; normalize by r_n^-1 lambda_n^4.
        ds2_ratios.append(ds2_max / lam**4)

        # Leg 2 (bump swap, r_{n+1} units): |gamma'| >= (1-2 eps).
        min_speed, ds2_max = _leg_bounds(
            seq.intermediates[n].shape.samples, seq.curves[n + 1].shape.samples, grid
        )
        ok2 = np.all(min_speed >= (1.0 - 2.0 * eps) / fd_tol)
        checks.append({"name": f"leg2_speed_lower_n{n}", "ok": bool(ok2)})
        # true value = ds2 / r_{n+1}; normalized constant vs r_n^-1 lambda_n^4:
        r_ratio = seq.curves[n].scale / seq.curves[n + 1].scale
        ds2_ratios[-1] = max(ds2_ratios[-1], ds2_max * r_ratio / lam**4)

    base = ds2_ratios[0]
    # One-sided: the lambda^4 estimate is an upper bound and is not yet
    # saturated at desk-scale lambda, so later constants may only shrink.
    for n, ratio in enumerate(ds2_ratios):
        checks.append(
            {
                "name": f"ds2_velocity_bound_n{n}",
                "ok": bool(ratio <= base * 3.0),
                "ratio": ratio,
            }
        )
    return {"checks": checks, "all_ok": all(c["ok"] for c in checks)}


def _leg_bounds(shape0: np.ndarray, shape1: np.ndarray, grid: Grid):
    """Min speed of each interior leg slice and the leg's max |D_s^2 (dc/dt)|."""
    t = _INTERIOR_T[:, None, None]
    s, _, u = _arc_jet(grid, (1.0 - t) * shape0 + t * shape1, shape1 - shape0, 2)
    return np.min(s, axis=-1), float(np.max(np.sqrt(np.sum(u[2] * u[2], axis=-1))))
