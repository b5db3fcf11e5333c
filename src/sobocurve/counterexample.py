"""Incompleteness counterexample: bumpy-circle sequences with summable gaps.

Two geometric sequences r_n = lambda_n^alpha, lambda_n = b^n * lambda0
drive curves c_n = r_n (1 + eps sin(lambda_n theta)) (cos theta, sin theta)
under the two-term metric a_0 = ell^-3, a_2 = ell^p.  With alpha chosen
past the case threshold the two-leg distances are summable while the
lengths run to infinity (grow, p < 1) or zero (shrink, p > 1).

Leg 1 scales r_n u_n to r_{n+1} u_n, at its exact length
`paths.radial_path_length`.  Leg 2 swaps u_n for u_{n+1} at radius r_{n+1}
along the straight segment (`scaled_leg_length`): the metric speeds of
`paths._segment_speeds`, the solver start's kernel, on the true curves in
power-of-two units, so any c_n of finite floats is in range.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .curves import Grid, _true_jet, curve_length, derivative, make_bumpy_circle
from .errors import ContractError, NumericalError, _require_int
from .metric import MetricConfig, PowerLaw
from .paths import _segment_speeds, radial_path_length

GROW = "grow"
SHRINK = "shrink"

# Desk-scale caps: geometric growth of lambda_n makes n_max = 3..4 the
# feasible and sufficient range.
MAX_LAMBDA = 48
MAX_N = 2048
MAX_T = 64
# Intervals of leg 2, the linear bump swap, in `verify_sequence` and the CLI.
LEG_T = 64


def counterexample_metric(p: float) -> MetricConfig:
    """The two-term second-order metric a_0 = ell^-3, a_2 = ell^p."""
    return MetricConfig(n=2, terms={0: PowerLaw(1.0, -3.0), 2: PowerLaw(1.0, p)})


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
        for name, least in (("lambda0", 3), ("b", 2), ("n_max", 1)):
            _require_int(name, getattr(self, name), least)
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
            # |c_n| and the length of c_n are at most r_n 2 pi (1 + eps (1 + lambda_n)).
            ell_max = r * 2.0 * math.pi * (1.0 + self.eps * (1.0 + self.lambda_n(n)))
            if not (sys.float_info.min <= r and ell_max < math.inf):
                raise ContractError(
                    f"alpha={self.alpha} puts c_{n} = {self.lambda_n(n)}^alpha u_{n} outside "
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
        # The least power of two >= 16 that resolves the top frequency (N >= 32 lambda).
        return Grid(min(max(16, 1 << (32 * self.lambda_n(self.n_max) - 1).bit_length()), MAX_N))


@dataclass(frozen=True)
class CounterexampleSequence:
    """The radius-1 bumpy circles u_n on `params.grid()`; c_n = radius_n(n) * u_n."""

    params: CounterexampleParams
    shapes: tuple


def build_sequence(params: CounterexampleParams) -> CounterexampleSequence:
    grid = params.grid()
    return CounterexampleSequence(params, tuple(
        make_bumpy_circle(1.0, params.eps, params.lambda_n(n), grid)
        for n in range(params.n_max + 1)
    ))


def scaled_leg_length(
    cfg: MetricConfig, r: float, shape0: np.ndarray, shape1: np.ndarray, grid: Grid, T: int
) -> float:
    """Length of the linear path between r*shape0 and r*shape1 over T >= 1 intervals.

    The mean of `paths._segment_speeds` at the interval midpoints, on the
    true curves: any radius whose samples are finite floats is in range.
    """
    if not 0 < r < math.inf:
        raise ContractError(f"base scale must be positive and finite, got {r}")
    _require_int("T", T, 1)
    try:
        with np.errstate(over="ignore"):  # r * shape beyond the float range raises in the kernel
            speeds = _segment_speeds(cfg, grid, r * shape0, r * shape1, (np.arange(T) + 0.5) / T)
    except NumericalError as exc:
        raise NumericalError(f"leg length is not finite at base scale {r}: {exc}") from exc
    return float(np.mean(speeds))


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
        def cell(v):
            return "" if v is None else repr(v)

        return [["n", "lambda_n", "ell_n", "dist_upper_n", "bound_n"]] + [
            [e["n"], e["lambda"], repr(e["ell"]), cell(e["dist_upper"]), cell(e["bound"])]
            for e in self.entries
        ]


# Length-ratio window half-width fitted on the n = 0 curve; the ratio
# ell/(r*lambda) drifts from ~2.4 at lambda = 3 toward ~4*eps + O(1/lambda),
# which stays well inside a factor 3.
WINDOW_FACTOR = 3.0


def verify_sequence(
    params: CounterexampleParams, seq: CounterexampleSequence, T: int = LEG_T
) -> SequenceReport:
    """Quantitative checks of the incompleteness construction at desk scale."""
    _require_int("T", T, 1, MAX_T)
    if seq.params != params:
        raise ContractError("sequence was built with different parameters")
    cfg = counterexample_metric(params.p)
    entries = []
    partial = 0.0
    for n in range(params.n_max + 1):
        lam, r, u = params.lambda_n(n), params.radius_n(n), seq.shapes[n]
        ell = r * curve_length(u)
        entry = {
            "n": n,
            "lambda": lam,
            "r": r,
            "ell": ell,
            "ratio": ell / (r * lam),
            "dist_upper": None,
            "bound": None,
            "fitted_constant": None,
            "partial_sum": None,
        }
        if n < params.n_max:
            r_next, u_next = params.radius_n(n + 1), seq.shapes[n + 1].samples
            d1 = radial_path_length(cfg, u, r, r_next)
            d2 = scaled_leg_length(cfg, r_next, u.samples, u_next, params.grid(), T)
            dist_upper = d1 + d2
            partial += dist_upper
            bound = lam**-1.0 + lam ** (params.beta / 2.0)
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

    steps = [(a["ell"], b["ell"]) for a, b in zip(entries, entries[1:])]
    factor = float(params.b) ** (1.0 + params.alpha)
    if params.case == GROW:
        trend = all(after >= before * factor / 2.0 for before, after in steps)
    else:
        trend = all(after <= before * factor * 2.0 for before, after in steps) and factor * 2.0 < 1.0

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
    grid = params.grid()
    eps = params.eps
    fd_tol = 1.0 + 1e-3
    checks = []

    ds2_ratios = []
    for n in range(params.n_max + 1):
        lam = params.lambda_n(n)
        u = seq.shapes[n].samples
        du = derivative(u, grid)
        for name, values, bound in (
            ("position", u, 1 + eps),
            ("velocity", du, 2 + lam),
            ("acceleration", derivative(du, grid), 2 + 2 * lam + lam * lam),
        ):
            ok = np.max(np.linalg.norm(values, axis=1)) <= bound * fd_tol
            checks.append({"name": f"{name}_bound_n{n}", "ok": bool(ok)})
        if n == params.n_max:
            continue

        r, r_next = params.radius_n(n), params.radius_n(n + 1)
        # Leg 1 (radial, r_n units): |gamma'| >= (1-eps) * min(1, a).
        a = r_next / r
        min_speed, ds2_max = _leg_bounds(u, a * u, grid)
        scale_t = (1.0 - _INTERIOR_T) + _INTERIOR_T * a
        ok1 = np.all(min_speed >= (1.0 - eps) * scale_t / fd_tol)
        checks.append({"name": f"leg1_speed_lower_n{n}", "ok": bool(ok1)})
        # true D_s^2(dc/dt) = ds2 / r_n; normalize by r_n^-1 lambda_n^4.
        ds2_ratios.append(ds2_max / lam**4)

        # Leg 2 (bump swap, r_{n+1} units): |gamma'| >= (1-2 eps).
        min_speed, ds2_max = _leg_bounds(u, seq.shapes[n + 1].samples, grid)
        ok2 = np.all(min_speed >= (1.0 - 2.0 * eps) / fd_tol)
        checks.append({"name": f"leg2_speed_lower_n{n}", "ok": bool(ok2)})
        # true value = ds2 / r_{n+1}; normalized constant vs r_n^-1 lambda_n^4:
        ds2_ratios[-1] = max(ds2_ratios[-1], ds2_max * (r / r_next) / lam**4)

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
    h = shape1 - shape0
    dh = derivative(h, grid)  # D is linear: the slices' dc/dtheta is D shape0 + t D h
    s, u = _true_jet(grid, None, h, 2, dc=derivative(shape0, grid) + t * dh)
    return np.min(s, axis=-1), float(np.max(np.sqrt(np.sum(u[2] * u[2], axis=-1))))
