"""Paths of curves: energy, length, radial closed forms, geodesic BVP.

A path is one (T+1, N, d) array: slice m is the curve at time m/T of
the unit interval, sampled on a shared grid.  Every kernel works on that
array; `CurvePath.slices` wraps its rows as curves only for callers that
want them.  Energy uses the midpoint discretization

    E = dt * sum_m G_{(c_m + c_{m+1})/2}(v_m, v_m),   v_m = (c_{m+1} - c_m)/dt,

which is second-order in T and symmetric under time reversal.  The
solver starts from the straight segment c0 -> c1 re-timed to constant
metric speed (the geodesic between concentric circles), so the first
entry of its energy trace is that start's energy, not the linear path's.
It minimizes E over the interior slices by limited-memory
quasi-Newton descent, seeded with a frozen-coefficient spectral
preconditioner P and guarded by a monotone backtracking line search.  P
approximates the inverse Hessian, so g.Pg estimates 2 (E - E*) for the
gradient g and the minimal energy E*; the solve stops once that
predicted gap is at most gap_tol * E, which means the same at every N
and T.  gap_tol bounds the predicted gap, not the actual one: P freezes
the coefficients at the mean speed and length, and on random-curve
pairs (N = 64 and 128, T = 16) the gap left is 0.9-2.1 times the
predicted g.Pg / 2E.  The analytic gradient is the production path and
is certified against finite differences by gradient_check.  Energy,
length and gradient raise NumericalError where they are not finite
(`metric._form`); the line search rejects such a trial step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .curves import (
    DiscreteCurve,
    Grid,
    _arc_jet,
    _integral,
    curve_length,
    curve_to_dict,
    derivative,
)
from .completeness import _breaks, _edges, log_quad
from .errors import ContractError, ImmersionError, NumericalError
from .metric import MetricConfig, _form, _q_form, coefficient_deriv, coefficient_eval


@dataclass(frozen=True)
class CurvePath:
    """A path over [0, 1]: one (T+1, N, d) array of curve samples on a grid.

    Slice m, the curve at time m/T, is samples[m].
    """

    grid: Grid
    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 3 or samples.shape[1] != self.grid.n_points or samples.shape[2] < 2:
            raise ContractError(
                f"path samples must be a (T+1, {self.grid.n_points}, d) array with d >= 2, "
                f"got shape {samples.shape}"
            )
        if len(samples) < 2:
            raise ContractError("a path needs at least two slices")
        if not np.all(np.isfinite(samples)):
            raise ContractError("path samples must be finite")
        try:
            _arc_jet(self.grid, samples)
        except ImmersionError:
            # Name the first bad slice; only a failed check pays for the search.
            for m, c in enumerate(samples):
                try:
                    _arc_jet(self.grid, c)
                except ImmersionError as exc:
                    t = m / (len(samples) - 1)
                    raise ImmersionError(f"path degenerates at t={t:.6g}: {exc}") from exc
            raise
        object.__setattr__(self, "samples", samples)

    @property
    def slices(self) -> tuple:
        """The rows of `samples` as DiscreteCurves, built anew on each access."""
        return tuple(DiscreteCurve(self.grid, c) for c in self.samples)

    @property
    def T(self) -> int:
        return len(self.samples) - 1

    @property
    def dt(self) -> float:
        return 1.0 / self.T


@dataclass
class SolverOptions:
    max_iters: int = 500
    gap_tol: float = 1e-8
    T: int = 32
    initial_path: CurvePath | None = None

    def __post_init__(self):
        if self.max_iters < 1:
            raise ContractError("max_iters must be >= 1")
        if not 0 < self.gap_tol < math.inf:
            raise ContractError(f"gap_tol must be positive and finite, got {self.gap_tol}")
        if self.T < 2:
            raise ContractError("T must be >= 2 so the path has interior slices")


@dataclass
class GeodesicResult:
    path: CurvePath
    energy: float
    length: float
    iterations: int
    converged: bool
    gradient_norm_final: float
    energy_trace: list = field(default_factory=list)
    termination: str = "gradient"

    def to_dict(self) -> dict:
        return {
            "energy": self.energy,
            "length": self.length,
            "iterations": self.iterations,
            "converged": self.converged,
            "gradient_norm_final": self.gradient_norm_final,
            "energy_trace": self.energy_trace,
            "termination": self.termination,
        }


def linear_path(c0: DiscreteCurve, c1: DiscreteCurve, T: int) -> CurvePath:
    """Slice-wise convex combination; errors if a slice degenerates."""
    if c0.grid != c1.grid:
        raise ContractError("endpoint curves live on different grids")
    if c0.samples.shape != c1.samples.shape:
        raise ContractError(
            f"endpoint curves live in different dimensions: d={c0.samples.shape[1]} "
            f"and d={c1.samples.shape[1]}"
        )
    if T < 1:
        raise ContractError("T must be >= 1")
    t = (np.arange(T + 1) / T)[:, None, None]
    return CurvePath(c0.grid, (1.0 - t) * c0.samples + t * c1.samples)


def _forward(cfg: MetricConfig, grid: Grid, stacked, dt: float):
    """`_form` at the T midpoint slices of a (T+1, N, d) path; midpoints lead its pieces."""
    cb = 0.5 * (stacked[:-1] + stacked[1:])
    values, pieces = _form(cfg, grid, cb, (stacked[1:] - stacked[:-1]) / dt)
    return values, (cb, *pieces)


def path_energy(cfg: MetricConfig, path: CurvePath) -> float:
    """Midpoint-discretized Riemannian path energy."""
    values, _ = _forward(cfg, path.grid, path.samples, path.dt)
    return path.dt * float(np.sum(values))


def _speeds(values: np.ndarray) -> np.ndarray:
    """Metric speeds sqrt(G_m) from the per-interval values of `_forward`."""
    return np.sqrt(np.maximum(values, 0.0))


def path_length(cfg: MetricConfig, path: CurvePath) -> float:
    """Midpoint-discretized path length; length^2 <= energy on [0,1]."""
    values, _ = _forward(cfg, path.grid, path.samples, path.dt)
    return path.dt * float(np.sum(_speeds(values)))


def reverse_path(path: CurvePath) -> CurvePath:
    return CurvePath(path.grid, path.samples[::-1])


def moments(c0: DiscreteCurve, n: int) -> np.ndarray:
    """M_k = integral |D_s^k c0|^2 ds for k = 0..n; all positive and finite.

    Raises NumericalError if one under- or overflows.
    """
    s, _, u = _arc_jet(c0.grid, c0.samples, c0.samples, n)
    with np.errstate(over="ignore"):
        out = np.array([_q_form(c0.grid.weight, uk, uk, s) for uk in u])
    if not np.all((out > 0) & (out < math.inf)):
        raise NumericalError(f"curve moments must be positive and finite, got {out}")
    return out


def radial_path_length(
    cfg: MetricConfig, c0: DiscreteCurve, R_from: float, R_to: float
) -> float:
    """Length of the scaling path r*c0, r from R_from to R_to.

    Closed form: integral sqrt(sum_k a_k(r*ell0) r^(1-2k) M_k) dr with the
    moments M_k of the base curve.
    """
    if not all(math.isfinite(R) and R > 0 for R in (R_from, R_to)):
        raise ContractError(
            f"radial endpoints must be positive and finite, got {R_from}, {R_to}"
        )
    if R_from == R_to:
        return 0.0
    ell0 = curve_length(c0)
    mk = moments(c0, cfg.n)

    def speed(r: np.ndarray) -> np.ndarray:
        return np.sqrt(
            sum(coefficient_eval(term, r * ell0) * r ** (1 - 2 * k) * mk[k]
                for k, term in sorted(cfg.terms.items()))
        )

    lo, hi = min(R_from, R_to), max(R_from, R_to)
    # a_k(r * ell0) breaks where r * ell0 does.
    breaks = np.concatenate([np.asarray(_breaks(t)) / ell0 for t in cfg.terms.values()])
    try:
        pieces, errors = log_quad(speed, _edges(lo, hi, breaks))
    except FloatingPointError as exc:
        raise NumericalError(f"radial length quadrature failed on [{lo}, {hi}]: {exc}") from exc
    value, err = float(pieces.sum()), float(errors.sum())
    if not math.isfinite(value) or err > 1e-4 * max(1.0, value):
        raise NumericalError(
            f"radial length quadrature failed on [{lo}, {hi}] (err={err})"
        )
    return value


# ---------------------------------------------------------------------------
# Analytic gradient of the discrete energy.
#
# Per interval, with midpoint curve cb, speed s = |D cb|, length
# L = w * sum s, arc-derivative fields u_k = (diag(1/s) D)^k v and
# Q_k = w * sum |u_k|^2 s:
#
#   G = sum_k a_k(L) Q_k
#
# The v-gradient is 2 sum_k a_k (M^T)^k (w s u_k) with M = diag(1/s) D and
# M^T x = -D(x / s) (the periodic central-difference matrix is
# antisymmetric).  The cb-gradient flows through s only: collect the
# sensitivity phi_j = dG/ds_j and push it back via
# ds_j = <t_j, (D dcb)_j>, t = D cb / s, giving grad_cb = -D(phi * t).
# ---------------------------------------------------------------------------


@np.errstate(over="ignore", invalid="ignore")
def _stacked_energy_and_gradient(cfg: MetricConfig, grid: Grid, stacked, dt: float):
    """Energy and per-interval gradients for a stacked (T+1, N, d) path.

    Vectorized across the T intervals; returns (energy, grad, values) with
    grad of shape (T-1, N, d) for the interior slices and values the
    per-interval G_m of `_forward`; raises NumericalError if E or grad is not finite.
    """
    w = grid.weight
    values, (cb, s, lengths, u, q, coeffs) = _forward(cfg, grid, stacked, dt)
    dcoeffs = {k: coefficient_deriv(term, lengths) for k, term in cfg.terms.items()}
    inv_s = 1.0 / s

    grad_v = np.zeros_like(u[0])
    phi = np.broadcast_to(
        (w * sum(dcoeffs[k] * q[k] for k in coeffs))[:, None], s.shape
    ).copy()
    for k in coeffs:
        a_k = coeffs[k][:, None]
        if np.all(a_k == 0.0) and np.all(dcoeffs[k] == 0.0):
            continue
        y = (w * s)[:, :, None] * u[k]
        for j in range(k):
            # y = (M^T)^j (w s u_k); pair with u_{k-j} before applying M^T.
            phi += a_k * (-2.0 * inv_s) * np.einsum("tnd,tnd->tn", y, u[k - j])
            y = -derivative(y * inv_s[:, :, None], grid, axis=1)
        grad_v += 2.0 * a_k[:, :, None] * y
        phi += a_k * w * np.sum(u[k] * u[k], axis=2)

    tangent = derivative(cb, grid, axis=1) * inv_s[:, :, None]
    grad_cb = -derivative(phi[:, :, None] * tangent, grid, axis=1)

    energy = dt * float(np.sum(values))
    grad = dt * 0.5 * (grad_cb[:-1] + grad_cb[1:]) + (grad_v[:-1] - grad_v[1:])
    if not (math.isfinite(energy) and np.isfinite(grad).all()):
        raise NumericalError(f"path energy {energy} or its gradient is not finite")
    return energy, grad, values


def energy_and_gradient(cfg: MetricConfig, path: CurvePath):
    """Energy plus its Euclidean gradient w.r.t. the interior slices.

    Returns (energy, grad), or raises NumericalError if either is not
    finite; grad has shape (T-1, N, d), as the endpoint slices are fixed.
    """
    return _stacked_energy_and_gradient(cfg, path.grid, path.samples, path.dt)[:2]


def gradient_check(
    cfg: MetricConfig,
    path: CurvePath,
    n_coords: int = 20,
    step: float = 1e-6,
    rng: np.random.Generator | None = None,
) -> float:
    """Max relative deviation of the analytic gradient vs central FD."""
    if rng is None:
        rng = np.random.default_rng(0)
    if path.T < 2:
        raise ContractError("gradient check needs at least one interior slice")
    _, grad = energy_and_gradient(cfg, path)
    scale = np.max(np.abs(grad))
    n, d = path.samples.shape[1:]
    worst = 0.0
    for _ in range(n_coords):
        m = int(rng.integers(1, path.T))
        j = int(rng.integers(0, n))
        axis = int(rng.integers(0, d))

        def energy_at(delta):
            samples = path.samples.copy()
            samples[m, j, axis] += delta
            return path_energy(cfg, CurvePath(path.grid, samples))

        # Richardson-extrapolated central differences: spike perturbations
        # are rough fields, so the plain h^2 truncation term is large.
        fd_h = (energy_at(step) - energy_at(-step)) / (2.0 * step)
        fd_2h = (energy_at(2 * step) - energy_at(-2 * step)) / (4.0 * step)
        fd = (4.0 * fd_h - fd_2h) / 3.0
        an = grad[m - 1, j, axis]
        # Normalize against the gradient's sup norm so the FD oracle's own
        # roundoff floor on near-zero entries does not register as error.
        denom = max(abs(fd), abs(an), scale, 1e-12)
        worst = max(worst, abs(fd - an) / denom)
    return worst


def _spectral_preconditioner(cfg: MetricConfig, grid: Grid, c0, c1, T: int, dt: float):
    """Inverse of the frozen-coefficient energy Hessian, as a linear map.

    The Hessian of the discrete energy is approximately
    (2/dt) L_time (x) A, with L_time the Dirichlet second-difference
    matrix in t and A the spatial operator sum_k a_k (-D_s^2)^k weighted
    by ds.  Freezing speed and length at their endpoint means makes A
    diagonal under an FFT in theta, with the symbol of the order-4
    D_theta read off its impulse response.  L_time is inverted by its
    closed-form Green's matrix min(i,j) (T - max(i,j)) / T.  The map
    seeds the quasi-Newton direction and defines the dual norm of the
    stop test, so the approximation affects when the solver stops, not
    where it goes.  Near the minimum E - E* ~ g.Pg / 2.
    """
    n_pts = grid.n_points
    s_bar = 0.5 * (float(np.mean(c0.arc_speed)) + float(np.mean(c1.arc_speed)))
    l_bar = 0.5 * (curve_length(c0) + curve_length(c1))
    modes = np.abs(np.fft.rfft(derivative(np.eye(1, n_pts)[0], grid)))
    symbol = sum(
        coefficient_eval(term, l_bar) * (modes / s_bar) ** (2 * k)
        for k, term in cfg.terms.items()
    )
    symbol *= s_bar * grid.weight
    j = np.arange(1, T)
    green = (dt / (2 * T)) * np.minimum.outer(j, j) * (T - np.maximum.outer(j, j))

    def apply(grad):
        spec = np.fft.rfft(np.tensordot(green, grad, axes=1), axis=1)
        spec /= symbol[:, None]
        return np.fft.irfft(spec, n=n_pts, axis=1)

    return apply


# Energy changes within this many ulps of E count as roundoff.
_ROUNDOFF_ULPS = 8
# Armijo sufficient-decrease constant and backtracking step factor.
_ARMIJO = 1e-4
_BACKTRACK = 0.5
# The constant-speed start samples the metric speed on this many times as
# many intervals as the path has.
_RETIME_REFINE = 4


def _constant_speed_start(cfg: MetricConfig, linear: CurvePath) -> CurvePath:
    """The segment of `linear` re-timed to constant metric speed.

    Along c(tau) = (1 - tau) c0 + tau c1 the metric speed is
    sigma(tau) = sqrt(G_c(tau)(c1 - c0, c1 - c0)).  It is sampled at the
    midpoints of a linear path with r = _RETIME_REFINE times as many
    intervals and summed into the cumulative length S; slice m of the
    result sits at the tau_m with S(tau_m) = (m/T) S(1), by linear
    interpolation of S.  The endpoint slices are those of `linear`.  The
    finer path is evaluated T intervals at a time, so the pass needs no
    more memory than one energy evaluation of the solve.  Returns
    `linear` itself unless S is strictly increasing; raises as `_forward` does.
    """
    grid, T = linear.grid, linear.T
    c0, c1 = linear.samples[0], linear.samples[-1]
    n_fine = _RETIME_REFINE * T
    tau = (np.arange(n_fine + 1) / n_fine)[:, None, None]
    sigma = np.concatenate([
        _speeds(_forward(cfg, grid, (1.0 - t) * c0 + t * c1, 1.0 / n_fine)[0])
        for t in (tau[j:j + T + 1] for j in range(0, n_fine, T))
    ])
    cumulative = np.concatenate(([0.0], np.cumsum(sigma)))
    if not np.all(np.diff(cumulative) > 0):
        return linear
    t = np.interp(cumulative[-1] * np.arange(1, T) / T, cumulative, tau[:, 0, 0])[:, None, None]
    return CurvePath(grid, np.concatenate([c0[None], (1.0 - t) * c0 + t * c1, c1[None]]))


def geodesic_bvp(
    cfg: MetricConfig,
    c0: DiscreteCurve,
    c1: DiscreteCurve,
    opts: SolverOptions | None = None,
) -> GeodesicResult:
    """Minimize path energy over interior slices with fixed endpoints.

    Without `opts.initial_path` the solve starts from the linear path
    re-timed to constant metric speed (`_constant_speed_start`), so
    energy_trace[0] is that start's energy; it falls back to the linear
    path if the re-timed start meets a degenerate curve or a NumericalError.
    Stops with termination "gradient" once g.Pg <= 2 gap_tol E, with P
    the spectral preconditioner, that is once the predicted relative
    energy gap g.Pg / 2E is at most gap_tol (the actual gap (E - E*) / E
    can be larger, see the module docstring); "energy_stall" once no
    step can lower E beyond roundoff; "line_search" or "max_iters"
    otherwise (not converged).  gradient_norm_final is sqrt(g.Pg / E),
    so the predicted gap is gradient_norm_final^2 / 2.  Raises
    NumericalError if the energy or its gradient at the start is not
    finite, as for valid curves so large or small that a coefficient
    over- or underflows.
    """
    if opts is None:
        opts = SolverOptions()
    if c0.grid != c1.grid:
        raise ContractError("endpoint curves live on different grids")
    if np.array_equal(c0.samples, c1.samples):
        path = CurvePath(c0.grid, np.repeat(c0.samples[None], opts.T + 1, axis=0))
        return GeodesicResult(
            path=path,
            energy=0.0,
            length=0.0,
            iterations=0,
            converged=True,
            gradient_norm_final=0.0,
            energy_trace=[0.0],
            termination="gradient",
        )
    path = opts.initial_path
    if path is None:
        linear = linear_path(c0, c1, opts.T)  # a degenerate segment fails here
        try:
            return _minimize(cfg, c0, c1, _constant_speed_start(cfg, linear), opts)
        except (ImmersionError, NumericalError):
            return _minimize(cfg, c0, c1, linear, opts)
    if path.grid != c0.grid:
        raise ContractError(f"initial path lives on {path.grid}, the endpoints on {c0.grid}")
    if path.T != opts.T:
        raise ContractError(f"initial path has T={path.T}, options ask for T={opts.T}")
    if not (
        np.array_equal(path.samples[0], c0.samples)
        and np.array_equal(path.samples[-1], c1.samples)
    ):
        raise ContractError("initial path endpoints do not match c0, c1")
    return _minimize(cfg, c0, c1, path, opts)


# Trial steps that raise NumericalError fail the line search; P's coefficients may overflow.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _minimize(
    cfg: MetricConfig,
    c0: DiscreteCurve,
    c1: DiscreteCurve,
    path: CurvePath,
    opts: SolverOptions,
) -> GeodesicResult:
    """The descent of `geodesic_bvp` from `path`, whose endpoints are c0 and c1.

    Raises NumericalError if the energy, its gradient or the
    preconditioned gradient at `path` is not finite.
    """
    grid = path.grid
    dt = path.dt
    speed_floor = 1e-6 * float(np.mean(np.mean(_arc_jet(grid, path.samples)[0], axis=-1)))

    x = path.samples[1:-1].copy()
    ends = (path.samples[:1], path.samples[-1:])

    def stack(x_arr):
        return np.concatenate([ends[0], x_arr, ends[1]])

    def eval_at(x_arr):
        if np.min(_arc_jet(grid, x_arr)[0]) < speed_floor:
            raise ImmersionError("interior slice below speed floor")
        return _stacked_energy_and_gradient(cfg, grid, stack(x_arr), dt)

    energy, grad, values = eval_at(x)
    trace = [energy]
    # Limited-memory quasi-Newton direction (two-loop recursion) seeded
    # with the frozen-coefficient inverse Hessian, plus a monotone Armijo
    # backtracking line search.  Curvature pairs are only stored when
    # dx.dg > 0, so the direction stays a descent direction.  P is
    # linear, so each pair also keeps P dg = P g_try - P g, and the
    # recursion forms P q from them: one apply of P per accepted step.
    precondition = _spectral_preconditioner(cfg, grid, c0, c1, path.T, dt)
    memory = []
    gamma = 1.0
    iterations = 0
    termination = "max_iters"
    pgrad = precondition(grad)
    if not np.isfinite(pgrad).all():
        raise NumericalError("preconditioned gradient is not finite at the start")
    while True:
        # P approximates the inverse Hessian, so g.Pg ~ 2 (E - E*).
        dual = max(float(np.sum(grad * pgrad)), 0.0)
        if dual <= 2.0 * opts.gap_tol * energy:
            termination = "gradient"
            break
        if iterations == opts.max_iters:
            break
        iterations += 1
        qv = grad.copy()
        pq = pgrad.copy()
        alphas = []
        for dx, dg, pdg, rho in reversed(memory):
            a = rho * float(np.sum(dx * qv))
            alphas.append(a)
            qv -= a * dg
            pq -= a * pdg
        qv = gamma * pq
        for (dx, dg, _, rho), a in zip(memory, reversed(alphas)):
            qv += (a - rho * float(np.sum(dg * qv))) * dx
        direction = -qv
        slope = float(np.sum(grad * direction))
        if slope >= 0:
            direction = -grad
            slope = -float(np.sum(grad * grad))
        # Energy differences within a few ulps of E are roundoff: once the
        # predicted decrease t*|slope| sinks under that floor, Armijo would
        # only compare noise, so the search stops.  A rejected trial rises
        # by its second-order part E_try - E - t*slope, which for a smooth E
        # shrinks as t^2 between trials; the path is stationary to roundoff
        # if the last trial's part departs from that by at most the floor.
        # (A trial may rise well above the floor: a step that overshoots a
        # minimum along the direction does.)
        floor = _ROUNDOFF_ULPS * np.finfo(float).eps * energy
        t = 1.0
        accepted = False
        previous, misfit = None, 0.0  # the last rejected trial's t and part
        for _ in range(60):
            if -t * slope <= floor:
                break
            x_try = x + t * direction
            try:
                energy_try, grad_try, values_try = eval_at(x_try)
            except (ImmersionError, NumericalError):
                t *= _BACKTRACK
                continue
            if energy_try <= energy + _ARMIJO * t * slope:
                accepted = True
                break
            part = energy_try - energy - t * slope
            if previous is not None:
                misfit = abs(part - previous[1] * (t / previous[0]) ** 2)
            previous = (t, part)
            t *= _BACKTRACK
        if not accepted:
            stalled = -t * slope <= floor and misfit <= floor
            termination = "energy_stall" if stalled else "line_search"
            break
        dx = x_try - x
        dg = grad_try - grad
        pgrad_try = precondition(grad_try)
        curv = float(np.sum(dx * dg))
        if curv > 1e-10 * float(np.linalg.norm(dx) * np.linalg.norm(dg)):
            pdg = pgrad_try - pgrad
            memory.append((dx, dg, pdg, 1.0 / curv))
            if len(memory) > 10:
                memory.pop(0)
            gamma = curv / float(np.sum(dg * pdg))
        x, grad, pgrad, values = x_try, grad_try, pgrad_try, values_try
        energy = energy_try
        trace.append(energy)
    return GeodesicResult(
        path=CurvePath(grid, stack(x)),
        energy=energy,
        length=dt * float(np.sum(_speeds(values))),
        iterations=iterations,
        converged=termination in ("gradient", "energy_stall"),
        gradient_norm_final=math.sqrt(dual / energy),
        energy_trace=trace,
        termination=termination,
    )


def geodesic_distance(
    cfg: MetricConfig,
    c0: DiscreteCurve,
    c1: DiscreteCurve,
    opts: SolverOptions | None = None,
) -> float:
    return geodesic_bvp(cfg, c0, c1, opts).length


def path_to_dict(path: CurvePath) -> dict:
    return {
        "T": path.T,
        "grid": {"N": path.grid.n_points},
        "slices": [curve_to_dict(c) for c in path.slices],
    }


def path_from_dict(data: dict) -> CurvePath:
    try:
        n = _integral(data["grid"]["N"], "grid.N")
        T = _integral(data["T"], "T")
        samples = np.asarray([entry["samples"] for entry in data["slices"]], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ContractError(f"malformed path data: {exc}") from exc
    if T != len(samples) - 1:
        raise ContractError(f"path data has T={T} but {len(samples)} slices")
    return CurvePath(Grid(n), samples)
