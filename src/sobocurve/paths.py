"""Paths of curves: energy, length, radial closed forms, geodesic BVP.

A path is one (T+1, N, d) array: slice m is the curve at time m/T of
the unit interval, sampled on a shared grid.  Every kernel works on that
array; `CurvePath.slices` wraps its rows as curves only for callers that
want them.  Energy uses the midpoint discretization

    E = dt * sum_m G_{(c_m + c_{m+1})/2}(v_m, v_m),   v_m = (c_{m+1} - c_m)/dt,

which is second-order in T and symmetric under time reversal;
`path_energy` and `path_length` sum it over blocks of at most
`_BLOCK_POINTS` samples, bit for bit one stacked call.  The solver
starts from the straight segment c0 -> c1 re-timed to constant metric
speed (the geodesic between concentric circles; `_segment_speeds`, which
the counterexample's leg 2 shares), so the first entry of its energy
trace is that start's energy, not the linear path's.
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
    DiscreteCurve, Grid, _arc_jet, _dot, _integral, _per_point, curve_to_dict, derivative,
)
from .completeness import _radial_integral
from .errors import ContractError, ImmersionError, NumericalError, _require_int
from .metric import MetricConfig, _blocks, _form, _form_blocks, _profile, _q_form


@dataclass(frozen=True)
class CurvePath:
    """A path over [0, 1]: one (T+1, N, d) array of curve samples on a grid.

    Slice m, the curve at time m/T, is samples[m].  A degenerate slice
    raises ImmersionError "path degenerates at t=...", with the t of the
    first one, which `_jet`'s immersion test on each block of slices reports.
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
        for block in _blocks(len(samples), self.grid.n_points):
            try:
                _arc_jet(self.grid, samples[block])
            except ImmersionError as exc:  # named by its first bad slice
                t = (block.start + exc.index) / (len(samples) - 1)
                raise ImmersionError(f"path degenerates at t={t:.6g}: {exc}") from exc
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

    def __post_init__(self):
        _require_int("max_iters", self.max_iters, 1)
        _require_int("T", self.T, 2)  # a path with interior slices
        if not 0 < self.gap_tol < math.inf:
            raise ContractError(f"gap_tol must be positive and finite, got {self.gap_tol}")


@dataclass
class GeodesicResult:
    path: CurvePath
    energy: float
    length: float
    iterations: int
    gradient_norm_final: float
    energy_trace: list = field(default_factory=list)
    termination: str = "gradient"

    @property
    def converged(self) -> bool:
        return self.termination in ("gradient", "energy_stall")

    def to_dict(self) -> dict:
        keys = ("energy", "length", "iterations", "converged", "gradient_norm_final",
                "energy_trace", "termination")
        return {key: getattr(self, key) for key in keys}


def linear_path(c0: DiscreteCurve, c1: DiscreteCurve, T: int) -> CurvePath:
    """Slice-wise convex combination; errors if a slice degenerates."""
    if c0.grid != c1.grid:
        raise ContractError("endpoint curves live on different grids")
    if c0.samples.shape != c1.samples.shape:
        raise ContractError(
            f"endpoint curves live in different dimensions: d={c0.samples.shape[1]} "
            f"and d={c1.samples.shape[1]}"
        )
    _require_int("T", T, 1)
    t = (np.arange(T + 1) / T)[:, None, None]
    samples = (1.0 - t) * c0.samples
    for block in _blocks(T + 1, c0.grid.n_points):  # no path-sized temporary for t * c1
        samples[block] += t[block] * c1.samples
    return CurvePath(c0.grid, samples)


def _midpoints(stacked, dt: float):
    """Midpoint curves (c_m + c_{m+1}) / 2 and velocities (c_{m+1} - c_m) / dt along axis -3."""
    c, c_next = stacked[..., :-1, :, :], stacked[..., 1:, :, :]
    return 0.5 * (c + c_next), (c_next - c) / dt


def _interval_values(cfg: MetricConfig, path: CurvePath) -> np.ndarray:
    """Per-interval values G_m of `_form` at the midpoints, `_blocks` of intervals at a time."""
    return np.concatenate([
        _form(cfg, path.grid, *_midpoints(path.samples[b.start:b.stop + 1], path.dt))[0]
        for b in _blocks(path.T, path.grid.n_points)
    ])


def path_energy(cfg: MetricConfig, path: CurvePath) -> float:
    """Midpoint-discretized Riemannian path energy."""
    return path.dt * float(np.sum(_interval_values(cfg, path)))


def _speeds(values: np.ndarray) -> np.ndarray:
    """Metric speeds sqrt(G_m) from per-interval values G_m of `_form`."""
    return np.sqrt(np.maximum(values, 0.0))


def path_length(cfg: MetricConfig, path: CurvePath) -> float:
    """Midpoint-discretized path length; length^2 <= energy on [0,1]."""
    return path.dt * float(np.sum(_speeds(_interval_values(cfg, path))))


@np.errstate(over="ignore", invalid="ignore")  # non-finite dc or h raise in `_form`
def _segment_speeds(cfg: MetricConfig, grid: Grid, c0, c1, t) -> np.ndarray:
    """Metric speeds sqrt(G_c(h, h)) at c = c0 + t h, h = c1 - c0, for each t of a 1-D array.

    D is linear, so dc/dtheta = D c0 + t D h: two stencils serve every t.
    `_form` gets at most `_BLOCK_POINTS` samples per call; raises as it does.
    """
    h = c1 - c0
    dc0, dh = derivative(c0, grid), derivative(h, grid)
    t = t[:, None, None]
    return np.concatenate([  # h.copy(): `_form` rescales h in place
        _speeds(_form(cfg, grid, None, h.copy(), dc=dc0 + t[b] * dh)[0])
        for b in _blocks(len(t), grid.n_points)
    ])


def _moments(c0: DiscreteCurve, n: int):
    """(e, length / 2^e, M_k / 2^x_k, x_k) of c0 for k = 0..n (see `moments`), as in `_form`."""
    ec = np.frexp(np.abs(c0.samples).max())[1]
    e, s, ell0, u = _arc_jet(c0.grid, c0.samples, np.ldexp(c0.samples, -ec), n)
    m = np.array([_q_form(c0.grid.spacing, uk, uk, s) for uk in u])
    return e, ell0, m, [2 * ec + (1 - 2 * k) * e for k in range(n + 1)]


def moments(c0: DiscreteCurve, n: int) -> np.ndarray:
    """M_k = integral |D_s^k c0|^2 ds for k = 0..n; all positive and finite.

    Raises NumericalError if one under- or overflows.
    """
    _require_int("n", n, 0)
    _, _, m, x = _moments(c0, n)
    with np.errstate(over="ignore"):
        out = np.ldexp(m, x)
    if not np.all((out > 0) & (out < math.inf)):
        raise NumericalError(f"curve moments must be positive and finite, got {out}")
    return out


def radial_path_length(
    cfg: MetricConfig, c0: DiscreteCurve, R_from: float, R_to: float
) -> float:
    """Length of the scaling path r*c0, r from R_from to R_to.

    Closed form: integral sqrt(sum_k a_k(r*ell0) r^(1-2k) M_k) dr with the
    moments M_k of the base curve, integrated per unit of ln r by
    `completeness._radial_integral`, which fails only where that speed
    times r is not a float at a quadrature node.  Raises NumericalError if
    the quadrature fails or the length reads 0.
    """
    if not all(math.isfinite(R) and R > 0 for R in (R_from, R_to)):
        raise ContractError(
            f"radial endpoints must be positive and finite, got {R_from}, {R_to}"
        )
    if R_from == R_to:
        return 0.0
    e, ell0, mk, x = _moments(c0, cfg.n)
    terms = [(k, term, mk[k], x[k]) for k, term in sorted(cfg.terms.items())]
    lo, hi = min(R_from, R_to), max(R_from, R_to)
    try:
        value, err = _radial_integral(terms, lo, hi, e, ell0)
    except FloatingPointError as exc:
        raise NumericalError(f"radial length quadrature failed on [{lo}, {hi}]: {exc}") from exc
    if not 0.0 < value < math.inf or err > 1e-4 * max(1.0, value):
        raise NumericalError(
            f"radial length quadrature failed on [{lo}, {hi}] (value={value}, err={err})"
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
# In `_form`'s units (a_k 2^x_k for a_k) the v- and cb-gradients come out
# in units of 2^-e_h and 2^-e of the path's unit; one ldexp each undoes it.
# ---------------------------------------------------------------------------


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _stacked_energy_and_gradient(
    cfg: MetricConfig, grid: Grid, stacked, dt: float, unit: int = 0
):
    """Energy and per-interval gradients for a stacked (T+1, N, d) path in units of 2^unit.

    Vectorized across the T intervals; returns (energy, grad, values) with
    grad of shape (T-1, N, d) for the interior slices and values the
    per-interval G_m of `_form`; raises NumericalError if E or grad is not finite.
    """
    w, d = grid.spacing, stacked.shape[-1]
    values, pieces = _form(cfg, grid, *_midpoints(stacked, dt), unit=unit)
    s, lengths, u, q, coeffs, e, eh, x, dc = pieces
    shift = e + unit
    dcoeffs = {k: _profile(term, lengths, 1, shift, x[k] + shift) for k, term in cfg.terms.items()}
    inv_s = 1.0 / s
    inv_s_d, ws_d = _per_point(inv_s, d), _per_point(w * s, d)

    grad_v = np.zeros_like(u[0])
    phi = np.broadcast_to(
        (w * sum(dcoeffs[k] * q[k] for k in coeffs))[:, None], s.shape
    ).copy()
    for k in coeffs:
        a_k = coeffs[k][:, None]
        if np.all(a_k == 0.0) and np.all(dcoeffs[k] == 0.0):
            continue
        y = ws_d * u[k]
        for j in range(k):
            # y = (M^T)^j (w s u_k); pair with u_{k-j} before applying M^T.
            phi += a_k * (-2.0 * inv_s) * _dot(y, u[k - j])
            y = -derivative(y * inv_s_d, grid, axis=1)
        grad_v += 2.0 * a_k[:, :, None] * y
        phi += a_k * w * _dot(u[k], u[k])

    # dc is `_form`'s D cb / 2^e, so tangent = D cb / |D cb|.
    grad_cb = derivative(_per_point(phi, d) * (dc * inv_s_d), grid, axis=1)
    np.ldexp(-grad_cb, -e[:, None, None], out=grad_cb)
    np.ldexp(grad_v, -eh[:, None, None], out=grad_v)

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


_FD_STEP = 1e-6  # central-difference step of gradient_check


def gradient_check(
    cfg: MetricConfig,
    path: CurvePath,
    n_coords: int = 20,
    rng: np.random.Generator | None = None,
) -> float:
    """Max relative deviation of the analytic gradient vs central FD.

    Moving one sample of slice m moves only intervals m-1 and m, so each
    of the four perturbed energies per coordinate evaluates those two
    (all of them in one blocked `_form` pass) and sums them with the
    other intervals' values: bit for bit `path_energy` of the perturbed path.
    """
    _require_int("n_coords", n_coords, 1)
    if rng is None:
        rng = np.random.default_rng(0)
    if path.T < 2:
        raise ContractError("gradient check needs at least one interior slice")
    _, grad, values = _stacked_energy_and_gradient(cfg, path.grid, path.samples, path.dt)
    scale = np.max(np.abs(grad))
    n, d = path.samples.shape[1:]
    coords = [(int(rng.integers(1, path.T)), int(rng.integers(0, n)), int(rng.integers(0, d)))
              for _ in range(n_coords)]
    deltas = np.array([1.0, -1.0, 2.0, -2.0]) * _FD_STEP
    # Slices m-1, m, m+1 of the path, once per delta, with delta added at (m, j, axis).
    local = np.stack([np.repeat(path.samples[None, m - 1:m + 2], len(deltas), axis=0)
                      for m, _, _ in coords])
    for i, (_, j, axis) in enumerate(coords):
        local[i, :, 1, j, axis] += deltas
    cb, velocity = _midpoints(local, path.dt)
    touched = _form_blocks(cfg, path.grid, cb.reshape(-1, n, d), velocity.reshape(-1, n, d))
    worst = 0.0
    for (m, j, axis), pairs in zip(coords, touched.reshape(n_coords, len(deltas), 2)):
        energies = []
        for pair in pairs:
            perturbed = values.copy()
            perturbed[m - 1:m + 1] = pair
            energies.append(path.dt * float(np.sum(perturbed)))
        e_h, e_mh, e_2h, e_m2h = energies
        # Richardson-extrapolated central differences: spike perturbations
        # are rough fields, so the plain h^2 truncation term is large.
        fd_h = (e_h - e_mh) / (2.0 * _FD_STEP)
        fd_2h = (e_2h - e_m2h) / (4.0 * _FD_STEP)
        fd = (4.0 * fd_h - fd_2h) / 3.0
        an = grad[m - 1, j, axis]
        # Normalize against the gradient's sup norm so the FD oracle's own
        # roundoff floor on near-zero entries does not register as error.
        denom = max(abs(fd), abs(an), scale, 1e-12)
        worst = max(worst, abs(fd - an) / denom)
    return worst


def _spectral_preconditioner(cfg: MetricConfig, grid: Grid, speeds, lengths, unit: int):
    """Inverse of the frozen-coefficient energy Hessian, as a linear map.

    The Hessian of the discrete energy is approximately
    (2/dt) L_time (x) A, with L_time the Dirichlet second-difference
    matrix in t and A the spatial operator sum_k a_k (-D_s^2)^k weighted
    by ds.  Freezing speed and length at the means of the end slices of
    `speeds` (T+1, N) and `lengths` (T+1,), in units of 2^unit, makes A
    diagonal under an FFT in theta, with the symbol of the order-4
    D_theta read off its impulse response.  L_time is inverted by its
    closed-form Green's matrix min(i,j) (T - max(i,j)) / T.  The map
    seeds the quasi-Newton direction and defines the dual norm of the
    stop test, so the approximation affects when the solver stops, not
    where it goes.  Near the minimum E - E* ~ g.Pg / 2.
    """
    n_pts = grid.n_points
    T = len(lengths) - 1
    s_bar = 0.5 * (float(np.mean(speeds[0])) + float(np.mean(speeds[-1])))
    l_bar = 0.5 * (float(lengths[0]) + float(lengths[-1]))
    modes = np.abs(np.fft.rfft(derivative(np.eye(1, n_pts)[0], grid)))
    symbol = sum(  # in the path's unit, a_k scales as 2^((3 - 2k) unit)
        _profile(term, l_bar, 0, unit, (3 - 2 * k) * unit) * (modes / s_bar) ** (2 * k)
        for k, term in cfg.terms.items()
    )
    symbol *= s_bar * grid.spacing
    j = np.arange(1, T)
    green = (1.0 / T / (2 * T)) * np.minimum.outer(j, j) * (T - np.maximum.outer(j, j))

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

    The metric speed sigma(tau) along it (`_segment_speeds`) is sampled at
    the midpoints of r = _RETIME_REFINE times as many intervals as `linear`
    has and summed into the cumulative length S; slice m of the result
    sits at the tau_m with S(tau_m) = (m/T) S(1), by linear interpolation
    of S.  The endpoint slices are those of `linear`.  Raises
    NumericalError unless S is strictly increasing, and as `_form` does.
    """
    grid, T = linear.grid, linear.T
    c0, c1 = linear.samples[0], linear.samples[-1]
    n_fine = _RETIME_REFINE * T
    tau = np.arange(n_fine + 1) / n_fine
    sigma = _segment_speeds(cfg, grid, c0, c1, (np.arange(n_fine) + 0.5) / n_fine)
    cumulative = np.concatenate(([0.0], np.cumsum(sigma)))
    if not np.all(np.diff(cumulative) > 0):
        raise NumericalError("cumulative metric length along the segment is not strictly increasing")
    t = np.interp(cumulative[-1] * np.arange(1, T) / T, cumulative, tau)[:, None, None]
    return CurvePath(grid, np.concatenate([c0[None], (1.0 - t) * c0 + t * c1, c1[None]]))


def geodesic_bvp(
    cfg: MetricConfig,
    c0: DiscreteCurve,
    c1: DiscreteCurve,
    opts: SolverOptions | None = None,
) -> GeodesicResult:
    """Minimize path energy over interior slices with fixed endpoints.

    The solve starts from the linear path re-timed to constant metric
    speed (`_constant_speed_start`), so energy_trace[0] is that start's
    energy; it falls back to the linear path, once, where the re-timed
    start or the descent from it raises ImmersionError or NumericalError.
    Endpoints on different grids or in different dimensions raise
    ContractError (`linear_path`).
    Stops with termination "gradient" once g.Pg <= 2 gap_tol E, with P
    the spectral preconditioner, that is once the predicted relative
    energy gap g.Pg / 2E is at most gap_tol (the actual gap (E - E*) / E
    can be larger, see the module docstring); "energy_stall" once no
    step can lower E beyond roundoff; "line_search" or "max_iters"
    otherwise (not converged).  gradient_norm_final is sqrt(g.Pg / E),
    so the predicted gap is gradient_norm_final^2 / 2.  Raises
    NumericalError if the energy or its gradient at the start is not a
    finite float.
    """
    if opts is None:
        opts = SolverOptions()
    if np.array_equal(c0.samples, c1.samples):
        path = CurvePath(c0.grid, np.repeat(c0.samples[None], opts.T + 1, axis=0))
        return GeodesicResult(path, 0.0, 0.0, 0, 0.0, [0.0], "gradient")
    linear = linear_path(c0, c1, opts.T)  # a degenerate segment fails here
    try:
        return _minimize(cfg, _constant_speed_start(cfg, linear), opts)
    except (ImmersionError, NumericalError):
        return _minimize(cfg, linear, opts)


# Trial steps that raise NumericalError fail the line search; P's coefficients may overflow.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _minimize(cfg: MetricConfig, path: CurvePath, opts: SolverOptions) -> GeodesicResult:
    """The descent of `geodesic_bvp` from `path`, whose end slices stay fixed.

    It runs on the path divided by 2^unit, unit the end slices' larger
    `_arc_jet` exponent, so its sums and norms stay in range at any size.
    Raises NumericalError if the energy, its gradient or the
    preconditioned gradient at `path` is not finite.
    """
    grid = path.grid
    dt = path.dt
    e, s, ell, _ = _arc_jet(grid, path.samples)
    unit = int(max(e[0], e[-1]))
    speeds, lengths = np.ldexp(s, (e - unit)[:, None]), np.ldexp(ell, e - unit)
    speed_floor = 1e-6 * float(np.mean(np.mean(speeds, axis=-1)))

    samples = np.ldexp(path.samples, -unit)
    x = samples[1:-1]
    ends = (samples[:1], samples[-1:])

    def stack(x_arr):
        return np.concatenate([ends[0], x_arr, ends[1]])

    def eval_at(x_arr, jet=None):  # jet: (e, s) of x_arr from `_arc_jet`, if known
        e_x, s_x = jet or _arc_jet(grid, x_arr)[:2]
        if np.min(np.ldexp(np.min(s_x, axis=-1), e_x)) < speed_floor:
            raise ImmersionError("interior slice below speed floor")
        return _stacked_energy_and_gradient(cfg, grid, stack(x_arr), dt, unit)

    energy, grad, values = eval_at(x, (e[1:-1] - unit, s[1:-1]))
    trace = [energy]
    # Limited-memory quasi-Newton direction (two-loop recursion) seeded
    # with the frozen-coefficient inverse Hessian, plus a monotone Armijo
    # backtracking line search.  Curvature pairs are only stored when
    # dx.dg > 0, so the direction stays a descent direction.  P is
    # linear, so each pair also keeps P dg = P g_try - P g, and the
    # recursion forms P q from them: one apply of P per accepted step.
    precondition = _spectral_preconditioner(cfg, grid, speeds, lengths, unit)
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
        path=CurvePath(grid, np.ldexp(stack(x), unit)),
        energy=energy,
        length=dt * float(np.sum(_speeds(values))),
        iterations=iterations,
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
