"""Reference values the benchmark checks sobocurve against.

Nothing here imports sobocurve: every value is a closed form or the
benchmark's own quadrature, so a fault in the package cannot also
corrupt the reference it is compared with.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi


def radial_scale_invariant(b, r_from: float, r_to: float) -> float:
    """Length of the concentric-scaling path under a_k(l) = b_k l^(2k-3).

    Each D_s^k of a circle of radius r has modulus r^(1-k), so the speed
    of t -> r(t) c is sqrt(sum_k b_k (2 pi)^(2k-2)) |d ln r / dt|.
    """
    speed = math.sqrt(sum(bk * TWO_PI ** (2 * k - 2) for k, bk in enumerate(b)))
    return speed * abs(math.log(r_to / r_from))


def fd4_symbol(m: int, n_points: int) -> float:
    """Factor the order-4 periodic central difference applies to e^(i m theta)."""
    h = TWO_PI / n_points
    return (8.0 * math.sin(m * h) - math.sin(2.0 * m * h)) / (6.0 * h)


def bumpy_circle_length(r: float, eps: float, lam: int) -> float:
    """Length of r (1 + eps sin(lam theta)) (cos theta, sin theta).

    Periodic trapezoid rule on the exact speed, which converges
    spectrally; 64 points per bump period leave roundoff only.
    """
    m = 64 * lam + 4096
    theta = TWO_PI * np.arange(m) / m
    rho = 1.0 + eps * np.sin(lam * theta)
    drho = eps * lam * np.cos(lam * theta)
    return r * TWO_PI * float(np.mean(np.sqrt(rho * rho + drho * drho)))


def spectral_length(samples: np.ndarray) -> float:
    """Length of a closed curve from a Fourier derivative of its samples."""
    n = samples.shape[0]
    modes = np.fft.fftfreq(n, d=1.0 / n)
    deriv = np.real(np.fft.ifft(1j * modes[:, None] * np.fft.fft(samples, axis=0), axis=0))
    return TWO_PI * float(np.mean(np.linalg.norm(deriv, axis=1)))


def power_law_diverges(k: int, p: float, end: str) -> bool:
    """Divergence rule for a_k = b r^p with b > 0: I0 iff p <= 2k-3, Iinf iff p >= 2k-3."""
    return p <= 2 * k - 3 if end == "zero" else p >= 2 * k - 3


def classification(n: int, exponents: dict) -> str:
    """Completeness class of a metric whose terms {k: p} are positive power laws.

    Sufficient: some k >= 1 diverges at each end.  Necessary failure: no
    k >= 0 diverges at one of the ends.  Otherwise the gap between them.
    """

    def some(end, ks):
        return any(k in exponents and power_law_diverges(k, exponents[k], end) for k in ks)

    higher, every = range(1, n + 1), range(0, n + 1)
    if some("zero", higher) and some("infinity", higher):
        return "sufficient_conditions_hold"
    if not some("zero", every) or not some("infinity", every):
        return "necessary_fail"
    return "gap"


def w_power_law(terms: dict, r: float) -> float:
    """W(r) = sum_{k>=1} int_1^r rho^(1/2-k) sqrt(b_k rho^p_k) d rho for terms {k: (b, p)}."""
    total = 0.0
    for k, (b, p) in terms.items():
        if k < 1:
            continue
        e = 0.5 - k + 0.5 * p
        if e == -1.0:
            total += math.sqrt(b) * math.log(r)
        else:
            total += math.sqrt(b) * (r ** (e + 1.0) - 1.0) / (e + 1.0)
    return total


def circle_radial_energy(coefficients, r: float, n_points: int) -> float:
    """G_c(c, c) for the discrete circle of radius r about 0, exact on the grid.

    On the grid the order-4 stencil maps (cos, sin) to sigma (-sin, cos)
    with sigma = fd4_symbol(1, N), so |c'| = r sigma, the discrete length
    is 2 pi r sigma and |D_s^k c| = r^(1-k) exactly.  `coefficients` is a
    list of callables a_k(l), None where a_k is absent.
    """
    ell = TWO_PI * r * fd4_symbol(1, n_points)
    return sum(
        a(ell) * r ** (2 - 2 * k) * ell for k, a in enumerate(coefficients) if a is not None
    )
