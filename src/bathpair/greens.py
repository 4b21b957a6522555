"""Laplace-domain Green's function of the coupled QLE and its numerical inversion.

The linear system for y = (Q1, Q2, Qdot1, Qdot2) has resolvent

    G^(s) = [ s I + Z + s C^(s) ]^{-1}

with Z carrying the velocity definition and the bare frequency, and C^(s)
the memory-kernel transforms (self kernel at d = 0, cross kernel at d = r).
Exchange symmetry splits everything into symmetric/antisymmetric channels
u_pm = (Q1 +- Q2)/sqrt(2) with scalar kernels Gamma0^ +- Gammar^, and the
channel resolvents are 2x2.  The channel map is one orthogonal matrix T,
rows (u_+, udot_+, u_-, udot_-) over (Q1, Q2, V1, V2), used in both
directions: `channel_blocks` splits a 4x4 matrix C into the blocks of
T C T^T, and `four_by_four` reassembles blocks as T^T [[+, x], [x^T, -]] T.

Time-domain values come from Durbin's Fourier-series inversion along a
shifted contour.  Exponentially damped terms matching the 1/s, 1/s^2 and
1/s^3 asymptotics of each entry (with the retarded 1/s^3 image at t = r)
are subtracted first and inverted in closed form; the remaining series
then decays faster than 1/s^3, which is what makes G(0) = I reachable at
1e-6 and keeps the periodization error of the method negligible (the
subtracted parts decay, so no secular growth is aliased back in).

On the uniform grid t_j = j h the series is a discrete Fourier transform
(Dubner & Abate, J. ACM 15, 115, 1968): with the period P rounded up so
that M = 2P/h is an integer, exp(i pi k t_j / P) = exp(2 pi i k j / M), so
the coefficients fold modulo M and one inverse FFT per entry sums the
series at every grid point, in O(M log M + n_terms) instead of
O(n_terms * N_t).

The inversion constants are fixed.  They hold for every parameter set, as
every pole lies at Re s <= 0 (on it only for the undamped relative channel
at r = 0), and each call checks the tail, the reflection residual and
|G(0) - I| <= 1e-6 (above the aliasing floor), raising `DurbinConvergenceError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import damping_kernel_laplace
from .model import ModelParams

__all__ = [
    "GreensFunction",
    "channel_kernel_laplace",
    "channel_det",
    "channel_greens_laplace",
    "greens_time",
    "four_by_four",
    "channel_blocks",
    "PoleProximityError",
    "DurbinConvergenceError",
]


class PoleProximityError(ValueError):
    """Requested s is too close to a pole of the resolvent."""


class DurbinConvergenceError(RuntimeError):
    """The inversion series tail contributed more than the tolerance."""


# ---------------------------------------------------------------------------
# Laplace-domain building blocks


def channel_kernel_laplace(s, params: ModelParams, sign: int):
    """Channel kernel Gamma0^(s) + sign * Gammar^(s), sign = +1 or -1."""
    g0 = damping_kernel_laplace(s, 0.0, params)
    gr = damping_kernel_laplace(s, params.distance, params)
    return g0 + sign * gr


def channel_kernel_zero(params: ModelParams, sign: int) -> float:
    """Channel kernel at t = 0: 2*gamma*Omega*(1 +- e^{-Omega r})."""
    g, Om, r = params.gamma, params.omega_cut, params.distance
    return 2.0 * g * Om * (1.0 + sign * math.exp(-Om * r))


def channel_det(s, params: ModelParams, sign: int):
    """Channel determinant D(s) = s^2 + 1 + s * Gamma_channel^(s)."""
    s = np.asarray(s, dtype=complex)
    return s * s + 1.0 + s * channel_kernel_laplace(s, params, sign)


def channel_greens_laplace(s, params: ModelParams, sign: int):
    """2x2 channel resolvent [[s, 1], [-(1 + s*K^), s]] / D(s).

    Vectorized over s: returns shape s.shape + (2, 2).  Raises
    PoleProximityError when |D| < 1e-14 (pole of the channel).
    """
    s = np.asarray(s, dtype=complex)
    kern = channel_kernel_laplace(s, params, sign)
    D = s * s + 1.0 + s * kern
    if np.any(np.abs(D) < 1e-14):
        raise PoleProximityError(f"channel determinant below 1e-14 near s = {s}")
    out = np.empty(s.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = s / D
    out[..., 0, 1] = 1.0 / D
    out[..., 1, 0] = -(1.0 + s * kern) / D
    out[..., 1, 1] = s / D
    return out


# channel coordinates: rows u_+, udot_+, u_-, udot_- of (Q1, Q2, V1, V2);
# _T4 is orthogonal, so the map and its inverse are the two products below
_SQ2 = 1.0 / math.sqrt(2.0)
_T4 = np.array([
    [_SQ2, _SQ2, 0.0, 0.0],
    [0.0, 0.0, _SQ2, _SQ2],
    [_SQ2, -_SQ2, 0.0, 0.0],
    [0.0, 0.0, _SQ2, -_SQ2],
])


def four_by_four(plus, minus, cross=None):
    """Assemble 4x4 matrices in ordering (Q1, Q2, V1, V2) from channel 2x2s:
    _T4^T [[plus, cross], [cross^T, minus]] _T4.

    ``plus``/``minus`` live in (u, udot) channel coordinates; ``cross`` is
    the (+,-) channel cross block (zero for anything respecting exchange
    symmetry, e.g. the Green's function itself).  Works on stacked inputs
    of shape (..., 2, 2).  `channel_blocks` is the inverse.
    """
    plus, minus = np.asarray(plus), np.asarray(minus)
    cross = np.zeros_like(plus) if cross is None else np.asarray(cross)
    chan = np.concatenate([np.concatenate([plus, cross], axis=-1),
                           np.concatenate([cross.swapaxes(-1, -2), minus], axis=-1)], axis=-2)
    return _T4.T @ chan @ _T4


def channel_blocks(c4):
    """Split 4x4 matrices (or a stack) into (plus, minus, cross) channel blocks
    of _T4 C _T4^T; the inverse of `four_by_four`."""
    chan = _T4 @ np.asarray(c4, dtype=float) @ _T4.T
    return chan[..., :2, :2], chan[..., 2:, 2:], chan[..., :2, 2:]


# ---------------------------------------------------------------------------
# Durbin inversion


N_TERMS = 15000          # terms per 60 time units of period (and at least this): error ~ (P/terms)^3
PERIOD_FACTOR = 4.0      # period / t_max; the series representation needs > 2
SHIFT_SCALE = 9.0        # contour at Re s = 9/P, right of every pole; aliasing floor e^-18 = 1.5e-8
DAMP_SHIFT = 1.0         # b > 0 in the closed-form subtracted terms e^{-bt}
EULER_TERMS = 32         # Euler averaging over the last partial sums
TAIL_FRACTION = 0.1      # share of the series summed apart as the tail
TAIL_TOL = 1e-5          # largest tail contribution accepted


@dataclass(frozen=True)
class GreensFunction:
    """G(t) samples on a uniform grid from t = 0, with the inversion diagnostics."""

    time_grid: np.ndarray
    time_values: np.ndarray              # (Nt, 4, 4) real
    channel_series: dict                 # sign -> (Nt, 2, 2)
    spacing: float                       # grid step
    imag_residual: float
    tail_contribution: float


def _euler_weights(n_terms: int, euler_terms: int) -> np.ndarray:
    """Per-term weights implementing Euler averaging of the last partial sums."""
    w = np.ones(n_terms + 1)
    m = min(euler_terms, n_terms)
    binom = np.array([math.comb(m, j) for j in range(m + 1)], dtype=float)
    cum = np.cumsum(binom[::-1])[::-1] / 2.0**m      # sum_{k>=j} C(m,k)/2^m
    w[n_terms - m + 1:] = cum[1:]
    return w


def _durbin_sum(coeff_rows, h, n_t, period, shift, weights, tail_start):
    """Weighted Durbin sums for several coefficient rows on t_j = j h.

    coeff_rows: (n_series, K) complex, already including the k = 0 halving;
    2 * period / h must be an integer M > n_t - 1.  Terms k and k + M share
    their phase on the grid, so each row folds onto M bins and one inverse
    FFT evaluates it; the terms from ``tail_start`` on are folded apart.
    Returns (values (n_series, n_t), tail_max (n_series,)).
    """
    n_series, K = coeff_rows.shape
    M = int(round(2.0 * period / h))
    c = coeff_rows * weights[None, :]
    parts = np.zeros((2, n_series, -(-K // M) * M), dtype=complex)
    parts[0, :, :tail_start] = c[:, :tail_start]
    parts[1, :, tail_start:K] = c[:, tail_start:]
    folded = parts.reshape(2, n_series, -1, M).sum(axis=2)
    main, tail = (M * np.fft.ifft(folded, axis=-1)[..., :n_t]).real
    # two-sided trapezoid of the Bromwich integral collapses to twice the
    # real part of the half-weighted one-sided sum, i.e. prefactor 1/period
    t = h * np.arange(n_t)
    pref = (1.0 / period) * np.exp(shift * t)[None, :]
    return pref * (main + tail), np.max(np.abs(pref * tail), axis=1)


def _reflection_defect(params: ModelParams, s_k: np.ndarray) -> float:
    """Max |F(conj s) - conj F(s)| over a subsample; guards Schwarz symmetry."""
    sub = s_k[:: max(1, s_k.size // 64)]
    defect = 0.0
    for sign in (+1, -1):
        f = channel_det(sub, params, sign)
        fc = channel_det(np.conj(sub), params, sign)
        defect = max(defect, float(np.max(np.abs(fc - np.conj(f)))))
    return defect


def _invert_channels(t: np.ndarray, h: float, period: float, params: ModelParams):
    """Durbin-invert both channel resolvents on the uniform grid ``t``.

    Returns ({sign: (Nt, 2, 2)}, tail_max, imag_residual).
    """
    a = SHIFT_SCALE / period
    b = DAMP_SHIFT
    K = int(N_TERMS * max(1.0, period / 60.0))
    k = np.arange(K + 1)
    s_k = a + 1j * math.pi * k / period

    sub1 = 1.0 / (s_k + b)          # <- e^{-b t}
    sub2 = 1.0 / (s_k + b) ** 2     # <- t e^{-b t}
    sub3 = 1.0 / (s_k + b) ** 3     # <- t^2 e^{-b t} / 2
    r = params.distance
    # retarded image of the 1/s^3 coefficient of G21 (kink of G''' at t = r);
    # without it the series truncation leaves a coherent glitch near t = r
    sub3_r = np.exp(-s_k * r) * sub3
    gO2 = 2.0 * params.gamma * params.omega_cut**2

    weights = _euler_weights(K, EULER_TERMS)
    tail_start = int(math.floor((1.0 - TAIL_FRACTION) * (K + 1)))

    channel_series: dict[int, np.ndarray] = {}
    tail_max = 0.0
    for sign in (+1, -1):
        g = channel_greens_laplace(s_k, params, sign)
        w0 = 1.0 + channel_kernel_zero(params, sign)
        c_u = b * b - w0
        c_v = 2.0 * b
        c_g = gO2 - 2.0 * b * w0
        rows = np.vstack([
            g[:, 0, 0] - sub1 - b * sub2 - c_u * sub3,                        # G11 = G22
            g[:, 0, 1] - sub2 - c_v * sub3,                                   # G12
            g[:, 1, 0] + w0 * sub2 - c_g * sub3 - sign * gO2 * sub3_r,       # G21
        ])
        rows[:, 0] *= 0.5    # k = 0 term enters with half weight
        vals, tails = _durbin_sum(rows, h, t.size, period, a, weights, tail_start)
        tail_max = max(tail_max, float(np.max(tails)))

        ebt = np.exp(-b * t)
        tr = np.where(t > r, t - r, 0.0)
        g11 = ebt + b * t * ebt + 0.5 * c_u * t * t * ebt + vals[0]
        g12 = t * ebt + 0.5 * c_v * t * t * ebt + vals[1]
        g21 = (-w0 * t * ebt + 0.5 * c_g * t * t * ebt
               + sign * gO2 * 0.5 * tr * tr * np.exp(-b * tr) + vals[2])
        series = np.empty((t.size, 2, 2))
        series[:, 0, 0] = g11
        series[:, 0, 1] = g12
        series[:, 1, 0] = g21
        series[:, 1, 1] = g11
        channel_series[sign] = series

    defect = _reflection_defect(params, s_k)
    imag_residual = defect * (2.0 / period) * (K + 1) * math.exp(a * float(t[-1]))
    return channel_series, tail_max, imag_residual


def greens_time(t_grid, params: ModelParams) -> GreensFunction:
    """Invert the channel resolvents onto ``t_grid`` and assemble G(t).

    ``t_grid`` must start at t = 0, have at least two points and be uniform
    (steps equal to a relative 1e-9); the series is summed by FFT on that
    grid.  Raises `DurbinConvergenceError` when the series tail, the
    reflection residual or the defect of G(0) = I is out of bounds.
    """
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 2 or t[0] != 0.0:
        raise ValueError("t_grid must be a 1-D grid of at least two points from t = 0")
    diffs = np.diff(t)
    if np.any(diffs <= 0):
        raise ValueError("t_grid must be strictly increasing")
    if not np.allclose(diffs, diffs[0], rtol=1e-9, atol=1e-12):
        raise ValueError("t_grid must be uniform: the Durbin series is summed by FFT")

    t_max = float(t[-1])
    h = t_max / (t.size - 1)
    # round the period up to a whole number of half grid steps
    period = 0.5 * h * math.ceil(2.0 * PERIOD_FACTOR * t_max / h * (1.0 - 1e-12))

    channel_series, tail_max, imag_residual = _invert_channels(t, h, period, params)
    if tail_max > TAIL_TOL:
        raise DurbinConvergenceError(
            f"Durbin tail contributes {tail_max:.3e} > tol {TAIL_TOL:.3e}")
    if imag_residual > 1e-9:
        raise DurbinConvergenceError(
            f"reflection-symmetry residual {imag_residual:.3e} exceeds 1e-9")

    values = four_by_four(channel_series[+1], channel_series[-1])
    defect0 = float(np.max(np.abs(values[0] - np.eye(4))))
    if defect0 > 1e-6:
        raise DurbinConvergenceError(
            f"G(0) deviates from identity by {defect0:.3e} > 1e-6")

    return GreensFunction(
        time_grid=t, time_values=values, channel_series=channel_series, spacing=h,
        imag_residual=imag_residual, tail_contribution=tail_max)
