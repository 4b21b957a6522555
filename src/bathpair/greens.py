"""Laplace-domain Green's function of the coupled QLE and its numerical inversion.

The linear system for y = (Q1, Q2, Qdot1, Qdot2) has resolvent

    G^(s) = [ s I + Z + s C^(s) ]^{-1}

with Z carrying the velocity definition and the bare frequency, and C^(s)
the memory-kernel transforms (self kernel at d = 0, cross kernel at d = r).
Exchange symmetry splits everything into symmetric/antisymmetric channels
u_pm = (Q1 +- Q2)/sqrt(2) with scalar kernels Gamma0^ +- Gammar^, and the
channel resolvents are 2x2.  The channels are axis 0 of every channel
array: ``sign = SIGNS`` broadcasts a channel function over both, row 0
symmetric and row 1 antisymmetric (index by 0 and 1, never by the sign).
The channel map is one orthogonal matrix T, rows (u_+, udot_+, u_-,
udot_-) over (Q1, Q2, V1, V2), used in both directions: `channel_blocks`
splits a 4x4 matrix C into the blocks of T C T^T, and `four_by_four`
reassembles blocks as T^T [[+, x], [x^T, -]] T.

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
series at every grid point.  The K + 1 terms are made and folded in one
pass, whole blocks of M contour nodes at a time (at least 2^14 nodes), so
memory is O(M) with M = 2P/h ~ 8 t_max/h, time is O(K + M log M), and K
sizes no array.

The period and the contour shift are fixed, and so is the subtraction but
for its damping b: on a short window the subtracted terms, which grow as
2 gamma Omega^2 t^2 e^{-bt}, would alias back from t = 2 P, so b grows
above 1 until that image is a tenth of the G(0) tolerance.  Every pole
lies at Re s <= 0 (on it only for the undamped relative channel at r = 0),
left of the contour, so no node meets one.  The term count is derived
from the residual, which falls off as 1/s^4 with a coefficient bounded by
c4 = max(w0^2, 2 gamma Omega^3), w0 = 1 + K(0), so the truncation error is
~ c4 (P/K)^3 and K grows with P c4^(1/3).  c4 is a bound, not the
coefficient: where it is loose K over-counts (1.47e6 terms at (gamma, Omega,
r) = (50, 100, 0.2), t_max 40).  Each call checks the tail, the reflection
residual and |G(0) - I| <= G0_TOL (above the aliasing floor), raising
`DurbinConvergenceError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import damping_kernel_laplace
from .model import ModelParams

__all__ = [
    "SIGNS",
    "GreensFunction",
    "channel_kernel_laplace",
    "channel_det",
    "greens_time",
    "four_by_four",
    "channel_blocks",
    "DurbinConvergenceError",
]


class DurbinConvergenceError(RuntimeError):
    """The inversion series tail contributed more than the tolerance."""


# ---------------------------------------------------------------------------
# Laplace-domain building blocks


# the channel axis: row 0 the symmetric (+) channel, row 1 the antisymmetric (-)
SIGNS = np.array([[1.0], [-1.0]])


def channel_kernel_laplace(s, params: ModelParams, sign):
    """Channel kernel Gamma0^(s) + sign * Gammar^(s), sign = +1, -1 or `SIGNS`
    (a 1-D ``s`` then gives (2, s.size) from one call of each damping kernel)."""
    g0 = damping_kernel_laplace(s, 0.0, params)
    gr = damping_kernel_laplace(s, params.distance, params)
    return g0 + sign * gr


def channel_kernel_zero(params: ModelParams, sign):
    """Channel kernel at t = 0: 2*gamma*Omega*(1 +- e^{-Omega r})."""
    g, Om, r = params.gamma, params.omega_cut, params.distance
    return 2.0 * g * Om * (1.0 + sign * math.exp(-Om * r))


def channel_det(s, params: ModelParams, sign):
    """Channel determinant D(s) = s^2 + 1 + s * Gamma_channel^(s)."""
    s = np.asarray(s, dtype=complex)
    return s * s + 1.0 + s * channel_kernel_laplace(s, params, sign)


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


N_TERMS = 15000          # terms per 60 time units of period at c4 <= 2000, and at least this
PERIOD_FACTOR = 4.0      # period / t_max; the series representation needs > 2
SHIFT_SCALE = 9.0        # contour at Re s = 9/P, right of every pole; aliasing floor e^-18 = 1.5e-8
DAMP_SHIFT = 1.0         # least b > 0 in the closed-form subtracted terms e^{-bt}
G0_TOL = 1e-6            # largest |G(0) - I| accepted
TAIL_FRACTION = 0.1      # share of the series summed apart as the tail
TAIL_TOL = 1e-5          # largest tail contribution accepted


@dataclass(frozen=True)
class GreensFunction:
    """G(t) samples on a uniform grid from t = 0, with the inversion diagnostics."""

    time_grid: np.ndarray
    time_values: np.ndarray              # (Nt, 4, 4) real
    channel_series: np.ndarray           # (2, Nt, 2, 2), channels as the rows of SIGNS
    spacing: float                       # grid step
    imag_residual: float
    tail_contribution: float


def _reflection_defect(params: ModelParams, a: float, period: float, n_nodes: int) -> float:
    """Max |F(conj s) - conj F(s)| over about 64 of the ``n_nodes`` contour
    nodes a + i pi k / period; guards Schwarz symmetry."""
    k = np.arange(0, n_nodes, max(1, n_nodes // 64))
    sub = a + 1j * math.pi * k / period
    f = channel_det(sub, params, SIGNS)
    fc = channel_det(np.conj(sub), params, SIGNS)
    return float(np.max(np.abs(fc - np.conj(f))))


def _node_terms(s: np.ndarray, sK: np.ndarray, b: float):
    """At the contour nodes ``s`` (n,), with sK = s K^(s) of both channels
    (2, n): the resolvent entries 1/D, s/D and (1 + sK)/D, D = s^2 + 1 + sK,
    and the subtracted terms 1/(s + b)^n, n = 1..3 (the transforms of e^{-bt},
    t e^{-bt} and t^2 e^{-bt} / 2).  One reciprocal of D and one of s + b per
    node, the rest products: a complex division costs several products."""
    inv_d = 1.0 / (s * s + 1.0 + sK)
    sub1 = 1.0 / (s + b)
    sub2 = sub1 * sub1
    return inv_d, s * inv_d, (1.0 + sK) * inv_d, sub1, sub2, sub2 * sub1


def _invert_channels(t: np.ndarray, h: float, period: float, params: ModelParams):
    """Durbin-invert both channel resolvents on the uniform grid ``t``.

    The K + 1 contour nodes are made whole fold blocks of M = 2 period / h
    at a time: each block's three distinct entries (G11 = G22, G12, G21) of
    both channels, less their closed-form terms, are added in order into M
    main bins, or into M tail bins from ``tail_start`` on, and one inverse
    FFT sums them.
    Returns ((2, Nt, 2, 2), tail_max, imag_residual).
    """
    a = SHIFT_SCALE / period
    gO2 = 2.0 * params.gamma * params.omega_cut**2
    # the subtracted G21 terms t^2/2 e^{-bt} and its image at t = r, each
    # with a coefficient near gO2, come back into the window from t = 2 period
    # with weight e^{-2 a period}: b is the least b >= DAMP_SHIFT that holds
    # e^{-2 a period} gO2 (2 period)^2 e^{-2 b period} to a tenth of G0_TOL
    alias = math.exp(-2.0 * SHIFT_SCALE) * gO2 * (2.0 * period) ** 2 / (0.1 * G0_TOL)
    b = max(DAMP_SHIFT, math.log(max(alias, 1.0)) / (2.0 * period))
    w0 = 1.0 + channel_kernel_zero(params, SIGNS)           # (2, 1)
    # the residual left after the 1/s..1/s^3 subtraction falls off as 1/s^4 with
    # a coefficient bounded (loosely at large gamma Omega) by c4, so the truncation
    # error is ~ c4 (P/K)^3; N_TERMS per 60 time units holds it at c4 = 2000
    # (gamma = 1, Omega = 10); above that K grows as c4^(1/3)
    c4 = max(float(np.max(w0)) ** 2, 2.0 * params.gamma * params.omega_cut**3)
    K = int(N_TERMS * max(1.0, period / 60.0 * max(1.0, (c4 / 2000.0) ** (1.0 / 3.0))))
    tail_start = int(math.floor((1.0 - TAIL_FRACTION) * (K + 1)))
    r = params.distance
    c_u = b * b - w0
    c_v = 2.0 * b
    c_g = gO2 - 2.0 * b * w0

    M = int(round(2.0 * period / h))
    # nodes made at once: whole fold blocks, at least 2^14, so a grid of few
    # points does not pay numpy's per-call cost once per block of few nodes
    width = M * -(-2**14 // M)
    folded = np.zeros((2, 2, 3, M), dtype=complex)          # (main | tail, channel, entry, bin)
    for lo in range(0, K + 1, width):
        s = a + 1j * math.pi * np.arange(lo, min(lo + width, K + 1)) / period
        sK = s * channel_kernel_laplace(s, params, SIGNS)   # (2, n)
        inv_d, s_d, sk_d, sub1, sub2, sub3 = _node_terms(s, sK, b)
        # retarded image of the 1/s^3 coefficient of G21 (kink of G''' at t = r);
        # without it the series truncation leaves a coherent glitch near t = r
        sub3_r = np.exp(-s * r) * sub3
        rows = (s_d - sub1 - b * sub2 - c_u * sub3,                               # G11 = G22
                inv_d - sub2 - c_v * sub3,                                        # G12
                -sk_d + w0 * sub2 - c_g * sub3 - SIGNS * gO2 * sub3_r)           # G21
        if lo == 0:
            for row in rows:
                row[:, 0] *= 0.5      # k = 0 term enters with half weight
        for q in range(0, s.size, M):                       # fold block by block, in order
            n = min(M, s.size - q)
            cut = min(max(tail_start - lo - q, 0), n)
            for j, row in enumerate(rows):
                folded[0, :, j, :cut] += row[:, q:q + cut]
                folded[1, :, j, cut:n] += row[:, q + cut:q + n]
    main, tail = (M * np.fft.ifft(folded, axis=-1)[..., :t.size]).real
    # two-sided trapezoid of the Bromwich integral collapses to twice the
    # real part of the half-weighted one-sided sum, i.e. prefactor 1/period
    pref = (1.0 / period) * np.exp(a * (h * np.arange(t.size)))
    vals = pref * (main + tail)

    ebt = np.exp(-b * t)
    tr = np.where(t > r, t - r, 0.0)
    g11 = ebt + b * t * ebt + 0.5 * c_u * t * t * ebt + vals[:, 0]
    g12 = t * ebt + 0.5 * c_v * t * t * ebt + vals[:, 1]
    g21 = (-w0 * t * ebt + 0.5 * c_g * t * t * ebt
           + SIGNS * gO2 * 0.5 * tr * tr * np.exp(-b * tr) + vals[:, 2])
    series = np.stack([np.stack([g11, g12], axis=-1), np.stack([g21, g11], axis=-1)], axis=-2)

    defect = _reflection_defect(params, a, period, K + 1)
    imag_residual = defect * (2.0 / period) * (K + 1) * math.exp(a * float(t[-1]))
    return series, float(np.max(np.abs(pref * tail))), imag_residual


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

    values = four_by_four(*channel_series)
    defect0 = float(np.max(np.abs(values[0] - np.eye(4))))
    if defect0 > G0_TOL:
        raise DurbinConvergenceError(
            f"G(0) deviates from identity by {defect0:.3e} > {G0_TOL:g}")

    return GreensFunction(
        time_grid=t, time_values=values, channel_series=channel_series, spacing=h,
        imag_residual=imag_residual, tail_contribution=tail_max)
