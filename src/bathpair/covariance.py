"""Transient and asymptotic covariance of the two oscillators.

All noise integration happens in the frequency domain against the bath
spectrum: the time-domain kernel is log-divergent at coincident arguments,
while for every frequency the noise contribution is a positive quadratic
form, absolutely convergent and numerically benign.  The covariance is the
doubled symmetrized moment matrix (vacuum = identity); the spectrum
`kernels.noise_spectrum` already carries that doubling, so quadratic forms
integrate against S(omega)/2.

Both channels run in one pass, as axis 0 of every channel array
(`greens.SIGNS`), sharing S(omega), cos(omega r) and the kernels.

Asymptotic state (gamma > 0, so the initial state is forgotten): the
stationary state is an equilibrium state, so by fluctuation-dissipation the
real-frequency integral of the noise against |D(i omega)|^-2, whose roots
of D lie near the real axis, rotates onto the Matsubara frequencies
nu_n = 2 pi n T, where D(nu) = nu^2 + 1 + nu K^(nu) is real, at least
1 + nu^2, and smooth (Grabert, Schramm & Ingold, Phys. Rep. 168, 115
(1988); Ford, Lewis & O'Connell, Phys. Rev. A 37, 4419 (1988)).  Per
channel, K^ = Gamma_0^ +- Gamma_r^ the channel kernel, the doubled moments are

    C_xx = 2T sum_n 1 / D(|nu_n|),   C_pp = 2T sum_n (1 + |nu_n| K^) / D(|nu_n|),   C_xp = 0,

(2/pi) int_0^inf d nu at T = 0.  The integral runs on geometric 12-point
Gauss-Legendre panels, two per octave, whose Bernstein ellipses reach the
imaginary axis only at rho = 11.6, from a first panel a quarter of the
disc in which D has no root; the tails past the cut take their leading
1/nu^2 in closed form.  At T > 0 the n = 0 term is kept and the rest is
summed by the Abel-Plana formula: the same integral from 2 pi T, and one
line integral in Re s > 0 with a fixed rule.  No root of D is located.  At
r = 0 the relative coordinate decouples and keeps its ground-state block.

Transient state:

    C(t) = G(t) C0 G(t)^T + int domega (S/2) Herm[ h M h^dag ],
    h(omega, t) = int_0^t G(u) e^{i omega u} du,

with h summed over the stored G grid by a Filon rule (quadratic
interpolation of G per node pair, oscillatory factor exact).  The noise
integral is then a quadratic form in the per-pair Filon coefficients whose
matrix depends only on the lag between pairs, so a full time series costs
one set of Toeplitz lag kernels and one FFT convolution per channel.  The
lag kernels are Fourier integrals, at the lags 2 m h, of a weight that is
smooth in omega: S(omega) times Filon moments of omega h, with cos(omega r)
taken as a lag shift t -> t +- r.  They are summed by a cubic Filon rule on
a uniform omega grid (Press et al., Numerical Recipes, 3rd ed., sec. 13.9)
of spacing pi / (h P), P an integer period, all lags at once by one of two
transforms: where an 11-smooth P is no longer than the chirp's FFT, the
nodes fold modulo P and one plain FFT of length P per row sums them;
elsewhere (far more period than nodes, as for the thermal part or at
T -> 0+) one Bluestein chirp FFT does.  The grid spacing follows Omega, 1/h
and T, never r or the time span.  Beyond omega_max the integrand is
replaced by its large-frequency expansion and integrated in closed form.

A `CovarianceMatrix` is one 4x4 matrix or an (n, 4, 4) stack with an (n,)
array of times: `covariance_time_series` returns its whole series as one
stack, which `entanglement.log_negativity` takes as it is.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as P

from ._panels import cos_tail, gauss_panels
from .entanglement import _first, require_physical
from .greens import SIGNS, GreensFunction, channel_blocks, channel_kernel_zero, four_by_four
from .kernels import damping_kernel_laplace, noise_spectrum
from .model import ModelParams

__all__ = [
    "CovarianceMatrix",
    "ground_state_covariance",
    "covariance_asymptotic",
    "covariance_time_series",
    "channel_asymptotic_moments",
    "TruncationError",
]

_log = logging.getLogger("bathpair")


class TruncationError(RuntimeError):
    """A frequency tail or cut cannot meet its tolerance in float64."""


@dataclass(frozen=True)
class CovarianceMatrix:
    """One real symmetric 4x4 covariance in ordering (Q1, Q2, P1, P2), or a
    stack (n, 4, 4) of them: a time series is always one stack.

    ``time_label`` is the time a matrix is valid at, or "asymptotic"; for a
    stack it is an (n,) array.  A stack has a length, and integer indexing
    and iteration give its members as 4x4 CovarianceMatrix objects.  Entries
    are symmetrized on construction; gross asymmetry is rejected, naming the
    member of a stack.
    """

    entries: np.ndarray
    time_label: float | str | np.ndarray = 0.0
    # set by `entanglement.require_physical` once every member passed
    physical: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self):
        arr = np.array(self.entries, dtype=float)
        if arr.ndim not in (2, 3) or arr.shape[-2:] != (4, 4):
            raise ValueError(f"covariance must be 4x4 or a stack (n, 4, 4), got {arr.shape}")
        defect = np.abs(arr - arr.swapaxes(-1, -2)).max(axis=(-2, -1))
        asym = defect > 1e-9 * np.maximum(1.0, np.abs(arr).max(axis=(-2, -1)))
        if asym.any():
            i, where = _first(asym)
            raise ValueError(f"covariance asymmetric by {defect[i]:.3e}{where}")
        arr = 0.5 * (arr + arr.swapaxes(-1, -2))
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)
        if arr.ndim == 3:
            labels = np.array(self.time_label, dtype=float)
            if labels.shape != arr.shape[:1]:
                raise ValueError(f"a stack of {len(arr)} needs {len(arr)} times, got {labels.shape}")
            object.__setattr__(self, "time_label", labels)

    def __len__(self) -> int:
        if self.entries.ndim == 2:
            raise TypeError("a single covariance matrix has no length")
        return self.entries.shape[0]

    def __getitem__(self, i):
        len(self)       # a single matrix is not indexable
        out = CovarianceMatrix(entries=self.entries[i], time_label=self.time_label[i])
        object.__setattr__(out, "physical", self.physical)  # members of a checked stack
        return out

    def __iter__(self):
        return (self[i] for i in range(len(self)))


def ground_state_covariance() -> CovarianceMatrix:
    """Both oscillators in their ground state: the identity matrix."""
    return CovarianceMatrix(entries=np.eye(4), time_label=0.0)


ASYMPTOTIC_TOL = 1e-12   # relative tolerance of the asymptotic moments' closed-form tails


# ---------------------------------------------------------------------------
# asymptotic covariance


def _noise_weight(omega, params: ModelParams, sign):
    """Per-frequency quadratic-form weight (S/2) * (1 +- cos(omega r)) of the
    real-frequency definition of the stationary moments, which the tests
    integrate against |D(i omega)|^2.  1 +- cos(omega r) is taken as
    2 (cos^2 or sin^2)(omega r / 2), which keeps its digits at small omega r."""
    omega = np.asarray(omega, dtype=float)
    half = 0.5 * params.distance * omega
    one_cos = 2.0 * np.where(sign > 0, np.cos(half) ** 2, np.sin(half) ** 2)
    return 0.5 * noise_spectrum(omega, params) * one_cos


def _tail_prefactor(params: ModelParams) -> float:
    """Large-frequency coefficient of the weight: (S/2) -> w_inf / omega."""
    return 4.0 * params.gamma * params.omega_cut * params.omega_cut / math.pi


def _moment_integrands(s, params: ModelParams, rows):
    """(1 / D, (1 + s K^) / D) of the channels ``rows`` (a column of signs) at
    the frequencies ``s``, D(s) = s^2 + 1 + s K^(s) and K^ = Gamma_0^ +- Gamma_r^
    the channel kernel of `damping_kernel_laplace`: real and positive on s >= 0."""
    m = 1.0 + s * (damping_kernel_laplace(s, 0.0, params)
                   + rows * damping_kernel_laplace(s, params.distance, params))
    det = s * s + m
    return 1.0 / det, m / det


_PER_OCTAVE = 2           # geometric 12-point Gauss-Legendre panels per octave of nu
_MAX_FREQUENCY = 1e50     # a cut or 2 pi T refused past this: C ~ 2T, and C^5 overflows at 1e61
# the Abel-Plana line integral: unit panels in t on [0, 7], 1/(e^{2 pi t} - 1) in the weights
_LINE_T, _LINE_W = gauss_panels(np.arange(8.0))
_LINE_W = _LINE_W / np.expm1(2.0 * math.pi * _LINE_T)


def _panel_edges(params: ModelParams, tol: float):
    """(edges, tail_error) of the real-axis integral of `channel_asymptotic_moments`,
    from nu = 2 pi T (0 at T = 0) to the cut W = edges[-1].

    The first panel, [0, nu_0] (or [2 pi T, nu_0]), is a quarter of the radius
    R0 = min(1/2, Omega/2, 1/r, 1/(20 gamma)) within which D has no root, so
    that its Bernstein ellipse, and the growth of e^{-s r} on it, stay inside
    that disc.  Past nu_0 the panels are geometric, `_PER_OCTAVE` per octave:
    their ellipses reach the imaginary axis, where the roots of D lie, only
    at rho = (sqrt(q) + 1) / (sqrt(q) - 1) = 11.6, q = sqrt(2).  The cut W
    makes what the closed-form tails 1/nu^2 and (1 + K(0))/nu^2 drop at most
    ``tol`` times a lower bound of each moment (CHANGES.md has the bounds);
    ``tail_error`` is the larger of the two, absolute.  A W or 2 pi T past
    `_MAX_FREQUENCY` raises `TruncationError`."""
    g, om, r, T = params.gamma, params.omega_cut, params.distance, params.temperature
    a = 1.0 + channel_kernel_zero(params, 1.0)     # the larger channel's 1 + K(0)
    p = 2.0 * g * om * om
    lower = 2.0 * math.pi * T
    cut = math.inf
    if a < math.inf and p < math.inf:
        floor_alpha, floor_beta = max(1.0 / math.sqrt(a), 2.0 * T), max(1.0, 2.0 * T)
        cut = max(math.cbrt(2.0 * a / (3.0 * math.pi * tol * floor_alpha)),
                  math.sqrt(4.0 * p / (math.pi * tol * floor_beta)),
                  math.cbrt(4.0 * a * a / (3.0 * math.pi * tol * floor_beta)), lower)
    if not cut <= _MAX_FREQUENCY:
        raise TruncationError(
            f"the large-frequency tail at {params} needs a cut at {cut:.3g} (2 pi T = "
            f"{lower:.3g}), past {_MAX_FREQUENCY:.0e}, where the covariance's powers overflow")
    start = max(lower, 0.25 * min(0.5, 0.5 * om, 1.0 / r if r > 0 else math.inf, 0.05 / g))
    n = math.ceil(_PER_OCTAVE * math.log2(cut / start)) if cut > start else 0
    edges = start * (cut / start) ** (np.arange(n + 1) / max(n, 1))
    edges[-1] = max(cut, start)
    if lower < start:
        edges = np.concatenate([[lower], edges])
    w = float(edges[-1])
    tail = 2.0 / math.pi * max(a / (3.0 * w**3), p / w**2 + a * a / (3.0 * w**3))
    return edges, tail


def channel_asymptotic_moments(params: ModelParams, sign, tol: float):
    """Stationary (position, velocity) variances of the channels ``sign``
    (+1, -1, or a column such as `SIGNS`, giving (2,) arrays), doubled
    (vacuum = 1), on the imaginary frequency axis.

    Returns (alpha, beta, tail_error), the last the bound of `_panel_edges`
    on what the closed-form tails drop, the largest over the channels.  The
    stationary state is an equilibrium state, so by fluctuation-dissipation
    the real-frequency integrals rotate onto the Matsubara frequencies
    nu_n = 2 pi n T (Grabert, Schramm & Ingold, Phys. Rep. 168, 115 (1988)):

        alpha = 2T sum_n 1 / D(|nu_n|),   beta = 2T sum_n (1 + |nu_n| K^) / D(|nu_n|),

    with D = nu^2 + 1 + nu K^(nu) real and at least 1 + nu^2.  At T = 0 the
    sums are (2/pi) int_0^inf d nu, on the Gauss-Legendre panels of
    `_panel_edges`, plus the tails 1/W and (1 + K(0))/W past the cut W.  At
    T > 0 the n = 0 term (1 for both) is kept and the rest summed by the
    Abel-Plana formula from n = 1 (Olver, Asymptotics and Special Functions,
    ch. 8 sec. 3):

        sum_{n>=1} f(n h) = f(h)/2 + (1/h) int_h^inf f
                            - 2 int_0^inf Im f(h + i h t) / (e^{2 pi t} - 1) dt,

    h = 2 pi T, exact for f analytic in Re s > 0; the line integral is taken
    on the fixed panels of `_LINE_T`, whose integrand has no singularity
    within 1 of the real t axis.  ``tol`` is the relative tolerance of the tails.
    """
    sign = np.asarray(sign, dtype=float)
    rows = sign.reshape(-1, 1)
    T = params.temperature
    edges, tail = _panel_edges(params, tol)
    x, w = gauss_panels(edges) if edges.size > 1 else (np.zeros(0), np.zeros(0))
    lead = np.stack([np.ones(len(rows)), 1.0 + channel_kernel_zero(params, rows[:, 0])])
    moments = 2.0 / math.pi * (np.sum(np.array(_moment_integrands(x, params, rows)) * w, axis=-1)
                               + lead / edges[-1])
    if T > 0:
        h = 2.0 * math.pi * T
        at_h = np.array(_moment_integrands(np.array([h]), params, rows))[..., 0]
        line = np.array(_moment_integrands(h * (1.0 + 1j * _LINE_T), params, rows)).imag
        moments += 2.0 * T * (1.0 + at_h) - 8.0 * T * np.sum(line * _LINE_W, axis=-1)
    alpha, beta = moments
    if sign.ndim == 0:
        return float(alpha[0]), float(beta[0]), tail
    return alpha, beta, tail


def covariance_asymptotic(params: ModelParams) -> CovarianceMatrix:
    """Stationary covariance; requires gamma > 0 and r >= 0.

    Both channels come from one `channel_asymptotic_moments` call at
    ``ASYMPTOTIC_TOL``.  At r = 0 the relative coordinate decouples and
    never forgets its initial state: only the symmetric row is summed, and
    the antisymmetric block keeps its ground-state value, the identity.  A T
    at or below `_THERMAL_FLOOR` Omega, whose thermal excess is below
    rounding, is taken as T = 0.  The direct Matsubara terms, the node count
    and the tail bound are logged at DEBUG on the "bathpair" logger.
    """
    if params.gamma <= 0:
        raise ValueError("covariance_asymptotic requires gamma > 0")
    if params.distance < 0:
        raise ValueError("covariance_asymptotic requires r >= 0")
    if params.temperature <= _THERMAL_FLOOR * params.omega_cut:
        params = params.with_(temperature=0.0)      # as in `_lag_kernels`
    damped = SIGNS if params.distance > 0 else SIGNS[:1]
    alpha, beta, tail_err = channel_asymptotic_moments(params, damped, ASYMPTOTIC_TOL)
    if _log.isEnabledFor(logging.DEBUG):
        thermal = params.temperature > 0
        edges, _ = _panel_edges(params, ASYMPTOTIC_TOL)
        nodes = 12 * (edges.size - 1) + thermal * (_LINE_T.size + 1)
        _log.debug("asymptotic moments for %s: %d direct Matsubara terms, %d nodes, "
                   "tail bound %.3e", params, 3 * thermal, nodes, tail_err)
    blocks = np.array([np.eye(2), np.eye(2)])   # the ground state where not integrated
    blocks[:len(damped), 0, 0] = alpha
    blocks[:len(damped), 1, 1] = beta
    c4 = four_by_four(*blocks)
    out = CovarianceMatrix(entries=c4, time_label="asymptotic")
    require_physical(out)
    return out


# ---------------------------------------------------------------------------
# transient covariance


def _filon_base(theta: np.ndarray):
    """Filon moments for a quadratic through three equispaced samples.

    With theta = omega*h, the pair integral over [a, a+2h] is
    e^{i omega (a+h)} * h * (2 f1 s0 + i (f2 - f0) p1 + (f0 - 2 f1 + f2) s2).
    Small-theta branches keep full precision.
    """
    theta = np.asarray(theta, dtype=float)
    small = np.abs(theta) < 5e-2
    th = np.where(small, 1.0, theta)
    s, c = np.sin(th), np.cos(th)
    t2 = theta * theta
    s0 = np.where(small, 1.0 - t2 / 6.0 + t2 * t2 / 120.0, s / th)
    p1 = np.where(small, theta / 3.0 - t2 * theta / 30.0 + t2 * t2 * theta / 840.0,
                  (s - th * c) / (th * th))
    s2 = np.where(small, 1.0 / 3.0 - t2 / 10.0 + t2 * t2 / 168.0,
                  ((th * th - 2.0) * s + 2.0 * th * c) / (th**3))
    return s0, p1, s2


def _sin_tail4(a, W: float):
    """int_W^inf sin(a w)/w^4 dw (odd in a); vectorized over a."""
    a = np.asarray(a, dtype=float)
    b = np.abs(a)
    out = np.sign(a) * (np.sin(b * W) / (3 * W**3) + (b / 3.0) * cos_tail(b, W, 3))
    return out if out.ndim else float(out)


def _channel_noise_tail(params: ModelParams, W: float, t,
                        g12, g22, dg12, dg22) -> np.ndarray:
    """Closed-form frequency tail of the transient noise blocks beyond W.

    Built from the by-parts expansion h_col = X/(i omega) + Y/omega^2 of the
    accumulated oscillatory integrals; only even (cos) and odd (sin) tail
    moments of the weight survive.  Accurate to O(|G'|^2 / W^4).  ``t`` is
    the (Nt,) output times and the G samples are (2, Nt), one row per
    channel of `SIGNS`; returns (2, Nt, 2, 2).
    """
    r = params.distance
    w_inf = _tail_prefactor(params)

    def cc(a):
        return cos_tail(a, W, 3) + SIGNS * 0.5 * (cos_tail(a - r, W, 3) + cos_tail(a + r, W, 3))

    def ss(a):
        return _sin_tail4(a, W) + SIGNS * 0.5 * (_sin_tail4(a - r, W) + _sin_tail4(a + r, W))

    c_0, c_t, s_t = cc(0.0), cc(t), ss(t)
    out = np.empty(np.shape(g12) + (2, 2))
    out[..., 0, 0] = w_inf * (g12 * g12 * c_0 - 2.0 * g12 * s_t)
    out[..., 0, 1] = out[..., 1, 0] = w_inf * (g12 * g22 * c_0 - g12 * c_t
                                              + (dg12 - g22) * s_t)
    out[..., 1, 1] = w_inf * ((1.0 + g22 * g22) * c_0 - 2.0 * g22 * c_t
                              + 2.0 * dg22 * s_t)
    return out


def _moment_rows(omega, h: float) -> np.ndarray:
    """The six products of Filon moments at omega h that the noise form
    weighs: (s0^2, s0 s2, s2^2, p1^2, p1 s0, p1 s2), shape (6,) + omega.shape."""
    s0, p1, s2 = _filon_base(omega * h)
    return np.stack([s0 * s0, s0 * s2, s2 * s2, p1 * p1, p1 * s0, p1 * s2])


# Endpoint weights of the cubic Filon rule (Press et al., Numerical Recipes,
# 3rd ed., sec. 13.9), written as
#     d_j theta^4 alpha_j(theta) = P_j(theta) + (6 + theta^2) sum_k c_jk e^{i k theta}
# with P_j a cubic; the first four Taylor orders cancel between the two parts.
_ALPHA_DEN = np.array([6.0, 6.0, 3.0, 6.0])
_ALPHA_POLY = np.array([[-42, -12j, 5, 6j], [42, 30j, -14, 0],
                        [-12, -12j, 4, 0], [6, 6j, -2, 0]])          # ascending powers
_ALPHA_FREQ = np.array([1, -1, -2])
_ALPHA_EXP = np.array([[4.0, 4.0, -1.0], [-6.0, -1.0, 0.0], [2.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
_SERIES_BELOW = 1.0   # |theta| below this takes the series; the closed form loses eps/theta^4


def _alpha_series(n_terms: int) -> np.ndarray:
    """Taylor coefficients (4, n_terms), ascending, of alpha_0..alpha_3.  With
    e_n those of sum_k c_jk e^{i k theta}, theta^m in alpha_j has
    (6 e_{m+4} + e_{m+2}) / d_j; 26 terms reach rounding level at |theta| = 1."""
    n = np.arange(n_terms + 4)
    factorial = np.cumprod(np.maximum(n, 1).astype(float))
    e = _ALPHA_EXP @ ((1j * _ALPHA_FREQ[:, None]) ** n / factorial)
    return (6.0 * e[:, 4:] + e[:, 2:-2]) / _ALPHA_DEN[:, None]


# alpha_j's Taylor coefficients are real at even powers of theta and
# imaginary at odd ones: two real polynomials in theta^2
_ALPHA_SERIES = _alpha_series(26)
_ALPHA_EVEN, _ALPHA_ODD = _ALPHA_SERIES[:, 0::2].real, _ALPHA_SERIES[:, 1::2].imag


def _filon_weights(theta):
    """Cubic Filon weights W(theta) and alpha_0..alpha_3(theta) at real theta
    of either sign: W has theta's shape, alpha is (4,) + theta.shape.

    W = (1 + theta^2/6) (sin(theta/2) / (theta/2))^4 is stable as written;
    alpha_j takes its Taylor series below |theta| = `_SERIES_BELOW` and the
    closed form above.
    """
    theta = np.asarray(theta, dtype=float)
    w = (1.0 + theta * theta / 6.0) * np.sinc(theta / (2.0 * math.pi)) ** 4
    flat = theta.ravel()
    small = np.abs(flat) < _SERIES_BELOW
    alpha = np.empty((4, flat.size), dtype=complex)
    x = flat[small]
    alpha[:, small] = P.polyval(x * x, _ALPHA_EVEN.T) + 1j * x * P.polyval(x * x, _ALPHA_ODD.T)
    th = flat[~small]
    alpha[:, ~small] = ((P.polyval(th, _ALPHA_POLY.T)
                         + (6.0 + th * th) * (_ALPHA_EXP @ np.exp(1j * _ALPHA_FREQ[:, None] * th)))
                        / (_ALPHA_DEN[:, None] * th**4))
    return w, alpha.reshape((4,) + theta.shape)


@functools.lru_cache(maxsize=64)
def _next_fast_len(n: int, real: bool = False) -> int:
    """The smallest length >= n whose prime factors are all 2, 3 and 5 (``real``)
    or 2 to 11: the lengths that numpy's FFT (pocketfft) factors fastest, and
    the same number as `scipy.fft.next_fast_len`.  Each length is found once."""
    odd = [1]               # the odd smooth m < 2n: the answer is one of them times 2^k
    for p in (3, 5) if real else (3, 5, 7, 11):
        grown = []
        for m in odd:
            while m < 2 * n:
                grown.append(m)
                m *= p
        odd = grown
    return min(m << (-(-n // m) - 1).bit_length() for m in odd)


def _dft_plan(period: int, n_nodes: int, n_out: int):
    """The transform `_zoom_dft` takes and its FFT length: ("plain", period)
    where the period is 11-smooth and no longer than the chirp's FFT, else
    ("chirp", that FFT length).  The period is checked for smoothness only
    below the chirp's length, so no longer length is ever factored."""
    n_fft = _next_fast_len(n_nodes + n_out - 1)
    if period <= n_fft and _next_fast_len(period) == period:
        return "plain", period
    return "chirp", n_fft


def _zoom_dft(g: np.ndarray, period: int, m_lo: int, n_out: int) -> np.ndarray:
    """sum_k g[..., k] e^{2 pi i k m / period} for m = m_lo, ..., m_lo + n_out - 1.

    One of two transforms, chosen by `_dft_plan` from the period and the
    node count.  Plain: the nodes fold modulo the period, and one inverse FFT
    of the period's length (a real FFT for real ``g``) gives the sum at every
    m modulo the period.
    Chirp (Bluestein): k m = (k^2 + m^2 - (m - k)^2) / 2 turns the sum into
    one FFT convolution of length n_nodes + n_out - 1 (rounded up to a fast
    length), whatever the period; it is taken where the period is longer
    than that FFT or has a prime factor above 11.  The chirp phases
    pi j^2 / period are reduced modulo 2 pi in integers, so they are exact at
    every j; a period beyond every j^2 needs no reduction, and may exceed the
    integer range.
    """
    n_nodes = g.shape[-1]
    kind, n_fft = _dft_plan(period, n_nodes, n_out)
    if kind == "plain":
        folded = np.zeros(g.shape[:-1] + (period,), dtype=g.dtype)
        for q in range(0, n_nodes, period):
            folded[..., :min(period, n_nodes - q)] += g[..., q:q + period]
        m = np.arange(m_lo, m_lo + n_out) % period
        if np.iscomplexobj(g):
            return np.fft.ifft(folded, norm="forward")[..., m]
        # real nodes: the sum is conj F_m for the forward FFT F, and F_{P-m} = conj F_m
        k = np.minimum(m, period - m)
        spec = np.fft.rfft(folded)[..., k]
        return np.where(m == k, spec.conj(), spec)

    def chirp(j):
        jj = j * j
        if 2 * period <= jj.max():
            jj %= 2 * period
        return np.exp(1j * (math.pi / period) * jj)

    kernel = np.conj(chirp(np.arange(m_lo - n_nodes + 1, m_lo + n_out)))
    conv = np.fft.ifft(np.fft.fft(g * chirp(np.arange(n_nodes)), n_fft)
                       * np.fft.fft(kernel, n_fft), n_fft)
    return chirp(np.arange(m_lo, m_lo + n_out)) * conv[..., n_nodes - 1:n_nodes - 1 + n_out]


def _node_spacing(dw_max: float, h: float, end: float, n_lags: int):
    """(dw, period) of the uniform nodes omega_k = k dw <= end (and the first
    past it) of `_fourier_part` for the lags 0 <= m < n_lags: dw = pi / (h
    period) <= dw_max.  The period is the least integer that allows it,
    raised to the next 11-smooth length where that is no longer than the
    chirp FFT of those lags on the least period's nodes (`_dft_plan`), so
    that `_zoom_dft` takes one plain FFT of the period.  The raise only makes
    dw finer, so the Filon error can only fall; once taken at some ``end``
    it is taken at every larger one."""
    period = math.ceil(math.pi / (h * dw_max))
    n_nodes = math.ceil(end / (math.pi / (h * period)) - 1e-9) + 1
    n_fft = _next_fast_len(n_nodes + n_lags - 1)
    if period <= n_fft and _next_fast_len(period) <= n_fft:
        period = _next_fast_len(period)
    return math.pi / (h * period), period


def _fourier_part(weight: np.ndarray, dw: float, period: int, h: float, n_lags: int,
                  transforms) -> list:
    """Fourier integrals of weight rows against the six Filon-moment rows, one
    (n_rows, 6, n_lags - first_lag) complex array per (shift, first_lag) of
    ``transforms``, at the lags first_lag <= m < n_lags:

        J[s, :, i] = int_0^end (weight(omega)[s]/2) F(omega h) e^{i omega tau} d omega,
        tau = 2 m h + shift,  m = first_lag + i,

    with F = `_moment_rows`.  ``weight`` holds (n_rows, n + 1) values at the
    nodes omega_k = k dw, k = 0..n, end = n dw, of `_node_spacing`, with
    dw = pi / (h period); F is evaluated once on them for every transform.
    Lag m's phase is e^{2 pi i k m / period} times the exact prephase
    e^{i omega_k shift}: all lags of a transform come from one `_zoom_dft`
    (one plain FFT of the period per row, or one chirp), and a shift costs
    no resolution in omega.  Cubic Filon rule with endpoint corrections
    (Press et al., Numerical Recipes, 3rd ed., sec. 13.9) at theta = dw tau.
    The integral ends on the last node, so no sliver is left past it;
    `_transient_omega_max` puts the cut of the T = 0 part on its node.
    """
    n = weight.shape[-1] - 1
    omega = dw * np.arange(n + 1)
    f = 0.5 * weight[:, None] * _moment_rows(omega, h)                   # (n_rows, 6, n + 1)
    out = []
    for shift, first_lag in transforms:
        theta = dw * (2.0 * h * np.arange(first_lag, n_lags) + shift)
        w, alpha = _filon_weights(theta)
        g = f * np.exp(1j * omega * shift) if shift else f
        j = w * _zoom_dft(g, period, first_lag, n_lags - first_lag)
        j += f[..., :4] @ alpha
        j += (f[..., n - np.arange(4)] @ alpha.conj()) * np.exp(1j * n * theta)
        out.append(dw * j)
    return out


_NODES_PER_SCALE = 400    # uniform nodes per smoothness scale of the spectrum
_FOLD_BELOW = 0.4         # r min(Omega, 1/h) below this: cos(omega r) stays in the weight
_THERMAL_CUT = 40.0       # coth(omega/2T) - 1 < 1e-17 beyond omega = 40 T
_THERMAL_FLOOR = 1e-9     # T / Omega below this, the thermal excess is below rounding


def _lag_kernels(params: ModelParams, h: float, n_lags: int, omega_max: float) -> np.ndarray:
    """Toeplitz lag kernels of the Filon noise form, one set per channel of `SIGNS`.

    Returns (2, 6, n_lags): for lags m < n_lags, the integrals over
    [0, omega_max] (a node of the T = 0 part's grid, from
    `_transient_omega_max` at the same n_lags) of (S/2)(1 +- cos omega r)
    times {s0^2, s0 s2, s2^2, p1^2} cos(2 m h omega) and {p1 s0, p1 s2}
    sin(2 m h omega), (s0, p1, s2) the Filon moments at omega h.

    The node spacing is a fixed fraction, 1/`_NODES_PER_SCALE`, of the
    shortest scale on which S (Omega, and 2 pi T) or the moments (1/h) vary,
    never of the time span.  Nor of r: where cos(omega r) would advance by
    more than `_FOLD_BELOW` / `_NODES_PER_SCALE` = 1e-3 per node, it becomes a
    lag shift, cos(omega r) e^{i omega t} = (e^{i omega (t + r)} + e^{i omega (t - r)}) / 2.
    Below that it stays in the weight, as 2 (cos^2, sin^2)(omega r / 2), which
    carries the antisymmetric channel's ~r^2 without the cancellation of a
    difference of shifted lags.  S is split into its T = 0 part on
    [0, omega_max] and, at T > 0, the thermal excess S_0 (coth(omega/2T) - 1),
    which lives below 40 T (up to its first node past 40 T), on its own finer
    grid; so the node count stays bounded as T -> 0+.  At r = 0 only the
    symmetric row is transformed: the antisymmetric one carries no noise and
    is zero.  Unshifted rows need only the lags m >= 0; the shifted one also
    needs m < 0, for J(-tau).  Each part evaluates its weight and moments
    once, for both transforms, and logs its grid and transforms at DEBUG.
    """
    r, Om, T = params.distance, params.omega_cut, params.temperature
    scale = min(Om, 1.0 / h)
    cold = params.with_(temperature=0.0)
    fold = r * scale < _FOLD_BELOW
    # at r = 0 the antisymmetric weight 2 sin^2(omega r / 2) is zero, and so is its row
    n_rows = 2 if r > 0 else 1
    # fold: one row per channel, with cos(omega r) in the weight; else the
    # unshifted row at m >= 0 and the shifted one at every lag
    transforms = [(0.0, 0)] if fold else [(0.0, 0), (r, 1 - n_lags)]

    parts = [("T = 0", lambda w: noise_spectrum(w, cold), omega_max, scale)]
    if T > _THERMAL_FLOOR * Om:
        parts.append(("thermal", lambda w: noise_spectrum(w, params) - noise_spectrum(w, cold),
                      min(omega_max, _THERMAL_CUT * T), min(scale, 2.0 * math.pi * T)))

    outs = []
    for name, spectrum, end, smooth in parts:
        dw, period = _node_spacing(smooth / _NODES_PER_SCALE, h, end, n_lags)
        omega = dw * np.arange(math.ceil(end / dw - 1e-9) + 1)
        if _log.isEnabledFor(logging.DEBUG):
            plans = ", ".join("%s FFT of %d at m >= %d"
                              % (*_dft_plan(period, omega.size, n_lags - first_lag), first_lag)
                              for _, first_lag in transforms)
            _log.debug("lag kernels, %s part: %d nodes, period %d, dw %.6g; %s",
                       name, omega.size, period, dw, plans)
        weight = spectrum(omega)
        if fold:
            weight = 2.0 * weight * np.stack(
                [np.cos(0.5 * omega * r), np.sin(0.5 * omega * r)][:n_rows]) ** 2
        outs.append(_fourier_part(np.atleast_2d(weight), dw, period, h, n_lags, transforms))

    total = [sum(js) for js in zip(*outs)]      # per transform, summed over the parts
    k = total[0]
    if not fold:    # J(-tau) = conj J(tau): tau = 2 m h - r is the conjugate of -2 m h + r
        j = total[1][0]
        k = k + SIGNS[:, :, None] * 0.5 * (j[:, n_lags - 1:] + np.conj(j[:, n_lags - 1::-1]))
    out = np.zeros((2, 6, n_lags))
    out[:n_rows] = np.concatenate([k[:, :4].real, k[:, 4:].imag], axis=1)
    return out


def _transient_omega_max(params: ModelParams, h: float, tol: float, n_lags: int) -> float:
    """Frequency cut of the transient noise at the Filon step ``h``: the
    smallest whose tail-correction error bound 2 w_inf (1 + (1 + K(0))^2) /
    omega_max^4 meets ``tol`` (K(0) the larger channel kernel at t = 0), and
    at least 15 max(Omega, 1), raised to the next node of the T = 0 part of
    `_lag_kernels` at ``n_lags`` lags, where that part's Filon sum ends; the
    bound only falls as the cut rises.  The grid is chosen again at that
    node: one that turns plain there stays plain at its own next node."""
    k0 = float(np.max(channel_kernel_zero(params, SIGNS)))
    need = (2.0 * _tail_prefactor(params) * (1.0 + (1.0 + k0) ** 2) / max(tol, 1e-12)) ** 0.25
    dw_max = min(params.omega_cut, 1.0 / h) / _NODES_PER_SCALE
    cut = max(15.0 * params.omega_cut, 15.0, need)
    dw, _ = _node_spacing(dw_max, h, cut, n_lags)
    cut = dw * math.ceil(cut / dw)
    dw, _ = _node_spacing(dw_max, h, cut, n_lags)
    return dw * math.ceil(cut / dw - 1e-9)


def _pair_noise(g_cols: np.ndarray, params: ModelParams, h: float, n_pairs: int,
                omega_max: float) -> np.ndarray:
    """Filon-discretized noise blocks N(p), p = 0..n_pairs, of each channel.

    g_cols is (n_ch, 2, N_grid): the (G12, G22) samples of each channel of
    `SIGNS`; the noise is integrated up to omega_max.
    With u_q = h (2 f1, f0 - 2 f1 + f2, f2 - f0) the Filon coefficients of
    pair q, P(omega, p) = sum_{q<p} e^{i omega (2q+1) h} (u_q . (s0, s2, i p1)),
    and

        N_ab(p) = int (S/2)(1 +- cos omega r) Re P_a conj(P_b) d omega
                = sum_{q,q'<p} u^a_q . K(q - q') u^b_q',

    with K(m) the 3x3 matrix of `_lag_kernels` and K(-m) = K(m)^T.  Its
    increments N(p+1) - N(p) need only the causal products Z = K * u, one
    FFT convolution per channel (Hairer, Lubich & Schlichte, SIAM J. Sci.
    Stat. Comput. 6, 532, 1985).  Returns (n_ch, n_pairs + 1, 2, 2).
    """
    n_ch = g_cols.shape[0]
    out = np.zeros((n_ch, n_pairs + 1, 2, 2))
    if n_pairs == 0:
        return out
    c00, c02, c22, c11, s10, s12 = _lag_kernels(params, h, n_pairs, omega_max).transpose(1, 0, 2)
    k = np.stack([np.stack([c00, c02, s10], 1),
                  np.stack([c02, c22, s12], 1),
                  np.stack([-s10, -s12, c11], 1)], 1)                # (n_ch, 3, 3, n)
    f0, f1, f2 = (g_cols[..., i:i + 2 * n_pairs:2] for i in range(3))
    u = h * np.stack([2.0 * f1, f0 - 2.0 * f1 + f2, f2 - f0], axis=2)  # (n_ch, 2, 3, n)
    n_fft = _next_fast_len(2 * n_pairs - 1, real=True)
    spec = np.einsum("cijf,cxjf->cxif", np.fft.rfft(k, n_fft), np.fft.rfft(u, n_fft))
    z = np.fft.irfft(spec, n_fft)[..., :n_pairs]                     # (n_ch, 2, 3, n)
    uz = np.einsum("cxip,cyip->cxyp", u, z)
    uku = np.einsum("cxip,cij,cyjp->cxyp", u, k[..., 0], u)       # K(0) is symmetric
    step = uz + uz.transpose(0, 2, 1, 3) - uku
    out[:, 1:] = np.cumsum(step, axis=-1).transpose(0, 3, 1, 2)
    return out


def covariance_time_series(greens: GreensFunction, params: ModelParams, times,
                           c0: CovarianceMatrix | None = None,
                           tol: float = 1e-5) -> CovarianceMatrix:
    """C(t) at the requested times (each must sit on the stored G pair grid),
    as one stack in the order requested; t = 0 gives ``c0`` itself.

    Both channels run in one pass over the channel axis.  The noise of all
    requested times comes from one set of lag kernels (`_lag_kernels`, all
    lags of a uniform frequency grid by one plain or chirp FFT) and one FFT
    convolution per channel (`_pair_noise`): O(N log N + N_pairs log N_pairs),
    N the frequency nodes plus the lags.  The frequency cut omega_max is
    `_transient_omega_max(params, h, tol, n_pairs)`.  ``c0`` and the outputs must pass
    `require_physical`; a refusal names the first unphysical time.
    """
    h = greens.spacing
    grid = greens.time_grid
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if np.any(times < 0):
        raise ValueError("negative times requested")
    if np.any(times > grid[-1] + 1e-9):
        raise ValueError(
            f"requested time beyond stored Green's function grid "
            f"(t_max = {grid[-1]})")

    pair_idx = times / (2.0 * h)
    pair_int = np.rint(pair_idx).astype(int)
    if np.any(np.abs(pair_idx - pair_int) > 1e-6):
        raise ValueError("requested times must lie on the pair grid of G "
                         f"(step {2 * h})")

    c0 = c0 if c0 is not None else ground_state_covariance()
    require_physical(c0)
    cp0, cm0, cx0 = channel_blocks(c0.entries)

    pairs, inverse = np.unique(pair_int, return_inverse=True)
    n_pairs = int(pairs[-1])
    omega_max = _transient_omega_max(params, h, tol, n_pairs)
    series = greens.channel_series                  # (2, N_grid, 2, 2)
    noise = np.zeros((2, n_pairs + 1, 2, 2))
    if n_pairs > 0:
        noise = _pair_noise(series[..., 1].swapaxes(1, 2), params, h, n_pairs, omega_max)

    gi = 2 * pairs
    t_out = grid[gi]
    g = series[:, gi]
    dg = np.gradient(series[..., 1], h, axis=1, edge_order=2)[:, gi]
    tail = _channel_noise_tail(params, omega_max, t_out, g[..., 0, 1], g[..., 1, 1],
                               dg[..., 0], dg[..., 1])
    c0_blocks = np.stack([cp0, cm0])[:, None]
    blocks = g @ c0_blocks @ g.swapaxes(-1, -2) + noise[:, pairs] + tail
    cross = g[0] @ cx0 @ g[1].swapaxes(-1, -2)
    c4 = four_by_four(*blocks, cross)
    c4[pairs == 0] = c0.entries
    out = CovarianceMatrix(entries=c4, time_label=t_out)
    require_physical(out)
    return out[inverse]
