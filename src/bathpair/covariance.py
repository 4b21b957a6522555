"""Transient and asymptotic covariance of the two oscillators.

All noise integration happens in the frequency domain against the bath
spectrum: the time-domain kernel is log-divergent at coincident arguments,
while for every frequency the noise contribution is a positive quadratic
form, absolutely convergent and numerically benign.  The covariance is the
doubled symmetrized moment matrix (vacuum = identity); the spectrum
`kernels.noise_spectrum` already carries that doubling, so quadratic forms
integrate against S(omega)/2.

Asymptotic state (gamma > 0, r > 0 so the initial state is forgotten):

    C_inf = int_0^infty domega (S/2) Herm[ g(omega) M(omega) g(omega)^dag ],

g(omega) the resolvent on the imaginary axis and M the noise structure
matrix (velocity sector, cross entries cos(omega r)).  In channel
coordinates M diagonalizes to weights (1 +- cos(omega r)) and C_inf is
diagonal per channel, which is the form actually integrated.

Transient state:

    C(t) = G(t) C0 G(t)^T + int domega (S/2) Herm[ h M h^dag ],
    h(omega, t) = int_0^t G(u) e^{i omega u} du,

with h summed over the stored G grid by a Filon rule (quadratic
interpolation of G per node pair, oscillatory factor exact).  The noise
integral is then a quadratic form in the per-pair Filon coefficients whose
matrix depends only on the lag between pairs, so a full time series costs
one set of Toeplitz lag kernels (a frequency sum per lag) and one FFT
convolution per channel.  Beyond omega_max the integrand is replaced by its
large-frequency expansion and integrated in closed form.

A `CovarianceMatrix` is one 4x4 matrix or an (n, 4, 4) stack with an (n,)
array of times: `covariance_time_series` returns its whole series as one
stack, which `entanglement.log_negativity` takes as it is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import fft
from scipy.optimize import brentq

from ._panels import cos_tail, gauss_panels, merge_edges
from .entanglement import _first, require_physical
from .greens import GreensFunction, channel_blocks, channel_det, channel_kernel_zero, four_by_four
from .kernels import coth, noise_spectrum
from .model import ModelParams

__all__ = [
    "CovarianceMatrix",
    "ground_state_covariance",
    "covariance_asymptotic",
    "asymptotic_omega_max",
    "covariance_time_series",
    "channel_asymptotic_moments",
    "channel_resonances",
    "frequency_grid",
    "TruncationError",
]


class TruncationError(RuntimeError):
    """Frequency-truncation error estimate exceeded the requested tolerance."""


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
        return CovarianceMatrix(entries=self.entries[i], time_label=self.time_label[i])

    def __iter__(self):
        return (self[i] for i in range(len(self)))


def ground_state_covariance() -> CovarianceMatrix:
    """Both oscillators in their ground state: the identity matrix."""
    return CovarianceMatrix(entries=np.eye(4), time_label=0.0)


ASYMPTOTIC_TOL = 1e-6    # frequency-tail tolerance of the asymptotic covariance


# ---------------------------------------------------------------------------
# frequency grids


def _noise_weight(omega, params: ModelParams, sign: int):
    """Per-frequency quadratic-form weight (S/2) * (1 +- cos(omega r))."""
    omega = np.asarray(omega, dtype=float)
    return 0.5 * noise_spectrum(omega, params) * (1.0 + sign * np.cos(omega * params.distance))


def _tail_prefactor(params: ModelParams) -> float:
    """Large-frequency coefficient of the weight: (S/2) -> w_inf / omega."""
    return 4.0 * params.gamma * params.omega_cut**2 / math.pi


def channel_resonances(params: ModelParams, sign: int) -> list:
    """All sharp features of 1/|D(i omega)|^2: [(omega_res, width), ...].

    Zeros of Re D(i omega) mark resonances; their width is
    omega * Re Gamma^ / |d Re D / d omega|.  At large separation the
    imaginary kernel oscillates in omega, so Re D can cross zero several
    times, and crossings near nulls of the channel damping produce very
    narrow spikes; every crossing gets its own width estimate.
    """
    from .greens import channel_kernel_laplace

    om_hi = 3.0 + 3.0 * params.gamma
    step = min(0.01, math.pi / (10.0 * (params.distance + 1.0)))
    grid = np.arange(step, om_hi, step)
    red = np.real(channel_det(1j * grid, params, sign))

    def re_d(om):
        return float(np.real(channel_det(np.asarray(1j * om, dtype=complex),
                                         params, sign)))

    out = []
    flips = np.nonzero(np.diff(np.sign(red)) != 0)[0]
    for i in flips:
        om_res = brentq(re_d, grid[i], grid[i + 1], xtol=1e-13)
        gam_r = float(np.real(channel_kernel_laplace(
            np.asarray(1j * om_res, dtype=complex), params, sign)))
        d_red = abs(re_d(om_res + 1e-6) - re_d(om_res - 1e-6)) / 2e-6
        width = om_res * max(gam_r, 0.0) / max(d_red, 1e-9)
        out.append((om_res, max(width, 1e-9)))
    if not out:
        gam_r = float(np.real(channel_kernel_laplace(
            np.asarray(1j, dtype=complex), params, sign)))
        out.append((1.0, max(gam_r, 1e-9)))
    return out


def frequency_grid(params: ModelParams, omega_max: float, t_scale: float = 0.0):
    """Gauss-Legendre panel grid (12 nodes per panel) on [0, omega_max] for
    the noise integrals.

    Panel width is capped so that the fastest oscillation (set by the
    retardation r and the requested time horizon) stays resolved, with
    geometric refinement around each channel resonance; the antisymmetric
    one can be orders of magnitude narrower than everything else.  At strong
    damping the symmetric channel's 1/|D|^2 also has a Lorentzian peak at
    omega = 0, half-width 1/Gamma_+^(0) = 1/(4 gamma), where Re D has no zero.
    """
    r = params.distance
    Om = params.omega_cut
    cap = min(0.5, Om / 4.0, 2.5 / max(t_scale, r, 1e-9))
    cap = max(cap, omega_max / 200000.0)
    n_panels = int(math.ceil(omega_max / cap))
    base = np.linspace(0.0, omega_max, n_panels + 1)

    features = channel_resonances(params, +1) + channel_resonances(params, -1)
    if params.gamma > 0:
        features.append((0.0, 0.25 / params.gamma))
    clusters = []
    for om_res, width in features:
        if width * 2.0 < cap:
            ladder = width * np.array([0.5, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512])
            ladder = ladder[ladder < 8.0 * cap]
            clusters.append(om_res + ladder)
            clusters.append(om_res - ladder)
            clusters.append([om_res])
    edges = merge_edges(base, [Om / 2, Om, 2 * Om], *clusters, lo=0.0, hi=omega_max)
    return gauss_panels(edges)


# ---------------------------------------------------------------------------
# asymptotic covariance


def _tail_coefficient(params: ModelParams, sign: int) -> float:
    """Bound on the dropped-order coefficient of the beta integrand.

    At large omega, (S/2) = (w_inf/omega)(1 - Omega^2/omega^2 + ...) and
    Re D(i omega) = -omega^2 + 1 + K(0) + O(1/omega), with K(0) the
    channel kernel at t = 0, so

        (S/2) omega^2 / |D|^2 = (w_inf/omega^3) (1 + c/omega^2 + O(omega^-3)),
        c = 2 (1 + K(0)) - Omega^2.

    The two parts of c are bounded separately, so that an accidental
    cancellation between the Drude and the kernel term cannot hide the
    next order.
    """
    return 2.0 * (1.0 + channel_kernel_zero(params, sign)) + params.omega_cut**2


def _asymptotic_tail_error(params: ModelParams, sign: int, omega_max: float) -> float:
    """Bound on what the closed-form tail of `channel_asymptotic_moments`
    drops from beta (alpha's share is smaller by 1/omega_max^2).

    Two parts, each with 1 +- cos(omega r) <= 2: the next order of the
    large-omega expansion (`_tail_coefficient`), and at T > 0 the thermal
    excess coth(omega/2T) - 1 that the tail sets to zero, bounded by its
    value at omega_max.
    """
    w_inf = _tail_prefactor(params)
    err = 2.0 * w_inf * _tail_coefficient(params, sign) * cos_tail(0.0, omega_max, 5)
    if params.temperature > 0:
        excess = coth(omega_max / (2.0 * params.temperature)) - 1.0
        err += 2.0 * w_inf * excess * cos_tail(0.0, omega_max, 3)
    return float(err)


def asymptotic_omega_max(params: ModelParams, tol: float) -> float:
    """Frequency cut of the asymptotic noise integrals for tolerance ``tol``.

    Inverts the tail estimate of `channel_asymptotic_moments` for both
    channels, with a floor of 15 max(Omega, 1) so that the large-omega
    expansion the tail rests on holds.  The expansion part,
    w_inf c / (2 omega_max^4) <= tol, is inverted in closed form; the cut
    is then raised in 5 % steps until the thermal part fits as well.
    """
    c = max(_tail_coefficient(params, +1), _tail_coefficient(params, -1))
    need = (_tail_prefactor(params) * c / (2.0 * tol)) ** 0.25 * (1.0 + 1e-9)  # rounding margin
    omega_max = float(max(15.0 * max(params.omega_cut, 1.0), need))
    while max(_asymptotic_tail_error(params, s, omega_max) for s in (+1, -1)) > tol:
        omega_max *= 1.05
    return omega_max


_BLOCK = 1 << 15    # grid nodes per vectorized step of the channel integrals


def channel_asymptotic_moments(params: ModelParams, sign: int,
                               omega_max: float, tol: float, grid=None):
    """Stationary (position, velocity) variances of one channel.

    Returns (alpha, beta, tail_error_estimate).  The weight of the noise
    quadratic form against |col_2 of g|^2 gives exactly diag(1, omega^2)
    after taking the Hermitian part, so both moments are single integrals
    of weight / |D(i omega)|^2.  ``grid`` is a `frequency_grid` on
    [0, omega_max] (built here when not given); it is summed in blocks of
    nodes, so memory stays flat however many nodes it has.  Beyond
    omega_max the integrand's leading w_inf (1 +- cos(omega r)) / omega^3
    term is integrated in closed form; `_asymptotic_tail_error` bounds
    what that drops.
    """
    x, w = frequency_grid(params, omega_max, t_scale=0.0) if grid is None else grid
    alpha = beta = 0.0
    for lo in range(0, x.size, _BLOCK):
        xb = x[lo:lo + _BLOCK]
        core = (w[lo:lo + _BLOCK] * _noise_weight(xb, params, sign)
                / np.abs(channel_det(1j * xb, params, sign)) ** 2)
        alpha += float(np.sum(core))
        beta += float(np.sum(core * xb * xb))

    r = params.distance
    w_inf = _tail_prefactor(params)
    alpha += w_inf * (cos_tail(0.0, omega_max, 5) + sign * cos_tail(r, omega_max, 5))
    beta += w_inf * (cos_tail(0.0, omega_max, 3) + sign * cos_tail(r, omega_max, 3))
    tail_err = _asymptotic_tail_error(params, sign, omega_max)
    if tail_err > tol:
        raise TruncationError(
            f"asymptotic tail estimate {tail_err:.3e} > tol {tol:.3e}; "
            f"raise omega_max (currently {omega_max})")
    return alpha, beta, tail_err


def covariance_asymptotic(params: ModelParams) -> CovarianceMatrix:
    """Stationary covariance; requires gamma > 0 and r > 0.

    At r = 0 the relative coordinate decouples exactly and never forgets
    its initial state, so no initial-state-independent limit exists.
    The frequency cut is `asymptotic_omega_max(params, ASYMPTOTIC_TOL)`:
    the smallest cut whose tail estimate meets ``ASYMPTOTIC_TOL``, and at
    least 15 max(Omega, 1).  Both channels share one frequency grid.
    """
    if params.gamma <= 0:
        raise ValueError("covariance_asymptotic requires gamma > 0")
    if params.distance <= 0:
        raise ValueError("covariance_asymptotic requires r > 0 "
                         "(relative coordinate undamped at r = 0)")
    omega_max = asymptotic_omega_max(params, ASYMPTOTIC_TOL)
    grid = frequency_grid(params, omega_max, t_scale=0.0)
    ap, bp, _ = channel_asymptotic_moments(params, +1, omega_max, ASYMPTOTIC_TOL, grid)
    am, bm, _ = channel_asymptotic_moments(params, -1, omega_max, ASYMPTOTIC_TOL, grid)
    c4 = four_by_four(np.diag([ap, bp]), np.diag([am, bm]))
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


def _channel_noise_tail(params: ModelParams, sign: int, W: float, t,
                        g12, g22, dg12, dg22) -> np.ndarray:
    """Closed-form frequency tail of the transient noise block beyond W.

    Built from the by-parts expansion h_col = X/(i omega) + Y/omega^2 of the
    accumulated oscillatory integrals; only even (cos) and odd (sin) tail
    moments of the weight survive.  Accurate to O(|G'|^2 / W^4).  The time
    and the G samples are arrays over output times; returns (Nt, 2, 2).
    """
    r = params.distance
    w_inf = _tail_prefactor(params)

    def cc(a):
        return cos_tail(a, W, 3) + sign * 0.5 * (cos_tail(a - r, W, 3) + cos_tail(a + r, W, 3))

    def ss(a):
        return _sin_tail4(a, W) + sign * 0.5 * (_sin_tail4(a - r, W) + _sin_tail4(a + r, W))

    c_0, c_t, s_t = cc(0.0), cc(t), ss(t)
    out = np.empty(np.shape(t) + (2, 2))
    out[..., 0, 0] = w_inf * (g12 * g12 * c_0 - 2.0 * g12 * s_t)
    out[..., 0, 1] = out[..., 1, 0] = w_inf * (g12 * g22 * c_0 - g12 * c_t
                                              + (dg12 - g22) * s_t)
    out[..., 1, 1] = w_inf * ((1.0 + g22 * g22) * c_0 - 2.0 * g22 * c_t
                              + 2.0 * dg22 * s_t)
    return out


_NODE_BLOCK = 2048   # frequency nodes per step of the lag-kernel build
_FINE_LAGS = 64      # lags m = b L + j, L = _FINE_LAGS, share the coarse phase e^{i b L phi}


def _lag_kernels(x: np.ndarray, weights: np.ndarray, h: float, n_lags: int) -> np.ndarray:
    """Toeplitz lag kernels of the Filon noise form, one set per row of ``weights``.

    With phi = 2 omega h and (s0, p1, s2) the Filon moments at omega h,
    returns (n_rows, 6, n_lags): for lags m < n_lags the sums over nodes
    of weight * {s0^2, s0 s2, s2^2, p1^2} * cos(m phi) and of
    weight * {p1 s0, p1 s2} * sin(m phi).  Lag m = b L + j splits its phase
    as e^{i b L phi} e^{i j phi}: the coarse factor goes with the weights
    into the left operand and the fine one into the right, so a block of
    nodes costs one real matrix product and no per-(node, lag)
    trigonometry, and memory stays flat in the number of nodes.
    """
    L = _FINE_LAGS
    n_rows = weights.shape[0]
    n_coarse = -(-n_lags // L)
    coarse = L * np.arange(n_coarse)
    acc = np.zeros((n_rows * 6 * n_coarse, L))
    for lo in range(0, x.size, _NODE_BLOCK):
        xb = x[lo:lo + _NODE_BLOCK]
        s0, p1, s2 = _filon_base(xb * h)
        f = (weights[:, None, None, lo:lo + _NODE_BLOCK]    # (rows, 6, 1, n)
             * np.stack([s0 * s0, s0 * s2, s2 * s2, p1 * p1, p1 * s0, p1 * s2])[:, None])
        phi = 2.0 * h * xb
        cc, sc = np.cos(np.outer(coarse, phi)), np.sin(np.outer(coarse, phi))
        # cos((bL + j) phi) = cc cf - sc sf,  sin((bL + j) phi) = sc cf + cc sf
        left = np.empty((n_rows, 6, n_coarse, 2, xb.size))
        left[:, :4, :, 0] = f[:, :4] * cc
        left[:, :4, :, 1] = -f[:, :4] * sc
        left[:, 4:, :, 0] = f[:, 4:] * sc
        left[:, 4:, :, 1] = f[:, 4:] * cc
        fine = np.outer(phi, np.arange(L))
        acc += left.reshape(acc.shape[0], -1) @ np.concatenate([np.cos(fine), np.sin(fine)])
    return acc.reshape(n_rows, 6, n_coarse * L)[..., :n_lags]


def _pair_noise(g_cols: np.ndarray, x: np.ndarray, weights: np.ndarray, h: float,
                n_pairs: int) -> np.ndarray:
    """Filon-discretized noise blocks N(p), p = 0..n_pairs, of each channel.

    g_cols is (n_ch, 2, N_grid): the (G12, G22) samples of each channel;
    weights is (n_ch, N_omega): quadrature weight times noise weight.
    With u_q = h (2 f1, f0 - 2 f1 + f2, f2 - f0) the Filon coefficients of
    pair q, P(omega, p) = sum_{q<p} e^{i omega (2q+1) h} (u_q . (s0, s2, i p1)),
    and

        N_ab(p) = sum_omega w Re P_a conj(P_b) = sum_{q,q'<p} u^a_q . K(q - q') u^b_q',

    with K(m) the 3x3 matrix of `_lag_kernels` and K(-m) = K(m)^T.  Its
    increments N(p+1) - N(p) need only the causal products Z = K * u, one
    FFT convolution per channel (Hairer, Lubich & Schlichte, SIAM J. Sci.
    Stat. Comput. 6, 532, 1985).  Returns (n_ch, n_pairs + 1, 2, 2).
    """
    n_ch = g_cols.shape[0]
    out = np.zeros((n_ch, n_pairs + 1, 2, 2))
    if n_pairs == 0:
        return out
    c00, c02, c22, c11, s10, s12 = _lag_kernels(x, weights, h, n_pairs).transpose(1, 0, 2)
    k = np.stack([np.stack([c00, c02, s10], 1),
                  np.stack([c02, c22, s12], 1),
                  np.stack([-s10, -s12, c11], 1)], 1)                # (n_ch, 3, 3, n)
    f0, f1, f2 = (g_cols[..., i:i + 2 * n_pairs:2] for i in range(3))
    u = h * np.stack([2.0 * f1, f0 - 2.0 * f1 + f2, f2 - f0], axis=2)  # (n_ch, 2, 3, n)
    n_fft = fft.next_fast_len(2 * n_pairs - 1, real=True)
    spec = np.einsum("cijf,cxjf->cxif", fft.rfft(k, n_fft), fft.rfft(u, n_fft))
    z = fft.irfft(spec, n_fft)[..., :n_pairs]                        # (n_ch, 2, 3, n)
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

    The noise of all requested times comes from one set of lag kernels and
    one FFT convolution per channel (`_pair_noise`): O(N_omega * N_pairs)
    for the kernels plus O(N_pairs log N_pairs).  The frequency cut
    omega_max is the smallest whose tail-correction error bound
    2 w_inf (1 + (1 + K(0))^2) / omega_max^4 meets ``tol`` (K(0) the larger
    channel kernel at t = 0), and at least 15 max(Omega, 1).  ``c0`` and
    the outputs must pass `require_physical`; a refusal names the first
    unphysical time.
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

    k0 = max(channel_kernel_zero(params, s) for s in (+1, -1))
    need = (2.0 * _tail_prefactor(params) * (1.0 + (1.0 + k0) ** 2)
            / max(tol, 1e-12)) ** 0.25
    omega_max = float(max(15.0 * params.omega_cut, 15.0, need))
    pairs, inverse = np.unique(pair_int, return_inverse=True)
    n_pairs = int(pairs[-1])
    signs = (+1, -1)
    series = {s: greens.channel_series[s] for s in signs}
    noise = np.zeros((2, n_pairs + 1, 2, 2))
    if n_pairs > 0:
        x, w = frequency_grid(params, omega_max,
                              t_scale=max(float(times.max()), params.distance))
        weights = np.stack([w * _noise_weight(x, params, s) for s in signs])
        g_cols = np.stack([series[s][:, :, 1].T for s in signs])
        noise = _pair_noise(g_cols, x, weights, h, n_pairs)

    gi = 2 * pairs
    t_out = grid[gi]
    blocks = {}
    for k, s in enumerate(signs):
        g = series[s][gi]
        dg = np.gradient(series[s][:, :, 1], h, axis=0, edge_order=2)[gi]
        tail = _channel_noise_tail(params, s, omega_max, t_out, g[:, 0, 1], g[:, 1, 1],
                                   dg[:, 0], dg[:, 1])
        c0_block = cp0 if s > 0 else cm0
        blocks[s] = g @ c0_block @ g.transpose(0, 2, 1) + noise[k, pairs] + tail
    cross = series[+1][gi] @ cx0 @ series[-1][gi].transpose(0, 2, 1)
    c4 = four_by_four(blocks[+1], blocks[-1], cross)
    c4[pairs == 0] = c0.entries
    out = CovarianceMatrix(entries=c4, time_label=t_out)
    require_physical(out)
    return out[inverse]
