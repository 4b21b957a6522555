"""Independent brute-force validator: discretized bath, exact Gaussian evolution.

The bath is discretized on a linear frequency grid; couplings are fixed by
matching the spectral density with unit mode masses,
g_k^2 = 2 omega_k J(omega_k) dOmega.
Exchange symmetry splits the quadratic Hamiltonian into two independent
channels, each a chain of one collective coordinate plus N bath modes, with
the quadratic counter-term that cancels the bath-induced frequency shift.
Each chain is evolved exactly: its position-sector quadratic form V is
diagonalized once and the symplectic propagator

    S(t) = [[ U cos(mu t) U^T,        U sin(mu t)/mu U^T ],
            [ -U mu sin(mu t) U^T,    U cos(mu t) U^T    ]]

is exp(t * Sigma * H) in closed form, so there is no step error for the
discrete bath at any t.  Only the two system rows of S(t) are ever
materialized, which makes long series of reduced covariances cheap.

Against the continuum bath the discrete one differs in two ways, and
`reduced_covariance_series` corrects both from the oracle's own channel
Green's function g = (G12, G22) (the response of (u, udot) to a kick):

* Modes above omega_max_bath = W are missing, and with them their vacuum
  noise.  With (S/2) -> w_inf / omega, w_inf = 4 gamma Omega^2 / pi, and
  h(omega, t) = int_0^t g(u) e^{i omega u} du ~ (g(t) e^{i omega t} - e_2)/(i omega)
  (by parts, g(0) = e_2), the missing noise of channel +- is

      w_inf [ (g g^T + e_2 e_2^T) c(0) - (g e_2^T + e_2 g^T) c(t) ],
      c(a) = int_W^inf (1 +- cos(omega r)) cos(omega a) / omega^3 domega,

  about w_inf (1 + G22^2) / (2 W^2) on the momentum entry; the next order
  is smaller by |g'| / W.
* Midpoint sampling with spacing dOmega turns the channel noise kernel
  nu(tau) = int (S/2)(1 +- cos(omega r)) cos(omega tau) domega into the
  alternating image sum sum_m (-1)^m nu(tau + m t_rec), t_rec = 2 pi/dOmega
  (Poisson summation).  At T = 0 the kernel has the power-law tail
  nu(tau) ~ -(4 gamma/pi)[f(tau) +- (f(tau - r) + f(tau + r))/2], with
  f = 1/tau^2 (f = (pi T)^2 / sinh^2(pi T tau) at T > 0), so the images
  reach back to t << t_rec: at dOmega = 0.13 they shift the position
  entries by ~1e-3.  Their contribution
  int_0^t int_0^t g(u) g(u')^T I(u - u') du du',
  I(tau) = sum_{m != 0} (-1)^m nu(tau + m t_rec), is computed on a
  midpoint grid in u and subtracted.

Both corrections act on the noise only; the mean dynamics
(`system_propagator_series`) is the discrete bath's own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._panels import cos_tail
from .covariance import CovarianceMatrix
from .greens import channel_blocks, four_by_four
from .kernels import coth
from .model import ModelParams, spectral_density

__all__ = [
    "DiscreteBath",
    "build_bath",
    "reduced_covariance_series",
    "system_propagator_series",
    "RecurrenceHorizonError",
    "SymplecticityError",
]


class RecurrenceHorizonError(ValueError):
    """Discretization too coarse for the requested comparison time."""


class SymplecticityError(RuntimeError):
    """Propagator lost symplecticity beyond tolerance."""


@dataclass(frozen=True)
class DiscreteBath:
    """Sampled bath modes; the same (omega_k, g_k) list serves both channels."""

    omegas: np.ndarray          # mode frequencies, midpoint grid
    couplings: np.ndarray       # g_k > 0
    k_spacing: float            # dk = dOmega (omega = c k with c = 1)
    n_modes: int

    @property
    def recurrence_time(self) -> float:
        return 2.0 * math.pi / self.k_spacing


def build_bath(params: ModelParams, n_modes: int, omega_max_bath: float,
               compare_time: float | None = None) -> DiscreteBath:
    """Linear-in-omega discretization with J-matching couplings.

    Midpoint sampling avoids the omega = 0 mode.  If ``compare_time`` is
    given, configurations whose recurrence horizon t_rec/2 does not cover it
    are rejected, and so are those where it reaches t_rec - r, the arrival
    of the retarded kernel's first image.
    """
    if n_modes < 100:
        raise ValueError(f"n_modes must be >= 100 (got {n_modes})")
    if omega_max_bath < 20.0 * params.omega_cut:
        raise ValueError(
            f"omega_max_bath must be >= 20*Omega = {20 * params.omega_cut}")
    dw = omega_max_bath / n_modes
    om = (np.arange(n_modes) + 0.5) * dw
    g2 = 2.0 * om * spectral_density(om, params) * dw
    bath = DiscreteBath(omegas=om, couplings=np.sqrt(g2), k_spacing=dw,
                        n_modes=n_modes)
    if compare_time is not None and compare_time >= 0.5 * bath.recurrence_time:
        raise RecurrenceHorizonError(
            f"comparison time {compare_time} exceeds recurrence horizon "
            f"t_rec/2 = {0.5 * bath.recurrence_time:.3f}; increase n_modes")
    if compare_time is not None and compare_time + params.distance >= bath.recurrence_time:
        raise RecurrenceHorizonError(
            f"comparison time {compare_time} reaches the first image of the "
            f"retarded kernel at t_rec - r = {bath.recurrence_time - params.distance:.3f}; "
            "increase n_modes")
    return bath


# ---------------------------------------------------------------------------
# per-channel normal modes


@dataclass(frozen=True)
class _ChannelModes:
    """Eigenmodes of one channel chain (collective coordinate + bath)."""

    mu: np.ndarray              # normal-mode frequencies, shape (N+1,)
    modes: np.ndarray           # orthogonal eigenvectors, columns


def _channel_couplings(bath: DiscreteBath, params: ModelParams, sign: int) -> np.ndarray:
    # wavenumber k = omega_k / c with c = 1
    half = 0.5 * bath.omegas * params.distance
    proj = np.cos(half) if sign > 0 else np.sin(half)
    return math.sqrt(2.0) * bath.couplings * proj


def _channel_potential(bath: DiscreteBath, params: ModelParams, sign: int) -> np.ndarray:
    lam = _channel_couplings(bath, params, sign)
    n = bath.n_modes
    v = np.zeros((n + 1, n + 1))
    v[0, 0] = 1.0 + float(np.sum(lam**2 / bath.omegas**2))   # counter-term
    v[0, 1:] = lam
    v[1:, 0] = lam
    idx = np.arange(1, n + 1)
    v[idx, idx] = bath.omegas**2
    return v


def _channel_modes(bath: DiscreteBath, params: ModelParams, sign: int) -> _ChannelModes:
    v = _channel_potential(bath, params, sign)
    mu2, u = np.linalg.eigh(v)
    if mu2[0] <= 0:
        raise SymplecticityError(
            f"channel potential not positive definite (min eig {mu2[0]:.3e}); "
            "counter-term wiring broken?")
    return _ChannelModes(mu=np.sqrt(mu2), modes=u)


def _thermal_diagonals(bath: DiscreteBath, params: ModelParams):
    """Raw (undoubled) thermal variances of the bath modes."""
    om = bath.omegas
    T = params.temperature
    th = coth(om / (2.0 * T)) if T > 0 else np.ones_like(om)
    return th / (2.0 * om), om * th / 2.0     # <q^2>, <p^2>


def _system_rows(ch: _ChannelModes, t):
    """Two system rows of the channel propagator S(t), shape t.shape + (2, 2N+2).

    Row 0 propagates onto the collective position, row 1 onto its momentum;
    columns are (positions, momenta) of (system, bath modes).  All times
    share one matrix product with the mode matrix.
    """
    mu, u = ch.mu, ch.modes
    ph = np.multiply.outer(np.asarray(t, dtype=float), mu)
    c, s = np.cos(ph), np.sin(ph)
    f = u[0, :] * np.stack([c, s / mu, -mu * s])
    a_row, b_row, c_row = (f.reshape(-1, mu.size) @ u.T).reshape(f.shape)
    return np.stack([np.concatenate([a_row, b_row], axis=-1),
                     np.concatenate([c_row, a_row], axis=-1)], axis=-2)


def _missing_mode_noise(params: ModelParams, sign: int, W: float, t: np.ndarray,
                        g12: np.ndarray, g22: np.ndarray) -> np.ndarray:
    """Doubled noise block of the channel modes above W (module docstring),
    shape (Nt, 2, 2) over the times ``t``."""
    r = params.distance
    w_inf = 4.0 * params.gamma * params.omega_cut**2 / math.pi

    def c(a):
        return cos_tail(a, W, 3) + sign * 0.5 * (cos_tail(np.abs(a - r), W, 3)
                                                 + cos_tail(a + r, W, 3))

    g = np.stack([g12, g22], axis=-1)[..., :, None]
    e2 = np.array([[0.0], [1.0]])
    gg, ge = g * g.swapaxes(-1, -2), g * e2.T
    return w_inf * ((gg + e2 * e2.T) * c(0.0)
                    - (ge + ge.swapaxes(-1, -2)) * c(t)[:, None, None])


def _image_sum(x: np.ndarray, period: float, T: float) -> np.ndarray:
    """sum_{m != 0} (-1)^m f(x + m period) for 0 <= x < period.

    f = (pi T)^2 / sinh^2(pi T x), or 1/x^2 at T = 0.  The series alternates
    with decreasing terms, so stopping after an even number of them leaves
    less than the first omitted term: 2000 terms at T = 0, and at T > 0 as
    many as the exp(-2 pi T m period) decay needs.
    """
    def f(y):
        if T == 0.0:
            return 1.0 / (y * y)
        e = np.exp(-2.0 * math.pi * T * y)
        return (2.0 * math.pi * T) ** 2 * e / (1.0 - e) ** 2

    n_terms = 2000 if T == 0.0 else min(2000, int(20.0 / (math.pi * T * period)) + 2)
    out = np.zeros_like(x)
    for m in range(1, n_terms + n_terms % 2 + 1):
        out += (-1) ** m * (f(m * period + x) + f(m * period - x))
    return out


def _image_noise(chans: dict, bath: DiscreteBath, params: ModelParams,
                 times: np.ndarray) -> dict:
    """Doubled noise that the recurrence images add, per channel sign and
    time: {sign: (Nt, 2, 2)}.

    The double integral over [0, t]^2 is a midpoint sum on a grid of step
    du <= 0.1 / max(Omega, 1); with uniform weights it grows by one
    causal Toeplitz product per step, so all grid times come from one
    convolution and the requested times are interpolated between them.
    """
    t_max = float(times.max())
    if t_max <= 0.0:
        return {s: np.zeros((times.size, 2, 2)) for s in chans}
    n = int(math.ceil(t_max * max(params.omega_cut, 1.0) / 0.1))
    du = t_max / n
    r = params.distance
    lag = np.arange(n) * du
    img = _image_sum(np.concatenate([lag, np.abs(lag - r), lag + r]),
                     bath.recurrence_time, params.temperature).reshape(3, n)
    k = np.minimum((times / du).astype(int), n - 1)
    frac = (times / du - k)[:, None, None]
    block = 256
    u = (np.arange(block) + 0.5) * du
    out = {}
    for sign, ch in chans.items():
        kern = -(4.0 * params.gamma / math.pi) * (img[0] + sign * 0.5 * (img[1] + img[2]))
        # g = (G12, G22) on the midpoints, one block of rows at a time
        w0 = ch.modes[0, :] ** 2
        ph = np.exp(1j * np.outer(u, ch.mu))
        jump = np.exp(1j * ch.mu * block * du)
        g = np.empty((n, 2))
        for lo in range(0, n, block):
            rows = ph[:min(block, n - lo)]
            g[lo:lo + block, 0] = rows.imag @ (w0 / ch.mu)
            g[lo:lo + block, 1] = rows.real @ w0
            ph = ph * jump
        # c_k = sum_{j<k} kern[k-j] g_j; step k adds g_k c_k^T + c_k g_k^T + kern[0] g_k g_k^T
        shifted = np.concatenate([[0.0], kern[1:]])
        c = np.stack([np.convolve(shifted, g[:, i])[:n] for i in range(2)], axis=1)
        steps = (g[:, :, None] * c[:, None, :] + c[:, :, None] * g[:, None, :]
                 + kern[0] * g[:, :, None] * g[:, None, :])
        cum = np.concatenate([np.zeros((1, 2, 2)), np.cumsum(steps, axis=0)]) * du * du
        # linear interpolation between grid times
        out[sign] = (1.0 - frac) * cum[k] + frac * cum[k + 1]
    return out


def reduced_covariance_series(params: ModelParams, times, n_modes: int,
                              omega_max_bath: float,
                              c0: CovarianceMatrix | None = None) -> CovarianceMatrix:
    """Reduced (doubled, dimensionless) system covariances at the given times,
    as one stack in the order requested.

    The workhorse for cross-validation runs: one eigendecomposition per
    channel, then one product of the mode matrix with all the times.  Times
    must stay below half the recurrence horizon.  The noise of each channel
    is corrected to the continuum bath: the missing modes above
    ``omega_max_bath`` are added and the recurrence images of the frequency
    grid removed (module docstring).
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    bath = build_bath(params, n_modes, omega_max_bath,
                      compare_time=float(times.max()))
    cp0, cm0, cx0 = channel_blocks(np.eye(4) if c0 is None else c0.entries)

    chans = {s: _channel_modes(bath, params, s) for s in (+1, -1)}
    images = _image_noise(chans, bath, params, times)
    vq, vp = _thermal_diagonals(bath, params)
    diag = np.concatenate([[0.0], vq, [0.0], vp])
    sys_cols = np.array([0, bath.n_modes + 1])
    later = (times > 0.0)[:, None, None]
    blocks, prop = {}, {}
    for s, c0_block in ((+1, cp0), (-1, cm0)):
        rows = _system_rows(chans[s], times)                       # (Nt, 2, 2N+2)
        prop[s] = rows[..., sys_cols]                              # channel propagator
        raw = ((rows * diag) @ rows.swapaxes(-1, -2)
               + prop[s] @ (0.5 * c0_block) @ prop[s].swapaxes(-1, -2))
        missing = _missing_mode_noise(params, s, omega_max_bath, times,
                                      prop[s][:, 0, 1], prop[s][:, 1, 1])
        blocks[s] = 2.0 * raw - images[s] + np.where(later, missing, 0.0)
    cross = prop[+1] @ cx0 @ prop[-1].swapaxes(-1, -2)
    c4 = four_by_four(blocks[+1], blocks[-1], cross)
    return CovarianceMatrix(entries=c4, time_label=times)


def system_propagator_series(params: ModelParams, times, n_modes: int,
                             omega_max_bath: float):
    """Mean-value propagator of the system block, shape (Nt, 4, 4).

    This is the oracle's homogeneous solution operator restricted to the
    oscillators: evolution of first moments from each system basis vector
    with the bath initially empty and noise-free (mean dynamics is
    temperature independent).
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    bath = build_bath(params, n_modes, omega_max_bath,
                      compare_time=float(times.max()))
    sys_cols = np.array([0, bath.n_modes + 1])
    blocks = {s: _system_rows(_channel_modes(bath, params, s), times)[..., sys_cols]
              for s in (+1, -1)}
    return four_by_four(blocks[+1], blocks[-1])
