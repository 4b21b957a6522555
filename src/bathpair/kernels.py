"""The damping kernel in the Laplace domain, and the bath noise spectrum.

The memory kernel at separation d is

    Gamma_d(t) = gamma * Omega * (exp(-Omega|t - d|) + exp(-Omega|t + d|))

with the closed-form Laplace transform

    Gamma_d^(s) = 2 gamma Omega (Omega e^{-s d} - s e^{-Omega d}) / (Omega^2 - s^2),

analytic for Re(s) > -Omega (the apparent singularity at s = +Omega is
removable).  The noise spectrum is

    S(omega) = (8 gamma / pi) * omega * Omega^2/(Omega^2+omega^2) * coth(omega/2T)

which carries the doubling of the covariance convention used throughout
(vacuum covariance = identity); quadratic noise forms therefore integrate
against S/2 (see `covariance`).  The time-domain noise kernel is
log-divergent at coincident arguments, so nothing samples it: every noise
integral is taken against S(omega) in the frequency domain.  The damping
kernel, too, is only ever used through its transform.
"""

from __future__ import annotations

import math

import numpy as np

from .model import ModelParams

__all__ = [
    "coth",
    "damping_kernel_laplace",
    "noise_spectrum",
]


def coth(x):
    """coth(x) for x > 0, stable at both ends.

    Uses 1 + 2/(e^{2x} - 1); below x = 1e-4 the series 1/x + x/3 avoids
    cancellation (the relative error of the dropped x^3/45 term is < 1e-12
    there).
    """
    x = np.asarray(x, dtype=float)
    small = x < 1e-4
    xs = np.where(small, 1.0, x)
    with np.errstate(over="ignore"):     # expm1 -> inf is the right limit
        out = np.where(small, 1.0 / np.where(small, x, 1.0) + x / 3.0,
                       1.0 + 2.0 / np.expm1(2.0 * xs))
    return out if out.ndim else float(out)


def damping_kernel_laplace(s, d: float, params: ModelParams):
    """Closed-form Laplace transform of Gamma_d, valid for Re(s) > -Omega.

    Vectorized over s.  Points with Re(s) <= -Omega (on or left of the
    convergence abscissa) are rejected.  Near the removable point s = Omega
    the expression is evaluated by its series to avoid 0/0.
    """
    s = np.asarray(s, dtype=complex)
    g, Om = params.gamma, params.omega_cut
    if np.any(s.real <= -Om * (1.0 - 1e-12)):
        raise ValueError(f"Laplace transform diverges for Re(s) <= -Omega = {-Om}")
    eps = s - Om
    near = np.abs(eps) < 1e-6 * Om
    s_safe = np.where(near, Om + 1.0, s)
    val = 2 * g * Om * (Om * np.exp(-s_safe * d) - s_safe * np.exp(-Om * d)) / (Om**2 - s_safe**2)
    if np.any(near):
        # limit gamma * e^{-Omega d} (1 + Omega d), first order in (s - Omega)
        lead = g * math.exp(-Om * d) * (1.0 + Om * d)
        corr = -g * math.exp(-Om * d) * (Om * d) ** 2 / 2.0 * (eps / Om)
        lim = lead + corr - lead * eps / (2 * Om)
        val = np.where(near, lim, val)
    return val if val.ndim else complex(val)


def noise_spectrum(omega, params: ModelParams):
    """S(omega) >= 0 for omega >= 0; finite for all omega when T > 0.

    At T = 0 the coth factor is exactly 1.  At T > 0 the omega -> 0 limit
    is 16 gamma T / pi.
    """
    omega = np.asarray(omega, dtype=float)
    g, Om, T = params.gamma, params.omega_cut, params.temperature
    drude = Om**2 / (Om**2 + omega**2)
    pref = 8.0 * g / math.pi
    if T == 0.0:
        out = pref * omega * drude
    else:
        safe = np.where(omega > 0, omega, 1.0)
        th = coth(safe / (2.0 * T))
        out = np.where(omega > 0, pref * omega * drude * np.asarray(th), pref * 2.0 * T * drude)
    return out if out.ndim else float(out)
