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


_TINY = 1e-300    # added to z: keeps -expm1(-z)/z off 0/0, and moves no other z


def damping_kernel_laplace(s, d: float, params: ModelParams):
    """Closed-form Laplace transform of Gamma_d, valid for Re(s) > -Omega:

        Gamma_d^(s) = 2 gamma Omega [e^{-Omega d} + Omega q] / (Omega + s),
        q = (e^{-s d} - e^{-Omega d}) / (Omega - s)
          = d e^{-min(s, Omega) d} (1 - e^{-|Omega - s| d}) / (|Omega - s| d),

    min and |.| taken by Re s <= Omega (on the other side u = s - Omega,
    so that Re u >= 0 and no exponential grows).  The quotient is
    -expm1(-z) / z, 1 at z = 0, so the removable point s = Omega needs no
    patch, and q of d = 0 is 0.  Vectorized over s; real s gives a real
    array, a scalar a scalar.  Points with Re(s) <= -Omega (on or left of
    the convergence abscissa) are rejected.
    """
    g, om = params.gamma, params.omega_cut
    s = np.asarray(s)
    re = s.real
    if re.min(initial=math.inf) <= -om * (1.0 - 1e-12):
        raise ValueError(f"Laplace transform diverges for Re(s) <= -Omega = {-om}")
    if d == 0.0:
        val = 2.0 * g * om / (om + s)      # q = 0
    else:
        below = re <= om
        z = d * np.where(below, om - s, s - om) + _TINY
        q = -d * np.exp(-d * np.where(below, s, om)) * (np.expm1(-z) / z)
        val = 2.0 * g * om * (math.exp(-om * d) + om * q) / (om + s)
    return val if val.ndim else val.item()


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
