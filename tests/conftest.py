import math

import numpy as np
import pytest

from bathpair import greens
from bathpair._panels import gauss_panels
from bathpair.greens import SIGNS
from bathpair.model import ModelParams


BOX = {"gamma": (0.01, 50.0), "omega_cut": (0.5, 100.0),
       "temperature": (0.01, 10.0), "distance": (1e-4, 20.0)}
# the corners of BOX, T = 0 at its low end, with r = 0 and r = 18.1 besides
CORNERS = [ModelParams(g, om, t, r) for g in (0.01, 50.0) for om in (0.5, 100.0)
           for t in (0.0, 10.0) for r in (0.0, 1e-4, 18.1, 20.0)]


def box_points(seed: int, n: int = 64, **bounds) -> list[ModelParams]:
    """Log-uniform sample of the parameter box, a quarter of it at T = 0;
    ``bounds`` replaces the (lo, hi) of the axes it names."""
    rng = np.random.default_rng(seed)
    box = {**BOX, **bounds}
    out = []
    for _ in range(n):
        vals = {k: lo * (hi / lo) ** rng.uniform() for k, (lo, hi) in box.items()}
        if rng.uniform() < 0.25:
            vals["temperature"] = 0.0
        out.append(ModelParams(**vals))
    return out


def _quasi_polynomial(params: ModelParams, sign: float):
    """z -> (q, F(z), dF/dz) of F(z) = q D(i z), q = Omega^2 + z^2, on numpy
    complex arrays: q (1 - z)(1 + z) + K(0) z^2 + i z 2 gamma Omega^2 (1 +- e^{-i r z})
    (Bellman & Cooke, Differential-Difference Equations, 1963, ch. 12-13),
    with 1 +- e^{-i theta} as 2 e^{-i theta/2} (cos(theta/2) or i sin(theta/2)),
    which keeps the antisymmetric channel's digits as r -> 0+."""
    g, om, r = params.gamma, params.omega_cut, params.distance
    k0 = 2.0 * g * om * (1.0 + math.exp(-om * r) if sign > 0 else -math.expm1(-om * r))
    p1, om2 = 2.0 * g * om * om, om * om
    half, tc = (np.cos, 2.0j * p1) if sign > 0 else (np.sin, -2.0 * p1)

    def f(z):
        h = np.exp(-0.5j * r * z)
        q, u = om2 + z * z, tc * half(0.5 * r * z) * h
        return (q, q * ((1.0 - z) * (1.0 + z)) + z * (k0 * z + u),
                z * (2.0 * (1.0 - om2 + k0) - 4.0 * z * z + sign * p1 * r * h * h) + u)
    return f


def channel_roots(params: ModelParams, sign: float):
    """(Re z, Im z) of the roots of D(i z) near the real axis, for the
    reference grids of the tests: every interior local minimum of the Newton
    distance |D / D'| within 2.5 / r on a scan of real z (step
    min(0.01, pi / (10 (r + 1))) up to 3 + 3 gamma, four times that on to
    twice it) seeds 40 Newton steps D / D' = F q / (F' q - 2 z F) on the
    quasi-polynomial; an iterate that is not finite, has not converged to
    sqrt(eps) (1 + |z|), or ends outside 0 <= Im z <= 2.5 / r is dropped.
    Mirror roots are folded onto Re z >= 0 and copies merged."""
    r = params.distance
    reach = 2.5 / max(r, 1e-9)
    step, top = min(0.01, math.pi / (10.0 * (r + 1.0))), 3.0 + 3.0 * params.gamma
    grid = np.concatenate([np.arange(step, top, step), np.arange(top, 2.0 * top, 4.0 * step)])
    quasi = _quasi_polynomial(params, sign)
    q, f, df = quasi(grid.astype(complex))
    newton = np.abs(f * q / (df * q - 2.0 * grid * f))
    low = 1 + np.flatnonzero((newton[1:-1] < newton[:-2]) & (newton[1:-1] <= newton[2:])
                             & (newton[1:-1] <= reach))
    z = grid[low].astype(complex)
    with np.errstate(all="ignore"):
        for _ in range(40):
            q, f, df = quasi(z)
            z = z - f * q / (df * q - 2.0 * z * f)
        q, f, df = quasi(z)
        last = np.abs(f * q / (df * q - 2.0 * z * f))
    z = z[np.isfinite(z) & (last <= 1.5e-8 * (1.0 + np.abs(z)))]
    z = z[(z.imag >= 0.0) & (z.imag <= reach)]
    z = np.unique(np.abs(z.real) + 1j * z.imag)
    z = z[np.abs(z - np.append(np.inf, z[:-1])) > 1.5e-8 * (1.0 + np.abs(z))]
    return z.real, z.imag


def _real_channel_kernel(nu, params: ModelParams, rows):
    """K^(nu) of the channels ``rows`` at real nu > 0 in the textbook form
    2 gamma Omega (Omega e^{-nu d} - nu e^{-Omega d}) / (Omega^2 - nu^2) per
    distance, with `greens.channel_kernel_laplace` where nu is within 1e-3
    Omega of the removable point."""
    g, om, r = params.gamma, params.omega_cut, params.distance
    near = np.abs(nu - om) < 1e-3 * om
    x = np.where(near, 2.0 * om, nu)

    def kernel(d):
        return 2.0 * g * om * (om * np.exp(-x * d) - x * math.exp(-om * d)) / (om * om - x * x)
    out = kernel(0.0) + rows * kernel(r)
    if near.any():
        out[:, near] = greens.channel_kernel_laplace(nu[near].astype(complex), params, rows).real
    return out


def _integrands(nu, params, rows):
    m = 1.0 + nu * _real_channel_kernel(nu, params, rows)
    d = nu * nu + m
    return 1.0 / d, m / d


def matsubara_reference(params: ModelParams, terms: int = 10**6):
    """Brute-force (alpha, beta) of the damped channels, (n_rows,) each, for
    the tests.  At T > 0: 2T (1 + 2 sum_{n=1}^{terms} f(n h)), h = 2 pi T,
    plus the rest of the sum as the midpoint integral (1/h) int f past
    (terms + 1/2) h, off by at most h |f'| / 24 there, below 1e-13 of
    either moment in the box; the integral in v = nu* / nu on 20
    Gauss-Legendre panels.  At T = 0: (2/pi) int_0^inf f by the trapezoid
    rule in ln nu, step 1/20 on [-40, 40], which converges geometrically
    because f is analytic in |arg nu| < pi/2.  Neither shares a rule with
    `covariance.channel_asymptotic_moments`."""
    rows = SIGNS if params.distance > 0 else SIGNS[:1]
    T = params.temperature
    if T == 0.0:
        x = np.linspace(-40.0, 40.0, 1601)
        nu = np.exp(x)
        fx, fp = _integrands(nu, params, rows)
        weight = np.full(x.size, 0.05) * nu
        return 2.0 / math.pi * (fx @ weight), 2.0 / math.pi * (fp @ weight)
    h = 2.0 * math.pi * T
    sums = np.zeros((2, len(rows)))
    for lo in range(1, terms + 1, 200_000):
        part = _integrands(h * np.arange(lo, min(lo + 200_000, terms + 1)), params, rows)
        sums += np.sum(np.array(part)[..., ::-1], axis=-1)
    top = (terms + 0.5) * h
    v, wv = gauss_panels(np.linspace(0.0, 1.0, 21))
    sums += np.array(_integrands(top / v, params, rows)) @ (wv * top / v**2) / h
    return tuple(2.0 * T * (1.0 + 2.0 * sums))


@pytest.fixture(scope="session")
def base_params() -> ModelParams:
    """Reference parameter point used across the suite."""
    return ModelParams(gamma=1.0, omega_cut=10.0, temperature=0.0, distance=0.1)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


def random_symplectic(rng: np.random.Generator, scale: float = 0.5) -> np.ndarray:
    """Random 4x4 symplectic matrix exp(Sigma Q) with Q symmetric."""
    from scipy.linalg import expm

    from bathpair.entanglement import SYMPLECTIC_FORM

    q = rng.normal(scale=scale, size=(4, 4))
    q = 0.5 * (q + q.T)
    return expm(SYMPLECTIC_FORM @ q)


def eigen_symplectic_eigenvalues(c) -> np.ndarray:
    """Reference symplectic eigenvalues by the eigen route, (..., 2) ascending.

    The eigenvalues of i*Sigma*C come in +- pairs; their sorted moduli are
    checked to pair up within 1e-8 of the largest (at least 1), and each
    pair is averaged.  This is the cross-check of the closed form in
    `bathpair.entanglement.symplectic_eigenvalues`.
    """
    from bathpair.entanglement import SYMPLECTIC_FORM

    mods = np.sort(np.abs(np.linalg.eigvals(1j * SYMPLECTIC_FORM @ np.asarray(c))), axis=-1)
    scale = np.maximum(1.0, mods[..., 3:])
    assert np.all(mods[..., 1::2] - mods[..., 0::2] <= 1e-8 * scale), "moduli do not pair up"
    return 0.5 * (mods[..., 0::2] + mods[..., 1::2])


def random_physical_covariance(rng: np.random.Generator,
                               nu_max: float = 3.0) -> np.ndarray:
    """Random physical covariance S diag(nu1, nu2, nu1, nu2) S^T, nu >= 1."""
    s = random_symplectic(rng)
    nu = 1.0 + rng.uniform(0.0, nu_max - 1.0, size=2)
    d = np.diag([nu[0], nu[1], nu[0], nu[1]])
    return s @ d @ s.T
