import math

import numpy as np
import pytest
from scipy.integrate import quad

from bathpair.kernels import coth, damping_kernel_laplace, noise_spectrum
from bathpair.model import ModelParams


def damping_kernel(t, d, params):
    """Gamma_d(t) = gamma Omega (e^{-Omega|t - d|} + e^{-Omega|t + d|}), the
    time-domain reference for `damping_kernel_laplace`."""
    t = np.asarray(t, dtype=float)
    g, Om = params.gamma, params.omega_cut
    out = g * Om * (np.exp(-Om * np.abs(t - d)) + np.exp(-Om * np.abs(t + d)))
    return out if out.ndim else float(out)


@pytest.fixture(scope="module")
def p():
    return ModelParams(gamma=1.0, omega_cut=10.0, temperature=0.0, distance=0.1)


def test_coth_matches_reference():
    mpmath = pytest.importorskip("mpmath")
    xs = [1e-8, 1e-5, 9.9e-5, 1.1e-4, 0.01, 0.5, 2.0, 50.0, 800.0]
    for x in xs:
        ref = float(mpmath.coth(x))
        assert coth(x) == pytest.approx(ref, rel=1e-11)
    assert coth(np.asarray(xs)).shape == (len(xs),)


def test_damping_kernel_values(p):
    # Gamma_0(0) = 2 gamma Omega
    assert damping_kernel(0.0, 0.0, p) == pytest.approx(20.0, rel=1e-14)
    # t = d collapses the first exponential
    d = 0.3
    assert damping_kernel(d, d, p) == pytest.approx(
        10.0 * (1.0 + math.exp(-2.0 * 10.0 * d)), rel=1e-14)
    # direct substitution
    assert damping_kernel(1.0, 0.5, p) == pytest.approx(
        10.0 * (math.exp(-5.0) + math.exp(-15.0)), rel=1e-14)


def test_damping_kernel_continuity_and_kink(p):
    d = 0.2
    ts = np.linspace(0.0, 1.0, 2001)
    vals = damping_kernel(ts, d, p)
    # |dGamma/dt| <= 2 gamma Omega^2
    bound = 2.0 * p.gamma * p.omega_cut**2 * (ts[1] - ts[0]) * 1.05
    assert np.all(np.abs(np.diff(vals)) < bound)
    # derivative jumps only at t = d
    dv = np.gradient(vals, ts)
    jump = np.abs(np.diff(dv))
    assert ts[np.argmax(jump)] == pytest.approx(d, abs=2e-3)


def test_laplace_closed_form_at_d0(p):
    # Gamma^_0(s) = 2 gamma Omega/(s + Omega); at s = Omega this is gamma
    assert damping_kernel_laplace(10.0, 0.0, p) == pytest.approx(1.0, rel=1e-12)
    rng = np.random.default_rng(7)
    for _ in range(20):
        s = complex(rng.uniform(-5.0, 20.0), rng.uniform(-40.0, 40.0))
        if s.real <= -10.0 + 1e-6:
            continue
        expect = 2.0 * 10.0 / (s + 10.0)
        assert damping_kernel_laplace(s, 0.0, p) == pytest.approx(expect, rel=1e-12)


def _laplace_by_quadrature(s, d, p):
    def f(t, part):
        val = damping_kernel(t, d, p) * np.exp(-s * t)
        return val.real if part == "re" else val.imag

    upper = max(60.0 / p.omega_cut + d + 10.0, 40.0)
    re = quad(f, 0.0, upper, args=("re",), points=[d], limit=400, epsabs=1e-13)[0]
    im = quad(f, 0.0, upper, args=("im",), points=[d], limit=400, epsabs=1e-13)[0]
    return complex(re, im)


@pytest.mark.parametrize("d", [0.0, 0.05, 0.1, 0.5])
@pytest.mark.parametrize("s", [1.0 + 0.0j, 1.0 + 1.0j, 0.1 + 10.0j])
def test_laplace_matches_defining_integral(p, d, s):
    closed = damping_kernel_laplace(s, d, p)
    brute = _laplace_by_quadrature(s, d, p)
    assert abs(closed - brute) <= 1e-8 * max(1.0, abs(brute))


def test_laplace_removable_point_series(p):
    mpmath = pytest.importorskip("mpmath")

    def exact(s):
        # everything mpf before any arithmetic: the value sits on an 0/0
        # cancellation, so float sub-expressions poison the reference
        s = mpmath.mpf(s)
        d = mpmath.mpf(0.3)
        g, Om = mpmath.mpf(1), mpmath.mpf(10)
        num = Om * mpmath.exp(-s * d) - s * mpmath.exp(-Om * d)
        return 2 * g * Om * num / (Om**2 - s**2)

    with mpmath.workdps(50):
        for eps in (1e-7, 3e-6, 1e-5):
            ref = float(exact(10.0 + eps))
            assert damping_kernel_laplace(10.0 + eps, 0.3, p) == pytest.approx(ref, rel=1e-9)
    # exactly at the removable point: gamma e^{-Omega d} (1 + Omega d)
    lim = math.exp(-3.0) * 4.0
    assert damping_kernel_laplace(10.0, 0.3, p) == pytest.approx(lim, rel=1e-12)


def test_laplace_decays_with_distance(p):
    vals = [abs(damping_kernel_laplace(2.0 + 0.0j, d, p)) for d in (1.0, 3.0, 8.0)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 1e-6


def test_laplace_rejects_divergent_region(p):
    with pytest.raises(ValueError, match="Re"):
        damping_kernel_laplace(-10.0 + 1.0j, 0.1, p)


def test_noise_spectrum_values():
    p0 = ModelParams(gamma=1.0, omega_cut=10.0, temperature=0.0)
    assert noise_spectrum(10.0, p0) == pytest.approx(40.0 / math.pi, rel=1e-13)
    pT = ModelParams(gamma=1.0, omega_cut=10.0, temperature=0.3)
    assert noise_spectrum(0.0, pT) == pytest.approx(16.0 * 0.3 / math.pi, rel=1e-12)
    assert noise_spectrum(1e-9, pT) == pytest.approx(16.0 * 0.3 / math.pi, rel=1e-6)
    # 1/omega tail at T = 0
    w = 1e5
    assert noise_spectrum(w, p0) == pytest.approx(
        8.0 * 100.0 / (math.pi * w), rel=1e-6)


def test_noise_spectrum_properties():
    pT = ModelParams(gamma=0.7, omega_cut=5.0, temperature=0.4)
    w = np.linspace(0.0, 100.0, 5001)
    s = noise_spectrum(w, pT)
    assert np.all(s >= 0.0)
    assert np.all(np.isfinite(s))
    peak = np.argmax(s)
    assert np.all(np.diff(s[peak:]) <= 1e-12)
