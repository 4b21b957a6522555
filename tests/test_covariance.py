import math

import numpy as np
import pytest

from bathpair import covariance
from bathpair.covariance import (
    CovarianceMatrix,
    TruncationError,
    channel_asymptotic_moments,
    channel_resonances,
    covariance_asymptotic,
    covariance_time_series,
    frequency_grid,
    ground_state_covariance,
)
from bathpair.entanglement import (
    SYMPLECTIC_FORM,
    UnphysicalCovarianceError,
    log_negativity,
    symplectic_eigenvalues,
)
from bathpair.greens import channel_blocks, greens_time
from bathpair.kernels import noise_spectrum
from bathpair.model import ModelParams
from conftest import random_physical_covariance


@pytest.fixture(scope="module")
def p():
    return ModelParams(gamma=1.0, omega_cut=10.0, temperature=0.0, distance=0.1)


@pytest.fixture(scope="module")
def greens_cache(p):
    t = np.linspace(0.0, 8.0, 1601)
    return greens_time(t, p)


def test_ground_state_is_identity():
    c = ground_state_covariance()
    assert np.array_equal(c.entries, np.eye(4))
    assert log_negativity(c.entries) == 0.0
    assert symplectic_eigenvalues(c.entries) == pytest.approx((1.0, 1.0))


def test_covariance_matrix_rejects_asymmetric():
    bad = np.eye(4)
    bad[0, 1] = 0.5
    with pytest.raises(ValueError, match="asymmetric"):
        CovarianceMatrix(entries=bad)


def test_asymptotic_requires_damped_separated(p):
    with pytest.raises(ValueError, match="r > 0"):
        covariance_asymptotic(p.with_(distance=0.0))


def test_asymptotic_structure(p):
    c = covariance_asymptotic(p).entries
    # exchange symmetry
    assert c[0, 0] == pytest.approx(c[1, 1], rel=1e-12)
    assert c[2, 2] == pytest.approx(c[3, 3], rel=1e-12)
    # position-velocity cross blocks vanish in the stationary state
    assert np.max(np.abs(c[:2, 2:])) <= 1e-12
    lam = symplectic_eigenvalues(c)
    assert lam[0] >= 1.0 - 1e-6


def test_asymptotic_against_dense_trapezoid(p):
    """Independent integration: dense uniform trapezoid, no panels, no tails."""
    from bathpair.greens import channel_det

    w = np.linspace(1e-6, 3000.0, 1200001)
    for sign in (+1, -1):
        wt = 0.5 * noise_spectrum(w, p) * (1.0 + sign * np.cos(w * p.distance))
        d2 = np.abs(channel_det(1j * w, p, sign)) ** 2
        alpha_b = np.trapezoid(wt / d2, w)
        beta_b = np.trapezoid(wt * w * w / d2, w)
        alpha, beta, _ = channel_asymptotic_moments(p, sign, 40.0 * p.omega_cut, 1e-6)
        assert alpha == pytest.approx(alpha_b, abs=3e-4)
        assert beta == pytest.approx(beta_b, abs=3e-3)


def test_asymptotic_decorrelation_at_large_r(p):
    """Correlations at large separation: the position-momentum cross sector
    vanishes identically and entanglement is long gone, while the 1D bath
    keeps a slowly decaying (power-law) position-position correlation: the
    retarded coupling kernel does not lose amplitude with distance here,
    only coherence."""
    cross_qq = []
    for r in (1.0, 2.5, 5.0):
        c = covariance_asymptotic(p.with_(distance=r)).entries
        assert abs(c[0, 3]) <= 1e-12 and abs(c[1, 2]) <= 1e-12
        assert log_negativity(c) == 0.0
        cross_qq.append(abs(c[0, 1]))
    assert cross_qq[0] > cross_qq[1] > cross_qq[2]
    assert abs(covariance_asymptotic(p.with_(distance=5.0)).entries[2, 3]) <= 2e-3


def test_truncation_guard(p):
    with pytest.raises(TruncationError):
        channel_asymptotic_moments(p, +1, 2.0 * p.omega_cut, 1e-9)


def _narrowest_resonance(params, sign):
    return min(channel_resonances(params, sign), key=lambda pair: pair[1])


def test_resonance_finder(p):
    om_res, width = _narrowest_resonance(p, -1)
    # weakly damped relative coordinate: Re Gamma^ ~ 2 g Om^2 (1-cos w r)/(Om^2+w^2),
    # spike half-width ~ omega ReGamma^ / |d ReD/d omega| ~ ReGamma^/2
    assert 0.8 <= om_res <= 1.05
    gam_r = 2.0 * 100.0 * (1.0 - math.cos(om_res * 0.1)) / (100.0 + om_res**2)
    assert 0.25 * gam_r <= width <= 0.75 * gam_r
    om_p, width_p = _narrowest_resonance(p, +1)
    assert width_p > 50 * width


def test_time_zero_returns_initial_exactly(p, greens_cache):
    c0 = CovarianceMatrix(entries=random_physical_covariance(np.random.default_rng(1)))
    # a series asking only for t = 0 has no Filon pairs to sum; with later
    # times, pair 0 still returns c0 itself
    out = covariance_time_series(greens_cache, p, [0.0], c0=c0)
    assert len(out) == 1 and np.array_equal(out[0].entries, c0.entries)
    out = covariance_time_series(greens_cache, p, [0.0, 1.0], c0=c0)
    assert np.array_equal(out[0].entries, c0.entries)


def test_time_grid_guards(p, greens_cache):
    c0 = ground_state_covariance()
    with pytest.raises(ValueError, match="beyond"):
        covariance_time_series(greens_cache, p, [9.5], c0=c0)
    with pytest.raises(ValueError, match="pair grid"):
        covariance_time_series(greens_cache, p, [0.0125], c0=c0)
    for bad in (0.5 * np.eye(4), -np.eye(4)):
        with pytest.raises(UnphysicalCovarianceError):
            covariance_time_series(greens_cache, p, [1.0], c0=CovarianceMatrix(entries=bad))


def test_physicality_along_trace(p, greens_cache):
    times = np.arange(0.0, 8.01, 0.25)
    covs = covariance_time_series(greens_cache, p, times)
    for c in covs:
        m = c.entries + 1j * SYMPLECTIC_FORM
        ev = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
        assert ev[0] >= -1e-6


def test_continuity_along_trace(p, greens_cache):
    # the velocity sector heats on the 1/Omega scale (slope up to ~60 here),
    # everything stays Lipschitz: no jumps at either resolution
    fine = np.arange(0.0, 1.001, 0.01)
    covs = covariance_time_series(greens_cache, p, fine)
    vals = np.array([c.entries for c in covs])
    assert np.max(np.abs(np.diff(vals, axis=0))) <= 60.0 * 0.01
    coarse = np.arange(1.0, 8.01, 0.25)
    covs = covariance_time_series(greens_cache, p, coarse)
    vals = np.array([c.entries for c in covs])
    assert np.max(np.abs(np.diff(vals, axis=0))) <= 3.0 * 0.25


def test_exchange_symmetry_along_trace(p, greens_cache):
    covs = covariance_time_series(greens_cache, p, [2.0, 6.0])
    for cov in covs:
        c = cov.entries
        assert c[0, 0] == pytest.approx(c[1, 1], abs=1e-12)
        assert c[2, 2] == pytest.approx(c[3, 3], abs=1e-12)
        assert c[0, 2] == pytest.approx(c[1, 3], abs=1e-12)
        assert c[0, 3] == pytest.approx(c[1, 2], abs=1e-12)


# ---------------------------------------------------------------------------
# reduction check: double time integral vs frequency-domain form


def _sin_tail2(a: float, W: float) -> float:
    """int_W^inf sin(a w)/w^2 dw, odd in a."""
    from scipy.special import sici
    if a == 0.0:
        return 0.0
    sgn = 1.0 if a > 0 else -1.0
    a = abs(a)
    return sgn * (math.sin(a * W) / W - a * float(sici(a * W)[1]))


def _integrated_kernel_edges(edges, params, sign):
    """J(x) = int S(w)(1 +- cos w r) sin(w x)/w dw at the given x edges.

    The antiderivative of the (log-singular) time-domain kernel; absolutely
    convergent, evaluated on panels plus exact Drude-expansion tails.
    """
    from bathpair._panels import gauss_panels
    from bathpair.covariance import _sin_tail4

    r = params.distance
    W = 600.0
    x = np.asarray(edges, dtype=float)
    scale = np.max(np.abs(x)) + r + 1.0
    n_panels = int(math.ceil(W / min(2.0, math.pi / (2.0 * scale))))
    w, wq = gauss_panels(np.linspace(1e-9, W, n_panels + 1))
    f = noise_spectrum(w, params) * (1.0 + sign * np.cos(w * r)) / w
    vals = (wq * f) @ np.sin(np.outer(w, x))
    pref = 8.0 * params.gamma / math.pi
    Om2 = params.omega_cut**2
    for i, xi in enumerate(x):
        for a, fac in ((xi, 1.0), (xi - r, 0.5 * sign), (xi + r, 0.5 * sign)):
            vals[i] += pref * fac * (Om2 * _sin_tail2(a, W) - Om2**2 * _sin_tail4(a, W))
    return vals


def _brute_noise_channel(params, sign, t, greens, n_cells=2500):
    """Direct double time integral of G kappa G^T via the correlation form.

    N[a,b](t) = int_{-t}^{t} dtau kappa(tau) C_ab(tau), with kappa integrated
    analytically over each tau cell (it is log-divergent at tau = 0 and
    tau = +-r) and the smooth G-correlation taken at cell midpoints.
    """
    series = greens.channel_series[sign]
    h = greens.spacing
    n_t = int(round(t / h))

    # tau cells aligned so that 0 and +-r are cell edges, with geometric
    # refinement around both (the kernel is log-divergent there and its
    # cell mass must multiply a locally well-sampled smooth correlation)
    r = params.distance
    base = np.linspace(0.0, t, n_cells + 1)
    delta = t / n_cells
    fine = delta * np.array([0.0078125, 0.015625, 0.03125, 0.0625, 0.125, 0.25, 0.5])
    pos = np.concatenate([base, [r], r + fine, r - fine, fine])
    pos = np.unique(pos[(pos >= 0.0) & (pos <= t)])
    edges = np.concatenate([-pos[::-1][:-1], pos])
    mass = 0.5 * np.diff(_integrated_kernel_edges(edges, params, sign))
    centers = 0.5 * (edges[:-1] + edges[1:])

    def corr_exact(a_col, b_col, tau):
        # int ga(t-t') gb(t-t'+tau) dt' on the overlap, trapezoid in t'
        lo = max(0.0, tau)
        hi = min(t, t + tau)
        if hi <= lo + 1e-12:
            return 0.0
        m = max(8, int(math.ceil((hi - lo) / h)))
        tp = np.linspace(lo, hi, m + 1)
        va = _sample(series[:n_t + 1, a_col[0], a_col[1]], t - tp, h)
        vb = _sample(series[:n_t + 1, b_col[0], b_col[1]], t - tp + tau, h)
        return float(np.trapezoid(va * vb, tp))

    out = np.zeros((2, 2))
    pairs = {(0, 0): ((0, 1), (0, 1)), (0, 1): ((0, 1), (1, 1)),
             (1, 1): ((1, 1), (1, 1))}
    for (i, j), (ca, cb) in pairs.items():
        acc = 0.0
        for c_mid, c_mass in zip(centers, mass):
            acc += c_mass * corr_exact(ca, cb, c_mid)
        out[i, j] = acc
    out[1, 0] = out[0, 1]
    return out


def _sample(values, times, h):
    """Linear interpolation of a uniformly sampled function."""
    idx = times / h
    i0 = np.clip(np.floor(idx).astype(int), 0, values.size - 2)
    frac = np.clip(idx - i0, 0.0, 1.0)
    return values[i0] * (1.0 - frac) + values[i0 + 1] * frac


def test_frequency_vs_time_domain_equivalence(p):
    """The single-omega noise integral equals the double time integral."""
    t = 1.5
    fine = greens_time(np.linspace(0.0, t, 1201), p)   # h = 1.25e-3
    c0 = ground_state_covariance()
    cov = covariance_time_series(fine, p, [t], c0=c0)[0]
    idx = int(round(t / fine.spacing))
    for sign in (+1, -1):
        g = fine.channel_series[sign][idx]
        cp0, cm0, _ = channel_blocks(c0.entries)
        block = cp0 if sign > 0 else cm0
        chan_full = channel_blocks(cov.entries)[0 if sign > 0 else 1]
        ours = chan_full - g @ block @ g.T
        brute = _brute_noise_channel(p, sign, t, fine)
        assert np.max(np.abs(ours - brute)) <= 1e-4, (sign, ours, brute)


def test_transient_approaches_asymptotic():
    p = ModelParams(gamma=1.0, omega_cut=10.0, temperature=0.0, distance=0.4)
    t = np.linspace(0.0, 150.0, 15001)
    g = greens_time(t, p)
    c_t = covariance_time_series(g, p, [150.0])[0]
    c_inf = covariance_asymptotic(p)
    assert np.max(np.abs(c_t.entries - c_inf.entries)) <= 1e-3


def test_transient_matches_oracle_with_general_initial_state(p):
    """Cross-channel transport exercised with a random physical c0."""
    from bathpair.oracle import reduced_covariance_series

    rng = np.random.default_rng(42)
    c0 = CovarianceMatrix(entries=random_physical_covariance(rng, nu_max=1.6))
    t = np.linspace(0.0, 5.0, 1001)
    g = greens_time(t, p)
    ours = covariance_time_series(g, p, [2.0, 5.0], c0=c0)
    oracle = reduced_covariance_series(p, [2.0, 5.0], n_modes=1500,
                                       omega_max_bath=300.0, c0=c0)
    for a, b in zip(ours, oracle):
        assert np.max(np.abs(a.entries - b.entries)) <= 1.5e-3


def test_frequency_grid_resolves_resonance(p):
    x, w = frequency_grid(p, 150.0)
    om_res, gam_eff = _narrowest_resonance(p, -1)
    near = np.abs(x - om_res) < 2.0 * gam_eff
    assert np.count_nonzero(near) >= 8
    assert w.sum() == pytest.approx(150.0, rel=1e-12)


# ---------------------------------------------------------------------------
# reference: the per-pair Filon sweep that the Toeplitz form replaces


def _stream_pair_noise(g_cols, x, weights, h, n_pairs):
    """Reference for `covariance._pair_noise`: accumulate the Filon sums
    P(omega, p) pair by pair at every node and take sum_omega w |P|^2 at
    every p.  O(N_pairs * N_omega) work with a per-pair exp-free update."""
    s0, p1, s2 = covariance._filon_base(x * h)
    step = np.exp(2j * x * h)
    out = np.zeros((g_cols.shape[0], n_pairs + 1, 2, 2))
    for c, (g12, g22) in enumerate(g_cols):
        wv = weights[c]
        ph = np.exp(1j * x * h)
        acc1 = np.zeros_like(ph)
        acc2 = np.zeros_like(ph)
        for pair in range(n_pairs):
            i0 = 2 * pair
            f0, f1, f2 = g12[i0], g12[i0 + 1], g12[i0 + 2]
            acc1 = acc1 + ph * ((h * (2.0 * f1 * s0 + (f0 - 2.0 * f1 + f2) * s2))
                                + 1j * (h * (f2 - f0)) * p1)
            f0, f1, f2 = g22[i0], g22[i0 + 1], g22[i0 + 2]
            acc2 = acc2 + ph * ((h * (2.0 * f1 * s0 + (f0 - 2.0 * f1 + f2) * s2))
                                + 1j * (h * (f2 - f0)) * p1)
            ph = ph * step
            n11 = float(wv @ (acc1.real**2 + acc1.imag**2))
            n22 = float(wv @ (acc2.real**2 + acc2.imag**2))
            n12 = float(wv @ (acc1.real * acc2.real + acc1.imag * acc2.imag))
            out[c, pair + 1] = [[n11, n12], [n12, n22]]
    return out


@pytest.mark.parametrize("temperature", [0.0, 0.2])
@pytest.mark.parametrize("distance", [0.0, 0.2])
def test_toeplitz_noise_matches_filon_stream(monkeypatch, temperature, distance):
    """Lag kernels plus FFT convolution reproduce the pair-by-pair sweep,
    with a general initial state and sparse, unordered, repeated outputs."""
    q = ModelParams(gamma=1.0, omega_cut=10.0, temperature=temperature, distance=distance)
    g = greens_time(np.linspace(0.0, 3.0, 601), q)
    c0 = CovarianceMatrix(entries=random_physical_covariance(np.random.default_rng(7)))
    times = [1.7, 0.0, 0.3, 3.0, 1.7]
    ours = covariance_time_series(g, q, times, c0=c0)
    monkeypatch.setattr(covariance, "_pair_noise", _stream_pair_noise)
    ref = covariance_time_series(g, q, times, c0=c0)
    for a, b in zip(ours, ref):
        assert a.time_label == b.time_label
        assert np.max(np.abs(a.entries - b.entries)) <= 1e-10 * np.max(np.abs(b.entries))


def test_default_cut_meets_its_tail_bound(monkeypatch):
    """At strong damping the default omega_max of the transient path is set
    by its own tail bound 2 w_inf (1 + (1 + K(0))^2) / omega_max^4 <= tol,
    not capped below it."""
    q = ModelParams(gamma=10.0, omega_cut=10.0, temperature=0.0, distance=0.2)
    cuts = []
    real = covariance.frequency_grid

    def spy(params, omega_max, **kwargs):
        cuts.append(omega_max)
        return real(params, omega_max, **kwargs)

    monkeypatch.setattr(covariance, "frequency_grid", spy)
    tol = 1e-5
    covariance_time_series(greens_time(np.linspace(0.0, 6.0, 601), q), q, [6.0], tol=tol)
    k0 = 2.0 * q.gamma * q.omega_cut * (1.0 + math.exp(-q.omega_cut * q.distance))
    w_inf = 4.0 * q.gamma * q.omega_cut**2 / math.pi
    assert cuts and 2.0 * w_inf * (1.0 + (1.0 + k0) ** 2) / cuts[0] ** 4 <= tol


# ---------------------------------------------------------------------------
# the zero-frequency peak of the overdamped symmetric channel


@pytest.mark.parametrize("gamma, omega_cut, temperature, distance", [
    (35.72, 1.796, 0.282, 6.27e-4),
    (24.26, 48.07, 0.0131, 3.48e-4),
    (23.98, 15.10, 0.0, 7.57e-4),
])
def test_overdamped_zero_frequency_peak_is_resolved(gamma, omega_cut, temperature, distance):
    """At strong damping 1/|D_+(i omega)|^2 has a Lorentzian of half-width
    1/(4 gamma) at omega = 0, where Re D has no zero.  The symmetric moments
    on the default grid agree with a grid built here: uniform panels of width
    0.25, a doubling ladder from 2^-12 to 2^13 half-widths at omega = 0 and
    around each resonance, every panel halved."""
    from bathpair._panels import gauss_panels
    from bathpair.covariance import ASYMPTOTIC_TOL, asymptotic_omega_max

    q = ModelParams(gamma=gamma, omega_cut=omega_cut, temperature=temperature,
                    distance=distance)
    w_max = asymptotic_omega_max(q, ASYMPTOTIC_TOL)
    doubling = 2.0 ** np.arange(-12, 14)
    groups = [np.linspace(0.0, w_max, int(math.ceil(w_max / 0.5)) + 1),
              0.25 / gamma * doubling, [omega_cut / 2, omega_cut, 2 * omega_cut]]
    for om_res, width in channel_resonances(q, +1):
        groups += [om_res + width * doubling, om_res - width * doubling, [om_res]]
    edges = np.concatenate(groups)
    edges = np.unique(edges[(edges >= 0.0) & (edges <= w_max)])
    edges = np.unique(np.concatenate([edges, 0.5 * (edges[1:] + edges[:-1])]))
    alpha, beta, _ = channel_asymptotic_moments(q, +1, w_max, ASYMPTOTIC_TOL)
    alpha_ref, beta_ref, _ = channel_asymptotic_moments(q, +1, w_max, ASYMPTOTIC_TOL,
                                                        grid=gauss_panels(edges))
    assert alpha == pytest.approx(alpha_ref, rel=1e-10)
    assert beta == pytest.approx(beta_ref, rel=1e-10)


# ---------------------------------------------------------------------------
# a series is one stack


def test_time_series_is_one_stack(p, greens_cache):
    """Unordered and repeated times come back in the order asked, each member
    equal to the same time of a sorted request; t = 0 is c0 itself."""
    c0 = CovarianceMatrix(entries=random_physical_covariance(np.random.default_rng(5)))
    times = [1.0, 0.0, 0.5, 1.0, 0.25]
    out = covariance_time_series(greens_cache, p, times, c0=c0)
    assert isinstance(out, CovarianceMatrix)
    assert out.entries.shape == (5, 4, 4) and len(out) == 5
    assert np.allclose(out.time_label, times, rtol=0.0, atol=1e-12)
    ref = covariance_time_series(greens_cache, p, sorted(set(times)), c0=c0)
    by_time = dict(zip(np.round(ref.time_label, 9), ref.entries))
    members = list(out)
    assert len(members) == 5
    for i, (member, t) in enumerate(zip(members, times)):
        assert member.entries.shape == (4, 4)
        assert member.time_label == out[i].time_label == out.time_label[i]
        assert np.array_equal(out[i].entries, by_time[round(t, 9)])
    assert np.array_equal(out[1].entries, c0.entries)
    assert np.array_equal(out[0].entries, out[3].entries)
    assert np.array_equal(log_negativity(out), [log_negativity(m) for m in members])


def test_oracle_series_is_one_stack(p):
    from bathpair.oracle import reduced_covariance_series

    c0 = CovarianceMatrix(entries=random_physical_covariance(np.random.default_rng(6)))
    times = [2.0, 0.0, 1.0, 2.0]
    out = reduced_covariance_series(p, times, n_modes=200, omega_max_bath=200.0, c0=c0)
    assert isinstance(out, CovarianceMatrix) and len(out) == 4
    assert [m.time_label for m in out] == times
    ref = reduced_covariance_series(p, [0.0, 1.0, 2.0], n_modes=200,
                                    omega_max_bath=200.0, c0=c0)
    for member, t in zip(out, times):
        assert np.max(np.abs(member.entries - ref[int(t)].entries)) <= 1e-12
    assert np.max(np.abs(out[1].entries - c0.entries)) <= 1e-12
    assert np.max(np.abs(out[0].entries - out[3].entries)) <= 1e-12


def test_stack_refuses_one_asymmetric_member():
    cs = np.array([random_physical_covariance(np.random.default_rng(k)) for k in range(5)])
    cs[3, 0, 2] += 1e-3
    with pytest.raises(ValueError, match=r"asymmetric by .* at stack index \(3,\)"):
        CovarianceMatrix(entries=cs, time_label=np.arange(5.0))
    with pytest.raises(ValueError, match="needs 5 times"):
        CovarianceMatrix(entries=0.5 * (cs + cs.swapaxes(-1, -2)))
    with pytest.raises(TypeError):
        len(CovarianceMatrix(entries=np.eye(4)))
