import itertools
import math

import numpy as np
import pytest

from bathpair import covariance
from bathpair.covariance import (
    ASYMPTOTIC_TOL,
    CovarianceMatrix,
    channel_asymptotic_moments,
    covariance_asymptotic,
    covariance_time_series,
    ground_state_covariance,
)
from bathpair.entanglement import (
    SYMPLECTIC_FORM,
    UnphysicalCovarianceError,
    log_negativity,
    symplectic_eigenvalues,
)
from bathpair.greens import SIGNS, channel_blocks, greens_time
from bathpair.kernels import noise_spectrum
from bathpair.model import ModelParams
from conftest import channel_roots, matsubara_reference, random_physical_covariance


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
    """gamma <= 0 and r < 0 are refused.  At r = 0 the relative coordinate
    decouples and keeps its ground-state block, the identity, while the
    symmetric block holds the single-channel stationary moments."""
    with pytest.raises(ValueError, match="gamma > 0"):
        covariance_asymptotic(p.with_(gamma=0.0))
    with pytest.raises(ValueError, match="r >= 0"):
        covariance_asymptotic(p.with_(distance=-0.1))
    p0 = p.with_(distance=0.0)
    plus, minus, cross = channel_blocks(covariance_asymptotic(p0).entries)
    assert np.max(np.abs(minus - np.eye(2))) <= 1e-14
    assert np.max(np.abs(cross)) <= 1e-14
    alpha, beta, _ = channel_asymptotic_moments(p0, +1, ASYMPTOTIC_TOL)
    assert np.allclose(plus, np.diag([alpha, beta]), rtol=1e-13, atol=1e-14)


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
        alpha, beta, _ = channel_asymptotic_moments(p, sign, ASYMPTOTIC_TOL)
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


def test_resonance_finder(p):
    """The test-only `conftest.channel_roots`, which the panel-sum references
    below refine around: the weakly damped relative coordinate has one root
    off the imaginary axis, omega_r + i w, near omega = 1, with w about half
    the damping rate Re Gamma^(i omega_r) ~ 2 g Om^2 (1 - cos omega_r r) /
    (Om^2 + omega_r^2); the overdamped symmetric channel has none near the axis."""
    (om_res,), (width_res,) = channel_roots(p, -1.0)
    assert 0.8 <= om_res <= 1.05
    gam_r = 2.0 * 100.0 * (1.0 - math.cos(om_res * 0.1)) / (100.0 + om_res**2)
    assert 0.25 * gam_r <= width_res <= 0.75 * gam_r
    assert channel_roots(p, +1.0)[0].size == 0


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
    series = greens.channel_series[0 if sign > 0 else 1]
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
    for row, sign in enumerate((+1, -1)):
        g = fine.channel_series[row, idx]
        block = channel_blocks(c0.entries)[row]
        chan_full = channel_blocks(cov.entries)[row]
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


# ---------------------------------------------------------------------------
# lag kernels at r = 0


@pytest.mark.parametrize("temperature", [0.0, 0.2])
def test_lag_kernels_at_r0_transform_one_row(monkeypatch, temperature):
    """At r = 0 the antisymmetric row is zero without a transform; the
    symmetric row is bit-equal to the two-row transform on the same grid
    (the oracle-check points, h = 0.005, 2000 lags)."""
    params = ModelParams(1.0, 10.0, temperature, 0.0)
    h, n_lags = 0.005, 2000
    omega_max = covariance._transient_omega_max(params, h, 1e-5, n_lags)
    calls = []
    real = covariance._fourier_part

    def spy(weight, *args):
        calls.append((weight, args))
        return real(weight, *args)

    monkeypatch.setattr(covariance, "_fourier_part", spy)
    ours = covariance._lag_kernels(params, h, n_lags, omega_max)
    assert len(calls) == (2 if temperature > 0 else 1)
    assert all(weight.shape[0] == 1 for weight, _ in calls)

    j = 0
    for weight, args in calls:
        (part,) = real(np.concatenate([weight, np.zeros_like(weight)]), *args)
        j = j + part
    ref = np.concatenate([j[:, :4].real, j[:, 4:].imag], axis=1)
    assert ours.shape == (2, 6, n_lags)
    assert np.array_equal(ours, ref)
    assert not np.any(ours[1])


@pytest.mark.parametrize("temperature, distance", [
    (0.0, 0.0), (0.2, 0.0),         # the oracle-check points at r = 0
    (0.0, 0.01), (0.2, 0.02),       # both rows unshifted
    (0.2, 0.3),                     # the antisymmetric row shifted by r
])
def test_lag_kernels_match_two_sided_transform(monkeypatch, temperature, distance):
    """Unshifted rows transform only the lags m >= 0, also beside a shifted
    row.  Against the transform of every lag, -n_lags < m < n_lags, cut to
    m >= 0, each kernel row agrees to 1e-12 of its largest value (h = 0.005,
    2000 lags)."""
    params = ModelParams(1.0, 10.0, temperature, distance)
    h, n_lags = 0.005, 2000
    omega_max = covariance._transient_omega_max(params, h, 1e-5, n_lags)
    ours = covariance._lag_kernels(params, h, n_lags, omega_max)
    real = covariance._fourier_part

    def two_sided(weight, dw, period, h, n_lags, transforms):
        out = real(weight, dw, period, h, n_lags, [(shift, 1 - n_lags) for shift, _ in transforms])
        return [j[..., first_lag - n_lags:] for j, (_, first_lag) in zip(out, transforms)]

    monkeypatch.setattr(covariance, "_fourier_part", two_sided)
    ref = covariance._lag_kernels(params, h, n_lags, omega_max)
    scale = np.max(np.abs(ref), axis=-1, keepdims=True)
    assert np.max(np.abs(ours - ref) / np.where(scale > 0, scale, 1.0)) <= 1e-12


@pytest.mark.parametrize("temperature", [0.0, 0.2])
def test_lag_kernels_in_shift_mode_transform_the_unshifted_row_at_m_ge_0(monkeypatch,
                                                                        temperature):
    """Where cos(omega r) is a lag shift (r = 0.3 at h = 0.01, Omega = 10), the
    unshifted row is transformed at the lags m >= 0 only, and the shifted row
    at every lag -n_lags < m < n_lags: one call per spectrum part, which
    evaluates the spectrum once for both transforms, one row each."""
    params = ModelParams(1.0, 10.0, temperature, 0.3)
    h, n_lags = 0.01, 2000
    assert covariance._FOLD_BELOW <= params.distance * min(params.omega_cut, 1.0 / h)
    calls, spectra = [], []
    real, real_spectrum = covariance._fourier_part, covariance.noise_spectrum

    def spy(weight, dw, period, h, n_lags, transforms):
        out = real(weight, dw, period, h, n_lags, transforms)
        calls.append((list(transforms), [j.shape for j in out]))
        return out

    def spy_spectrum(w, q):
        spectra.append(q.temperature)
        return real_spectrum(w, q)

    monkeypatch.setattr(covariance, "_fourier_part", spy)
    monkeypatch.setattr(covariance, "noise_spectrum", spy_spectrum)
    covariance._lag_kernels(params, h, n_lags,
                            covariance._transient_omega_max(params, h, 1e-5, n_lags))
    parts = 2 if temperature > 0 else 1
    assert calls == [([(0.0, 0), (0.3, 1 - n_lags)], [(1, 6, n_lags), (1, 6, 2 * n_lags - 1)])] * parts
    # S_0 for the T = 0 part; S_T and S_0 for the thermal excess
    assert sorted(spectra) == sorted([0.0] + [temperature, 0.0] * (parts - 1))


# ---------------------------------------------------------------------------
# references: the panel-sum lag kernels and the per-pair Filon sweep that the
# uniform-grid Filon transform replaces


def _panel_grid(params, omega_max, t_scale):
    """Gauss panels on [0, omega_max] as the transient path once built them:
    uniform panels no wider than 2.5 / t_scale, so that the fastest lag
    phase stays resolved, and a ladder around every root of D near the
    axis of either channel (`conftest.channel_roots`)."""
    from bathpair._panels import gauss_panels

    om = params.omega_cut
    cap = min(0.5, om / 4.0, 2.5 / max(t_scale, params.distance, 1e-9))
    cap = max(cap, omega_max / 200000.0)
    base = np.linspace(0.0, omega_max, int(math.ceil(omega_max / cap)) + 1)
    roots = [channel_roots(params, sign) for sign in (1.0, -1.0)]
    features = [f for re, im in roots for f in zip(re, im)] + [(0.0, 0.25 / params.gamma)]
    clusters = []
    for om_res, width in features:
        if width * 2.0 < cap:
            ladder = width * 2.0 ** np.arange(-1, 10)
            ladder = ladder[ladder < 8.0 * cap]
            clusters += [om_res + ladder, om_res - ladder, [om_res]]
    edges = np.concatenate([base, [om / 2, om, 2 * om], *clusters])
    return gauss_panels(np.unique(np.clip(edges, 0.0, omega_max)))


def _panel_weights(params, h, n_lags, omega_max):
    """Nodes and per-channel weights of `_panel_grid` for lags up to n_lags:
    quadrature weight times (S/2)(1 +- cos omega r), the channel factor as
    2 (cos^2, sin^2)(omega r / 2) so that small r loses no digits."""
    x, w = _panel_grid(params, omega_max, max(2.0 * h * n_lags, params.distance))
    half = 0.5 * x * params.distance
    return x, w * noise_spectrum(x, params) * np.stack([np.cos(half), np.sin(half)]) ** 2


def _panel_lag_kernels(x, weights, h, n_lags, fine=64, block=2048):
    """Reference for `covariance._lag_kernels`: the sums over panel nodes of
    weight * {s0^2, s0 s2, s2^2, p1^2} * cos(m phi) and of
    weight * {p1 s0, p1 s2} * sin(m phi), phi = 2 omega h, lags m < n_lags.
    Lag m = b L + j splits its phase as e^{i b L phi} e^{i j phi}, so a block
    of nodes is one real matrix product."""
    n_rows = weights.shape[0]
    n_coarse = -(-n_lags // fine)
    coarse = fine * np.arange(n_coarse)
    acc = np.zeros((n_rows * 6 * n_coarse, fine))
    for lo in range(0, x.size, block):
        xb = x[lo:lo + block]
        f = weights[:, None, None, lo:lo + block] * covariance._moment_rows(xb, h)[:, None]
        phi = 2.0 * h * xb
        cc, sc = np.cos(np.outer(coarse, phi)), np.sin(np.outer(coarse, phi))
        left = np.empty((n_rows, 6, n_coarse, 2, xb.size))
        left[:, :4, :, 0] = f[:, :4] * cc
        left[:, :4, :, 1] = -f[:, :4] * sc
        left[:, 4:, :, 0] = f[:, 4:] * sc
        left[:, 4:, :, 1] = f[:, 4:] * cc
        phase = np.outer(phi, np.arange(fine))
        acc += left.reshape(acc.shape[0], -1) @ np.concatenate([np.cos(phase), np.sin(phase)])
    return acc.reshape(n_rows, 6, n_coarse * fine)[..., :n_lags]


def _check_lag_kernels(q, h, n_lags):
    omega_max = covariance._transient_omega_max(q, h, 1e-5, n_lags)
    ours = covariance._lag_kernels(q, h, n_lags, omega_max)
    ref = _panel_lag_kernels(*_panel_weights(q, h, n_lags, omega_max), h, n_lags)
    assert ours.shape == ref.shape == (2, 6, n_lags)
    scale = np.max(np.abs(ref), axis=-1, keepdims=True)
    # at r = 0 the antisymmetric channel carries no noise: its rows are zero
    assert np.all((scale > 0) | (q.distance == 0))
    assert np.max(np.abs(ours - ref) / np.where(scale > 0, scale, 1.0)) <= 1e-10


@pytest.mark.parametrize("h", [0.01, 0.005], ids=["trace-grid", "oracle-grid"])
@pytest.mark.parametrize("distance", [0.0, 1e-6, 1e-3, 0.2, 3.0])
@pytest.mark.parametrize("temperature", [0.0, 0.01, 0.2, 10.0])
def test_lag_kernels_match_panel_sum(temperature, distance, h):
    """Each kernel row is within 1e-10 of the panel sum, relative to its
    largest value over the lags (400 lags); at r = 1e-6 the antisymmetric
    rows are ~1e-10 of the symmetric ones and keep that accuracy."""
    _check_lag_kernels(ModelParams(1.0, 10.0, temperature, distance), h, 400)


@pytest.mark.parametrize("params, h, n_lags", [
    ((1.0, 10.0, 0.0, 0.2), 0.01, 2000),       # the paper's trace, t_max = 40
    ((1.0, 10.0, 0.2, 0.3), 0.005, 2000),      # an oracle-check point, t_max = 20
    ((10.0, 50.0, 0.0, 0.05), 0.002, 1000),    # stiff
], ids=["trace", "oracle", "stiff"])
def test_lag_kernels_match_panel_sum_at_full_length(params, h, n_lags):
    _check_lag_kernels(ModelParams(*params), h, n_lags)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_filon_weights_match_mpmath():
    """W and alpha_0..alpha_3 of the cubic Filon rule against the closed forms
    of Numerical Recipes (3rd ed., eq. 13.9.14) in 50-digit arithmetic, on
    both sides of the small-theta switch, at both signs of theta, and at 0."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50

    def exact(th):
        th = mpmath.mpf(th)
        if th == 0:
            return 1, [-mpmath.mpf(2) / 3, mpmath.mpf(7) / 24, -mpmath.mpf(1) / 6, mpmath.mpf(1) / 24]
        t2, t4 = th**2, th**4
        c, s, c2, s2 = mpmath.cos(th), mpmath.sin(th), mpmath.cos(2 * th), mpmath.sin(2 * th)
        w = (6 + t2) / (3 * t4) * (3 - 4 * c + c2)
        a0 = mpmath.mpc((-42 + 5 * t2) + (6 + t2) * (8 * c - c2),
                        (-12 * th + 6 * th**3) + (6 + t2) * s2) / (6 * t4)
        a1 = mpmath.mpc(14 * (3 - t2) - 7 * (6 + t2) * c, 30 * th - 5 * (6 + t2) * s) / (6 * t4)
        a2 = mpmath.mpc(-4 * (3 - t2) + 2 * (6 + t2) * c, -12 * th + 2 * (6 + t2) * s) / (3 * t4)
        a3 = mpmath.mpc(2 * (3 - t2) - (6 + t2) * c, 6 * th - (6 + t2) * s) / (6 * t4)
        return w, [a0, a1, a2, a3]

    switch = covariance._SERIES_BELOW
    theta = np.concatenate([np.geomspace(1e-6, 3.0, 120),
                            switch * (1.0 + np.array([-1e-12, 0.0, 1e-12]))])
    theta = np.concatenate([theta, -theta, [0.0]])
    w, alpha = covariance._filon_weights(theta)
    assert w.shape == theta.shape and alpha.shape == (4,) + theta.shape
    for i, th in enumerate(theta):
        w_ref, a_ref = exact(float(th))
        assert abs(w[i] - float(w_ref)) <= 1e-14, th
        for j in range(4):
            assert abs(alpha[j, i] - complex(a_ref[j])) <= 1e-14, (th, j)


def _fft_lengths(monkeypatch):
    """Spy on numpy's FFTs: the list gets (rows, length) of each call."""
    calls = []
    for name in ("fft", "ifft", "rfft"):
        real = getattr(np.fft, name)

        def spy(a, n=None, *args, real=real, **kwargs):
            a = np.asarray(a)
            calls.append((a.size // a.shape[-1], a.shape[-1] if n is None else n))
            return real(a, n, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, spy)
    return calls


def test_zoom_dft_matches_direct_sum(monkeypatch):
    """Both transforms equal the direct sum.  The chirp: at a period far
    above the node count, one beyond the 64-bit integers, a prime one below
    the node count, and with negative lags.  The plain FFT of the period:
    at 11-smooth periods just below, equal to and just above the node count
    (48, 49 and 50 at 49 nodes), and at 64 over 50 nodes, on lag windows
    that start below 0 and span the whole period more than once; complex
    nodes, and real ones, which take a real FFT."""
    rng = np.random.default_rng(3)
    lengths = _fft_lengths(monkeypatch)
    for (n_nodes, period, m_lo, n_out, plain), real in itertools.product([
            (50, 10**9 + 7, -30, 61, False), (50, 10**20 + 3, -5, 40, False),
            (50, 37, -5, 80, False), (50, 64, 0, 64, True),
            (49, 48, -70, 130, True), (49, 49, -70, 130, True), (49, 50, -49, 120, True)],
            [False, True]):
        g = rng.normal(size=(2, n_nodes)) + (0 if real else 1j * rng.normal(size=(2, n_nodes)))
        k = np.arange(n_nodes)
        m = np.arange(m_lo, m_lo + n_out)
        direct = g @ np.exp(2j * np.pi * np.outer(k, m) / period)
        lengths.clear()
        zoom = covariance._zoom_dft(g, period, m_lo, n_out)
        assert np.max(np.abs(zoom - direct)) <= 1e-12 * np.abs(g).sum()
        assert (lengths == [(2, period)]) == plain, (period, lengths)


def test_plain_fft_where_the_smooth_period_fits(monkeypatch):
    """The trace case (1, 10, 0, 0.2) at h = 0.01, 2000 lags, puts its
    T = 0 part on the 11-smooth period 12,600 (the least is 12,567) and
    takes one FFT of that length per row, for the unshifted and the shifted
    transform.  The T = 0.2 thermal part (period about 2e5 over about 2,500
    nodes) and every part of the oracle-check grid (h = 0.005, 2000 lags,
    least period 25,133) keep the chirp: three FFTs of its own length."""
    def transforms(params, h, n_lags):
        calls = []
        real = covariance._zoom_dft

        def spy(g, period, m_lo, n_out):
            first = len(fft)
            out = real(g, period, m_lo, n_out)
            calls.append((period, g.shape[-1], n_out, fft[first:]))
            return out

        with monkeypatch.context() as m:
            fft = _fft_lengths(m)
            m.setattr(covariance, "_zoom_dft", spy)
            covariance._lag_kernels(params, h, n_lags,
                                    covariance._transient_omega_max(params, h, 1e-5, n_lags))
        return calls

    cold = transforms(ModelParams(1.0, 10.0, 0.0, 0.2), 0.01, 2000)
    assert [period for period, *_ in cold] == [12600, 12600]
    assert all(fft == [(6, 12600)] for *_, fft in cold)

    warm = transforms(ModelParams(1.0, 10.0, 0.2, 0.2), 0.01, 2000)
    assert warm[:2] == cold
    for period, n_nodes, n_out, fft in warm[2:]:
        chirp = covariance._next_fast_len(n_nodes + n_out - 1)
        assert period > chirp and [n for _, n in fft] == [chirp] * 3

    for temperature in (0.0, 0.2):
        oracle = transforms(ModelParams(1.0, 10.0, temperature, 0.1), 0.005, 2000)
        assert oracle and oracle[0][0] == 25133
        for period, n_nodes, n_out, fft in oracle:
            assert [n for _, n in fft] == [covariance._next_fast_len(n_nodes + n_out - 1)] * 3


@pytest.mark.parametrize("temperature", [0.0, 0.2])
def test_lag_kernel_grids_are_logged_at_debug(caplog, temperature):
    """One DEBUG line per spectrum part names its node count, period, dw,
    and the transform and FFT length of each lag range; nothing above DEBUG."""
    import logging

    params = ModelParams(1.0, 10.0, temperature, 0.2)
    h, n_lags = 0.01, 2000
    omega_max = covariance._transient_omega_max(params, h, 1e-5, n_lags)
    with caplog.at_level(logging.INFO, logger="bathpair"):
        covariance._lag_kernels(params, h, n_lags, omega_max)
    assert not caplog.records
    with caplog.at_level(logging.DEBUG, logger="bathpair"):
        covariance._lag_kernels(params, h, n_lags, omega_max)
    lines = [rec.getMessage() for rec in caplog.records if rec.funcName == "_lag_kernels"]
    assert len(lines) == (2 if temperature > 0 else 1)
    dw = math.pi / (h * 12600)
    n_nodes = math.ceil(omega_max / dw - 1e-9) + 1
    assert lines[0] == (f"lag kernels, T = 0 part: {n_nodes} nodes, period 12600, dw {dw:.6g}; "
                        "plain FFT of 12600 at m >= 0, plain FFT of 12600 at m >= -1999")
    if temperature > 0:
        assert lines[1].startswith("lag kernels, thermal part: ")
        assert lines[1].count("chirp FFT of ") == 2 and "plain" not in lines[1]


@pytest.mark.parametrize("real", [False, True])
def test_fast_length_is_scipys(real):
    """`covariance._next_fast_len` gives the integer `scipy.fft.next_fast_len`
    gives, for every n <= 3000 and 300 random n up to 1e8: exact equality."""
    from scipy.fft import next_fast_len

    rng = np.random.default_rng(7)
    for n in list(range(1, 3001)) + rng.integers(3001, 10**8, 300).tolist():
        assert covariance._next_fast_len(n, real) == next_fast_len(n, real), n


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("temperature", [1e-6, 0.0])
def test_noise_work_is_bounded(monkeypatch, temperature):
    """Neither a large separation nor a temperature near zero makes the
    frequency grid finer: the grid period is the same at every r, the node
    count does not grow once omega_max stops moving (K(0) no longer depends
    on r), and every FFT stays below 2^20.  Each point gives a physical
    stack."""
    real_len, real_zoom = covariance._next_fast_len, covariance._zoom_dft
    runs = {}
    for r in (0.2, 50.0, 1e4):
        q = ModelParams(1.0, 10.0, temperature, r)
        g = greens_time(np.linspace(0.0, 2.0, 201), q)
        lengths, grids = [], []

        def spy_len(n, *args, **kwargs):
            lengths.append(real_len(n, *args, **kwargs))
            return lengths[-1]

        def spy_zoom(g, period, m_lo, n_out):
            grids.append((period, g.shape[-1]))
            return real_zoom(g, period, m_lo, n_out)

        with monkeypatch.context() as m:
            m.setattr(covariance, "_next_fast_len", spy_len)
            m.setattr(covariance, "_zoom_dft", spy_zoom)
            out = covariance_time_series(g, q, np.arange(0.0, 2.001, 0.02))
        assert len(out) == 101 and np.all(np.isfinite(out.entries))
        assert lengths and max(lengths) <= 2**20
        runs[r] = grids
    # one grid per spectrum part and row kind: r = 0.2 shifts the antisymmetric row
    assert len(runs[0.2]) == (4 if temperature > 0 else 2)
    assert [p for p, _ in runs[0.2]] == [p for p, _ in runs[50.0]] == [p for p, _ in runs[1e4]]
    assert runs[50.0] == runs[1e4]


def _stream_pair_noise(g_cols, params, h, n_pairs, omega_max):
    """Reference for `covariance._pair_noise`: on the panel grid, accumulate
    the Filon sums P(omega, p) pair by pair at every node and take
    sum_omega w |P|^2 at every p.  O(N_pairs * N_omega) work with a per-pair
    exp-free update."""
    x, weights = _panel_weights(params, h, n_pairs, omega_max)
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
    """Lag kernels plus FFT convolution reproduce the pair-by-pair sweep on
    the panel grid, with a general initial state and sparse, unordered,
    repeated outputs."""
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
    real = covariance._lag_kernels

    def spy(params, h, n_lags, omega_max):
        cuts.append(omega_max)
        return real(params, h, n_lags, omega_max)

    monkeypatch.setattr(covariance, "_lag_kernels", spy)
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
    1/(4 gamma) at omega = 0; on the Matsubara axis it is D_+'s root near
    -1/K^(0), inside the first panel's disc.  The symmetric moments agree with
    `conftest.matsubara_reference` to 1e-10."""
    q = ModelParams(gamma=gamma, omega_cut=omega_cut, temperature=temperature,
                    distance=distance)
    alpha, beta, _ = channel_asymptotic_moments(q, +1, ASYMPTOTIC_TOL)
    ref = matsubara_reference(q)
    assert alpha == pytest.approx(ref[0][0], rel=1e-10)
    assert beta == pytest.approx(ref[1][0], rel=1e-10)


@pytest.mark.parametrize("gamma, omega_cut, temperature, distance", [
    (0.05, 3.0, 0.0, 0.02),
    (2.0, 40.0, 0.5, 0.3),
    (24.26, 48.07, 0.0131, 3.48e-4),
])
def test_both_channels_in_one_call_equal_per_sign_calls(gamma, omega_cut, temperature,
                                                         distance):
    """The channel axis changes no number: `SIGNS` gives exactly the two
    single-sign results, row 0 the symmetric channel."""
    q = ModelParams(gamma=gamma, omega_cut=omega_cut, temperature=temperature,
                    distance=distance)
    alpha, beta, err = channel_asymptotic_moments(q, SIGNS, ASYMPTOTIC_TOL)
    plus, minus = (channel_asymptotic_moments(q, s, ASYMPTOTIC_TOL) for s in (+1, -1))
    assert alpha.shape == beta.shape == (2,)
    assert np.array_equal(alpha, [plus[0], minus[0]])
    assert np.array_equal(beta, [plus[1], minus[1]])
    assert err == max(plus[2], minus[2])


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
