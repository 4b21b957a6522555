import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from bathpair import oracle
from bathpair.covariance import CovarianceMatrix
from bathpair.entanglement import log_negativity, symplectic_eigenvalues
from bathpair.model import ModelParams, spectral_density
from bathpair.oracle import (
    RecurrenceHorizonError,
    SymplecticityError,
    build_bath,
    reduced_covariance_series,
)
from conftest import random_physical_covariance


@pytest.fixture(scope="module")
def p():
    return ModelParams(gamma=1.0, omega_cut=10.0, temperature=0.0, distance=0.1)


def _dense_potential(parts):
    """The dense (N+1)^2 matrix of the arrowhead parts (corner, border,
    diagonal) that `oracle._channel_potential` returns."""
    corner, border, diag = parts
    v = np.diag(np.concatenate([[corner], diag]))
    v[0, 1:] = v[1:, 0] = border
    return v


def _mode_matrix(modes):
    """The dense (N+1)^2 mode matrix U (eigenvectors as columns) that the
    closed-form record `oracle._ChannelModes` stands for."""
    n = modes.mu2.size
    m = modes.d.size
    u = np.zeros((n, n))
    u[0] = modes.head
    if m:
        x_minus_d = (modes.d[modes.origin, None] - modes.d) + modes.tau[:, None]
        u[modes.cols, :m + 1] = (modes.head[:m + 1, None] * modes.border / x_minus_d).T
    dead = np.setdiff1d(np.arange(1, n), modes.cols)
    u[dead, m + 1 + np.arange(dead.size)] = 1.0
    return u


def _chain_generator(bath, params, sign):
    """Sigma H of one channel chain, ordered (positions, momenta) of
    (collective coordinate, bath modes), with H built from the oracle's
    own channel potential."""
    npos = bath.n_modes + 1
    h = np.zeros((2 * npos, 2 * npos))
    h[:npos, :npos] = _dense_potential(oracle._channel_potential(bath, params, sign))
    h[npos:, npos:] = np.eye(npos)
    sig = np.zeros((2 * npos, 2 * npos))
    sig[:npos, npos:] = np.eye(npos)
    sig[npos:, :npos] = -np.eye(npos)
    return sig @ h, sig


def test_build_bath_guards(p):
    with pytest.raises(ValueError, match="n_modes"):
        build_bath(p, n_modes=50, omega_max_bath=200.0)
    with pytest.raises(ValueError, match="omega_max_bath"):
        build_bath(p, n_modes=500, omega_max_bath=100.0)
    with pytest.raises(RecurrenceHorizonError):
        build_bath(p, n_modes=200, omega_max_bath=200.0, compare_time=10.0)
    with pytest.raises(RecurrenceHorizonError, match="retarded"):
        build_bath(p.with_(distance=30.0), n_modes=2000, omega_max_bath=265.0,
                   compare_time=20.0)


def test_recurrence_time_definition(p):
    bath = build_bath(p, n_modes=2000, omega_max_bath=200.0)
    assert bath.k_spacing == pytest.approx(0.1)
    assert bath.recurrence_time == pytest.approx(2.0 * math.pi / 0.1)


def test_spectral_density_reconstruction(p):
    """Binned sum g_k^2/(2 w_k) recovers J(omega) to 1%."""
    bath = build_bath(p, n_modes=4000, omega_max_bath=200.0)
    width = 0.5
    for center in (0.5, 1.0, p.omega_cut):
        m = np.abs(bath.omegas - center) <= width / 2
        est = np.sum(bath.couplings[m] ** 2 / (2.0 * bath.omegas[m])) / width
        assert est == pytest.approx(float(spectral_density(center, p)), rel=0.01)


def test_propagator_is_matrix_exponential(p):
    """The system rows of each channel chain are rows 0 and N+1 of
    expm(t Sigma H)."""
    bath = build_bath(p, n_modes=100, omega_max_bath=200.0)
    for sign in (+1, -1):
        gen, _ = _chain_generator(bath, p, sign)
        ch = oracle._channel_modes(bath, p, sign)
        for t in (0.37, 2.1):
            ref = expm(t * gen)[[0, bath.n_modes + 1]]
            assert np.max(np.abs(oracle._system_rows(ch, t) - ref)) <= 1e-9


def test_propagator_symplectic_and_composes(p):
    """The system rows R(t) of each chain's S(t) keep
    R Sigma R^T = [[0, 1], [-1, 0]], and R(t1 + t2) = R(t1) S(t2)."""
    bath = build_bath(p, n_modes=120, omega_max_bath=200.0)
    for sign in (+1, -1):
        gen, sig = _chain_generator(bath, p, sign)
        ch = oracle._channel_modes(bath, p, sign)
        for t in (0.4, 0.7, 1.1):
            rows = oracle._system_rows(ch, t)
            assert np.max(np.abs(rows @ sig @ rows.T - [[0.0, 1.0], [-1.0, 0.0]])) <= 1e-8
        composed = oracle._system_rows(ch, 0.4) @ expm(0.7 * gen)
        assert np.max(np.abs(oracle._system_rows(ch, 1.1) - composed)) <= 1e-8


def test_evolve_identity_and_energy(p):
    """R(0) is the pair of system unit rows, and R(t) conserves the chain
    energy: S^T H S = H is equivalent to S H^-1 S^T = H^-1, whose system
    block R H^-1 R^T is diag((V^-1)_00, 1) at every t.  The counter-term
    makes (V^-1)_00 the bare static response 1/omega0^2 = 1."""
    bath = build_bath(p, n_modes=120, omega_max_bath=200.0)
    n = bath.n_modes + 1
    unit = np.zeros((2, 2 * n))
    unit[0, 0] = unit[1, n] = 1.0
    expect = np.eye(2)
    for sign in (+1, -1):
        h_inv = np.eye(2 * n)
        h_inv[:n, :n] = np.linalg.inv(_dense_potential(oracle._channel_potential(bath, p, sign)))
        ch = oracle._channel_modes(bath, p, sign)
        assert np.max(np.abs(oracle._system_rows(ch, 0.0) - unit)) <= 1e-12
        for t in (0.5, 1.5):
            rows = oracle._system_rows(ch, t)
            assert np.max(np.abs(rows @ h_inv @ rows.T - expect)) <= 1e-8


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n_modes", [100, 2000])
def test_arrowhead_solver_matches_dense_eigh(p, n_modes):
    """The secular-equation solver against dense eigvalsh on the oracle's own
    channels: the same spectrum within 1e-10 max(omega^2), an orthonormal
    mode matrix, and columns that V maps onto mu^2 times themselves."""
    bath = build_bath(p, n_modes=n_modes, omega_max_bath=265.0)
    for sign in (+1, -1):
        parts = oracle._channel_potential(bath, p, sign)
        v = _dense_potential(parts)
        modes = oracle._solve_arrowhead(*parts)
        mu2, u = modes.mu2, _mode_matrix(modes)
        scale = parts[2].max()
        assert np.max(np.abs(np.sort(mu2) - np.linalg.eigvalsh(v))) <= 1e-10 * scale
        assert np.max(np.abs(u.T @ u - np.eye(n_modes + 1))) <= 1e-12
        assert np.max(np.abs(v @ u - u * mu2)) <= 1e-12 * scale


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_arrowhead_modes_orthogonal_at_4000(p):
    """||U^T U - I||_max <= 1e-10 for the 4001 modes of the criterion-9
    doubling run (N = 4000, W = 530)."""
    bath = build_bath(p, n_modes=4000, omega_max_bath=530.0)
    u = _mode_matrix(oracle._channel_modes(bath, p, +1))
    gram = u.T @ u
    gram[np.diag_indices_from(gram)] -= 1.0
    assert np.max(np.abs(gram)) <= 1e-10


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_arrowhead_solver_deflates_zero_couplings(p):
    """A zero coupling leaves its bath mode an eigenvector with eigenvalue
    omega_k^2: every mode at gamma = 0 and in the antisymmetric channel at
    r = 0, and one mode inside an otherwise coupled chain, where the rest
    still matches dense eigvalsh."""
    for params, sign in ((p.with_(gamma=0.0), +1), (p.with_(distance=0.0), -1)):
        corner, border, diag = oracle._channel_potential(build_bath(params, 200, 200.0),
                                                         params, sign)
        assert not np.any(border)
        modes = oracle._solve_arrowhead(corner, border, diag)
        mu2, u = modes.mu2, _mode_matrix(modes)
        assert np.array_equal(mu2, np.concatenate([[corner], diag]))
        assert np.array_equal(u, np.eye(201))
    corner, border, diag = oracle._channel_potential(build_bath(p, 200, 200.0), p, +1)
    border = border.copy()
    border[57] = 0.0
    v = _dense_potential((corner, border, diag))
    modes = oracle._solve_arrowhead(corner, border, diag)
    mu2, u = modes.mu2, _mode_matrix(modes)
    decoupled = np.flatnonzero(mu2 == diag[57])
    assert decoupled.size == 1 and np.array_equal(u[:, decoupled[0]], np.eye(201)[58])
    assert np.max(np.abs(np.sort(mu2) - np.linalg.eigvalsh(v))) <= 1e-10 * diag.max()
    assert np.max(np.abs(u.T @ u - np.eye(201))) <= 1e-12
    assert np.max(np.abs(v @ u - u * mu2)) <= 1e-12 * diag.max()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_system_rows_match_dense_mode_matrix(p):
    """`_system_rows` applies U^T in closed form, one block of bath columns at
    a time: the same rows as the dense product f U^T of the phase rows f
    with the mode matrix, to 1e-13, at N = 2000 in both channels and in a
    chain with one coupling zeroed, whose deflated column stays exactly
    zero."""
    bath = build_bath(p, n_modes=2000, omega_max_bath=265.0)
    corner, border, diag = oracle._channel_potential(bath, p, +1)
    border = border.copy()
    border[57] = 0.0
    chains = [oracle._channel_modes(bath, p, +1), oracle._channel_modes(bath, p, -1),
              oracle._solve_arrowhead(corner, border, diag)]
    t = np.array([0.0, 0.7, 5.0, 20.0])
    for ch in chains:
        u, mu = _mode_matrix(ch), ch.mu
        ph = np.multiply.outer(t, mu)
        f = u[0] * np.stack([np.cos(ph), np.sin(ph) / mu, -mu * np.sin(ph)])
        a_row, b_row, c_row = f @ u.T
        dense = np.stack([np.concatenate([a_row, b_row], axis=-1),
                          np.concatenate([c_row, a_row], axis=-1)], axis=-2)
        rows = oracle._system_rows(ch, t)
        assert rows.shape == (t.size, 2, 2 * bath.n_modes + 2)
        assert np.max(np.abs(rows - dense)) <= 1e-13
    assert not np.any(rows[..., 58]) and not np.any(rows[..., bath.n_modes + 59])


def test_oracle_memory_is_below_one_mode_matrix(p):
    """The mode matrix is never built: at N = 4000 (W = 530, the criterion-9
    doubling run and times) `reduced_covariance_series` peaks, as traced by
    tracemalloc, below the 128 MB of one (N+1)^2 float64 matrix."""
    times = np.arange(0.0, 20.01, 1.0)
    one_matrix = 4001**2 * 8
    tracemalloc.start()
    try:
        reduced_covariance_series(p, times, n_modes=4000, omega_max_bath=530.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < one_matrix


def test_loewner_border_reproduces_its_roots():
    """Loewner's formula: for any roots interlacing the diagonal, the border
    it returns (with corner sum(x) - sum(d), the trace) gives an arrowhead
    whose spectrum is exactly those roots."""
    rng = np.random.default_rng(7)
    d = np.cumsum(rng.uniform(0.5, 2.0, 40))
    x = np.concatenate([[d[0] - 1.0], d[:-1] + rng.uniform(0.05, 0.95, 39) * np.diff(d),
                        [d[-1] + 2.0]])
    origin = np.clip(np.arange(41) - 1, 0, 39)
    border2 = oracle._loewner_border(d, origin, x - d[origin])
    v = _dense_potential((x.sum() - d.sum(), np.sqrt(border2), d))
    assert np.max(np.abs(np.linalg.eigvalsh(v) - x)) <= 1e-12 * d[-1]


def test_image_sum_closed_form_matches_series():
    """The T = 0 image sum in trigamma form against mpmath's summation of the
    alternating series, to 1e-13 relative, across [0, period)."""
    mpmath = pytest.importorskip("mpmath")
    period = 2.0 * math.pi / (265.0 / 2000)
    x = np.array([0.0, 0.1, 7.3, 20.0, 0.5 * period, 0.9 * period])
    for xv, got in zip(x, oracle._image_sum(x, period, 0.0)):
        ref = mpmath.nsum(lambda m: (-1) ** m * ((m * period + xv) ** -2
                                                 + (m * period - xv) ** -2), [1, mpmath.inf])
        assert abs(got / float(ref) - 1.0) <= 1e-13


def _trigamma_tolerance(x: float) -> float:
    """Relative bound on `oracle._trigamma`, set before comparing; u = eps/2.
    The series at y = x + n >= 20 is 1/y plus terms below 1/(2y), the
    Horner sum of the small ones is good to u of them, and the sums,
    products and reciprocals that join them to 1/y round four times: 4u.
    Each of the n = ceil(20 - x) positive terms 1/(x + j)^2 is off by at
    most 3u (sum, square, reciprocal), and a sum of positive terms is off
    by at most the largest of those, 3u, plus u per addition: (n + 3) u.
    The reference rounded to a double adds u: (n + 8) u in all."""
    n = max(math.ceil(20.0 - x), 0)
    return 0.5 * np.finfo(float).eps * (n + 8)


def test_trigamma_matches_mpmath():
    """psi'(x) against mpmath's psi(1, x) at 30 digits on (0, 1.5], where the
    T = 0 image sum takes it, on both sides of the switch to the series at
    x + n = 20, and on to 1e6."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    x = np.concatenate([np.geomspace(1e-6, 1.5, 300), np.linspace(0.01, 1.5, 150),
                        [np.nextafter(20.0, 0.0), 20.0, np.nextafter(20.0, 30.0), 19.5, 21.0],
                        np.geomspace(1.5, 1e6, 100)])
    ref = np.array([float(mpmath.psi(1, mpmath.mpf(float(v)))) for v in x])
    tol = np.array([_trigamma_tolerance(float(v)) for v in x])
    rel = np.abs(oracle._trigamma(x) / ref - 1.0)
    assert np.all(rel <= tol), x[np.argmax(rel / tol)]


def test_reduce_initial_product_state(p):
    """At t = 0 the reduced covariance is the initial system state."""
    c0 = CovarianceMatrix(entries=random_physical_covariance(np.random.default_rng(3)))
    out = reduced_covariance_series(p, [0.0], n_modes=200, omega_max_bath=200.0, c0=c0)[0]
    assert np.max(np.abs(out.entries - c0.entries)) <= 1e-12


def test_decoupled_limit_free_evolution(p):
    """gamma = 0: the couplings vanish, the oscillators rotate freely in the
    ground state, and E stays zero (the recurrence horizon covers t)."""
    for red in reduced_covariance_series(p.with_(gamma=0.0), [0.9, 2.2], n_modes=200,
                                         omega_max_bath=200.0):
        assert np.max(np.abs(red.entries - np.eye(4))) <= 1e-10
        assert log_negativity(red.entries) == 0.0


def test_reduced_physical_along_evolution(p):
    covs = reduced_covariance_series(p, [0.5, 2.0, 6.0, 12.0], n_modes=1500,
                                     omega_max_bath=300.0)
    for c in covs:
        assert symplectic_eigenvalues(c.entries)[0] >= 1.0 - 1e-6


def test_counter_term_negative_control(p, monkeypatch):
    """The quadratic compensation is load-bearing: at the reference coupling
    its removal leaves an indefinite potential (uncompensated frequency
    renormalization exceeds the bare frequency), and at weak coupling the
    shifted dynamics is clearly measurable."""
    weak = p.with_(gamma=0.02)
    with_ct = reduced_covariance_series(weak, [4.0], n_modes=1200,
                                        omega_max_bath=300.0)[0]
    compensated = oracle._channel_potential

    def uncompensated(bath, params, sign):
        _, border, diag = compensated(bath, params, sign)
        return 1.0, border, diag    # bare frequency squared in the corner

    monkeypatch.setattr(oracle, "_channel_potential", uncompensated)
    with pytest.raises(SymplecticityError, match="counter-term"):
        reduced_covariance_series(p, [1.0], n_modes=1200, omega_max_bath=300.0)
    without = reduced_covariance_series(weak, [4.0], n_modes=1200,
                                        omega_max_bath=300.0)[0]
    assert np.max(np.abs(with_ct.entries - without.entries)) > 1e-2


def test_convergence_in_mode_count(p):
    """Cauchy in N at fixed omega_max: halving the spacing settles C(t)."""
    t = [4.0]
    devs = []
    prev = None
    for n in (600, 1200, 2400):
        c = reduced_covariance_series(p, t, n_modes=n, omega_max_bath=300.0)[0]
        if prev is not None:
            devs.append(np.max(np.abs(c.entries - prev)))
        prev = c.entries
    assert devs[1] < devs[0]


def test_oracle_vs_pipeline_entanglement(p):
    """The module's purpose: reproduce the pipeline E(t) independently."""
    from bathpair.covariance import covariance_time_series
    from bathpair.greens import greens_time

    t_grid = np.linspace(0.0, 6.0, 1201)
    g = greens_time(t_grid, p)
    ours = covariance_time_series(g, p, [6.0])[0]
    ref = reduced_covariance_series(p, [6.0], n_modes=2000,
                                    omega_max_bath=100.0 * math.pi)[0]
    assert np.max(np.abs(ours.entries - ref.entries)) <= 1e-3
    assert abs(log_negativity(ours.entries)
               - log_negativity(ref.entries)) <= 2e-3


@pytest.mark.parametrize("r", [0.0, 0.2])
def test_initial_slope_matches_pipeline(r):
    """Acceptance criterion 5, measured independently: the slope of the
    oracle's E(t) over Omega t in [1e-3, 1e-2] against the pipeline's
    `measured_initial_slope`.  The slope is linear in the channel kernels at
    t = 0, i.e. in int J(omega)/omega; the discrete bath holds all of it but
    the share (2/pi) arctan(Omega/W) ~ (2/pi) Omega/W above its cut W, which
    enters once through its dynamics and once through the closed-form noise
    of the missing modes: bound 2 (2/pi) Omega/W = 4.8 %."""
    from bathpair.analysis import measured_initial_slope

    params = ModelParams(gamma=1.0, omega_cut=10.0, temperature=0.0, distance=r)
    W = 265.0
    times = np.linspace(1e-3, 1e-2, 10) / params.omega_cut
    covs = reduced_covariance_series(params, times, n_modes=2000, omega_max_bath=W)
    oracle_slope = np.polyfit(times, log_negativity(covs), 1)[0]
    bound = 2.0 * (2.0 / math.pi) * params.omega_cut / W
    assert abs(oracle_slope / measured_initial_slope(params) - 1.0) <= bound


def _secular_terms_full_width(z, lam2, d, origin, tau):
    """`oracle._secular_terms` as one full-width pass per sum: each pole is
    below or above its row's x by the sign of d_k - x, not by its index."""
    w = 1.0 / ((d - d[origin, None]) - tau[:, None])
    below = w < 0.0
    psi_below = np.sum(np.where(below, w, 0.0) * lam2, axis=1)
    psi_above = np.sum(np.where(below, 0.0, w) * lam2, axis=1)
    slope_below = np.sum(np.where(below, w * w, 0.0) * lam2, axis=1)
    slope_above = np.sum(np.where(below, 0.0, w * w) * lam2, axis=1)
    base = z - d[origin]
    size = np.abs(base) + np.abs(tau) + psi_above - psi_below
    return base - tau - (psi_below + psi_above), slope_below, slope_above, size


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_secular_terms_match_a_full_width_evaluation(p):
    """The column split of `_secular_terms` (poles below every row, above
    every row, and the band between) against a full-width evaluation, to
    1e-12 relative (f to 1e-12 of the size of its terms, as it vanishes at a
    root): at N = 2000 in both channels and in a chain with one coupling
    zeroed, on blocks of gap midpoints, on the converged roots in blocks and
    as a scattered subset (the rows an iteration keeps), and on the edge
    roots below d_1 and above d_m."""
    bath = build_bath(p, n_modes=2000, omega_max_bath=265.0)
    corner, border, diag = oracle._channel_potential(bath, p, +1)
    border = border.copy()
    border[57] = 0.0
    chains = [oracle._channel_potential(bath, p, +1), oracle._channel_potential(bath, p, -1),
              (corner, border, diag)]
    rng = np.random.default_rng(5)
    for z, lam, diag in chains:
        live = lam != 0.0
        lam2, d = lam[live] ** 2, diag[live]
        m = d.size
        origin, tau = oracle._secular_roots(z, lam2, d)
        mid = np.arange(1, m)
        rows = [(mid[:64] - 1, 0.5 * np.diff(d)[:64]),
                (mid[-64:] - 1, 0.5 * np.diff(d)[-64:]),
                (origin[640:704], tau[640:704]),
                (origin[[0, m]], tau[[0, m]])]
        scattered = np.sort(rng.choice(np.arange(1000, 1064), 20, replace=False))
        rows.append((origin[scattered], tau[scattered]))
        for org, t in rows:
            got = oracle._secular_terms(z, lam2, d, org, t)
            ref = _secular_terms_full_width(z, lam2, d, org, t)
            assert np.all(np.abs(got[0] - ref[0]) <= 1e-12 * ref[3])
            for a, b in zip(got[1:], ref[1:]):
                assert np.all(np.abs(a - b) <= 1e-12 * np.abs(b))


def test_loewner_border_matches_an_mpmath_product(p):
    """`_loewner_border`, whose blocks take the two forms of Loewner's factors
    apart and choose per entry only on their band, against the same products
    in 40-digit arithmetic at N = 300, to 1e-12 relative."""
    mpmath = pytest.importorskip("mpmath")
    bath = build_bath(p, n_modes=300, omega_max_bath=200.0)
    z, lam, d = oracle._channel_potential(bath, p, +1)
    origin, tau = oracle._secular_roots(z, lam * lam, d)
    got = oracle._loewner_border(d, origin, tau)
    m = d.size
    with mpmath.workdps(40):
        x = [mpmath.mpf(float(d[o])) + mpmath.mpf(float(t)) for o, t in zip(origin, tau)]
        dm = [mpmath.mpf(float(v)) for v in d]
        for k in range(m):
            ref = (dm[k] - x[0]) * (x[m] - dm[k])
            for l in range(m):
                if l != k:
                    ref *= (dm[k] - x[l + 1 if l < k else l]) / (dm[k] - dm[l])
            assert abs(got[k] / float(ref) - 1.0) <= 1e-12, k


def test_midpoint_response_matches_a_direct_sum(p):
    """The image noise's g = (G12, G22) on its midpoints, whose phases advance
    one block at a time, against the direct cos/sin sum over the modes in
    long double, to 1e-13, at N = 2000 and the 2000 midpoints of the
    criterion-9 window (t_max = 20, du = 0.01)."""
    bath = build_bath(p, n_modes=2000, omega_max_bath=265.0)
    n, du = 2000, 0.01
    u = (np.arange(n, dtype=np.longdouble) + 0.5) * np.longdouble(du)
    for sign in (+1, -1):
        ch = oracle._channel_modes(bath, p, sign)
        w, mu = ch.head.astype(np.longdouble) ** 2, ch.mu.astype(np.longdouble)
        ph = np.outer(u, mu)
        ref = np.stack([np.sin(ph) @ (w / mu), np.cos(ph) @ w], axis=1)
        assert np.max(np.abs(oracle._midpoint_response(ch, n, du) - ref)) <= 1e-13


def test_gaps_round_as_numpy_broadcasting_does(p):
    """`_gaps` makes d_k - base_j - tau_j by one matrix product whose every
    product is exact, each shift rounded once, left to right: the same
    doubles as numpy's broadcast (d - base) - tau, which keeps
    x_j - d_k exact at x_j's own pole, on the roots of the N = 2000 channel."""
    bath = build_bath(p, n_modes=2000, omega_max_bath=265.0)
    z, lam, d = oracle._channel_potential(bath, p, +1)
    origin, tau = oracle._secular_roots(z, lam * lam, d)
    for j in (slice(0, 64), slice(1000, 1064), slice(1937, 2001)):
        base = d[origin[j]]
        assert np.array_equal(oracle._gaps(d, base, tau[j]), (d - base[:, None]) - tau[j, None])
        assert np.array_equal(oracle._gaps(d[j.start:j.start + 64], d),
                              d[j.start:j.start + 64] - d[:, None])
