import math

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


def _chain_generator(bath, params, sign):
    """Sigma H of one channel chain, ordered (positions, momenta) of
    (collective coordinate, bath modes), with H built from the oracle's
    own channel potential."""
    npos = bath.n_modes + 1
    h = np.zeros((2 * npos, 2 * npos))
    h[:npos, :npos] = oracle._channel_potential(bath, params, sign)
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
        h_inv[:n, :n] = np.linalg.inv(oracle._channel_potential(bath, p, sign))
        ch = oracle._channel_modes(bath, p, sign)
        assert np.max(np.abs(oracle._system_rows(ch, 0.0) - unit)) <= 1e-12
        for t in (0.5, 1.5):
            rows = oracle._system_rows(ch, t)
            assert np.max(np.abs(rows @ h_inv @ rows.T - expect)) <= 1e-8


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
        v = compensated(bath, params, sign)
        v[0, 0] = 1.0    # bare frequency squared
        return v

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
