import math
import tracemalloc
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from bathpair import greens, oracle
from bathpair.greens import (
    SIGNS,
    DurbinConvergenceError,
    channel_det,
    channel_blocks,
    channel_kernel_laplace,
    four_by_four,
    greens_time,
)
from bathpair.kernels import damping_kernel_laplace
from bathpair.model import ModelParams


@pytest.fixture(scope="module")
def p():
    return ModelParams(gamma=1.0, omega_cut=10.0, temperature=0.0, distance=0.1)


# ---------------------------------------------------------------------------
# reference: the coupled 4x4 equations of motion, against which the channel
# split is checked


@dataclass(frozen=True)
class QleMatrices:
    """Static matrix Z and the Laplace transform of the memory matrix C(t)."""

    z_matrix: np.ndarray
    memory_laplace: Callable[[complex], np.ndarray]


def qle_matrices(params: ModelParams) -> QleMatrices:
    """Matrices of the first-order form of the coupled equations of motion."""
    z = np.zeros((4, 4))
    z[0, 2] = z[1, 3] = -1.0
    z[2, 0] = z[3, 1] = 1.0      # bare frequency squared

    def memory(s):
        c = np.zeros((4, 4), dtype=complex)
        g0 = damping_kernel_laplace(s, 0.0, params)
        gr = damping_kernel_laplace(s, params.distance, params)
        c[2, 0] = c[3, 1] = g0
        c[2, 1] = c[3, 0] = gr
        return c

    return QleMatrices(z_matrix=z, memory_laplace=memory)


def channel_greens_laplace(s, params: ModelParams, sign):
    """The reference 2x2 channel resolvent [[s, 1], [-(1 + s*K^), s]] / D(s),
    vectorized over s and ``sign``: shape D.shape + (2, 2)."""
    s = np.asarray(s, dtype=complex)
    kern = channel_kernel_laplace(s, params, sign)
    D = s * s + 1.0 + s * kern
    out = np.empty(D.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = s / D
    out[..., 0, 1] = 1.0 / D
    out[..., 1, 0] = -(1.0 + s * kern) / D
    out[..., 1, 1] = s / D
    return out


def greens_laplace(s: complex, params: ModelParams) -> np.ndarray:
    """4x4 resolvent at a single complex s, assembled from the two channels."""
    plus = channel_greens_laplace(np.asarray(s, dtype=complex), params, +1)
    minus = channel_greens_laplace(np.asarray(s, dtype=complex), params, -1)
    return four_by_four(plus, minus)


def _resolvent_direct(s, params):
    qle = qle_matrices(params)
    m = s * np.eye(4, dtype=complex) + qle.z_matrix + s * qle.memory_laplace(s)
    return np.linalg.inv(m)


def test_qle_matrix_structure(p):
    qle = qle_matrices(p)
    z = qle.z_matrix
    expect = np.zeros((4, 4))
    expect[0, 2] = expect[1, 3] = -1.0
    expect[2, 0] = expect[3, 1] = 1.0
    assert np.array_equal(z, expect)
    c = qle.memory_laplace(2.0 + 1.0j)
    assert c[2, 0] == c[3, 1] and c[2, 1] == c[3, 0]
    assert np.all(c[:2] == 0) and c[2, 2] == 0 and c[2, 3] == 0


def test_channel_assembly_matches_direct_inverse(p):
    rng = np.random.default_rng(3)
    for _ in range(20):
        s = complex(rng.uniform(0.05, 8.0), rng.uniform(-20.0, 20.0))
        g4 = greens_laplace(s, p)
        assert np.max(np.abs(g4 - _resolvent_direct(s, p))) <= 1e-12 * np.max(np.abs(g4)) + 1e-14


def test_convolution_identity(p):
    qle = qle_matrices(p)
    rng = np.random.default_rng(5)
    for _ in range(20):
        s = complex(rng.uniform(0.05, 10.0), rng.uniform(-30.0, 30.0))
        m = s * np.eye(4, dtype=complex) + qle.z_matrix + s * qle.memory_laplace(s)
        assert np.max(np.abs(greens_laplace(s, p) @ m - np.eye(4))) <= 1e-12


def test_large_s_limit(p):
    s = 1e7
    assert np.max(np.abs(s * greens_laplace(s, p) - np.eye(4))) < 1e-4


def test_undamped_limit_position_entry():
    free = ModelParams(gamma=0.0, omega_cut=10.0, distance=0.3)   # unvalidated limit
    for s in (0.5 + 0.2j, 2.0 + 5.0j):
        g4 = greens_laplace(s, free)
        assert g4[0, 0] == pytest.approx(s / (s * s + 1.0), rel=1e-13)
        assert g4[0, 1] == pytest.approx(0.0, abs=1e-15)


def test_r0_relative_coordinate_undamped(p):
    p0 = p.with_(distance=0.0)
    s = np.asarray(1.5 + 2.0j, dtype=complex)
    assert channel_kernel_laplace(s, p0, -1) == pytest.approx(0.0, abs=1e-14)
    d = channel_det(s, p0, -1)
    assert complex(d) == pytest.approx(s * s + 1.0, rel=1e-14)


def test_greens_time_identity_at_zero(p):
    g = greens_time(np.linspace(0.0, 2.0, 401), p)
    assert np.max(np.abs(g.time_values[0] - np.eye(4))) <= 1e-6
    assert g.spacing == pytest.approx(0.005)
    assert g.imag_residual <= 1e-9


def test_greens_time_free_oscillators():
    free = ModelParams(gamma=0.0, omega_cut=10.0, distance=0.7)
    t = np.linspace(0.0, 10.0, 1001)
    g = greens_time(t, free)
    for i in (100, 450, 1000):
        ct, st = math.cos(t[i]), math.sin(t[i])
        expect = np.array([
            [ct, 0.0, st, 0.0],
            [0.0, ct, 0.0, st],
            [-st, 0.0, ct, 0.0],
            [0.0, -st, 0.0, ct],
        ])
        assert np.max(np.abs(g.time_values[i] - expect)) <= 2e-6


def test_channel_axis_orientation():
    """Row 0 of the channel axis is the symmetric channel, row 1 the
    antisymmetric one: at r = 0 the relative coordinate is a free
    oscillator, (G11, G12) = (cos t, sin t), while the symmetric one decays."""
    p0 = ModelParams(gamma=1.0, omega_cut=10.0, distance=0.0)
    t = np.linspace(0.0, 10.0, 2001)
    series = greens_time(t, p0).channel_series
    assert series.shape == (2, t.size, 2, 2)
    assert np.max(np.abs(series[1, :, 0, 0] - np.cos(t))) <= 1e-6
    assert np.max(np.abs(series[1, :, 0, 1] - np.sin(t))) <= 1e-6
    assert np.max(np.abs(series[0, t >= 8.0])) <= 0.1     # |G(0)| = 1; the slow rate is ~1/4


def _assert_matches_mpmath(g, params, times):
    """Every channel entry of ``g`` at ``times`` against a 30-digit de Hoog
    inversion of the channel resolvent (de Hoog, Knight & Stokes, SIAM J.
    Sci. Stat. Comput. 3, 357, 1982), to 3e-7.  A degree-40 Talbot
    inversion read G11 = -0.004345 at t = 0.1 at the box corner
    (50, 100, 0, 0.2), where de Hoog gives -0.0022839243."""
    mpmath = pytest.importorskip("mpmath")

    def entry(sign, i, j):
        # analytic continuation of the channel resolvent: the inversion may
        # probe Re(s) < -Omega, where the defining integral no longer converges
        def fhat(s):
            s = mpmath.mpf(1) * s
            gam, Om, r = map(mpmath.mpf, (params.gamma, params.omega_cut, params.distance))
            def gh(dd):
                return (2 * gam * Om * (Om * mpmath.exp(-s * dd) - s * mpmath.exp(-Om * dd))
                        / (Om**2 - s**2))
            kern = gh(mpmath.mpf(0)) + sign * gh(r)
            D = s * s + 1 + s * kern
            mat = ((s / D, 1 / D), (-(1 + s * kern) / D, s / D))
            return mat[i][j]
        return fhat

    with mpmath.workdps(30):
        for row, sign in enumerate((+1, -1)):
            for (i, j) in ((0, 0), (0, 1), (1, 0)):
                for t in times:
                    ref = float(mpmath.invertlaplace(entry(sign, i, j), t, method="dehoog"))
                    idx = int(round(t / g.spacing))
                    ours = g.channel_series[row, idx, i, j]
                    assert ours == pytest.approx(ref, abs=3e-7), (sign, i, j, t)


def test_greens_time_matches_mpmath_inversion(p):
    g = greens_time(np.linspace(0.0, 14.0, 2801), p)
    _assert_matches_mpmath(g, p, (0.7, 3.3, 12.1))


# points of the trace grid (`analysis._trace_step` at dt = 0.02) where a term
# count fixed per unit of period left G(0) off by 1.4e-6 to 1.5e-5, or the
# tail at 1.85e-5: (gamma, Omega, r, t_max)
_STIFF_POINTS = [(1.0, 20.0, 0.2, 40.0), (0.5, 20.0, 0.2, 40.0), (1.0, 50.0, 0.2, 5.0),
                 (5.0, 10.0, 0.0, 20.0), (10.0, 10.0, 0.12, 15.0), (1.0, 100.0, 0.2, 5.0),
                 (20.0, 10.0, 0.12, 15.0)]


def _trace_grid(params, t_max):
    """The Green's-function grid of `analysis.trace` at dt = 0.02."""
    from bathpair.analysis import _trace_step, _transient_grid

    return _transient_grid(0.02, t_max, _trace_step(params))[1]


@pytest.mark.parametrize("gamma, omega_cut, distance, t_max", _STIFF_POINTS)
def test_term_count_follows_the_residual(gamma, omega_cut, distance, t_max):
    """The term count grows with the 1/s^4 residual c4 = max(w0^2, 2 gamma
    Omega^3), so a large gamma or Omega is inverted, not refused."""
    q = ModelParams(gamma=gamma, omega_cut=omega_cut, distance=distance)
    g = greens_time(_trace_grid(q, t_max), q)
    assert np.max(np.abs(g.time_values[0] - np.eye(4))) <= 5e-7
    assert g.tail_contribution <= 1e-6


def test_stiff_point_matches_mpmath_inversion():
    q = ModelParams(gamma=1.0, omega_cut=20.0, distance=0.2)
    g = greens_time(_trace_grid(q, 40.0), q)
    _assert_matches_mpmath(g, q, (0.7, 3.3, 12.1))


def test_box_corner_matches_mpmath_inversion():
    """At the box corner (50, 100, 0, 0.2), t = 0.1 on the t_max = 1 trace
    grid: all six entries within 1.6e-7 of the reference.  Past the retarded
    kink at t = r, de Hoog at its default degree is itself off: at t = 0.4 it
    reads G21 = 11.08867 in the symmetric channel, where degrees 150-300 at
    50 digits converge to 11.0878577 and `greens_time` gives 11.0878576."""
    q = ModelParams(gamma=50.0, omega_cut=100.0, distance=0.2)
    g = greens_time(_trace_grid(q, 1.0), q)
    _assert_matches_mpmath(g, q, (0.1,))


@pytest.mark.parametrize("t_max", [0.5, 1.0])
def test_short_window_at_the_box_corner_is_inverted(t_max):
    """At (gamma, Omega, T, r) = (50, 100, 0, 0.2) the subtracted terms reach
    2 gamma Omega^2 t^2 e^{-bt} = 1e6 t^2 e^{-bt}, and their image from
    t = 2P (P = 4 t_max) comes back with weight e^{-18}.  With b = 1 that
    left G(0) off by 2.5e-3 at t_max 0.5 and 1.9e-4 at t_max 1, and the
    inversion was refused; b derived from the period holds the image to a
    tenth of the G(0) tolerance.  G then matches, on the shared grid points,
    the inversion of the t_max = 5 window (period 20, b = 1)."""
    q = ModelParams(gamma=50.0, omega_cut=100.0, distance=0.2)
    g = greens_time(_trace_grid(q, t_max), q)
    long = greens_time(_trace_grid(q, 5.0), q)
    assert np.max(np.abs(g.time_values[0] - np.eye(4))) <= 5e-7
    assert np.max(np.abs(g.time_values - long.time_values[:g.time_grid.size])) <= 5e-7


def test_greens_time_ode_residual(p):
    """d/dt G = -(Z G + d/dt int C G): residual vanishes to grid order."""
    h = 0.002
    t = np.linspace(0.0, 4.0, int(4.0 / h) + 1)
    g = greens_time(t, p)
    for series, sign in zip(g.channel_series, (+1, -1)):
        g11, g21 = series[:, 0, 0], series[:, 1, 0]
        # row 1 of the channel system: dG11/dt = G21
        d_g11 = np.gradient(g11, h, edge_order=2)
        assert np.max(np.abs(d_g11 - g21)[2:-2]) <= 5e-4 * np.max(np.abs(g21))
        # row 2: dG21/dt + G11 + Gam(0) G11 + int Gam'(t-u) G11(u) du = 0
        d_g21 = np.gradient(g21, h, edge_order=2)
        gam0 = 2.0 * p.gamma * p.omega_cut * (1.0 + sign * math.exp(-p.omega_cut * p.distance))
        resid = np.empty_like(t)
        for k, tk in enumerate(t):
            u = t[:k + 1]
            dgam = _channel_kernel_derivative(tk - u, p, sign)
            conv = np.trapezoid(dgam * g11[:k + 1], u) if k > 0 else 0.0
            resid[k] = d_g21[k] + g11[k] + gam0 * g11[k] + conv
        scale = max(1.0, np.max(np.abs(g21)) * p.omega_cut)
        # G21'' jumps at t = r (retarded kink): the centered difference is
        # only first order there, so a 3h neighborhood is excluded
        interior = np.abs(t - p.distance) > 3.0 * h
        interior[:2] = interior[-2:] = False
        assert np.max(np.abs(resid[interior])) <= 2e-3 * scale


def _channel_kernel_derivative(tau, params, sign):
    # one-sided at tau = 0 (integration endpoint), midpoint convention at the
    # interior kink tau = d so the trapezoid rule stays second order across it
    g, Om, r = params.gamma, params.omega_cut, params.distance
    tau = np.asarray(tau, dtype=float)

    def dgamma(d, endpoint_kink):
        if endpoint_kink:
            side = np.where(tau - d >= -1e-12, 1.0, -1.0)
        else:
            side = np.where(np.abs(tau - d) < 1e-12, 0.0, np.sign(tau - d))
        return g * Om * (-Om * side * np.exp(-Om * np.abs(tau - d))
                         - Om * np.exp(-Om * (tau + d)))

    return dgamma(0.0, True) + sign * dgamma(r, r == 0.0)


def test_greens_decay_at_large_time():
    # the relative coordinate relaxes at ~ gamma Omega^2 (1 - cos(w* r))/(Omega^2 + w*^2),
    # so the separation must be large enough for decay within t = 200
    p = ModelParams(gamma=1.0, omega_cut=10.0, distance=0.5)
    t = np.linspace(0.0, 200.0, 2001)
    g = greens_time(t, p)
    assert np.max(np.abs(g.time_values[-1])) <= 1e-3


def test_durbin_tail_diagnostic_raises(p, monkeypatch):
    monkeypatch.setattr(greens, "N_TERMS", 60)
    monkeypatch.setattr(greens, "TAIL_TOL", 1e-9)
    with pytest.raises(DurbinConvergenceError, match="tail"):
        greens_time(np.linspace(0.0, 5.0, 501), p)


def _system_propagator_series(params, times, n_modes, omega_max_bath):
    """Mean-value propagator of the system block from the oracle, shape
    (Nt, 4, 4): the homogeneous evolution of first moments from each system
    basis vector, with the bath initially empty and noise-free (the mean
    dynamics is temperature independent)."""
    bath = oracle.build_bath(params, n_modes, omega_max_bath,
                             compare_time=float(np.max(times)))
    sys_cols = np.array([0, bath.n_modes + 1])
    blocks = {s: oracle._system_rows(oracle._channel_modes(bath, params, s), times)[..., sys_cols]
              for s in (+1, -1)}
    return four_by_four(blocks[+1], blocks[-1])


def test_greens_matches_oracle_propagator(p):
    """Mean-value dynamics: Durbin-inverted G against the discrete-bath
    homogeneous propagator restricted to the system block."""
    t = np.linspace(0.0, 20.0, 2001)
    g = greens_time(t, p)
    sel = np.arange(0, 2001, 100)
    ref = _system_propagator_series(p, t[sel], n_modes=2100,
                                    omega_max_bath=100.0 * math.pi)
    dev = np.max(np.abs(g.time_values[sel] - ref))
    assert dev <= 1e-3


def test_four_by_four_round_trip(rng=np.random.default_rng(11)):
    c = rng.normal(size=(4, 4))
    c = c + c.T
    plus, minus, cross = channel_blocks(c)
    back = four_by_four(plus, minus, cross)
    assert np.max(np.abs(back - c)) <= 1e-13


def _four_by_four_loop(plus, minus, cross):
    """Reference for `four_by_four`: the channel map written out entry by entry,
    with sigma_a = +1 for oscillator 1 and -1 for oscillator 2."""
    out = np.zeros(plus.shape[:-2] + (4, 4))
    half_sum, half_dif = 0.5 * (plus + minus), 0.5 * (plus - minus)
    for i in range(2):          # 0: position row, 1: velocity row
        for j in range(2):
            x, xt = cross[..., i, j], cross[..., j, i]
            out[..., 2 * i, 2 * j] = half_sum[..., i, j] + 0.5 * (x + xt)
            out[..., 2 * i + 1, 2 * j + 1] = half_sum[..., i, j] - 0.5 * (x + xt)
            out[..., 2 * i, 2 * j + 1] = half_dif[..., i, j] + 0.5 * (xt - x)
            out[..., 2 * i + 1, 2 * j] = half_dif[..., i, j] + 0.5 * (x - xt)
    return out


def test_channel_map_products_match_entrywise_map(rng):
    plus, minus, cross = rng.normal(size=(3, 50, 2, 2))
    c4 = four_by_four(plus, minus, cross)
    assert np.max(np.abs(c4 - _four_by_four_loop(plus, minus, cross))) <= 1e-15
    back = channel_blocks(c4)
    assert max(np.max(np.abs(b - a)) for a, b in zip((plus, minus, cross), back)) <= 1e-14
    # no cross block: the exchange-symmetric case, e.g. G(t) itself
    assert np.array_equal(four_by_four(plus, minus),
                          four_by_four(plus, minus, np.zeros_like(cross)))


def _durbin_sum_dense(coeff_rows, t, period, shift, tail_start):
    """Reference for the folded Durbin sum of `greens`: the phase matrix summed
    term by term in blocks, valid on any grid.  O(n_terms * N_t)."""
    n_series, K = coeff_rows.shape
    main = np.zeros((n_series, t.size))
    tail = np.zeros((n_series, t.size))
    for k0 in range(0, K, 512):
        ks = np.arange(k0, min(k0 + 512, K))
        phase = np.exp(1j * (math.pi / period) * np.outer(ks, t))
        contrib = coeff_rows[:, ks]
        head = ks < tail_start
        main += (contrib[:, head] @ phase[head]).real
        tail += (contrib[:, ~head] @ phase[~head]).real
    pref = (1.0 / period) * np.exp(shift * t)[None, :]
    return pref * (main + tail), np.max(np.abs(pref * tail), axis=1)


def test_fft_durbin_sum_matches_dense_sum(p, monkeypatch):
    """`greens_time` against the Durbin series summed term by term over the
    reference resolvent's rows (G11, G12, G21 of each channel), less the
    e^{-bt} t^n terms that match their 1/s..1/s^3 asymptotics, which are added
    back in closed form.  With N_TERMS = 6000 at c4 = 2000 and period 16 < 60,
    the series has K + 1 = 6001 terms on M = 2 * 16 / 0.01 = 3200 bins, so
    K > M, and the tail starts at term floor(0.9 (K + 1)) = 5400, inside the
    second fold block."""
    monkeypatch.setattr(greens, "N_TERMS", 6000)
    t = np.linspace(0.0, 4.0, 401)
    K, period, b, r = 6000, 16.0, greens.DAMP_SHIFT, p.distance
    shift = greens.SHIFT_SCALE / period
    s = shift + 1j * math.pi * np.arange(K + 1) / period
    w0 = 1.0 + 2.0 * p.gamma * p.omega_cut * (1.0 + SIGNS * math.exp(-p.omega_cut * r))
    gO2 = 2.0 * p.gamma * p.omega_cut**2
    # coefficients of 1/(s+b)^n, n = 1..3, and of e^{-s r}/(s+b)^3, and the
    # inverse transforms of those four terms
    coeffs = [(1.0, b, b * b - w0, 0.0),                          # G11
              (0.0, 1.0, 2.0 * b, 0.0),                           # G12
              (0.0, -w0, gO2 - 2.0 * b * w0, SIGNS * gO2)]        # G21
    laplace = [1.0 / (s + b), 1.0 / (s + b) ** 2, 1.0 / (s + b) ** 3,
               np.exp(-s * r) / (s + b) ** 3]
    tr = np.maximum(t - r, 0.0)
    closed = [np.exp(-b * t), t * np.exp(-b * t), 0.5 * t * t * np.exp(-b * t),
              0.5 * tr * tr * np.exp(-b * tr)]
    resolvent = channel_greens_laplace(s, p, SIGNS)                 # (2, K + 1, 2, 2)
    rows = np.stack([resolvent[..., i, j] - sum(map(np.multiply, c, laplace))
                     for (i, j), c in zip(((0, 0), (0, 1), (1, 0)), coeffs)], axis=1)
    rows[..., 0] *= 0.5
    vals, tails = _durbin_sum_dense(rows.reshape(6, -1), t, period, shift,
                                    int(0.9 * (K + 1)))
    expect = vals.reshape(2, 3, -1) + np.stack(
        [sum(map(np.multiply, c, closed), np.zeros((2, 1))) for c in coeffs], axis=1)

    g = greens_time(t, p)
    ours = np.moveaxis(g.channel_series[..., [0, 0, 1], [0, 1, 0]], -1, 1)
    assert np.max(np.abs(ours - expect)) <= 1e-10 * np.max(np.abs(expect))
    assert g.tail_contribution == pytest.approx(np.max(tails), rel=1e-9)


def test_inversion_memory_is_set_by_the_grid_not_the_term_count():
    """At (gamma, Omega, T, r) = (50, 100, 0, 0.2) on [0, 5] with h = 2e-3 the
    period is 20 and c4 = w0^2 = 1.0e8, so the series has K + 1 = 184,214 terms
    on M = 2 * 20 / h = 20,000 bins: K > 9 M.  Made one fold block of M
    terms at a time (M is above 2^14, the fewest nodes made at once), what
    is live at once is the main and tail bins of three
    entries in two channels, 2 * 2 * 3 * 16 = 192 bytes a bin, and one
    block's work arrays: its nodes, s K^ and D of both channels, the four
    subtracted terms, three entries of both channels and one expression's
    temporaries, about 25 complex vectors of M entries.  Allowing 50 (800
    bytes a bin), the peak stays below 1000 bytes a bin, 20 MB.  All K terms
    of the six coefficient rows and of the resolvent would take 160 bytes a
    term, 29 MB, by themselves."""
    q = ModelParams(gamma=50.0, omega_cut=100.0, distance=0.2)
    t = np.linspace(0.0, 5.0, 2501)
    tracemalloc.start()
    try:
        greens_time(t, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1000 * 20000


def test_greens_time_rejects_non_uniform_grid(p):
    t = np.concatenate([np.linspace(0.0, 1.0, 101), [1.02, 1.05]])
    with pytest.raises(ValueError, match="uniform"):
        greens_time(t, p)
    # the FFT summation serves uniform grids from t = 0 with a step
    for t in ([0.0], np.linspace(0.5, 1.0, 51)):
        with pytest.raises(ValueError, match="at least two points from t = 0"):
            greens_time(t, p)
