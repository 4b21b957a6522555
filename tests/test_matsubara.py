"""The asymptotic moments on the Matsubara axis: the real closed form of the
channel kernel against 40 digits, the rotation against the real-frequency
definition, the sums against a brute-force Matsubara reference and a
long-double evaluation, the tail bound, the extremes that are answered or
refused by name, and the diagnostics on the library logger."""

import logging
import math

import numpy as np
import pytest

from bathpair import covariance
from bathpair._panels import gauss_panels
from bathpair.analysis import find_d0, trace
from bathpair.covariance import (
    ASYMPTOTIC_TOL,
    TruncationError,
    channel_asymptotic_moments,
    covariance_asymptotic,
)
from bathpair.entanglement import UnphysicalCovarianceError
from bathpair.greens import SIGNS, channel_blocks, channel_det
from bathpair.kernels import damping_kernel_laplace
from bathpair.model import ModelParams
from conftest import CORNERS, box_points, matsubara_reference

LD = np.longdouble
PI = 4 * np.arctan(LD(1))
EPS = np.finfo(float).eps


def _rows(params):
    return SIGNS if params.distance > 0 else SIGNS[:1]


# ---------------------------------------------------------------------------
# the channel kernel at real nu >= 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("omega_cut", [0.5, 10.0])
def test_damping_kernel_matches_mpmath(omega_cut):
    """Gamma_d^(nu) of `kernels.damping_kernel_laplace` against 40 digits, to
    1e-14 relative, at nu / Omega on both sides of the removable point
    (1 +- 1e-7, 1 +- 1e-3), far below it (1e-6) and far above (1e3), and at
    d = 0, 1e-8, 1 and 20; then the channel kernels, the symmetric one to
    1e-14 relative and the antisymmetric one, a difference that falls as
    r^2, to 1e-14 of the two kernels it subtracts."""
    mpmath = pytest.importorskip("mpmath")
    params = ModelParams(1.0, omega_cut, 0.0, 1.0)
    nu = omega_cut * np.array([1 - 1e-7, 1 + 1e-7, 1 - 1e-3, 1 + 1e-3, 1e-6, 1e3, 1.0])
    with mpmath.workdps(40):
        g, om = mpmath.mpf(params.gamma), mpmath.mpf(omega_cut)

        def exact(x, d):
            x, d = mpmath.mpf(x), mpmath.mpf(d)
            if x == om:
                return g * mpmath.exp(-om * d) * (1 + om * d)
            return 2 * g * om * (om * mpmath.exp(-x * d) - x * mpmath.exp(-om * d)) / (om**2 - x**2)

        for d in (0.0, 1e-8, 1.0, 20.0):
            ours = damping_kernel_laplace(nu, d, params)
            ref = np.array([float(exact(x, d)) for x in nu.tolist()])
            assert np.all(np.abs(ours / ref - 1.0) <= 1e-14), (d, ours / ref - 1.0)
            p = params.with_(distance=d)
            k0 = damping_kernel_laplace(nu, 0.0, p)
            plus, minus = (k0 + s * damping_kernel_laplace(nu, d, p) for s in (1.0, -1.0))
            assert np.all(np.abs(plus / (k0 + ref) - 1.0) <= 1e-14), d
            assert np.all(np.abs(minus - (k0 - ref)) <= 1e-14 * (k0 + ref)), d


def test_damping_kernel_continues_into_the_right_half_plane():
    """At complex s with Re s > 0 (the Abel-Plana line) the same closed form
    agrees with 40 digits to 1e-14 relative, also beside s = Omega and
    across Re s = Omega, where it switches branches."""
    mpmath = pytest.importorskip("mpmath")
    params = ModelParams(1.3, 4.0, 0.0, 0.7)
    s = np.concatenate([np.linspace(0.05, 12.0, 20) + 1j * np.linspace(0.0, 30.0, 20),
                        4.0 + 1j * np.array([1e-9, 1e-3, 1.0]), [4.0 * (1 + 1e-9) + 0.5j]])
    with mpmath.workdps(40):
        g, om = mpmath.mpf(params.gamma), mpmath.mpf(params.omega_cut)
        for d in (0.0, 0.7, 5.0):
            ours = damping_kernel_laplace(s, d, params)
            for x, k in zip(s.tolist(), ours.tolist()):
                x, dd = mpmath.mpc(x), mpmath.mpf(d)
                ref = 2 * g * om * (om * mpmath.exp(-x * dd) - x * mpmath.exp(-om * dd)) / (om**2 - x**2)
                assert abs(k - complex(ref)) <= 1e-14 * abs(complex(ref)), (d, x)


# ---------------------------------------------------------------------------
# the rotation and the sums against references


@pytest.mark.parametrize("params", [ModelParams(1.0, 10.0, 0.0, 0.5),
                                    ModelParams(2.0, 5.0, 0.3, 0.2),
                                    ModelParams(0.5, 2.0, 0.0, 1.0),
                                    ModelParams(2.0, 8.0, 1.0, 0.1),
                                    ModelParams(1.0, 1.0, 0.1, 2.0),
                                    ModelParams(3.0, 10.0, 0.0, 0.3)], ids=str)
def test_rotation_matches_the_real_frequency_definition(params):
    """alpha and beta of the Matsubara sums against their real-frequency
    definition, int_0^inf `covariance._noise_weight` {1, omega^2} /
    |`greens.channel_det`(i omega)|^2 d omega by `scipy.integrate.quad`, to
    1e-9 relative, on points whose roots of D lie well off the axis: the
    one check of the rotation that shares nothing with it.  Past omega = 50
    the leading term w_inf (1 +- cos omega r) / omega^{5 - power} is taken in
    closed form (`_panels.cos_tail`); `quad` integrates the rest on pieces
    two periods of cos(omega r) long up to 2000, past which it is below
    2e-10 of either moment here (4.2e-11 measured)."""
    from scipy.integrate import quad

    from bathpair._panels import cos_tail

    alpha, beta, _ = channel_asymptotic_moments(params, SIGNS, ASYMPTOTIC_TOL)
    w_inf = 4.0 * params.gamma * params.omega_cut**2 / math.pi
    r, cut, top = params.distance, 50.0, 2000.0
    pieces = np.concatenate([[0.0, 2.0], np.linspace(cut, top, 1 + math.ceil((top - cut) * r / (4 * math.pi)))])
    for i, sign in enumerate((1.0, -1.0)):
        def integrand(w, power):
            d = channel_det(np.array([1j * w]), params, sign)[0]
            weight = float(covariance._noise_weight(np.array([w]), params, sign)[0])
            lead = w_inf * (1.0 + sign * math.cos(w * r)) / w ** (5 - power) if w >= cut else 0.0
            return weight * w**power / abs(d) ** 2 - lead

        for ours, power in ((alpha[i], 0), (beta[i], 2)):
            ref = sum(quad(integrand, lo, hi, args=(power,), limit=200, epsabs=1e-14, epsrel=1e-11)[0]
                      for lo, hi in zip(pieces[:-1], pieces[1:]))
            ref += w_inf * (cos_tail(0.0, cut, 5 - power) + sign * cos_tail(r, cut, 5 - power))
            assert ours == pytest.approx(ref, rel=1e-9), (sign, power)


@pytest.mark.parametrize("params", [p for seed in (1, 2, 3, 4) for p in box_points(seed)] + CORNERS,
                         ids=str)
def test_moments_match_brute_force_matsubara_sum(params):
    """alpha and beta of both channels within 1e-10 relative of
    `conftest.matsubara_reference`, at each point of `box_points(1)` to
    `(4)` and `CORNERS`: 10^6 Matsubara terms with a midpoint tail, or at
    T = 0 the trapezoid rule in ln nu (5.0e-13 measured)."""
    ours = np.array(channel_asymptotic_moments(params, _rows(params), ASYMPTOTIC_TOL)[:2])
    ref = np.array(matsubara_reference(params))
    assert np.all(np.abs(ours / ref - 1.0) <= 1e-10), ours / ref - 1.0


SMALL_R = [ModelParams(1.0, 10.0, 0.0, 1e-3), ModelParams(0.01, 10.0, 0.0, 1e-3),
           ModelParams(0.1, 10.0, 0.05, 2e-3), ModelParams(0.01, 10.0, 0.0, 1e-4)]
SMALL_R_BOX = box_points(5, 32, temperature=(0.01, 0.2), distance=(1e-4, 2e-2))
_NODES, _WEIGHTS = (v.astype(LD) for v in np.polynomial.legendre.leggauss(12))


def _long_double_moments(params):
    """alpha and beta of the damped channels, (2, n_rows), by the formulas of
    `channel_asymptotic_moments` in long double: the integrands of
    `covariance._moment_integrands` at long-double nodes of panels twice as
    fine (each split in two), and of a line rule twice as fine."""
    edges, _ = covariance._panel_edges(params, ASYMPTOTIC_TOL)
    edges = np.asarray(edges, dtype=LD)
    edges = np.sort(np.concatenate([edges, 0.5 * (edges[1:] + edges[:-1])]))
    a, b = edges[:-1, None], edges[1:, None]
    x, w = ((0.5 * (b - a) * _NODES + 0.5 * (a + b)).ravel(), (0.5 * (b - a) * _WEIGHTS).ravel())
    rows = _rows(params).astype(LD)
    f_x, f_p = covariance._moment_integrands(x, params, rows)
    k0 = LD(1) + np.array([covariance.channel_kernel_zero(params, s) for s in rows[:, 0]], dtype=LD)
    two_pi = 2 / PI
    alpha = two_pi * (f_x @ w + 1 / edges[-1])
    beta = two_pi * (f_p @ w + k0 / edges[-1])
    T = LD(params.temperature)
    if T > 0:
        h = 2 * PI * T
        t, wt = gauss_panels(np.arange(0.0, 7.25, 0.5))
        t, wt = t.astype(LD), wt.astype(LD) / np.expm1(2 * PI * t.astype(LD))
        at_h = covariance._moment_integrands(np.array([h]), params, rows)
        line = covariance._moment_integrands(h * (1 + 1j * t.astype(np.clongdouble)), params, rows)
        alpha = alpha + 2 * T * (1 + at_h[0][:, 0]) - 8 * T * (line[0].imag @ wt)
        beta = beta + 2 * T * (1 + at_h[1][:, 0]) - 8 * T * (line[1].imag @ wt)
    return np.array([alpha, beta])


@pytest.mark.skipif(np.finfo(LD).eps >= EPS, reason="long double has double precision here")
@pytest.mark.parametrize("params", SMALL_R + SMALL_R_BOX, ids=str)
def test_moments_match_long_double_reference(params):
    """alpha and beta of both channels within 1e-10 relative of the same sums
    in long double on panels twice as fine (the root record's reference
    allowed 1e-10 plus (4/pi) eps omega_r / w, for its narrowest resonance)."""
    ours = np.array(channel_asymptotic_moments(params, _rows(params), ASYMPTOTIC_TOL)[:2])
    ref = _long_double_moments(params)
    assert np.all(np.abs(ours - ref) <= 1e-10 * np.abs(ref)), (ours - ref) / ref


def test_antisymmetric_moment_against_mpmath_integral():
    """At small r the antisymmetric alpha, (2/pi) int_0^inf d nu / D_-(nu)
    with D in 40-digit arithmetic from the textbook kernel, agrees to 1e-11
    relative; its channel kernel is a difference falling as r^2."""
    mpmath = pytest.importorskip("mpmath")
    params = ModelParams(0.574, 62.3, 0.0, 1.62e-4)
    alpha = channel_asymptotic_moments(params, -1.0, ASYMPTOTIC_TOL)[0]
    with mpmath.workdps(40):
        g, om, r = (mpmath.mpf(v) for v in (params.gamma, params.omega_cut, params.distance))

        def f(nu):
            k = 2 * g * om * (om * (1 - mpmath.exp(-nu * r)) - nu * (1 - mpmath.exp(-om * r)))
            return 1 / (nu**2 + 1 + nu * k / (om**2 - nu**2))
        ref = 2 / mpmath.pi * mpmath.quad(f, [0, 0.5, 2, 30, om, 100, 1e4, mpmath.inf])
    assert alpha == pytest.approx(float(ref), rel=1e-11)


@pytest.mark.parametrize("params", [ModelParams(1.0, 10.0, 0.0, 0.1),
                                    ModelParams(50.0, 0.5, 0.0, 1.0),
                                    ModelParams(50.0, 100.0, 0.0, 18.1),
                                    ModelParams(1.0, 0.5, 10.0, 1.0)], ids=str)
def test_the_tail_meets_its_bound(params):
    """alpha and beta at ``ASYMPTOTIC_TOL`` and at 1e-3 of it, each with its
    own cut and closed-form tail, differ by no more than the sum of the two
    tail bounds, and the bound is at most the tolerance times the larger
    moment (each part of it meets the tolerance against its own moment)."""
    rows = _rows(params)
    near, far = (channel_asymptotic_moments(params, rows, tol)
                 for tol in (ASYMPTOTIC_TOL, 1e-3 * ASYMPTOTIC_TOL))
    for x, y in zip(near[:2], far[:2]):
        assert np.max(np.abs(x - y)) <= near[2] + far[2]
        assert near[2] <= ASYMPTOTIC_TOL * max(np.max(far[0]), np.max(far[1]))


def test_a_tolerance_no_float64_cut_meets_is_refused():
    """A tolerance that would put the cut past 1e50 is refused by name."""
    with pytest.raises(TruncationError, match="large-frequency tail"):
        channel_asymptotic_moments(ModelParams(1.0, 10.0, 0.0, 0.1), +1, 1e-100)


# ---------------------------------------------------------------------------
# extremes: answered, or refused by name


@pytest.mark.parametrize("params", SMALL_R, ids=str)
def test_small_r_points_are_physical(params):
    """Points the root record's width floor and 11-rung ladder once refused."""
    assert covariance_asymptotic(params).physical


def test_trace_at_small_r_returns_its_asymptote():
    """trace(1, 10, 0, 1e-3) reaches the r -> 0+ asymptote E = 0.473."""
    tr = trace(ModelParams(1.0, 10.0, 0.0, 1e-3), 40.0, 0.02)
    assert tr.asymptote == pytest.approx(0.473, abs=1e-3)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("distance", [1e-6, 1e-9, 1e-200])
def test_a_vanishing_separation_is_answered(distance):
    """The antisymmetric root's width falls as r^2 (4.95e-13 at r = 1e-6),
    which the real-frequency grid refused; on the Matsubara axis it is a
    smooth D = nu^2 + 1 + O(r^2), and the antisymmetric block tends to the
    identity, r = 0's block, to 1e-9."""
    c = covariance_asymptotic(ModelParams(1.0, 10.0, 0.0, distance))
    assert c.physical
    _, minus, _ = channel_blocks(c.entries)
    assert np.max(np.abs(minus - np.eye(2))) <= 1e-9


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_the_benchmarks_refused_point_is_answered():
    """(3.0439, 7.8514, 0.11659, 14.658), whose root 52 float spacings wide
    the real-frequency grid refused, agrees with the reference to 1e-10."""
    params = ModelParams(3.0439, 7.8514, 0.11659, 14.658)
    assert covariance_asymptotic(params).physical
    ours = np.array(channel_asymptotic_moments(params, SIGNS, ASYMPTOTIC_TOL)[:2])
    assert np.all(np.abs(ours / np.array(matsubara_reference(params)) - 1.0) <= 1e-10)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("distance", [1e4, 1e6])
def test_channels_at_large_separation(distance):
    """At (1, 10, 0, r) the channels differ only through Gamma_r^ ~ 2 gamma
    e^{-nu r}, on nu ~ 1/r, which the first panel, r-sized, resolves.  beta_+
    = beta_- to 1e-9.  alpha_+ - alpha_- is the T = 0 bath's power-law
    correlation, -(2/pi) int nu 4 gamma e^{-nu r} d nu = -8 gamma / (pi r^2)
    to leading order (-2.5e-8 at r = 1e4): within 0.2 % of it, and so within
    1e-9 of zero at r = 1e6."""
    params = ModelParams(1.0, 10.0, 0.0, distance)
    (ap, am), (bp, bm), _ = channel_asymptotic_moments(params, SIGNS, ASYMPTOTIC_TOL)
    assert abs(bp - bm) <= 1e-9
    lead = -8.0 / (math.pi * distance**2)
    assert ap - am == pytest.approx(lead, rel=2e-3)
    assert abs(ap - am) <= 1e-9 or distance < 1e6


def test_a_channel_with_a_real_root_near_the_origin():
    """At (2.3564, 45.804, 0.6009, 0) the symmetric channel is overdamped,
    with a root of D at -0.107, five first-panel radii from the origin;
    the covariance reads as the resonance-ladder grid gave it."""
    c = covariance_asymptotic(ModelParams(2.3564, 45.804, 0.6009, 0.0))
    assert c.physical and c.entries[0, 0] == pytest.approx(1.16124093, rel=1e-8)


def test_the_comb_corner_is_answered():
    """At (50, 100, 0, 20), where Re D crosses zero 637 times per channel."""
    assert covariance_asymptotic(ModelParams(50.0, 100.0, 0.0, 20.0)).physical


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("params", [ModelParams(5e-324, 1e-10, 0.0, 1.0),
                                    ModelParams(1.0, 1e-300, 0.0, 1.0),
                                    ModelParams(1e8, 10.0, 0.0, 0.1)], ids=str)
def test_a_vanishing_or_huge_coupling_is_answered(params):
    """Where 2 gamma Omega^2 underflows to 0 the channels are bare
    oscillators, alpha = beta = 1 to 1e-12; gamma = 1e8, whose resonance scan
    once asked numpy for 224 GiB, is physical."""
    c = covariance_asymptotic(params)
    assert c.physical
    if params.gamma * params.omega_cut < 1e-200:
        assert np.max(np.abs(c.entries - np.eye(4))) <= 1e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("params", [ModelParams(1.0, 10.0, 1e300, 0.1),
                                    ModelParams(1.0, 1e300, 0.0, 0.1),
                                    ModelParams(1e300, 10.0, 0.0, 0.1)], ids=str)
def test_a_parameter_near_the_float_range_is_refused_by_name(params):
    """T, Omega or gamma = 1e300 needs a cut or 2 pi T past 1e50: a named
    refusal, with no overflow warning and no NaN."""
    with pytest.raises(TruncationError, match="large-frequency tail"):
        covariance_asymptotic(params)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("temperature", [1e-310, 5e-324])
def test_a_subnormal_temperature_is_the_zero_temperature_state(temperature):
    """A T at or below `_THERMAL_FLOOR` Omega is T = 0, as on the transient
    path: the T = 0 covariance to the bit, and the same d0."""
    params = ModelParams(1.0, 10.0, 0.0, 0.1)
    cold = covariance_asymptotic(params).entries
    assert np.array_equal(covariance_asymptotic(params.with_(temperature=temperature)).entries,
                          cold)
    assert find_d0(params.with_(temperature=temperature)).d0 == find_d0(params).d0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("gamma", [0.01, 50.0])
@pytest.mark.parametrize("omega_cut", [0.5, 100.0])
@pytest.mark.parametrize("temperature", [0.0, 10.0])
@pytest.mark.parametrize("distance", [0.0, 1e-4, 20.0])
def test_box_corners_raise_no_floating_point_warning(gamma, omega_cut, temperature, distance):
    """The closed forms overflow nowhere in the box; each corner is physical."""
    params = ModelParams(gamma, omega_cut, temperature, distance)
    assert np.all(np.isfinite(covariance_asymptotic(params).entries))


# ---------------------------------------------------------------------------
# diagnostics


def _records_of(caplog, function):
    return [rec for rec in caplog.records if rec.funcName == function]


@pytest.mark.parametrize("temperature, terms", [(0.1, 3), (0.0, 0)])
def test_asymptotic_moments_are_logged_at_debug(caplog, temperature, terms):
    """`covariance_asymptotic` logs the direct Matsubara terms (n = 0, +-1 at
    T > 0), the node count and the tail bound on the "bathpair" logger, at
    DEBUG only."""
    params = ModelParams(1.0, 10.0, temperature, 0.2)
    edges, tail = covariance._panel_edges(params, ASYMPTOTIC_TOL)
    nodes = 12 * (edges.size - 1) + (covariance._LINE_T.size + 1 if terms else 0)
    with caplog.at_level(logging.INFO, logger="bathpair"):
        covariance_asymptotic(params)
    assert not caplog.records
    with caplog.at_level(logging.DEBUG, logger="bathpair"):
        covariance_asymptotic(params)
    (record,) = _records_of(caplog, "covariance_asymptotic")
    assert record.name == "bathpair" and record.levelno == logging.DEBUG
    assert record.args == (params, terms, nodes, tail)
    assert f"{nodes} nodes" in record.getMessage()


def test_a_refused_point_still_logs_its_moments(monkeypatch, caplog):
    """The moments are logged before the physicality check, so that a
    refusal can be traced to them."""
    def refuse(c):
        raise UnphysicalCovarianceError("refused")

    monkeypatch.setattr(covariance, "require_physical", refuse)
    with caplog.at_level(logging.DEBUG, logger="bathpair"):
        with pytest.raises(UnphysicalCovarianceError):
            covariance_asymptotic(ModelParams(1.0, 10.0, 0.0, 0.2))
    assert len(_records_of(caplog, "covariance_asymptotic")) == 1
