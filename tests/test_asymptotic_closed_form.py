"""The real closed form of D(i omega) on the asymptotic path, against the
complex-arithmetic forms it replaced: the channel determinant, its roots
against the scalar brentq crossings of Re D, the two-row lag kernels at
r = 0, and the two-sided lag transform of the unshifted rows."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from bathpair import covariance
from bathpair.covariance import (
    ASYMPTOTIC_TOL,
    asymptotic_omega_max,
    channel_asymptotic_moments,
    channel_resonances,
    covariance_asymptotic,
    frequency_grid,
)
from bathpair.entanglement import UnphysicalCovarianceError
from bathpair.greens import SIGNS, channel_det, channel_kernel_laplace
from bathpair.model import ModelParams
from conftest import CORNERS, box_points, resonances

MANY_CROSSINGS = ModelParams(16.5, 87.0, 4.90, 18.1)    # 229 crossings of Re D per channel


def _det(omega, params, sign):
    """D(i omega) of `greens.channel_det`, in complex arithmetic."""
    return channel_det(np.asarray(1j * omega, dtype=complex), params, sign)


def _reference_crossings(params, sign):
    """The finder the root search replaced: the same scan of Re D(i omega) in
    complex arithmetic and one scalar brentq per sign change.  Per crossing
    a: (a, g, f', g', |D''|), g = Im D(i a), f' and g' the slopes of Re D and
    Im D (central differences of step 1e-6) and D'' a central second
    difference, all in omega."""
    step = min(0.01, math.pi / (10.0 * (params.distance + 1.0)))
    top = 3.0 + 3.0 * params.gamma
    grid = np.concatenate([np.arange(step, top, step), np.arange(top, 2.0 * top, 4.0 * step)])
    red = _det(grid, params, sign).real
    signed = np.flatnonzero(red)
    lo, hi = signed[:-1], signed[1:]
    flips = np.sign(red[lo]) != np.sign(red[hi])
    out = []
    for i, j in zip(lo[flips], hi[flips]):
        a = brentq(lambda om: float(_det(om, params, sign).real), grid[i], grid[j], xtol=1e-13)
        slope = (_det(a + 1e-6, params, sign) - _det(a - 1e-6, params, sign)) / 2e-6
        h = 1e-4 * max(1.0, a)
        curve = (_det(a + h, params, sign) - 2.0 * _det(a, params, sign)
                 + _det(a - h, params, sign)) / h**2
        out.append((a, float(_det(a, params, sign).imag), slope.real, slope.imag, abs(curve)))
    return out


def _assert_roots_near_narrow_crossings(params):
    """Each channel's rows of the two-channel record are its own record.
    Every narrow crossing a of the reference has a root z of the record with
    |Re z - a| <= B and |Im z - w| <= B, w = g / |f'| the Lorentzian
    half-width the record once listed.  From one Newton step off a,
    z_N = a - i g / d (d = f' + i g', eta = g / |d|), and the next order of
    D, M = |D''(a)|: where h = M eta / |d| <= 1/2 (narrow), Kantorovich puts
    a root within eta ((1 - sqrt(1 - 2h)) / h - 1) = 2 h eta / (1 + sqrt(1 - 2h))^2
    of z_N, and |z_N - (a + i w)| = g |g'| / (|d| |f'|): B is their sum, plus
    the reference's own error, brentq's 1e-13 + 4 eps a on a and 1e-12 T on
    D (T = 1 + a^2 + a |Gamma^|, as in `test_closed_form_matches_channel_det`),
    1e-12 T / |f'| on a and w.  Returns the number of narrow crossings checked."""
    row, *found = channel_resonances(params, SIGNS)
    checked = 0
    for i, sign in enumerate(SIGNS[:, 0]):
        assert np.array_equal(np.array(found)[:, row == i], channel_resonances(params, sign)[1:])
        _, om, depth, _ = resonances(params, sign)
        for a, g, f1, g1, curve in _reference_crossings(params, sign):
            d = abs(complex(f1, g1))
            eta = abs(g) / d
            h = curve * eta / d
            if h > 0.5:
                continue
            terms = 1.0 + a * a + a * abs(channel_kernel_laplace(1j * a, params, sign))
            bound = (abs(g * g1) / (d * abs(f1))
                     + 2.0 * h * eta / (1.0 + math.sqrt(1.0 - 2.0 * h)) ** 2
                     + 1e-13 + 4.0 * np.finfo(float).eps * a + 1e-12 * terms / abs(f1))
            w = g / abs(f1)
            near = (np.abs(om - a) <= bound) & (np.abs(depth - w) <= bound)
            assert near.any(), (params, sign, a, w, bound)
            checked += 1
    return checked


@pytest.mark.parametrize("seed", [1, 2])
def test_array_search_matches_scalar_brentq_on_box(seed):
    """Every narrow crossing of 32 box points per seed has its root."""
    assert sum(_assert_roots_near_narrow_crossings(p) for p in box_points(seed, 32)) > 0


@pytest.mark.parametrize("params", [
    MANY_CROSSINGS,
    ModelParams(1.0, 10.0, 0.0, 0.0),          # r = 0: the root omega = 1 is a scan node
    ModelParams(0.574, 62.3, 0.0, 1.62e-4),
], ids=["many-crossings", "r0-on-node", "small-r"])
def test_array_search_matches_scalar_brentq(params):
    assert _assert_roots_near_narrow_crossings(params) > 0


def _assert_roots_are_roots(params):
    """|D(s)| <= 1e-9 (1 + |z|^2) at s = i z, by `greens.channel_det`, for
    every root of the record with Im z < Omega (the Laplace transform of the
    kernel is refused at Re s <= -Omega); each lies on or above the axis."""
    rows = SIGNS if params.distance > 0 else SIGNS[:1]
    row, om, depth, _ = resonances(params, rows)
    assert np.all(depth >= 0.0) and np.all(om >= 0.0)
    z = om + 1j * depth
    for i, sign in enumerate(rows[:, 0]):
        mine = (row == i) & (depth < params.omega_cut)
        d = channel_det(1j * z[mine], params, sign)
        assert np.all(np.abs(d) <= 1e-9 * (1.0 + np.abs(z[mine]) ** 2)), (params, sign)


@pytest.mark.parametrize("params", box_points(1) + CORNERS + [
    MANY_CROSSINGS, ModelParams(5.16, 29.0, 0.0, 7.10)], ids=str)
def test_every_root_of_the_record_is_a_root_of_d(params):
    _assert_roots_are_roots(params)


def _p0(s, params, sign):
    """P0(s) = (s^2 + 1)(Omega^2 - s^2) + 2 g Om s (Om - s) - sign 2 g Om s^2 e^{-Om r}."""
    c, om_c = 2.0 * params.gamma * params.omega_cut, params.omega_cut
    return ((s * s + 1) * (om_c**2 - s * s) + c * s * (om_c - s)
            - sign * c * s * s * math.exp(-om_c * params.distance))


def _quasi_polynomial(z, params, sign):
    """F = (Omega^2 - s^2) D(s) = P0(s) + P1(s) e^{-s r} at s = i z, with
    P1 = sign 2 g Om^2 s, and dF/dz.  Its roots are those of D and s = Omega."""
    g, om_c, r = params.gamma, params.omega_cut, params.distance
    s = 1j * z
    c, e = 2.0 * g * om_c, np.exp(-s * r)
    dp0 = (2 * s * (om_c**2 - 2 * s * s - 1) + c * (om_c - 2 * s)
           - 2 * sign * c * s * math.exp(-om_c * r))
    return (_p0(s, params, sign) + sign * c * om_c * s * e,
            1j * (dp0 + sign * c * om_c * e * (1 - r * s)))


def _dense_seed_roots(params, sign):
    """Reference roots of D in 0 < Re z, 0 < Im z < min(Re z, 1.25/r): complex
    Newton on `_quasi_polynomial` from a 2-D grid of seeds, 40 steps each.  A
    root there has |P0| = |P1| e^{r Im z} < e^{1.25} |P1|, so the seeds reach
    1.5 times past the last omega with |P0(i omega)| <= 4 e^{1.25} |P1(i omega)|
    (and 2); they are spaced min(0.05, pi / 4r) along the axis, a quarter of
    the period 2 pi / r of a root chain, and at 8 depths."""
    r = params.distance
    depth = 1.25 / r
    omega = np.geomspace(1e-3, 1e5, 20000)
    p1 = 2.0 * params.gamma * params.omega_cut**2 * omega
    band = omega[np.abs(_p0(1j * omega, params, sign)) <= 4 * math.exp(1.25) * p1]
    top = 1.5 * max(band.max(initial=0.0), 2.0)
    step = min(0.05, math.pi / (4 * r))
    z = (np.arange(step / 2, top, step)[:, None]
         + 1j * np.linspace(0.0, 1.1 * min(top, depth), 9)[1:]).ravel()
    with np.errstate(all="ignore"):
        for _ in range(40):
            f, df = _quasi_polynomial(z, params, sign)
            z = z - f / df
        f, df = _quasi_polynomial(z, params, sign)
        z = z[np.isfinite(z) & (np.abs(f / df) <= 1e-10 * (1 + np.abs(z)))]
    z = z[(z.real > 0) & (z.imag > 0) & (z.imag < np.minimum(z.real, depth))]
    return np.unique(np.round(z, 8))


# (0.4495, 3.586, 0, 4.748e-4) and (8.720, 80.55, 0.3637, 0.01079)
NO_MINIMUM_ON_THE_AXIS = [box_points(1)[39], box_points(3)[57]]


def test_no_root_is_lost():
    """On 32 box points, the box corners with r > 0 and two strongly damped
    points whose deep symmetric roots leave no minimum of |D / D'| on the
    axis, every root of `_dense_seed_roots` is in the record, to 1e-6."""
    checked = 0
    corners = [c for c in CORNERS if c.distance > 0 and c.temperature == 0]   # T leaves D alone
    for params in box_points(4, 32) + corners + NO_MINIMUM_ON_THE_AXIS:
        row, om, depth, _ = resonances(params, SIGNS)
        for i, sign in enumerate(SIGNS[:, 0]):
            ours = om[row == i] + 1j * depth[row == i]
            for z in _dense_seed_roots(params, sign):
                assert np.min(np.abs(ours - z), initial=np.inf) <= 1e-6 * max(1.0, abs(z)), \
                    (params, sign, z)
                checked += 1
    assert checked > 1000


def test_deep_roots_without_a_minimum_on_the_axis_are_listed():
    """The symmetric roots 1.8405 + 1.4698i and 37.118 + 36.956i, as deep as
    they are far out, leave no interior minimum of |D / D'| on the axis; the
    quartic of the small-r expansion seeds them."""
    for params, z in zip(NO_MINIMUM_ON_THE_AXIS, (1.8405 + 1.4698j, 37.118 + 36.956j)):
        row, om, depth, _ = resonances(params, SIGNS)
        assert np.min(np.abs(om[row == 0] + 1j * depth[row == 0] - z)) < 1e-3 * abs(z), params


def test_closed_form_matches_channel_det():
    """Re D and Im D of the closed form against the complex determinant of
    `greens.channel_det`, within 1e-12 of the terms D sums (1, omega^2 and
    |s Gamma^|: near a resonance |D| itself is far smaller), and the analytic
    slopes of Re D and Im D against central differences of the closed form
    itself."""
    omega = np.concatenate([np.geomspace(1e-3, 1e3, 400), [1.0, 3.0]])
    for params in box_points(3, 16) + [ModelParams(1.0, 10.0, 0.0, 0.0)]:
        for sign in (+1.0, -1.0):
            trig = covariance._channel_trig(omega, params.distance, sign)
            re, im, *slopes = covariance._det_parts(omega, params, sign, trig, slope=True)
            d = channel_det(1j * omega, params, sign)
            terms = 1.0 + omega**2 + omega * np.abs(channel_kernel_laplace(1j * omega, params, sign))
            assert np.max(np.abs(re - d.real) / terms) <= 1e-12
            assert np.max(np.abs(im - d.imag) / terms) <= 1e-12
            h = 1e-6 * np.maximum(omega, 1.0)
            parts = [covariance._det_parts(w, params, sign,
                                           covariance._channel_trig(w, params.distance, sign))
                     for w in (omega + h, omega - h)]
            for part, slope in enumerate(slopes):
                fd = (parts[0][part] - parts[1][part]) / (2.0 * h)
                scale = np.abs(slope) + 2.0 * omega + params.gamma * params.omega_cut
                assert np.max(np.abs(slope - fd) / scale) <= 1e-6


def test_antisymmetric_damping_keeps_its_digits_at_small_r():
    """Im D of the antisymmetric channel, ~ (omega r)^2, to 1e-13 relative
    against 40 digits at omega r down to 1e-8."""
    mpmath = pytest.importorskip("mpmath")
    params = ModelParams(0.5, 20.0, 0.0, 1e-6)
    omega = np.geomspace(1e-2, 1e2, 21)
    trig = covariance._channel_trig(omega, params.distance, -1.0)
    _, im = covariance._det_parts(omega, params, -1.0, trig)
    with mpmath.workdps(40):
        g, om_c, r = (mpmath.mpf(v) for v in (params.gamma, params.omega_cut, params.distance))
        for w, ours in zip(omega.tolist(), im):
            ref = 2 * g * om_c**2 * w * (1 - mpmath.cos(w * r)) / (om_c**2 + w**2)
            assert float(abs(ours / ref - 1)) <= 1e-13


def test_antisymmetric_moment_against_mpmath_grid_sum():
    """At small r the antisymmetric alpha, summed in 40-digit arithmetic on
    the same frequency grid, agrees with the closed form to 1e-11 (3.7e-13
    measured; the complex form of `greens.channel_det` is off by 7.3e-9)."""
    mpmath = pytest.importorskip("mpmath")
    params = ModelParams(0.574, 62.3, 0.0, 1.62e-4)
    w_max = asymptotic_omega_max(params, ASYMPTOTIC_TOL)
    x, w = frequency_grid(params, w_max)
    alpha, _, _ = channel_asymptotic_moments(params, -1, w_max, ASYMPTOTIC_TOL, (x, w))
    tail, _, _ = channel_asymptotic_moments(params, -1, w_max, ASYMPTOTIC_TOL, (x[:0], w[:0]))
    with mpmath.workdps(40):
        g, om_c, r = (mpmath.mpf(v) for v in (params.gamma, params.omega_cut, params.distance))
        e_r = mpmath.exp(-om_c * r)
        terms = []
        for xi, wi in zip(x.tolist(), w.tolist()):
            s = 1j * mpmath.mpf(xi)
            kern = 2 * g * om_c * (om_c * (1 - mpmath.exp(-s * r)) - s * (1 - e_r)) / (om_c**2 - s**2)
            weight = (4 * g / mpmath.pi) * xi * om_c**2 / (om_c**2 + xi**2) * (1 - mpmath.cos(xi * r))
            terms.append(wi * weight / abs(s * s + 1 + s * kern) ** 2)
        ref = float(mpmath.fsum(terms))
    assert alpha - tail == pytest.approx(ref, rel=1e-11)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("gamma", [0.01, 50.0])
@pytest.mark.parametrize("omega_cut", [0.5, 100.0])
@pytest.mark.parametrize("temperature", [0.0, 10.0])
@pytest.mark.parametrize("distance", [0.0, 1e-4, 20.0])
def test_box_corners_raise_no_floating_point_warning(gamma, omega_cut, temperature, distance):
    """The closed forms overflow nowhere in the box; a named refusal is an answer."""
    params = ModelParams(gamma, omega_cut, temperature, distance)
    row, *found = channel_resonances(params, SIGNS)
    assert np.array_equal(np.unique(row), [0, 1]) and np.isfinite(found).all()
    try:
        c = covariance_asymptotic(params).entries
    except (UnphysicalCovarianceError, covariance.TruncationError):
        return
    assert np.all(np.isfinite(c))


# ---------------------------------------------------------------------------
# lag kernels at r = 0


@pytest.mark.parametrize("temperature", [0.0, 0.2])
def test_lag_kernels_at_r0_transform_one_row(monkeypatch, temperature):
    """At r = 0 the antisymmetric row is zero without a transform; the
    symmetric row is bit-equal to the two-row transform (the oracle-check
    points, h = 0.005, 2000 lags)."""
    params = ModelParams(1.0, 10.0, temperature, 0.0)
    h, n_lags = 0.005, 2000
    omega_max = covariance._transient_omega_max(params, 1e-5)
    rows = []
    real = covariance._fourier_part

    def spy(*args):
        out = real(*args)
        rows.append(out.shape[0])
        return out

    monkeypatch.setattr(covariance, "_fourier_part", spy)
    ours = covariance._lag_kernels(params, h, n_lags, omega_max)
    assert rows == [1] * len(rows) and rows

    def two_rows(spectrum):
        return lambda w: 2.0 * spectrum(w) * np.stack([np.ones_like(w), np.zeros_like(w)])

    from bathpair.kernels import noise_spectrum
    cold = params.with_(temperature=0.0)
    scale = min(params.omega_cut, 1.0 / h)
    parts = [(two_rows(lambda w: noise_spectrum(w, cold)), omega_max, scale)]
    if temperature > 0:
        parts.append((two_rows(lambda w: noise_spectrum(w, params) - noise_spectrum(w, cold)),
                      min(omega_max, covariance._THERMAL_CUT * temperature),
                      min(scale, 2.0 * math.pi * temperature)))
    j = sum(real(spectrum, end, smooth / covariance._NODES_PER_SCALE, h, n_lags, [0.0, 0.0], 0)
            for spectrum, end, smooth in parts)
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
    omega_max = covariance._transient_omega_max(params, 1e-5)
    ours = covariance._lag_kernels(params, h, n_lags, omega_max)
    real = covariance._fourier_part

    def two_sided(spectrum, end, dw_max, h, n_lags, shifts, first_lag):
        return real(spectrum, end, dw_max, h, n_lags, shifts, 1 - n_lags)[..., first_lag - n_lags:]

    monkeypatch.setattr(covariance, "_fourier_part", two_sided)
    ref = covariance._lag_kernels(params, h, n_lags, omega_max)
    scale = np.max(np.abs(ref), axis=-1, keepdims=True)
    assert np.max(np.abs(ours - ref) / np.where(scale > 0, scale, 1.0)) <= 1e-12


@pytest.mark.parametrize("temperature", [0.0, 0.2])
def test_lag_kernels_in_shift_mode_transform_the_unshifted_row_at_m_ge_0(monkeypatch,
                                                                        temperature):
    """Where cos(omega r) is a lag shift (r = 0.3 at h = 0.01, Omega = 10), the
    unshifted row is transformed at the lags m >= 0 only, and the shifted row
    alone at every lag -n_lags < m < n_lags: one call of each per spectrum
    part, one row each."""
    params = ModelParams(1.0, 10.0, temperature, 0.3)
    h, n_lags = 0.01, 2000
    assert covariance._FOLD_BELOW <= params.distance * min(params.omega_cut, 1.0 / h)
    calls = []
    real = covariance._fourier_part

    def spy(spectrum, end, dw_max, h, n_lags, shifts, first_lag):
        out = real(spectrum, end, dw_max, h, n_lags, shifts, first_lag)
        calls.append((list(shifts), first_lag, out.shape))
        return out

    monkeypatch.setattr(covariance, "_fourier_part", spy)
    covariance._lag_kernels(params, h, n_lags, covariance._transient_omega_max(params, 1e-5))
    parts = 2 if temperature > 0 else 1
    assert sorted(calls) == sorted([([0.0], 0, (1, 6, n_lags)),
                                    ([0.3], 1 - n_lags, (1, 6, 2 * n_lags - 1))] * parts)
