"""The real closed form of D(i omega) on the asymptotic path, against the
complex-arithmetic forms it replaced: the channel determinant, the scalar
brentq resonance finder with a finite-difference slope, the two-row lag
kernels at r = 0, and the two-sided lag transform of the unshifted rows."""

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
from conftest import box_points, resonances

MANY_CROSSINGS = ModelParams(16.5, 87.0, 4.90, 18.1)    # 229 crossings of Re D per channel


def _reference_resonances(params, sign):
    """The finder the array search replaced: the same scan of Re D(i omega)
    in complex arithmetic, one scalar brentq per sign change, and the slope
    by a central difference of step 1e-6."""
    step = min(0.01, math.pi / (10.0 * (params.distance + 1.0)))
    top = 3.0 + 3.0 * params.gamma
    grid = np.concatenate([np.arange(step, top, step), np.arange(top, 2.0 * top, 4.0 * step)])
    red = np.real(channel_det(1j * grid, params, sign))

    def re_d(om):
        return float(np.real(channel_det(np.asarray(1j * om, dtype=complex), params, sign)))

    def gam_r(om):
        return float(np.real(channel_kernel_laplace(np.asarray(1j * om, dtype=complex),
                                                    params, sign)))

    out = []
    signed = np.flatnonzero(red)
    lo, hi = signed[:-1], signed[1:]
    flips = np.sign(red[lo]) != np.sign(red[hi])
    def slope(om):
        return abs(re_d(om + 1e-6) - re_d(om - 1e-6)) / 2e-6

    for a, b in zip(lo[flips], hi[flips]):
        om = brentq(re_d, grid[a], grid[b], xtol=1e-13)
        out.append((om, om * max(gam_r(om), 0.0) / slope(om), slope(om)))
    return out


def _assert_same_resonances(params):
    """Each channel's rows of the two-channel record are its own record;
    against the reference, the same crossings, omega_res within 1e-12, and
    widths and slopes within 1e-6 relative."""
    rows = SIGNS if params.distance > 0 else SIGNS[:1]
    row, *found = channel_resonances(params, rows)
    for i, sign in enumerate(rows[:, 0]):
        assert np.array_equal(np.array(found)[:, row == i], channel_resonances(params, sign)[1:])
        ours = np.array(resonances(params, sign)[1:])
        ref = np.array(_reference_resonances(params, sign)).T
        assert ours.shape == ref.shape, (params, sign)
        assert np.max(np.abs(ours[0] - ref[0])) <= 1e-12, (params, sign)
        assert np.max(np.abs(ours[1:] / ref[1:] - 1.0)) <= 1e-6, (params, sign)


@pytest.mark.parametrize("seed", [1, 2])
def test_array_search_matches_scalar_brentq_on_box(seed):
    """Same crossing count per channel, omega_res within 1e-12 and widths
    within 1e-6 relative, on 32 box points per seed."""
    for params in box_points(seed, 32):
        _assert_same_resonances(params)


@pytest.mark.parametrize("params", [
    MANY_CROSSINGS,
    ModelParams(1.0, 10.0, 0.0, 0.0),          # r = 0: the root omega = 1 is a scan node
    ModelParams(0.574, 62.3, 0.0, 1.62e-4),
], ids=["many-crossings", "r0-on-node", "small-r"])
def test_array_search_matches_scalar_brentq(params):
    _assert_same_resonances(params)


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
    """Unshifted rows transform only the lags m >= 0.  Against the transform
    of every lag, -n_lags < m < n_lags, cut to m >= 0, each kernel row
    agrees to 1e-12 of its largest value (h = 0.005, 2000 lags); with a
    shifted row both are the same two-sided transform, bit for bit."""
    params = ModelParams(1.0, 10.0, temperature, distance)
    h, n_lags = 0.005, 2000
    omega_max = covariance._transient_omega_max(params, 1e-5)
    ours = covariance._lag_kernels(params, h, n_lags, omega_max)
    real = covariance._fourier_part

    def two_sided(spectrum, end, dw_max, h, n_lags, shifts, first_lag):
        return real(spectrum, end, dw_max, h, n_lags, shifts, 1 - n_lags)[..., first_lag - n_lags:]

    monkeypatch.setattr(covariance, "_fourier_part", two_sided)
    ref = covariance._lag_kernels(params, h, n_lags, omega_max)
    if covariance._FOLD_BELOW <= distance * min(params.omega_cut, 1.0 / h):
        assert np.array_equal(ours, ref)
    scale = np.max(np.abs(ref), axis=-1, keepdims=True)
    assert np.max(np.abs(ours - ref) / np.where(scale > 0, scale, 1.0)) <= 1e-12
