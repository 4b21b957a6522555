"""The resonance ladder on each resonance's true width: the asymptotic
moments against a long-double reference, the small-r points the old width
floor refused, the refusal of resonances too narrow for float64 nodes, and
the grid's log of its narrowest resonance."""

import logging
import math

import numpy as np
import pytest

from bathpair import covariance
from bathpair.analysis import trace
from bathpair.covariance import (
    ASYMPTOTIC_TOL,
    TruncationError,
    asymptotic_omega_max,
    channel_asymptotic_moments,
    channel_resonances,
    covariance_asymptotic,
    frequency_grid,
)
from bathpair.greens import SIGNS
from bathpair.model import ModelParams
from conftest import box_points, resonances, rule_free_edges

LD = np.longdouble
EPS = np.finfo(float).eps
_NODES, _WEIGHTS = (v.astype(LD) for v in np.polynomial.legendre.leggauss(12))

# refused under the old 1e-9 width floor and 11-rung ladder: alpha_- was off by up to 1e-3
SMALL_R = [ModelParams(1.0, 10.0, 0.0, 1e-3), ModelParams(0.01, 10.0, 0.0, 1e-3),
           ModelParams(0.1, 10.0, 0.05, 2e-3), ModelParams(0.01, 10.0, 0.0, 1e-4)]
SMALL_R_BOX = box_points(5, 32, temperature=(0.01, 0.2), distance=(1e-4, 2e-2))


def _rows(params):
    return SIGNS if params.distance > 0 else SIGNS[:1]


def _reference_edges(params, omega_max):
    """The reference grid's panel edges, in long double: `rule_free_edges`,
    which copies none of `frequency_grid`'s rules, and around every entry of
    the `channel_resonances` record, a singularity a distance w from omega_r,
    a ladder omega_r +- (w/4) sqrt(2)^k below 8 caps, cap = min(0.5, Omega/4,
    2.5/r), with rungs finer than float64 can place."""
    cap = min(0.5, params.omega_cut / 4.0, 2.5 / max(params.distance, 1e-9))
    edges = [np.asarray(rule_free_edges(params, omega_max), dtype=LD)]
    _, om_res, width, _ = channel_resonances(params, _rows(params))
    for om_res, width in zip(om_res, width):
        rungs = LD(width) / 4 * np.sqrt(LD(2)) ** np.arange(256, dtype=LD)
        rungs = rungs[rungs < 8.0 * cap]
        edges += [LD(om_res) + rungs, LD(om_res) - rungs, np.array([om_res], dtype=LD)]
    return np.unique(np.clip(np.concatenate(edges), LD(0), LD(omega_max)))


def _reference_moments(params, omega_max):
    """alpha and beta of the damped channels, (2, n_rows): the grid sum with
    nodes, weights and integrand (S/2)(1 +- cos omega r) / |D(i omega)|^2 in
    long double, plus the closed-form tail of `channel_asymptotic_moments`."""
    edges = _reference_edges(params, omega_max)
    a, b = edges[:-1, None], edges[1:, None]
    x = (0.5 * (b - a) * _NODES + 0.5 * (a + b)).ravel()
    w = (0.5 * (b - a) * _WEIGHTS).ravel()
    g, om, T = LD(params.gamma), LD(params.omega_cut), LD(params.temperature)
    heat = 1 + 2 * np.exp(-x / T) / -np.expm1(-x / T) if T > 0 else LD(1)   # coth(x / 2T)
    spectrum = (4 * g / LD(np.pi)) * x * om * om / (om * om + x * x) * heat
    out = []
    no_grid = (np.zeros(0), np.zeros(0))
    for sign in _rows(params)[:, 0]:
        trig = covariance._channel_trig(x, params.distance, sign)
        re, im = covariance._det_parts(x, params, sign, trig)
        core = w * spectrum * trig[0] / (re * re + im * im)
        tail = channel_asymptotic_moments(params, sign, omega_max, ASYMPTOTIC_TOL, no_grid)
        out.append([np.sum(core) + LD(tail[0]), np.sum(core * x * x) + LD(tail[1])])
    return np.array(out, dtype=LD).T


@pytest.mark.skipif(np.finfo(LD).eps >= EPS, reason="long double has double precision here")
@pytest.mark.parametrize("params", SMALL_R + SMALL_R_BOX, ids=str)
def test_moments_match_long_double_reference(params):
    """alpha and beta of both channels within (4/pi) eps omega_r / w + 1e-10
    relative, with omega_r / w the largest of the channel's resonances: a
    node rounded by two ulps of omega_r, over a Lorentzian of half-width w,
    moves its area by at most (2 eps omega_r)(2/w^2)/(pi/w) of it."""
    omega_max = asymptotic_omega_max(params, ASYMPTOTIC_TOL)
    ours = np.array(channel_asymptotic_moments(params, _rows(params), omega_max,
                                               ASYMPTOTIC_TOL)[:2])
    ref = _reference_moments(params, omega_max)
    row, om, width, _ = resonances(params, _rows(params))
    sharpest = [np.max(om[row == i] / width[row == i]) for i in range(len(_rows(params)))]
    bound = 4.0 / math.pi * EPS * np.array(sharpest) + 1e-10
    assert np.all(np.abs(ours - ref) <= bound * np.abs(ref)), (ours - ref) / ref


@pytest.mark.parametrize("params", SMALL_R, ids=str)
def test_small_r_points_are_physical(params):
    """The points the width floor of 1e-9 and the 11-rung ladder refused."""
    assert covariance_asymptotic(params).physical


def test_trace_at_small_r_returns_its_asymptote():
    """trace(1, 10, 0, 1e-3) reaches the r -> 0+ asymptote E = 0.473."""
    tr = trace(ModelParams(1.0, 10.0, 0.0, 1e-3), 40.0, 0.02)
    assert tr.asymptote == pytest.approx(0.473, abs=1e-3)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("distance", [1e-6, 1e-9, 1e-200])
def test_unresolvable_resonance_is_refused(distance):
    """The antisymmetric width falls as r^2: 4.95e-13 at r = 1e-6, 4.5e3
    float spacings at omega_r ~ 1, below 1e4; at r = 1e-200 Im D underflows
    to zero.  Each is a named refusal, not a wrong number."""
    with pytest.raises(TruncationError, match=r"resonance at omega_r = (0\.99|1\.0,)"):
        covariance_asymptotic(ModelParams(1.0, 10.0, 0.0, distance))


def test_a_channel_with_no_root_off_the_axis_is_accepted():
    """At (2.3564, 45.804, 0.6009, 0) the symmetric channel is overdamped: its
    roots 0.107i, 13.14i and 32.55i lie on the imaginary axis, so the
    resolution check reads no root at all, and the point is answered."""
    params = ModelParams(2.3564, 45.804, 0.6009, 0.0)
    _, om, depth, _ = resonances(params, +1.0)
    assert np.allclose(depth, [0.10706, 13.142, 32.555], rtol=1e-4) and not np.any(om > 0)
    c = covariance_asymptotic(params)
    assert c.physical and c.entries[0, 0] == pytest.approx(1.16124093, rel=1e-8)


def test_a_narrow_spike_of_the_comb_is_resolved():
    """At (50, 100, 0, 20) Re D crosses zero 637 times per channel, and the
    antisymmetric root at omega ~ 10.05 is 3.2e-12 deep, below 1e4 float
    spacings; but it carries 2.2e-3 of its channel's root area, so its
    rounding is harmless and the point is answered."""
    params = ModelParams(50.0, 100.0, 0.0, 20.0)
    _, om, width, _ = resonances(params, -1.0)
    assert np.min(width / np.spacing(om)) < 1e4
    assert covariance_asymptotic(params).physical


def test_narrowest_resonance_is_logged(caplog):
    """`frequency_grid` logs omega_r, w and w in float spacings of the
    narrowest root omega_r + i w off the imaginary axis at DEBUG, also ahead
    of a refusal."""
    params = ModelParams(1.0, 10.0, 0.0, 1e-3)
    omega_max = asymptotic_omega_max(params, ASYMPTOTIC_TOL)
    _, om, width, _ = resonances(params, SIGNS)
    om, width = om[om > 0], width[om > 0]           # the roots off the imaginary axis
    i = np.argmin(width / np.spacing(om))
    om, width = om[i], width[i]
    with caplog.at_level(logging.DEBUG, logger="bathpair"):
        frequency_grid(params, omega_max)
    (record,) = caplog.records
    assert record.name == "bathpair" and record.levelno == logging.DEBUG
    assert record.args == (om, width, width / np.spacing(om))
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="bathpair"):
        with pytest.raises(TruncationError):
            frequency_grid(params.with_(distance=1e-9), omega_max)
    (record,) = caplog.records
    assert record.args[2] < 1.0
