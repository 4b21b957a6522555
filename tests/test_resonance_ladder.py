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
from conftest import box_points

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
    """The reference grid's panel edges, in long double: the uniform edges
    below the knee, the graded ones above it and the Drude edges, as in
    `frequency_grid`; around every feature of half-width w < cap / 2 a
    ladder omega_r +- (w/4) sqrt(2)^k below 8 caps; then every panel split
    in two."""
    r, om = params.distance, params.omega_cut
    osc = 2.5 / max(r, 1e-9)
    cap = max(min(0.5, om / 4.0, osc), omega_max / 200000.0)
    base = np.linspace(0.0, omega_max, int(math.ceil(omega_max / cap)) + 1)
    knee = min(omega_max, max(3.0 + 3.0 * params.gamma + 8.0 * cap, 4.0 * om))
    edges = [base[base <= knee], covariance._graded_edges(knee, max(cap, osc), omega_max),
             [om / 2, om, 2 * om, omega_max]]
    edges = [np.asarray(e, dtype=LD) for e in edges]
    found = channel_resonances(params, _rows(params))
    features = [f for row in found for f in row] + [(0.0, 0.25 / params.gamma)]
    if params.temperature > 0:
        features.append((0.0, 2.0 * math.pi * params.temperature))
    for om_res, width in features:
        if width * 2.0 < cap:
            rungs = LD(width) / 4 * np.sqrt(LD(2)) ** np.arange(256, dtype=LD)
            rungs = rungs[rungs < 8.0 * cap]
            edges += [LD(om_res) + rungs, LD(om_res) - rungs, np.array([om_res], dtype=LD)]
    edges = np.unique(np.clip(np.concatenate(edges), LD(0), LD(omega_max)))
    return np.unique(np.concatenate([edges, 0.5 * (edges[:-1] + edges[1:])]))


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
    sharpest = [max(om / width for om, width in row)
                for row in channel_resonances(params, _rows(params))]
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


def test_a_narrow_spike_of_the_comb_is_resolved():
    """At (50, 100, 0, 20) Re D crosses zero 637 times per channel, and the
    antisymmetric crossing at omega ~ 10.05 is 3.2e-12 wide, below 1e4 float
    spacings; but it carries under 1e-3 of its channel's resonance area, so
    its rounding is harmless and the point is answered."""
    params = ModelParams(50.0, 100.0, 0.0, 20.0)
    om, width = np.array(channel_resonances(params, -1.0)).T
    assert np.min(width / np.spacing(om)) < 1e4
    assert covariance_asymptotic(params).physical


def test_narrowest_resonance_is_logged(caplog):
    """`frequency_grid` logs omega_r, w and w in float spacings of the
    narrowest resonance at DEBUG, also ahead of a refusal."""
    params = ModelParams(1.0, 10.0, 0.0, 1e-3)
    omega_max = asymptotic_omega_max(params, ASYMPTOTIC_TOL)
    (om, width), = channel_resonances(params, -1.0)
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
