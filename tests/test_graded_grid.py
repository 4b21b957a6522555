"""The asymptotic frequency grid, graded above the resonance band, against
the all-uniform grid it replaced: the same moments, the same edges below
the knee, and a panel count that grows like log(omega_max) above it; and
the grid's diagnostics on the library logger."""

import logging
import math

import numpy as np
import pytest

from bathpair import covariance
from bathpair._panels import gauss_panels
from bathpair.covariance import (
    ASYMPTOTIC_TOL,
    asymptotic_omega_max,
    channel_asymptotic_moments,
    channel_resonances,
    covariance_asymptotic,
    frequency_grid,
)
from bathpair.entanglement import UnphysicalCovarianceError
from bathpair.greens import SIGNS
from bathpair.model import ModelParams
from conftest import box_points

CORNERS = [ModelParams(g, om, t, r) for g in (0.01, 50.0) for om in (0.5, 100.0)
           for t in (0.0, 10.0) for r in (0.0, 1e-4, 18.1, 20.0)]


def _cap(params, omega_max):
    return min(0.5, params.omega_cut / 4.0, 2.5 / max(params.distance, 1e-9))


def _knee(params, omega_max):
    """Where the graded panels start: above the resonance scan, every
    ladder and the Drude scale."""
    return min(omega_max, max(3.0 + 3.0 * params.gamma + 8.0 * _cap(params, omega_max),
                              4.0 * params.omega_cut))


def _uniform_edges(params, omega_max):
    """Panel edges of the all-uniform grid: panels no wider than the cap
    all the way to omega_max, with its centre and a ladder omega_r +- w 2^k,
    k >= -1, below 8 caps around each feature of half-width w: the
    resonances, and at omega = 0 the narrower of the symmetric peak,
    1/(4 gamma), and the poles of coth(omega/2T), 2 pi T."""
    r, om = params.distance, params.omega_cut
    cap = _cap(params, omega_max)
    edges = [np.linspace(0.0, omega_max, int(math.ceil(omega_max / cap)) + 1),
             [om / 2, om, 2 * om]]
    _, om_res, width, _ = channel_resonances(params, SIGNS if r > 0 else SIGNS[:1])
    zero = min(0.25 / params.gamma, 2.0 * math.pi * params.temperature or math.inf)
    for centre, w in list(zip(om_res, width)) + [(0.0, zero)]:
        k = np.arange(-1, 64)
        ladder = w * 2.0 ** k[w * 2.0 ** k < 8.0 * cap]
        edges += [centre + ladder, centre - ladder, [centre]]
    return np.unique(np.clip(np.concatenate(edges), 0.0, omega_max))


def _graded_edges(monkeypatch, params, omega_max):
    """The edges `frequency_grid` hands to `gauss_panels`."""
    seen = []

    def spy(edges):
        seen.append(edges)
        return gauss_panels(edges)

    monkeypatch.setattr(covariance, "gauss_panels", spy)
    frequency_grid(params, omega_max)
    monkeypatch.undo()
    return seen[0]


def _assert_same_moments(params):
    omega_max = asymptotic_omega_max(params, ASYMPTOTIC_TOL)
    rows = SIGNS if params.distance > 0 else SIGNS[:1]
    ours = channel_asymptotic_moments(params, rows, omega_max, ASYMPTOTIC_TOL)
    ref = channel_asymptotic_moments(params, rows, omega_max, ASYMPTOTIC_TOL,
                                     gauss_panels(_uniform_edges(params, omega_max)))
    for a, b in zip(ours[:2], ref[:2]):
        assert np.max(np.abs(a / b - 1.0)) <= 1e-13, params


@pytest.mark.parametrize("seed", [1, 2])
def test_moments_match_uniform_grid_on_box(seed):
    """alpha and beta of both channels within 1e-13 relative (6.7e-16
    measured) on 64 box points per seed."""
    for params in box_points(seed):
        _assert_same_moments(params)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("params", CORNERS, ids=str)
def test_moments_match_uniform_grid_at_box_corners(params):
    _assert_same_moments(params)


@pytest.mark.parametrize("seed", [1, 2])
def test_edges_below_the_knee_are_the_uniform_grid_s(monkeypatch, seed):
    """Below the knee the graded grid has exactly the edges of the uniform
    one, so the resonance refinement is untouched; and its weights still
    sum to omega_max."""
    for params in box_points(seed) + CORNERS:
        omega_max = asymptotic_omega_max(params, ASYMPTOTIC_TOL)
        knee = _knee(params, omega_max)
        ours = _graded_edges(monkeypatch, params, omega_max)
        ref = _uniform_edges(params, omega_max)
        assert np.array_equal(ours[ours < knee], ref[ref < knee]), params
        assert ours[-1] == omega_max
        _, w = frequency_grid(params, omega_max)
        assert w.sum() == pytest.approx(omega_max, rel=1e-12)


def test_panel_widths_above_the_knee(monkeypatch):
    """Above the knee a panel starting at omega is min(omega / 8, 2.5 / r)
    wide, but for the last one, cut at omega_max."""
    for params in box_points(1, 16) + CORNERS:
        omega_max = asymptotic_omega_max(params, ASYMPTOTIC_TOL)
        edges = _graded_edges(monkeypatch, params, omega_max)
        above = edges[edges >= _knee(params, omega_max)]
        width = np.minimum(above[:-2] / 8.0, max(_cap(params, omega_max),
                                                 2.5 / max(params.distance, 1e-9)))
        assert np.allclose(np.diff(above)[:-1], width, rtol=1e-9, atol=0.0), params
        assert above[-1] - above[-2] <= 1.0000001 * max(width[-1:], default=omega_max)


def test_doubling_omega_max_adds_a_bounded_number_of_panels():
    """The panel count grows like log(omega_max): doubling the cut adds at
    most ceil(ln 2 / ln(9/8)) = 6 panels, where the uniform grid doubles."""
    params = ModelParams(1.0, 10.0, 0.0, 1e-3)
    omega_max = asymptotic_omega_max(params, ASYMPTOTIC_TOL)
    bound = math.ceil(math.log(2.0) / math.log(9.0 / 8.0))
    assert bound == 6
    for cut in omega_max * np.array([1.0, 2.0, 4.0, 8.0]):
        panels = [frequency_grid(params, c)[0].size // 12 for c in (cut, 2.0 * cut)]
        assert 0 < panels[1] - panels[0] <= bound, cut


@pytest.mark.parametrize("params", [ModelParams(1.0, 10.0, 0.0, 2.0),
                                    ModelParams(1.0, 10.0, 0.3, 1.0),
                                    ModelParams(1.6, 16.4, 0.28, 0.83)], ids=str)
def test_moments_match_the_grid_split_eight_ways(monkeypatch, params):
    """alpha and beta of both channels within 1e-10 relative of the same
    grid with every panel split into 8 (the 4- and 8-way splits agree to
    rounding here).  Resonances between cap/2 and 16 caps wide once had no
    ladder, and missed this by 2e-10 to 3e-9."""
    omega_max = asymptotic_omega_max(params, ASYMPTOTIC_TOL)
    edges = _graded_edges(monkeypatch, params, omega_max)
    a, b = edges[:-1, None], edges[1:, None]
    split = np.append((a + (b - a) * np.arange(8) / 8).ravel(), edges[-1])
    ours = channel_asymptotic_moments(params, SIGNS, omega_max, ASYMPTOTIC_TOL)
    ref = channel_asymptotic_moments(params, SIGNS, omega_max, ASYMPTOTIC_TOL,
                                     gauss_panels(split))
    for x, y in zip(ours[:2], ref[:2]):
        assert np.max(np.abs(x / y - 1.0)) <= 1e-10


def _edges_only(monkeypatch):
    """Replace `gauss_panels` by a spy that keeps the edges and builds no nodes."""
    seen = []
    monkeypatch.setattr(covariance, "gauss_panels",
                        lambda edges: seen.append(edges) or (edges[:1], edges[:1]))
    return seen


def test_no_panel_is_wider_than_the_oscillation_at_large_r(monkeypatch):
    """At r = 1e4 every panel is at most 2.5 / r wide: the cap has no floor
    (omega_max / 200000 once, 6 times 2.5 / r here, which left cos(omega r)
    under-resolved and alpha off by 1.6e-4)."""
    params = ModelParams(1.0, 10.0, 0.0, 1e4)
    seen = _edges_only(monkeypatch)
    frequency_grid(params, asymptotic_omega_max(params, ASYMPTOTIC_TOL))
    assert np.max(np.diff(seen[0])) <= 2.5 / params.distance * (1.0 + 1e-9)


def test_a_grid_past_the_node_budget_is_refused_before_it_is_built(monkeypatch):
    """At r = 1e7 the grid would need 1.5e10 nodes: a named refusal, raised
    before the resonance scan or `gauss_panels` allocates anything."""
    params = ModelParams(1.0, 10.0, 0.0, 1e7)
    seen = _edges_only(monkeypatch)
    monkeypatch.setattr(covariance, "channel_resonances", None)
    with pytest.raises(covariance.TruncationError, match=r"r = 10000000\.0 needs about 1\.48e\+10"):
        frequency_grid(params, asymptotic_omega_max(params, ASYMPTOTIC_TOL))
    assert not seen


def _records_of(caplog, function):
    """The log records ``function`` made; the frequency grid logs its own."""
    return [rec for rec in caplog.records if rec.funcName == function]


def test_asymptotic_grid_is_logged_at_debug(caplog):
    """`covariance_asymptotic` logs omega_max, the node count and the tail
    estimate of its grid on the "bathpair" logger, at DEBUG only."""
    params = ModelParams(1.0, 10.0, 0.1, 0.2)
    omega_max = asymptotic_omega_max(params, ASYMPTOTIC_TOL)
    nodes = frequency_grid(params, omega_max)[0].size
    _, _, tail = channel_asymptotic_moments(params, SIGNS, omega_max, ASYMPTOTIC_TOL)
    with caplog.at_level(logging.INFO, logger="bathpair"):
        covariance_asymptotic(params)
    assert not caplog.records
    with caplog.at_level(logging.DEBUG, logger="bathpair"):
        covariance_asymptotic(params)
    (record,) = _records_of(caplog, "covariance_asymptotic")
    assert record.name == "bathpair" and record.levelno == logging.DEBUG
    assert record.args == (params, omega_max, nodes, tail)
    assert f"{nodes} nodes" in record.getMessage()


def test_a_refused_point_still_logs_its_grid(monkeypatch, caplog):
    """The grid is logged before the physicality check, so that a refusal
    can be traced to its grid."""
    def refuse(c):
        raise UnphysicalCovarianceError("refused")

    monkeypatch.setattr(covariance, "require_physical", refuse)
    with caplog.at_level(logging.DEBUG, logger="bathpair"):
        with pytest.raises(UnphysicalCovarianceError):
            covariance_asymptotic(ModelParams(1.0, 10.0, 0.0, 0.2))
    assert len(_records_of(caplog, "covariance_asymptotic")) == 1
