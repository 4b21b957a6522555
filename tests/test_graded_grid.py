"""The asymptotic frequency grid, one ladder rule over the singularity
record of `channel_resonances`, against a reference that copies none of its
rules: the same moments, a panel count that grows like log(omega_max) at
small r, a near-axis root where Re D does not cross zero, and the grid's
diagnostics on the library logger."""

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
from conftest import CORNERS, box_points, production_edges, resonances, rule_free_edges

EPS = np.finfo(float).eps


def _assert_same_moments(params):
    """alpha and beta of both channels within 1e-8 + (4/pi) eps omega_r / w
    relative of the `rule_free_edges` grid, omega_r / w the largest of the
    channel's resonances: a node rounded by two ulps of omega_r, over a
    Lorentzian of half-width w, moves its area by up to (4/pi) eps omega_r / w
    of it, in either grid.  The edges span [0, omega_max]."""
    omega_max = asymptotic_omega_max(params, ASYMPTOTIC_TOL)
    rows = SIGNS if params.distance > 0 else SIGNS[:1]
    edges = production_edges(params, omega_max)
    assert edges[0] == 0.0 and edges[-1] == omega_max
    ours = channel_asymptotic_moments(params, rows, omega_max, ASYMPTOTIC_TOL, gauss_panels(edges))
    ref = channel_asymptotic_moments(params, rows, omega_max, ASYMPTOTIC_TOL,
                                     gauss_panels(rule_free_edges(params, omega_max)))
    row, om, width, _ = resonances(params, rows)
    sharpest = np.array([np.max(om[row == i] / width[row == i]) for i in range(len(rows))])
    bound = 1e-8 + 4.0 / math.pi * EPS * sharpest
    for a, b in zip(ours[:2], ref[:2]):
        assert np.all(np.abs(a / b - 1.0) <= bound), (params, a / b - 1.0)


@pytest.mark.parametrize("seed", [1, 2])
def test_moments_match_uniform_grid_on_box(seed):
    """64 box points per seed.  The knee, the grading and the crossing-only
    ladders this grid replaced missed this by up to 6.8e-6 (box_points(2)[23],
    past the last crossing of a comb) and 3.2e-7 (box_points(1)[0]); now
    1.9e-10 and 5e-15."""
    for params in box_points(seed):
        _assert_same_moments(params)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("params", CORNERS, ids=str)
def test_moments_match_uniform_grid_at_box_corners(params):
    _assert_same_moments(params)


@pytest.mark.parametrize("seed", [1, 2])
def test_no_panel_is_wider_than_twice_its_distance_to_a_singularity(seed):
    """The grid's one rule, on 64 box points per seed and the corners: no
    panel is wider than 2.5 / r, every entry (a, b) of the record is an edge,
    and within min(2.5 / r, omega_max) of a, a panel whose nearer edge is d
    from a is at most max(2 d, b) wide (the last rung, past half that reach,
    to the next uniform edge up to 2 d; the first, [a, a + b/2], b/2).
    Further out 2.5 / r <= 2 d already.  The weights sum to omega_max."""
    for params in box_points(seed) + CORNERS:
        omega_max = asymptotic_omega_max(params, ASYMPTOTIC_TOL)
        osc = 2.5 / max(params.distance, 1e-9)
        reach = min(osc, omega_max)
        edges = production_edges(params, omega_max)
        assert np.max(np.diff(edges)) <= osc * (1.0 + 1e-9), params
        _, centre, distance, _ = channel_resonances(
            params, SIGNS if params.distance > 0 else SIGNS[:1])
        slack = 4.0 * EPS * omega_max
        for a, b in zip(np.minimum(centre, omega_max), distance):
            assert a in edges, (params, a)
            i, j = np.searchsorted(edges, [a - reach, a + reach])
            j = min(j, edges.size - 1)
            lo, hi = edges[max(i - 1, 0):j], edges[max(i, 1):j + 1]
            near = np.minimum(np.abs(lo - a), np.abs(hi - a))
            assert np.all(hi - lo <= np.maximum(2.0 * near, b) * (1.0 + 1e-9) + slack), (params, a)
        assert gauss_panels(edges)[1].sum() == pytest.approx(omega_max, rel=1e-12)


def test_doubling_omega_max_adds_a_bounded_number_of_panels():
    """At small r the grid is its ladders alone, so the panel count grows
    like log(omega_max): doubling the cut adds at most one rung to each
    ladder of the record, where a uniform grid doubles."""
    params = ModelParams(1.0, 10.0, 0.0, 1e-3)
    omega_max = asymptotic_omega_max(params, ASYMPTOTIC_TOL)
    bound = channel_resonances(params, SIGNS)[0].size
    for cut in omega_max * np.array([1.0, 2.0, 4.0, 8.0]):
        panels = [frequency_grid(params, c)[0].size // 12 for c in (cut, 2.0 * cut)]
        assert 0 < panels[1] - panels[0] <= bound, cut


def test_near_miss_of_the_symmetric_channel_is_listed():
    """At (5.16, 29, 0, 7.10) Re D_+ rises to -1.0 near omega = 12.61 past
    its last crossing (11.78) without crossing zero: a root of D_+ close to
    the axis, which the record lists as 12.7193 + 0.0499i.  The crossings at
    11.66 and 11.78, a comb of narrow spikes of Re D with no root near them,
    have no entry; the nearest root is 11.8417 + 0.0429i."""
    params = ModelParams(5.16, 29.0, 0.0, 7.10)
    row, centre, distance, slope = channel_resonances(params, SIGNS)
    near = (row == 0) & (slope > 0) & (np.abs(centre - 12.71) < 0.05)
    assert np.count_nonzero(near) == 1
    assert centre[near][0] == pytest.approx(12.7193, abs=1e-4)
    assert distance[near][0] == pytest.approx(0.0499, abs=1e-4)
    for crossing in (11.66, 11.78):
        assert not np.any((row == 0) & (np.abs(centre - crossing) < 0.05))


@pytest.mark.parametrize("temperature, entry", [(0.0, None), (0.3, None),
                                                 (0.02, 2.0 * math.pi * 0.02)])
def test_a_root_on_the_axis_replaces_the_stand_in(temperature, entry):
    """At (1, 10, T, 0.1) the symmetric channel's overdamped root 0 + 0.2586i
    is its peak at omega = 0, so the record lists no stand-in 1/(4 gamma) =
    0.25 beside it, and a thermal pole 2 pi T only where it is nearer than
    the root.  The antisymmetric channel, with no root on the axis, keeps
    the nearer of the stand-in and 2 pi T."""
    params = ModelParams(1.0, 10.0, temperature, 0.1)
    row, centre, distance, slope = channel_resonances(params, SIGNS)
    at_zero = (centre == 0.0) & (distance < params.omega_cut)
    sym = distance[at_zero & (row == 0)]
    root = distance[at_zero & (row == 0) & (slope > 0)]
    assert root.size == 1 and root[0] == pytest.approx(0.2586, abs=1e-4)
    assert sorted(sym) == sorted([root[0]] + ([entry] if entry else []))
    anti = distance[at_zero & (row == 1)]
    assert anti.tolist() == [min(0.25, 2.0 * math.pi * temperature or math.inf)]


@pytest.mark.parametrize("params", [ModelParams(1.0, 10.0, 0.0, 2.0),
                                    ModelParams(1.0, 10.0, 0.3, 1.0),
                                    ModelParams(1.6, 16.4, 0.28, 0.83)], ids=str)
def test_moments_match_the_grid_split_eight_ways(params):
    """alpha and beta of both channels within 1e-10 relative of the same
    grid with every panel split into 8 (the 4- and 8-way splits agree to
    rounding here).  Resonances between cap/2 and 16 caps wide once had no
    ladder, and missed this by 2e-10 to 3e-9."""
    omega_max = asymptotic_omega_max(params, ASYMPTOTIC_TOL)
    edges = production_edges(params, omega_max)
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
