import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from bathpair.analysis import (
    AmbiguousPeakError,
    BracketError,
    EntanglementTrace,
    asymptotic_log_negativity,
    detect_peaks,
    find_d0,
    find_d1,
    fit_slope,
    measured_initial_slope,
    oscillation_frequency,
    short_time_slope,
    trace,
    transient_covariances,
)
from bathpair.covariance import covariance_asymptotic
from bathpair.entanglement import negativity_margin
from bathpair.model import ModelParams

LN2 = math.log(2.0)


@pytest.fixture(scope="module")
def p():
    return ModelParams(gamma=1.0, omega_cut=10.0, temperature=0.0, distance=0.1)


def test_trace_basic(p):
    # the asymptote's frequency cut has to grow with gamma, as its tail does
    for params in (p, p.with_(gamma=10.0)):
        tr = trace(params, t_max=6.0, dt=0.05)
        assert np.all(tr.values >= 0.0)
        assert tr.times[0] == 0.0 and tr.values[0] == 0.0
        assert tr.values.max() > 0.05
        assert math.isfinite(tr.asymptote) and tr.asymptote > 0.0


def test_trace_r0_has_frozen_relative_coordinate_asymptote():
    p0 = ModelParams(gamma=1.0, omega_cut=10.0, temperature=0.0, distance=0.0)
    tr = trace(p0, t_max=4.0, dt=0.05)
    assert tr.asymptote > 0.0
    assert np.all(tr.values >= 0.0)


def test_trace_asymptote_is_finite_or_a_named_refusal():
    """A point of the ROADMAP box where the asymptotic covariance is refused
    (lambda_min 0.99938): the refusal reaches the caller instead of a NaN."""
    params = ModelParams(gamma=0.45149965552454896, omega_cut=2.857698913133787,
                         temperature=0.0, distance=6.71122722573179e-4)
    try:
        tr = trace(params, t_max=2.0, dt=0.05)
    except Exception as exc:   # the contract is about the exception class
        assert type(exc).__module__.startswith("bathpair."), repr(exc)
    else:
        assert math.isfinite(tr.asymptote)


@pytest.mark.parametrize("t_max, dt", [(math.inf, 0.05), (math.nan, 0.05), (2.0, math.inf),
                                       (2.0, math.nan), (0.0, 0.05), (2.0, -0.05)])
def test_trace_refuses_a_window_that_is_not_positive_and_finite(p, t_max, dt):
    """The window rule names both values in a ValueError before any work, in
    place of an OverflowError or a failed float-to-integer conversion."""
    with pytest.raises(ValueError, match="t_max and dt must be positive and finite"):
        trace(p, t_max=t_max, dt=dt)


def test_trace_window_ends_at_or_just_past_t_max(p):
    """A multiple of dt (to 1e-9 relative) ends the window; anything else is
    rounded up to the next step."""
    assert trace(p, t_max=1.1, dt=0.25).times.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0, 1.25]
    assert trace(p, t_max=0.3 * (1.0 + 1e-12), dt=0.1).times[-1] == pytest.approx(0.3)


def test_trace_decoupled_is_zero():
    # gamma = 0 bypasses validation deliberately: couplings off, no entanglement
    free = ModelParams(gamma=0.0, omega_cut=10.0, distance=0.1)
    tr = trace(free, t_max=3.0, dt=0.05)
    assert np.max(tr.values) == 0.0


def test_short_time_slope_value():
    """(4/ln 2) gamma Omega e^{-r Omega}, the slope the CLI's short-time-check
    compares against, suppressed exponentially with separation."""
    p5 = ModelParams(gamma=1.0, omega_cut=10.0, temperature=0.0, distance=0.5)
    assert short_time_slope(p5) == pytest.approx((4.0 / LN2) * 10.0 * math.exp(-5.0),
                                                 rel=1e-14)


def test_measured_initial_slope_runs(p):
    slope = measured_initial_slope(p.with_(distance=0.0))
    # microscopic transport rate: 2 gamma Omega e^{-Omega r} / ln 2
    assert slope == pytest.approx(2.0 * 10.0 / LN2, rel=0.05)


def test_detect_peaks_quadratic_refinement():
    t = np.linspace(0.0, 10.0, 501)
    v = np.sin(1.3 * t) ** 2
    peaks = detect_peaks(t, v)
    # peaks of sin^2 at 1.3 t = pi/2 + k pi
    expect = [(math.pi / 2) / 1.3, (math.pi / 2 + math.pi) / 1.3,
              (math.pi / 2 + 2 * math.pi) / 1.3, (math.pi / 2 + 3 * math.pi) / 1.3]
    found = [pt for pt, h in peaks if h > 0.5]
    assert len(found) == len(expect)
    for a, b in zip(found, expect):
        assert a == pytest.approx(b, abs=2e-3)


def test_oscillation_frequency_synthetic():
    t = np.linspace(0.0, 40.0, 4001)
    v = 0.1 + 0.05 * np.cos(2.0 * t)
    tr = EntanglementTrace(times=t, values=v,
                           params=ModelParams(gamma=1.0, omega_cut=10.0))
    assert oscillation_frequency(tr, 5.0, 35.0) == pytest.approx(2.0, rel=1e-3)
    with pytest.raises(ValueError, match="two peaks"):
        oscillation_frequency(tr, 5.0, 6.0)


def test_find_d0_reproduces_reference(p):
    res = find_d0(p, r_bracket=(0.05, 0.4), tol=2e-3)
    assert res.d0 == pytest.approx(0.151, abs=0.005)
    assert res.bracket[0] < res.d0 < res.bracket[1]


def test_find_d0_bracket_errors(p):
    with pytest.raises(BracketError):
        find_d0(p, r_bracket=(0.3, 0.4))
    with pytest.raises(BracketError):
        find_d0(p, r_bracket=(0.05, 0.1))


#: (gamma, Omega, T) of the critical-distance benchmark's d0 searches
D0_CASES = [(1.0, om, T) for T in (0.0, 0.3) for om in (2.0, 5.0, 10.0, 20.0)] + [
    (0.1, 10.0, 0.0), (10.0, 10.0, 0.0)]


def _margin(params, r):
    return negativity_margin(covariance_asymptotic(params.with_(distance=r)))


def _zero_boundary_bracket(params, omega):
    """The benchmark's bracket: grown on the clamped E against 1e-8."""
    hi = 8.0 / omega
    while asymptotic_log_negativity(params.with_(distance=hi)) > 1e-8:
        hi *= 1.5
    lo = 2.0 / omega
    while lo > 1e-4 and asymptotic_log_negativity(params.with_(distance=lo)) <= 1e-8:
        lo /= 2.0
    return lo, hi


@pytest.mark.parametrize("gamma, omega, temperature", D0_CASES)
def test_find_d0_is_the_margin_root(monkeypatch, gamma, omega, temperature):
    """|d0 - root| <= tol/2 against a tight brentq, mu changes sign across the
    reported bracket, and the search costs at most 8 asymptotic states.  With
    `scipy.optimize.brentq` in place of `analysis._brent` the d0 is the same
    float: the port does the same float operations in the same order, so
    no tolerance is allowed."""
    from bathpair import analysis

    params = ModelParams(gamma=gamma, omega_cut=omega, temperature=temperature)
    lo, hi = _zero_boundary_bracket(params, omega)
    calls = []

    def counting(q):
        calls.append(q.distance)
        return covariance_asymptotic(q)

    monkeypatch.setattr(analysis, "covariance_asymptotic", counting)
    tol = 1e-3
    res = find_d0(params, r_bracket=(lo, hi), tol=tol)
    monkeypatch.undo()
    assert len(calls) <= 8, calls
    # the Brent port's d0 is brentq's, to the last bit
    monkeypatch.setattr(analysis, "_brent", lambda f, a, b, xtol: brentq(f, a, b, xtol=xtol))
    assert find_d0(params, r_bracket=(lo, hi), tol=tol).d0 == res.d0
    monkeypatch.undo()
    root = brentq(lambda r: _margin(params, r), lo, hi, xtol=1e-10)
    assert abs(res.d0 - root) <= 0.5 * tol
    b_lo, b_hi = res.bracket
    assert lo <= b_lo < res.d0 < b_hi <= hi
    assert _margin(params, b_lo) > 0.0 >= _margin(params, b_hi)


@pytest.mark.parametrize("f, a, b, xtol", [
    (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0, 1e-12),
    (math.cos, 0.0, 3.0, 1e-10),
    (lambda x: math.exp(x) - 10.0, 0.0, 5.0, 1e-3),
    (lambda x: math.atan(x - 0.3), -10.0, 20.0, 2e-12),
    (lambda x: x**9 - 1e-3, -1.0, 2.0, 1e-14),
    (math.log, 0.1, 7.0, 5e-4),
    (lambda x: (x - 1.0) ** 2 * (x - 1.5), 0.7, 3.0, 1e-15),
    (lambda x: x - 0.25, 0.25, 1.0, 1e-6),
], ids=["cubic", "cos", "exp", "atan", "ninth", "log", "double-root", "root-at-end"])
def test_brent_port_returns_the_floats_of_brentq(f, a, b, xtol):
    """`analysis._brent` is scipy's Brent routine step for step (same rtol
    4 eps, same cap of 100 steps, same operations in the same order), so on
    each function it returns the same float as `scipy.optimize.brentq`:
    the tolerance is 0.  Secant, inverse quadratic and bisection steps
    all occur among these, and one root lies at an end of the bracket."""
    from bathpair.analysis import _brent

    assert _brent(f, a, b, xtol) == brentq(f, a, b, xtol=xtol)


def test_brent_port_refuses_what_brentq_refuses():
    """Ends of one sign, a NaN value and no convergence in 100 steps raise,
    as they do in brentq."""
    from bathpair.analysis import _brent

    with pytest.raises(ValueError):
        _brent(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12)
    with pytest.raises(ValueError):
        _brent(lambda x: math.nan if x > 0.5 else x - 0.7, 0.0, 1.0, 1e-12)
    with pytest.raises(RuntimeError):
        _brent(lambda x: x**9, -1.0, 2.0, 1e-14)
    with pytest.raises(RuntimeError):
        brentq(lambda x: x**9, -1.0, 2.0, xtol=1e-14)


@pytest.mark.parametrize("gamma, omega, temperature",
                         [(1.0, 10.0, 0.0), (1.0, 2.0, 0.3), (10.0, 10.0, 0.0)])
def test_find_d0_default_bracket_matches_acceptance_rule(gamma, omega, temperature):
    from test_acceptance import _d0_auto

    params = ModelParams(gamma=gamma, omega_cut=omega, temperature=temperature)
    assert find_d0(params).d0 == pytest.approx(_d0_auto(params, omega), abs=1e-3)


def test_find_d0_default_bracket_refusals(monkeypatch):
    """No lo above 1e-4, or mu still positive past r = 1e3: a BracketError."""
    from bathpair import analysis

    params = ModelParams(gamma=1.0, omega_cut=10.0)
    monkeypatch.setattr(analysis, "covariance_asymptotic", lambda q: q.distance)
    for sign, match in ((-1.0, r"already zero at r = 9\.765625e-05"),
                        (1.0, r"still positive at r = 1182\.31")):
        monkeypatch.setattr(analysis, "negativity_margin", lambda r, s=sign: s)
        with pytest.raises(BracketError, match=match):
            find_d0(params)


def test_d1_probe_sides(p):
    """The exchange margin is signed: positive while the peak is there, and
    negative, not a clamped zero, once it is gone."""
    from bathpair.analysis import _exchange_margin

    assert _exchange_margin(p, 0.4) > 0.0
    assert _exchange_margin(p, 0.9) < 0.0


@pytest.mark.parametrize("omega, d1_omega", [(5.0, 3.94), (10.0, 5.71), (20.0, 2.32)])
def test_find_d1_is_the_exchange_margin_root(monkeypatch, omega, d1_omega):
    """The d1 half of acceptance criterion 8, on its three cases: d1 Omega as
    the criterion reads it, to 0.01, in at most 10 transient windows (the
    bisection on the clamped peak height took 13 traces)."""
    from bathpair import analysis

    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return transient_covariances(*args, **kwargs)

    monkeypatch.setattr(analysis, "transient_covariances", counting)
    params = ModelParams(gamma=1.0, omega_cut=omega, temperature=0.0)
    res = find_d1(params, r_bracket=(2.0 / omega, 8.0 / omega), tol=4.0 / (1000.0 * omega))
    assert res.d1 * omega == pytest.approx(d1_omega, abs=0.01)
    assert len(calls) <= 10
    assert res.bracket[0] < res.d1 < res.bracket[1]


def test_find_d1_guard(p):
    with pytest.raises(AmbiguousPeakError):
        find_d1(p, r_bracket=(0.05, 0.8))


def test_fit_slope_basics():
    samples = [(0.5, 0.8), (0.2, 0.31), (0.1, 0.151), (0.05, 0.075)]
    fit = fit_slope(samples)
    assert fit.slope == pytest.approx(1.55, abs=0.1)
    assert not fit.ill_conditioned
    # duplicated points leave the through-origin fit unchanged
    fit2 = fit_slope(samples + samples)
    assert fit2.slope == pytest.approx(fit.slope, rel=1e-12)
    with pytest.raises(ValueError, match="three"):
        fit_slope([(0.1, 0.15), (0.2, 0.3)])
    bad = fit_slope([(0.1, 0.5), (0.2, 0.1), (0.3, 0.9)])
    assert bad.ill_conditioned


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


# ~8 s: the ROADMAP box costs ~10 ms per point on average, up to ~0.3 s
@settings(max_examples=500, derandomize=True, deadline=None, database=None)
@given(gamma=_log_uniform(0.01, 50.0), omega_cut=_log_uniform(0.5, 100.0),
       temperature=st.one_of(st.just(0.0), _log_uniform(0.01, 10.0)),
       distance=_log_uniform(1e-4, 20.0))
def test_asymptote_is_physical_or_a_named_refusal(gamma, omega_cut, temperature, distance):
    """Over the ROADMAP box every point is physical, with a finite E >= 0:
    no refusal.  On the Matsubara axis no root of D comes near the
    integrand, however narrow its resonance on the real axis."""
    params = ModelParams(gamma=gamma, omega_cut=omega_cut,
                         temperature=temperature, distance=distance)
    e = asymptotic_log_negativity(params)
    assert math.isfinite(e) and e >= 0.0
