"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Covariances produced along the way are pooled and
checked wholesale by the physicality criterion.
"""

import math
import time

import numpy as np
import pytest

from bathpair.analysis import (
    detect_peaks,
    find_d0,
    find_d1,
    fit_slope,
    measured_initial_slope,
    oscillation_frequency,
    trace,
)
from bathpair.covariance import covariance_time_series, ground_state_covariance
from bathpair.entanglement import (
    log_negativity,
    partial_transpose,
    symplectic_eigenvalues,
)
from bathpair.greens import greens_time
from bathpair.model import ModelParams
from bathpair.oracle import reduced_covariance_series
from conftest import eigen_symplectic_eigenvalues, random_physical_covariance

LN2 = math.log(2.0)
ZERO = 1e-8

#: covariance matrices collected across criteria for the physicality sweep
COLLECTED = []


def _report(num, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    return ok


def _d0_auto(params, omega):
    """Bisection with an automatic bracket in units of the cutoff length."""
    from bathpair.analysis import asymptotic_log_negativity

    hi = 8.0 / omega
    while asymptotic_log_negativity(params.with_(distance=hi)) > ZERO:
        hi *= 1.5
    lo = 2.0 / omega
    while lo > 1e-4 and asymptotic_log_negativity(params.with_(distance=lo)) <= ZERO:
        lo /= 2.0
    res = find_d0(params, r_bracket=(lo, hi), tol=1e-3)
    return res.d0


@pytest.fixture(scope="module")
def reference_d0():
    p = ModelParams(gamma=1.0, omega_cut=10.0, temperature=0.0)
    return _d0_auto(p, 10.0)


def test_criterion_1_critical_distance(reference_d0):
    t0 = time.time()
    d0 = reference_d0
    ok = abs(d0 - 0.151) <= 0.01
    assert _report(1, ok, f"d0 = {d0:.4f} (target 0.151 +- 0.01) "
                          f"[{time.time() - t0:.0f}s]")


def test_criterion_2_damping_insensitivity():
    t0 = time.time()
    vals = {}
    for gamma, target in ((10.0, 0.12), (0.1, 0.17)):
        p = ModelParams(gamma=gamma, omega_cut=10.0, temperature=0.0)
        vals[gamma] = _d0_auto(p, 10.0)
    ok = abs(vals[10.0] - 0.12) <= 0.01 and abs(vals[0.1] - 0.17) <= 0.01
    assert _report(2, ok, f"d0(gamma=10) = {vals[10.0]:.4f} (0.12 +- 0.01), "
                          f"d0(gamma=0.1) = {vals[0.1]:.4f} (0.17 +- 0.01) "
                          f"[{time.time() - t0:.0f}s]")


def test_criterion_3_slope_law():
    t0 = time.time()
    slopes = {}
    for T, target, rel in ((0.0, 1.51, 0.10), (0.3, 0.25, 0.25)):
        samples = []
        for om in (2.0, 5.0, 10.0, 20.0):
            p = ModelParams(gamma=1.0, omega_cut=om, temperature=T)
            samples.append((1.0 / om, _d0_auto(p, om)))
        slopes[T] = fit_slope(samples).slope
    ok = (abs(slopes[0.0] - 1.51) <= 0.10 * 1.51
          and abs(slopes[0.3] - 0.25) <= 0.25 * 0.25)
    assert _report(3, ok, f"a(T=0) = {slopes[0.0]:.3f} (1.51 +- 10%), "
                          f"a(T=0.3) = {slopes[0.3]:.3f} (0.25 +- 25%) "
                          f"[{time.time() - t0:.0f}s]")


def test_criterion_4_temperature_ordering():
    from bathpair.analysis import asymptotic_log_negativity

    t0 = time.time()
    rs = np.arange(0.0125, 0.20, 0.0125)
    prev = None
    ok = True
    for T in (0.0, 0.1, 0.2, 0.3):
        p = ModelParams(gamma=1.0, omega_cut=10.0, temperature=T)
        es = np.array([asymptotic_log_negativity(p.with_(distance=r)) for r in rs])
        if prev is not None and np.any(es > prev + 1e-12):
            ok = False
        prev = es
    assert _report(4, ok, f"asymptotic E(r) pointwise decreasing in T over "
                          f"{rs.size} distances [{time.time() - t0:.0f}s]")


def test_criterion_5_short_time_expansion():
    t0 = time.time()
    details = []
    ok = True
    for r in (0.0, 0.1, 0.2):
        p = ModelParams(gamma=1.0, omega_cut=10.0, temperature=0.0, distance=r)
        measured = measured_initial_slope(p)
        stated = (4.0 / LN2) * 10.0 * math.exp(-10.0 * r)
        ok &= abs(measured / stated - 1.0) <= 0.05
        details.append(f"r={r}: {measured:.3f}/{stated:.3f}={measured / stated:.3f}")
    assert _report(5, ok, "initial slope vs (4/ln2) gamma Omega e^(-r Omega): "
                          + "; ".join(details) + f" [{time.time() - t0:.0f}s]")


@pytest.fixture(scope="module")
def recovery_traces():
    out = {}
    for r in np.arange(0.15, 0.2501, 0.01):
        p = ModelParams(gamma=1.0, omega_cut=10.0, temperature=0.0,
                        distance=round(float(r), 3))
        out[round(float(r), 3)] = trace(p, t_max=40.0, dt=0.02)
    return out


def test_criterion_6_recovery_boundary(recovery_traces):
    t0 = time.time()

    def recovers(tr):
        late = tr.values[tr.times >= 5.0]
        return float(np.max(late)) > 1e-6

    rec_015 = recovers(recovery_traces[0.15])
    rec_025 = recovers(recovery_traces[0.25])
    last_rec = max((r for r, tr in recovery_traces.items() if recovers(tr)),
                   default=math.nan)
    first_norec = min((r for r, tr in recovery_traces.items() if not recovers(tr)),
                      default=math.nan)
    onset = 0.5 * (last_rec + first_norec)
    ok = rec_015 and not rec_025 and abs(onset - 0.18) <= 0.02
    for tr in recovery_traces.values():
        COLLECTED.append(("trace", tr))
    assert _report(6, ok, f"recovery at r=0.15: {rec_015}, none at r=0.25: "
                          f"{not rec_025}, onset = {onset:.3f} (0.18 +- 0.02) "
                          f"[{time.time() - t0:.0f}s]")


def test_criterion_7_oscillation_frequency():
    t0 = time.time()
    p = ModelParams(gamma=1.0, omega_cut=10.0, temperature=0.0, distance=0.05)
    tr = trace(p, t_max=30.0, dt=0.01)
    COLLECTED.append(("trace", tr))
    freq = oscillation_frequency(tr, 5.0, 30.0)
    # E is a pointwise function of the covariance, whose entries are
    # quadratic in the channel Green's functions: once the fast symmetric
    # mode has died out they hold only the frequencies 0 and 2*omega_r, so
    # E repeats every half period pi/omega0, at angular frequency 2*omega0
    ok = abs(freq - 2.0) <= 0.2
    assert _report(7, ok, f"post-peak peak-spacing frequency = {freq:.3f} "
                          f"(target 2 omega0 = 2.0 +- 10%) [{time.time() - t0:.0f}s]")


def test_criterion_8_second_peak_and_d1():
    t0 = time.time()
    from bathpair.analysis import second_peak_height, _peak_onset

    causality_ok = True
    d1_ok = True
    details = []
    for om in (5.0, 10.0, 20.0):
        p = ModelParams(gamma=1.0, omega_cut=om, temperature=0.0)
        res = find_d1(p, r_bracket=(2.0 / om, 8.0 / om), tol=4.0 / (1000.0 * om))
        d1_ok &= res.d1 <= 6.0 / om
        details.append(f"Omega={om}: d1*Omega = {res.d1 * om:.2f}")
        # causality of the detected second peak just below d1
        r_probe = max(res.d1 - 1.0 / om, 2.0 / om)
        tr = trace(p.with_(distance=r_probe), t_max=r_probe + 14.0 / om,
                   dt=min(0.01, 1.0 / (10.0 * om)))
        COLLECTED.append(("trace", tr))
        v, t = tr.values, tr.times
        for i in range(1, v.size - 1):
            if v[i] > 1e-10 and v[i] >= v[i - 1] and v[i] >= v[i + 1]:
                onset = _peak_onset(t, v, i)
                if onset > 0.8 * r_probe:
                    causality_ok &= onset > r_probe
    ok = causality_ok and d1_ok
    assert _report(8, ok, f"second-peak onsets > r: {causality_ok}; "
                          + "; ".join(details)
                          + f" (bound 6.0) [{time.time() - t0:.0f}s]")


@pytest.fixture(scope="module")
def oracle_comparison():
    times = np.arange(0.0, 20.01, 1.0)
    runs = {}
    for T in (0.0, 0.2):
        for r in (0.0, 0.1, 0.3):
            p = ModelParams(gamma=1.0, omega_cut=10.0, temperature=T, distance=r)
            grid = np.linspace(0.0, 20.0, 4001)
            g = greens_time(grid, p)
            ours = covariance_time_series(g, p, times)
            oracle = reduced_covariance_series(p, times, n_modes=2000,
                                               omega_max_bath=265.0)
            runs[(T, r)] = (times, ours, oracle)
    return runs


def test_criterion_9_oracle_equivalence(oracle_comparison):
    t0 = time.time()
    worst_c = worst_e = 0.0
    for (T, r), (times, ours, oracle) in oracle_comparison.items():
        for a, b in zip(ours, oracle):
            COLLECTED.append(("pipeline", a))
            COLLECTED.append(("oracle", b))
            worst_c = max(worst_c, float(np.max(np.abs(a.entries - b.entries))))
            worst_e = max(worst_e, abs(log_negativity(a.entries)
                                       - log_negativity(b.entries)))
    # doubling the mode count (fixed spacing) must shrink the deviation
    p = ModelParams(gamma=1.0, omega_cut=10.0, temperature=0.0, distance=0.1)
    times, ours, oracle = oracle_comparison[(0.0, 0.1)]
    dev_2000 = max(float(np.max(np.abs(a.entries - b.entries)))
                   for a, b in zip(ours, oracle))
    oracle_4000 = reduced_covariance_series(p, times, n_modes=4000,
                                            omega_max_bath=530.0)
    dev_4000 = max(float(np.max(np.abs(a.entries - b.entries)))
                   for a, b in zip(ours, oracle_4000))
    shrink = dev_4000 < dev_2000
    ok = worst_c <= 1e-3 and worst_e <= 2e-3 and shrink
    assert _report(9, ok, f"max|dC| = {worst_c:.2e} (<= 1e-3), "
                          f"max|dE| = {worst_e:.2e} (<= 2e-3), "
                          f"N doubling {dev_2000:.2e} -> {dev_4000:.2e} "
                          f"[{time.time() - t0:.0f}s]")


def test_criterion_10_physicality_suite(recovery_traces, oracle_comparison):
    t0 = time.time()
    checked = 0
    ok = True
    for kind, obj in COLLECTED:
        if kind == "trace":
            ok &= bool(np.all(obj.values >= 0.0))
        else:
            lam = symplectic_eigenvalues(obj.entries)
            ok &= lam[0] >= 1.0 - 1e-6
            ok &= log_negativity(obj.entries) >= 0.0
            checked += 1
    c0 = covariance_time_series(
        greens_time(np.linspace(0.0, 0.1, 21),
                    ModelParams(gamma=1.0, omega_cut=10.0, distance=0.1)),
        ModelParams(gamma=1.0, omega_cut=10.0, distance=0.1), [0.0])[0]
    ok &= log_negativity(c0.entries) == 0.0
    assert _report(10, ok, f"{checked} covariance matrices physical, all "
                           f"E >= 0, ground state E exactly 0 "
                           f"[{time.time() - t0:.0f}s]")


def test_criterion_11_entanglement_units():
    t0 = time.time()
    ok = True
    for s in (0.1, 0.5, 1.0):
        ch, sh = math.cosh(s), math.sinh(s)
        S = np.array([[ch, sh, 0, 0], [sh, ch, 0, 0],
                      [0, 0, ch, -sh], [0, 0, -sh, ch]])
        e = log_negativity(S @ S.T)
        ok &= abs(e - 2.0 * s / LN2) <= 1e-9
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(1000):
        c = random_physical_covariance(rng)
        lam = eigen_symplectic_eigenvalues(c)
        cf = symplectic_eigenvalues(c)
        worst = max(worst, abs(lam[0] - cf[0]), abs(lam[1] - cf[1]))
    ok &= worst <= 1e-10
    assert _report(11, ok, f"two-mode squeezed E = 2s/ln2 to 1e-9; "
                           f"eigen vs closed-form worst {worst:.1e} (<= 1e-10) "
                           f"[{time.time() - t0:.0f}s]")
