"""Scientific post-processing: entanglement traces, peaks, critical distances.

The critical distance d0 is a root of the signed margin mu = -log2 lambda~_-
of the asymptotic state (`entanglement.negativity_margin`, E = max(0, mu)):
mu stays smooth where E is clamped to an exact zero, so one bracketed
`brentq` finds it.  The second-peak distance d1 is bisected against a small
positive threshold on the clamped peak height, above quadrature noise.

Every covariance comes from the channel layers through three calls:
`greens_time` and `covariance_time_series` for a trace, and
`covariance_asymptotic` for the late-time E at every r >= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.optimize import brentq

from .covariance import covariance_asymptotic, covariance_time_series
from .entanglement import log_negativity, negativity_margin
from .greens import greens_time
from .model import ModelParams

__all__ = [
    "EntanglementTrace",
    "CriticalDistanceResult",
    "SlopeFit",
    "trace",
    "short_time_expansion",
    "short_time_slope",
    "asymptotic_log_negativity",
    "measured_initial_slope",
    "find_d0",
    "find_d1",
    "fit_slope",
    "detect_peaks",
    "second_peak_height",
    "oscillation_frequency",
    "BracketError",
    "AmbiguousPeakError",
]

ZERO_THRESHOLD = 1e-8    # entanglement below this counts as zero
PEAK_FLOOR = 1e-10       # samples at or below this are never part of a peak
# 4/ln 2 of the short-time law; the model's own equations of motion give
# 2/ln 2 (acceptance criterion 5, CHANGES.md)
SHORT_TIME_PREFACTOR = 4.0 / math.log(2.0)


class BracketError(ValueError):
    """The search interval does not straddle the zero boundary."""


class AmbiguousPeakError(RuntimeError):
    """First and second peaks are unresolvable in the requested regime."""


@dataclass(frozen=True)
class EntanglementTrace:
    times: np.ndarray
    values: np.ndarray
    params: ModelParams
    peaks: list = field(default_factory=list)     # (time, height) tuples
    asymptote: float = math.nan


@dataclass(frozen=True)
class CriticalDistanceResult:
    d0: float = math.nan
    d1: float = math.nan
    bracket: tuple = (math.nan, math.nan)


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    residual: float
    ill_conditioned: bool


# ---------------------------------------------------------------------------
# traces


def _grid_step(params: ModelParams, dt: float) -> float:
    h_max = min(0.01, 0.1 / params.omega_cut)
    if params.distance > 0:
        h_max = min(h_max, max(params.distance / 20.0, 2.5e-3))
    m = max(1, int(math.ceil(dt / (2.0 * h_max))))
    return dt / (2.0 * m)


def trace(params: ModelParams, t_max: float, dt: float,
          tol: float = 1e-5) -> EntanglementTrace:
    """E(t) from the two-oscillator ground state on a uniform grid, with
    detected peaks and the asymptote."""
    if t_max <= 0 or dt <= 0:
        raise ValueError("t_max and dt must be positive")
    n_out = int(round(t_max / dt))
    if abs(n_out * dt - t_max) > 1e-9 * t_max:
        n_out = int(math.ceil(t_max / dt))
    t_end = n_out * dt
    h = _grid_step(params, dt)
    n_grid = int(round(t_end / h))
    grid = np.linspace(0.0, t_end, n_grid + 1)
    greens = greens_time(grid, params)
    times = np.linspace(0.0, t_end, n_out + 1)
    values = log_negativity(covariance_time_series(greens, params, times, tol=tol))
    peaks = detect_peaks(times, values)
    # the undamped limit has no initial-state-free asymptote; everything
    # else gets one, or the library's refusal propagates
    asym = math.nan if params.gamma == 0.0 else asymptotic_log_negativity(params)
    return EntanglementTrace(times=times, values=values, params=params,
                             peaks=peaks, asymptote=asym)


def asymptotic_log_negativity(params: ModelParams) -> float:
    """Late-time E of `covariance_asymptotic`, for every r >= 0 (at r = 0
    the relative coordinate keeps its ground-state block)."""
    return log_negativity(covariance_asymptotic(params))


def short_time_slope(params: ModelParams) -> float:
    """Linear coefficient of `short_time_expansion`: (4/ln 2) gamma Omega e^{-r Omega/c}."""
    return (SHORT_TIME_PREFACTOR * params.gamma * params.omega_cut
            * math.exp(-params.distance * params.omega_cut))


def short_time_expansion(t, params: ModelParams):
    """Leading short-time behavior of E(t) at zero temperature.

    E(t) ~ (4/ln 2) gamma { e^{-r Omega/c} Omega t - a(Omega t) (Omega t)^2 }
    with a(x) ~ 0.2937 - ln(x)/pi, clamped at zero from below.
    Valid for 0 < Omega t << 1; rejects T > 0.
    """
    if params.temperature != 0.0:
        raise ValueError("short-time expansion is derived at zero temperature")
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise ValueError("short-time expansion needs t > 0")
    x = params.omega_cut * t
    alpha = 0.2937 - np.log(x) / math.pi
    val = SHORT_TIME_PREFACTOR * params.gamma * (
        math.exp(-params.distance * params.omega_cut) * x - alpha * x * x)
    out = np.maximum(val, 0.0)
    return out if out.ndim else float(out)


def measured_initial_slope(params: ModelParams) -> float:
    """dE/dt measured from the covariance pipeline: a line through 10 points
    over Omega*t in [1e-3, 1e-2]."""
    n_points = 10
    t_lo, t_hi = 1e-3 / params.omega_cut, 1e-2 / params.omega_cut
    step = (t_hi - t_lo) / (n_points - 1)
    h = step / 4.0
    n_grid = int(round(t_hi / h))
    grid = np.linspace(0.0, t_hi, n_grid + 1)
    greens = greens_time(grid, params)
    times = np.linspace(t_lo, t_hi, n_points)
    values = log_negativity(covariance_time_series(greens, params, times, tol=1e-7))
    return float(np.polyfit(times, values, 1)[0])


# ---------------------------------------------------------------------------
# peaks


def detect_peaks(times, values) -> list:
    """Local maxima above PEAK_FLOOR with parabolic refinement; returns
    [(time, height), ...]."""
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    peaks = []
    for i in range(1, v.size - 1):
        if v[i] <= PEAK_FLOOR:
            continue
        if v[i] >= v[i - 1] and v[i] >= v[i + 1] and (v[i] > v[i - 1] or v[i] > v[i + 1]):
            d = 0.5 * (t[i + 1] - t[i - 1])
            curv = (v[i - 1] - 2.0 * v[i] + v[i + 1]) / (d * d)
            slope = (v[i + 1] - v[i - 1]) / (2.0 * d)
            if curv < 0:
                dt_off = float(np.clip(-slope / curv, -d, d))
                peaks.append((t[i] + dt_off, v[i] - 0.5 * slope * slope / curv))
            else:
                peaks.append((float(t[i]), float(v[i])))
    return peaks


def _peak_onset(times, values, i_peak: int) -> float:
    """Time of the last zero or local minimum preceding a peak sample."""
    v = np.asarray(values, dtype=float)
    j = i_peak
    while j > 0:
        if v[j - 1] <= PEAK_FLOOR:
            return float(times[j - 1])
        if j >= 2 and v[j - 1] <= v[j] and v[j - 1] <= v[j - 2]:
            return float(times[j - 1])
        j -= 1
    return float(times[0])


def second_peak_height(trace_obj: EntanglementTrace) -> float:
    """Height of the tallest peak whose onset lies beyond 0.8 r/c.

    Boson-exchange causality separates the peaks: anything switched on
    before ~r/c belongs to the initial (bath-preexisting) peak.
    """
    r = trace_obj.params.distance
    t = trace_obj.times
    v = trace_obj.values
    best = 0.0
    for i in range(1, v.size - 1):
        if v[i] <= PEAK_FLOOR or not (v[i] >= v[i - 1] and v[i] >= v[i + 1]):
            continue
        if _peak_onset(t, v, i) > 0.8 * r:
            best = max(best, float(v[i]))
    return best


def oscillation_frequency(trace_obj: EntanglementTrace, t_lo: float,
                          t_hi: float) -> float:
    """Angular frequency 2*pi / (mean peak spacing) within [t_lo, t_hi]."""
    pts = [p for p in detect_peaks(trace_obj.times, trace_obj.values)
           if t_lo <= p[0] <= t_hi]
    if len(pts) < 2:
        raise ValueError("need at least two peaks in the window")
    spacings = np.diff([p[0] for p in pts])
    return float(2.0 * math.pi / np.mean(spacings))


# ---------------------------------------------------------------------------
# critical distances


def find_d0(params: ModelParams, r_bracket: tuple | None = None,
            tol: float = 1e-3) -> CriticalDistanceResult:
    """Distance where the asymptotic state turns separable: the root of its
    margin mu(r), by `brentq` at xtol tol/2, with ``bracket`` = d0 -+ tol/2
    clipped to the search interval (lo, hi), which needs mu(lo) > 0 >= mu(hi).
    With no ``r_bracket`` it grows from the cutoff length: hi from 8/Omega by
    x1.5 while mu > 0, up to r = 1e3; lo from 2/Omega by /2 while mu <= 0,
    down to 1e-4.  No such interval raises BracketError.
    """
    @lru_cache(maxsize=None)        # the ends of the interval are evaluated once
    def margin(r: float) -> float:
        return negativity_margin(covariance_asymptotic(params.with_(distance=r)))

    if r_bracket is None:
        lo, hi = 2.0 / params.omega_cut, 8.0 / params.omega_cut
        while margin(hi) > 0.0:
            hi *= 1.5
            if hi > 1e3:
                raise BracketError(f"asymptotic E still positive at r = {hi}")
        while lo > 1e-4 and margin(lo) <= 0.0:
            lo /= 2.0
    else:
        lo, hi = r_bracket
    if margin(lo) <= 0.0:
        raise BracketError(f"asymptotic E already zero at r = {lo}")
    if margin(hi) > 0.0:
        raise BracketError(f"asymptotic E still positive at r = {hi}")
    d0 = brentq(margin, lo, hi, xtol=0.5 * tol)
    return CriticalDistanceResult(d0=d0, bracket=(max(lo, d0 - 0.5 * tol),
                                                  min(hi, d0 + 0.5 * tol)))


def _d1_probe(params: ModelParams, r: float) -> float:
    Om = params.omega_cut
    t_max = r + 14.0 / Om
    dt = min(0.01, 1.0 / (10.0 * Om), t_max / 150.0)
    tr = trace(params.with_(distance=r), t_max=t_max, dt=dt, tol=1e-7)
    return second_peak_height(tr)


def find_d1(params: ModelParams, r_bracket: tuple, tol: float = 2e-3) -> CriticalDistanceResult:
    """Bisection for the distance where the boson-exchange peak falls to ZERO_THRESHOLD.

    Refuses brackets reaching into r*Omega/c < 1, where the two peaks
    overlap and the onset classification is meaningless.
    """
    lo, hi = float(r_bracket[0]), float(r_bracket[1])
    if lo * params.omega_cut < 1.0:
        raise AmbiguousPeakError(
            f"bracket low end r = {lo} has r*Omega < 1; peaks unresolvable")
    if _d1_probe(params, lo) <= ZERO_THRESHOLD:
        raise BracketError(f"second peak already gone at r = {lo}")
    if _d1_probe(params, hi) > ZERO_THRESHOLD:
        raise BracketError(f"second peak still present at r = {hi}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _d1_probe(params, mid) > ZERO_THRESHOLD:
            lo = mid
        else:
            hi = mid
    return CriticalDistanceResult(d1=0.5 * (lo + hi), bracket=(lo, hi))


def fit_slope(d0_samples) -> SlopeFit:
    """Least-squares line through the origin for d0 versus 1/Omega.

    Duplicated points change nothing (the normal equations are ratios of
    sums).  The fit is flagged ill-conditioned when the RMS residual
    exceeds 20% of the mean d0.
    """
    pts = np.asarray(list(d0_samples), dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
        raise ValueError("need at least three (1/Omega, d0) samples")
    x, y = pts[:, 0], pts[:, 1]
    slope = float(np.sum(x * y) / np.sum(x * x))
    residual = float(np.sqrt(np.mean((y - slope * x) ** 2)))
    return SlopeFit(slope=slope, residual=residual,
                    ill_conditioned=residual > 0.2 * float(np.mean(np.abs(y))))
