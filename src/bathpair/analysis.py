"""Scientific post-processing: entanglement traces, peaks, critical distances.

The critical distance d0 is a root of the signed margin mu = -log2 lambda~_-
of the asymptotic state (`entanglement.negativity_margin`, E = max(0, mu)):
mu stays smooth where E is clamped to an exact zero, so one bracketed
Brent search (`_brent`) finds it.  The second-peak distance d1 is
bisected against a small positive threshold on the clamped peak height,
above quadrature noise.

Every covariance comes from the channel layers through two calls:
`transient_covariances` (one `greens_time` and one `covariance_time_series`)
at the output times of a trace, and `covariance_asymptotic` for the
late-time E at every r >= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .covariance import covariance_asymptotic, covariance_time_series
from .entanglement import log_negativity, negativity_margin
from .greens import greens_time
from .model import ModelParams

__all__ = [
    "EntanglementTrace",
    "CriticalDistanceResult",
    "SlopeFit",
    "trace",
    "transient_covariances",
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


def _trace_step(params: ModelParams) -> float:
    """The largest Green's-function grid step of a trace: resolves Omega and r."""
    h_max = min(0.01, 0.1 / params.omega_cut)
    if params.distance > 0:
        h_max = min(h_max, max(params.distance / 20.0, 2.5e-3))
    return h_max


def _transient_grid(dt: float, t_max: float, h_max: float):
    """The output times k dt, k = 0..n_out, and a Green's-function grid of
    step dt/2m <= h_max, whose pair grid (step dt/m) holds every one of them.
    The window ends at t_max when t_max is a multiple of dt (to 1e-9
    relative), else at the first step past it."""
    if not (0.0 < t_max < math.inf and 0.0 < dt < math.inf):
        raise ValueError(f"t_max and dt must be positive and finite "
                         f"(got t_max={t_max}, dt={dt})")
    n_out = int(round(t_max / dt))
    if abs(n_out * dt - t_max) > 1e-9 * t_max:
        n_out = int(math.ceil(t_max / dt))
    m = max(1, int(math.ceil(dt / (2.0 * h_max))))
    t_end = n_out * dt
    return np.linspace(0.0, t_end, n_out + 1), np.linspace(0.0, t_end, 2 * m * n_out + 1)


def transient_covariances(params: ModelParams, dt: float, t_max: float, h_max: float,
                          tol: float = 1e-5):
    """(times, covariances) at t = k dt up to the window end of `_transient_grid`:
    one `greens_time` on a grid of step <= h_max whose pair grid holds those
    times, and one `covariance_time_series` at ``tol``."""
    times, grid = _transient_grid(dt, t_max, h_max)
    return times, covariance_time_series(greens_time(grid, params), params, times, tol=tol)


def trace(params: ModelParams, t_max: float, dt: float,
          tol: float = 1e-5) -> EntanglementTrace:
    """E(t) from the two-oscillator ground state on a uniform grid, with
    detected peaks and the asymptote."""
    times, covs = transient_covariances(params, dt, t_max, _trace_step(params), tol)
    values = log_negativity(covs)
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
    """dE/dt at t -> 0+ and T = 0 by the short-time law
    E(t) ~ (4/ln 2) gamma {e^{-r Omega/c} Omega t - a(Omega t) (Omega t)^2}:
    (4/ln 2) gamma Omega e^{-r Omega/c}."""
    return (SHORT_TIME_PREFACTOR * params.gamma * params.omega_cut
            * math.exp(-params.distance * params.omega_cut))


def measured_initial_slope(params: ModelParams) -> float:
    """dE/dt measured from the covariance pipeline: a line through the 10
    points Omega*t = 1e-3 ... 1e-2, on a Green's-function grid of step
    1e-3/(4 Omega)."""
    dt = 1e-3 / params.omega_cut
    times, covs = transient_covariances(params, dt, 10 * dt, dt / 4.0, tol=1e-7)
    return float(np.polyfit(times[1:], log_negativity(covs)[1:], 1)[0])


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


_BRENT_RTOL = 4.0 * np.finfo(float).eps
_BRENT_MAXITER = 100


def _brent(f, a: float, b: float, xtol: float) -> float:
    """A root of f in [a, b], f(a) and f(b) of opposite signs or one zero,
    by Brent's method (R. P. Brent, Algorithms for Minimization without
    Derivatives, 1973, ch. 4): inverse quadratic or secant steps, bisection
    wherever they fall short.  It stops within xtol + 4 eps |x| of the root;
    a NaN value or no convergence in 100 steps raises.  Step for step the
    routine behind `scipy.optimize.brentq`, with its default rtol and
    iteration cap, so it returns the same float.
    """
    if not xtol > 0.0:
        raise ValueError(f"xtol must be positive (got {xtol})")

    def value(x):
        y = f(x)
        if math.isnan(y):
            raise ValueError(f"the function is NaN at x = {x!r}")
        return y

    x_pre, x_cur = float(a), float(b)
    f_pre, f_cur = value(x_pre), value(x_cur)
    if f_pre == 0.0:
        return x_pre
    if f_cur == 0.0:
        return x_cur
    if math.copysign(1.0, f_pre) == math.copysign(1.0, f_cur):
        raise ValueError(f"f({a}) and f({b}) have the same sign")
    x_blk = f_blk = s_pre = s_cur = 0.0
    for _ in range(_BRENT_MAXITER):
        if f_pre != 0.0 and f_cur != 0.0 and (
                math.copysign(1.0, f_pre) != math.copysign(1.0, f_cur)):
            x_blk, f_blk = x_pre, f_pre
            s_pre = s_cur = x_cur - x_pre
        if abs(f_blk) < abs(f_cur):         # keep the best iterate in x_cur
            x_pre, x_cur, x_blk = x_cur, x_blk, x_cur
            f_pre, f_cur, f_blk = f_cur, f_blk, f_cur
        delta = 0.5 * (xtol + _BRENT_RTOL * abs(x_cur))
        s_bis = 0.5 * (x_blk - x_cur)
        if f_cur == 0.0 or abs(s_bis) < delta:
            return x_cur
        if abs(s_pre) > delta and abs(f_cur) < abs(f_pre):
            if x_pre == x_blk:              # secant
                s_try = -f_cur * (x_cur - x_pre) / (f_cur - f_pre)
            else:                           # inverse quadratic
                d_pre = (f_pre - f_cur) / (x_pre - x_cur)
                d_blk = (f_blk - f_cur) / (x_blk - x_cur)
                s_try = (-f_cur * (f_blk * d_blk - f_pre * d_pre)
                         / (d_blk * d_pre * (f_blk - f_pre)))
            if 2.0 * abs(s_try) < min(abs(s_pre), 3.0 * abs(s_bis) - delta):
                s_pre, s_cur = s_cur, s_try
            else:
                s_pre = s_cur = s_bis
        else:
            s_pre = s_cur = s_bis
        x_pre, f_pre = x_cur, f_cur
        x_cur += s_cur if abs(s_cur) > delta else (delta if s_bis > 0.0 else -delta)
        f_cur = value(x_cur)
    raise RuntimeError(f"Brent search not converged in {_BRENT_MAXITER} iterations")


def find_d0(params: ModelParams, r_bracket: tuple | None = None,
            tol: float = 1e-3) -> CriticalDistanceResult:
    """Distance where the asymptotic state turns separable: the root of its
    margin mu(r), by Brent's method (`_brent`) at xtol tol/2, with
    ``bracket`` = d0 -+ tol/2 clipped to the search interval (lo, hi), which
    needs mu(lo) > 0 >= mu(hi).
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
    d0 = _brent(margin, lo, hi, xtol=0.5 * tol)
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
