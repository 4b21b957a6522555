"""The three seeded workloads: inputs made from the seed, one operation each,
and checks on every output made from outside the library.

An operation is a list of requests; each request is one call (or chain of
calls) into the library whose wall time is measured and whose outputs are
checked afterwards.  A request that raises, or whose output fails a check,
is recorded with the exception class ("check" for a failed check).  An
exception class the library defines itself (``TruncationError``,
``UnphysicalCovarianceError``, ...) is the library refusing inputs it cannot
answer: the request is refused, which lowers the answered share.  Anything
else, or an output that fails a check, makes the request failed.  The
scientific outputs are recorded beside the timings and never gated.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np
from scipy.stats import qmc

from bathpair import analysis, covariance, greens, oracle
from bathpair.model import ModelParams

GAMMA, OMEGA = 1.0, 10.0          # the paper's reference bath
ZERO = 1e-8                       # E below this counts as zero (acceptance suite)
PHYSICAL_TOL = 1e-4               # smallest symplectic eigenvalue >= 1 - this
G0_TOL = 1e-6                     # |G(0) - I| bound


class CheckFailed(Exception):
    """An output returned by the library failed the benchmark's own check."""


class BracketSearchError(Exception):
    """The automatic d0 bracket grew past any physical distance."""


@dataclass
class Request:
    kind: str
    inputs: dict
    wall_s: float = 0.0
    error: str | None = None        # exception class, "check" for a failed check
    refused: bool = False           # error is an exception class of the library's own
    detail: str = ""
    outputs: dict = field(default_factory=dict)

    def time(self, fn: Callable, *args, **kwargs):
        """Call into the library, adding the call's wall time to the request."""
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.wall_s += time.perf_counter() - t0


def request(kind: str, inputs: dict, body: Callable[[Request], None]) -> Request:
    req = Request(kind, inputs)
    try:
        body(req)
    except CheckFailed as exc:
        req.error, req.detail = "check", str(exc)
    except Exception as exc:    # the library's failure is the measured outcome
        req.error, req.detail = type(exc).__name__, str(exc)[:300]
        req.refused = type(exc).__module__.split(".")[0] == "bathpair"
    return req


def check(ok, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# checks that do not call the library

_SIGMA = np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]])
_PT = np.diag([1.0, 1.0, 1.0, -1.0])     # flips P2: partial transpose of mode 2


def symplectic_spectrum(c: np.ndarray) -> np.ndarray:
    """Symplectic eigenvalues (each twice, ascending) of a 4x4 covariance in
    (Q1, Q2, P1, P2) order, as moduli of the eigenvalues of i Sigma C."""
    return np.sort(np.abs(np.linalg.eigvals(1j * _SIGMA @ c)))


def check_physical(c: np.ndarray, what: str) -> None:
    check(np.all(np.isfinite(c)), f"{what}: covariance not finite")
    nu = symplectic_spectrum(c)[0]
    check(nu >= 1.0 - PHYSICAL_TOL, f"{what}: smallest symplectic eigenvalue {nu:.8f}")


def log_negativity(c: np.ndarray) -> float:
    """E = -sum log2 of the partial-transpose symplectic eigenvalues below 1."""
    nu = symplectic_spectrum(_PT @ c @ _PT)[::2]
    return float(-np.sum(np.log2(nu[nu < 1.0 - 1e-12])))


# ---------------------------------------------------------------------------
# transient-trace: the paper's Fig.-2 path


T_MAX, DT = 40.0, 0.02


def trace_inputs(seed: int) -> Iterator[ModelParams]:
    """r drawn from [0.20, 0.25]; seed 0 starts at the ROADMAP case r = 0.2."""
    rng = np.random.default_rng(seed)
    first = seed == 0
    while True:
        r = 0.2 if first else float(rng.uniform(0.20, 0.25))
        first = False
        yield ModelParams(gamma=GAMMA, omega_cut=OMEGA, temperature=0.0, distance=r)


def run_trace(params: ModelParams, tracer=None) -> list[Request]:
    def body(req: Request) -> None:
        tr = req.time(analysis.trace, params, t_max=T_MAX, dt=DT)
        v = np.asarray(tr.values, dtype=float)
        req.outputs = {
            "E_max": float(np.max(v)),
            "peaks": [[float(t), float(h)] for t, h in tr.peaks],
            "asymptote": float(tr.asymptote),
        }
        check(v.shape == (round(T_MAX / DT) + 1,), f"E(t) has shape {v.shape}")
        check(np.all(np.isfinite(v)) and np.all(v >= 0.0), "E(t) not finite and >= 0")
        check(math.isfinite(tr.asymptote) and tr.asymptote >= 0.0,
              f"asymptote {tr.asymptote}")

    return [request("trace", {"r": params.distance}, body)]


# ---------------------------------------------------------------------------
# oracle-check: the criterion-9 set-up against the discretized bath

WORST_POINT = (0.0, 0.1)          # (T, r) with the largest max|dC| at seed
OTHER_POINTS = ((0.0, 0.0), (0.0, 0.3), (0.2, 0.0), (0.2, 0.1), (0.2, 0.3))
ORACLE_TIMES = np.arange(0.0, 20.01, 1.0)
G_GRID = np.linspace(0.0, 20.0, 4001)
ORACLE_MODES, ORACLE_OMEGA_MAX = 2000, 265.0


def oracle_inputs(seed: int) -> Iterator[tuple[float, float]]:
    """Alternates the worst-case point with one the seed draws from the rest."""
    rng = np.random.default_rng(seed)
    other = OTHER_POINTS[int(rng.integers(len(OTHER_POINTS)))]
    while True:
        yield WORST_POINT
        yield other


def run_oracle(point: tuple[float, float], tracer=None) -> list[Request]:
    T, r = point
    params = ModelParams(gamma=GAMMA, omega_cut=OMEGA, temperature=T, distance=r)

    def body(req: Request) -> None:
        t0 = req.wall_s
        g = req.time(greens.greens_time, G_GRID, params)
        t1 = req.wall_s
        ours = req.time(covariance.covariance_time_series, g, params, ORACLE_TIMES)
        t2 = req.wall_s
        ref = req.time(oracle.reduced_covariance_series, params, ORACLE_TIMES,
                       n_modes=ORACLE_MODES, omega_max_bath=ORACLE_OMEGA_MAX)
        req.outputs = {"greens_s": t1 - t0, "covariance_s": t2 - t1,
                       "oracle_s": req.wall_s - t2}
        g_values = np.asarray(g.time_values)
        check(np.all(np.isfinite(g_values)), "G(t) not finite")
        g0 = float(np.max(np.abs(g_values[0] - np.eye(4))))
        check(g0 <= G0_TOL, f"|G(0) - I| = {g0:.3e}")
        check(len(ours) == len(ORACLE_TIMES) == len(ref), "wrong number of outputs")
        d_c = d_e = 0.0
        for a, b in zip(ours, ref):
            ca, cb = np.asarray(a.entries), np.asarray(b.entries)
            check_physical(ca, f"pipeline t={a.time_label}")
            check_physical(cb, f"oracle t={b.time_label}")
            d_c = max(d_c, float(np.max(np.abs(ca - cb))))
            d_e = max(d_e, abs(log_negativity(ca) - log_negativity(cb)))
        req.outputs.update(max_dC=d_c, max_dE=d_e, g0_defect=g0)
        if tracer is not None:
            tracer.count("oracle.reduced_covariance_series", "max_dC", d_c)
            tracer.count("oracle.reduced_covariance_series", "max_dE", d_e)

    return [request("oracle_point", {"T": T, "r": r}, body)]


# ---------------------------------------------------------------------------
# critical-distance: d0 searches and the asymptotic parameter box

D0_CASES = tuple((GAMMA, om, T) for T in (0.0, 0.3) for om in (2.0, 5.0, 10.0, 20.0)) + (
    (0.1, OMEGA, 0.0), (10.0, OMEGA, 0.0))
N_POINTS = 256                    # a power of two, as a Sobol sample needs
# ROADMAP parameter box, sampled log-uniformly; a quarter of the points at T = 0
BOX = {"gamma": (0.01, 50.0), "omega_cut": (0.5, 100.0),
       "temperature": (0.01, 10.0), "distance": (1e-4, 20.0)}
T_ZERO_SHARE = 0.25


def box_points(rng: np.random.Generator, n: int) -> list[ModelParams]:
    """Scrambled Sobol sample of the box.  Every axis cut into n strata has
    one point in each, and the joint corners get their share too: the few
    slow points (large gamma, Omega and r together) and the failing share
    stay steady from seed to seed without choosing which points they are."""
    u = qmc.Sobol(d=len(BOX), rng=rng).random(n).T
    cols = {}
    for row, (key, (lo, hi)) in zip(u, BOX.items()):
        if key == "temperature":
            frac = np.clip((row - T_ZERO_SHARE) / (1.0 - T_ZERO_SHARE), 0.0, 1.0)
            vals = np.where(row < T_ZERO_SHARE, 0.0, lo * (hi / lo) ** frac)
        else:
            vals = lo * (hi / lo) ** row
        cols[key] = vals
    return [ModelParams(**{k: float(cols[k][i]) for k in BOX}) for i in range(n)]


def critical_inputs(seed: int):
    """Each round: the fixed d0 cases and a fresh sample of the box."""
    rng = np.random.default_rng(seed)
    while True:
        yield D0_CASES, box_points(rng, N_POINTS)


def _d0_search(params: ModelParams, omega: float):
    """find_d0 with the acceptance suite's automatic bracket."""
    hi = 8.0 / omega
    while analysis.asymptotic_log_negativity(params.with_(distance=hi)) > ZERO:
        hi *= 1.5
        if hi > 1e3:
            raise BracketSearchError(f"asymptotic E still positive at r = {hi}")
    lo = 2.0 / omega
    while lo > 1e-4 and analysis.asymptotic_log_negativity(params.with_(distance=lo)) <= ZERO:
        lo /= 2.0
    return analysis.find_d0(params, r_bracket=(lo, hi), tol=1e-3), (lo, hi)


def run_critical(round_inputs, tracer=None) -> list[Request]:
    cases, points = round_inputs
    out = []
    for gamma, om, T in cases:
        params = ModelParams(gamma=gamma, omega_cut=om, temperature=T)

        def d0_body(req: Request, params=params, om=om) -> None:
            res, (lo, hi) = req.time(_d0_search, params, om)
            req.outputs = {"d0": float(res.d0), "bracket": [lo, hi]}
            check(math.isfinite(res.d0), f"d0 = {res.d0}")
            check(lo <= res.d0 <= hi, f"d0 = {res.d0} outside [{lo}, {hi}]")

        out.append(request("d0_search", {"gamma": gamma, "omega_cut": om,
                                         "temperature": T}, d0_body))
    for params in points:
        def point_body(req: Request, params=params) -> None:
            e = req.time(analysis.asymptotic_log_negativity, params)
            req.outputs = {"E": float(e)}
            check(math.isfinite(e) and e >= 0.0, f"asymptotic E = {e}")

        out.append(request("asymptotic_point", {
            "gamma": params.gamma, "omega_cut": params.omega_cut,
            "temperature": params.temperature, "distance": params.distance},
            point_body))
    return out


WORKLOADS = {
    "transient-trace": (trace_inputs, run_trace),
    "oracle-check": (oracle_inputs, run_oracle),
    "critical-distance": (critical_inputs, run_critical),
}
