"""Transient and asymptotic covariance of the two oscillators.

All noise integration happens in the frequency domain against the bath
spectrum: the time-domain kernel is log-divergent at coincident arguments,
while for every frequency the noise contribution is a positive quadratic
form, absolutely convergent and numerically benign.  The covariance is the
doubled symmetrized moment matrix (vacuum = identity); the spectrum
`kernels.noise_spectrum` already carries that doubling, so quadratic forms
integrate against S(omega)/2.

Both channels run in one pass, as axis 0 of every channel array
(`greens.SIGNS`), sharing S(omega), cos(omega r) and the kernels.

Asymptotic state (gamma > 0, so the initial state is forgotten):

    C_inf = int_0^infty domega (S/2) Herm[ g(omega) M(omega) g(omega)^dag ],

g(omega) the resolvent on the imaginary axis and M the noise structure
matrix (velocity sector, cross entries cos(omega r)).  In channel
coordinates M diagonalizes to weights (1 +- cos(omega r)) and C_inf is
diagonal per channel, which is the form actually integrated.  At r = 0
the relative coordinate decouples and keeps its ground-state block.  The
whole asymptotic path runs on the real closed form of the Drude channel
determinant on the imaginary axis: with E = e^{-Omega r} and
q = Omega^2 + omega^2,

    Re D(i omega) = 1 - omega^2 + 2 gamma Omega [omega^2 (1 +- E) +- Omega omega sin(omega r)] / q,
    Im D(i omega) = 2 gamma Omega^2 omega (1 +- cos(omega r)) / q,

and its exact omega-derivative, analytic, so also the complex roots of D
(`channel_resonances`).  The moment integrand (S/2)(1 +- cos(omega r)) /
((Re D)^2 + (Im D)^2) is summed on 12-point Gauss-Legendre panels
(`frequency_grid`) by one rule, a panel no wider than its distance to the
nearest singularity: each singularity near the real axis, a root
z = a + i b of D, the Drude pole or a pole at omega = 0, gets a ladder of
edges a +- b 2^k, and the rest of the grid is uniform at 2.5/r, which
resolves cos(omega r).  Roots too near the axis for float64 nodes, and
grids or resonance scans past a node budget (at large r or gamma), are
refused.

Transient state:

    C(t) = G(t) C0 G(t)^T + int domega (S/2) Herm[ h M h^dag ],
    h(omega, t) = int_0^t G(u) e^{i omega u} du,

with h summed over the stored G grid by a Filon rule (quadratic
interpolation of G per node pair, oscillatory factor exact).  The noise
integral is then a quadratic form in the per-pair Filon coefficients whose
matrix depends only on the lag between pairs, so a full time series costs
one set of Toeplitz lag kernels and one FFT convolution per channel.  The
lag kernels are Fourier integrals, at the lags 2 m h, of a weight that is
smooth in omega: S(omega) times Filon moments of omega h, with cos(omega r)
taken as a lag shift t -> t +- r.  They are summed by a cubic Filon rule on
a uniform omega grid (Press et al., Numerical Recipes, 3rd ed., sec. 13.9),
all lags at once by one chirp FFT; the grid spacing follows Omega, 1/h and
T, never r or the time span.  Beyond omega_max the integrand is replaced by
its large-frequency expansion and integrated in closed form.

A `CovarianceMatrix` is one 4x4 matrix or an (n, 4, 4) stack with an (n,)
array of times: `covariance_time_series` returns its whole series as one
stack, which `entanglement.log_negativity` takes as it is.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as P

from ._panels import cos_tail, gauss_panels
from .entanglement import _first, require_physical
from .greens import SIGNS, GreensFunction, channel_blocks, channel_kernel_zero, four_by_four
from .kernels import coth, noise_spectrum
from .model import ModelParams

__all__ = [
    "CovarianceMatrix",
    "ground_state_covariance",
    "covariance_asymptotic",
    "asymptotic_omega_max",
    "covariance_time_series",
    "channel_asymptotic_moments",
    "channel_resonances",
    "frequency_grid",
    "TruncationError",
]

_log = logging.getLogger("bathpair")


class TruncationError(RuntimeError):
    """A frequency tail exceeds its tolerance, a resonance is too narrow, or a grid too large."""


@dataclass(frozen=True)
class CovarianceMatrix:
    """One real symmetric 4x4 covariance in ordering (Q1, Q2, P1, P2), or a
    stack (n, 4, 4) of them: a time series is always one stack.

    ``time_label`` is the time a matrix is valid at, or "asymptotic"; for a
    stack it is an (n,) array.  A stack has a length, and integer indexing
    and iteration give its members as 4x4 CovarianceMatrix objects.  Entries
    are symmetrized on construction; gross asymmetry is rejected, naming the
    member of a stack.
    """

    entries: np.ndarray
    time_label: float | str | np.ndarray = 0.0
    # set by `entanglement.require_physical` once every member passed
    physical: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self):
        arr = np.array(self.entries, dtype=float)
        if arr.ndim not in (2, 3) or arr.shape[-2:] != (4, 4):
            raise ValueError(f"covariance must be 4x4 or a stack (n, 4, 4), got {arr.shape}")
        defect = np.abs(arr - arr.swapaxes(-1, -2)).max(axis=(-2, -1))
        asym = defect > 1e-9 * np.maximum(1.0, np.abs(arr).max(axis=(-2, -1)))
        if asym.any():
            i, where = _first(asym)
            raise ValueError(f"covariance asymmetric by {defect[i]:.3e}{where}")
        arr = 0.5 * (arr + arr.swapaxes(-1, -2))
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)
        if arr.ndim == 3:
            labels = np.array(self.time_label, dtype=float)
            if labels.shape != arr.shape[:1]:
                raise ValueError(f"a stack of {len(arr)} needs {len(arr)} times, got {labels.shape}")
            object.__setattr__(self, "time_label", labels)

    def __len__(self) -> int:
        if self.entries.ndim == 2:
            raise TypeError("a single covariance matrix has no length")
        return self.entries.shape[0]

    def __getitem__(self, i):
        len(self)       # a single matrix is not indexable
        out = CovarianceMatrix(entries=self.entries[i], time_label=self.time_label[i])
        object.__setattr__(out, "physical", self.physical)  # members of a checked stack
        return out

    def __iter__(self):
        return (self[i] for i in range(len(self)))


def ground_state_covariance() -> CovarianceMatrix:
    """Both oscillators in their ground state: the identity matrix."""
    return CovarianceMatrix(entries=np.eye(4), time_label=0.0)


ASYMPTOTIC_TOL = 1e-6    # frequency-tail tolerance of the asymptotic covariance


# ---------------------------------------------------------------------------
# frequency grids


def _channel_trig(omega, r: float, sign):
    """(1 +- cos(omega r), +-sin(omega r)) of the channels ``sign``, from one
    cos and one sin of the half angle: 1 - cos(omega r) = 2 sin^2(omega r/2)
    keeps its digits at small omega r, where the antisymmetric channel's
    damping and noise weight are ~ (omega r)^2."""
    c, s = np.cos(0.5 * r * omega), np.sin(0.5 * r * omega)
    return 2.0 * np.where(sign > 0, c * c, s * s), 2.0 * sign * (s * c)


def _noise_weight(omega, params: ModelParams, sign, trig=None):
    """Per-frequency quadratic-form weight (S/2) * (1 +- cos(omega r));
    ``trig`` is `_channel_trig` of the same frequencies, when already at hand."""
    omega = np.asarray(omega, dtype=float)
    one_cos, _ = _channel_trig(omega, params.distance, sign) if trig is None else trig
    return 0.5 * noise_spectrum(omega, params) * one_cos


def _det_parts(omega, params: ModelParams, sign, trig, slope: bool = False):
    """(Re D, Im D) of the channel determinant D(i omega), by the real closed
    form of the module docstring, and with ``slope`` also the exact
    d Re D / d omega and d Im D / d omega; ``trig`` is `_channel_trig` of the
    same frequencies.  Im D = omega Re Gamma^(i omega) is the channel damping
    at omega.
    """
    g, Om, r = params.gamma, params.omega_cut, params.distance
    one_cos, pm_sin = trig
    one_e = np.where(sign > 0, 1.0 + math.exp(-Om * r), -math.expm1(-Om * r))
    q = Om * Om + omega * omega
    num = omega * (omega * one_e + Om * pm_sin)
    re = (1.0 - omega) * (1.0 + omega) + 2.0 * g * Om * num / q   # exact 1 - omega near 1
    im = 2.0 * g * Om * Om * omega * one_cos / q
    if not slope:
        return re, im
    # d/d omega of +-sin(omega r) is r (+-cos(omega r)) = r (one_cos - 1),
    # and of one_cos it is -r (+-sin(omega r))
    d_num = 2.0 * omega * one_e + Om * (pm_sin + omega * r * (one_cos - 1.0))
    d_im = one_cos - omega * r * pm_sin - 2.0 * omega * omega * one_cos / q
    return (re, im, -2.0 * omega + 2.0 * g * Om * (d_num - 2.0 * omega * num / q) / q,
            2.0 * g * Om * Om * d_im / q)


def _tail_prefactor(params: ModelParams) -> float:
    """Large-frequency coefficient of the weight: (S/2) -> w_inf / omega."""
    return 4.0 * params.gamma * params.omega_cut**2 / math.pi


_REACH = 2.5          # / r: the widest panel resolving cos(omega r), and the root search's reach
_NEWTON_MAX = 40      # complex Newton steps; an iterate not converged by then is dropped


def _scan_span(params: ModelParams):
    """(step, top) of the scan of `channel_resonances`: uniform at the step
    below top, and on to 2 top at 4 steps, 1.25 top / step nodes per channel."""
    return min(0.01, math.pi / (10.0 * (params.distance + 1.0))), 3.0 + 3.0 * params.gamma


def channel_resonances(params: ModelParams, sign):
    """Every near-axis singularity of the moment integrand of the channels
    ``sign`` (+1, -1 or a column such as `SIGNS`), as one record of arrays:
    (row, centre, distance, slope), row the channel's index in ``sign``, a
    singularity at distance b from omega = a = centre, and slope |D'| at a
    root of D, 0 elsewhere.  The roots z of D(i z), Im z >= 0, are listed
    as (Re z, Im z, |dD/d omega|).  Every interior local minimum of the
    Newton distance |D / D'| within `_REACH` / r, on a scan uniform below
    3 + 3 gamma and on to twice that at 4 times the step (a channel with
    none: the roots of a small-r quartic), seeds a complex Newton iteration
    on the analytic closed form of `_det_parts`.  A step below
    sqrt(eps) (1 + |z|), which leaves an error ~ step^2, ends it; an iterate
    that leaves |Im z| <= `_REACH` / r or has not ended in `_NEWTON_MAX`
    steps is dropped.  Mirror roots -conj(z) are folded onto Re z >= 0 and
    copies merged.  Im z has no floor: the antisymmetric root near omega = 1
    leaves the axis as r^2 as r -> 0+.  Per channel, the record also lists
    the Drude pole, (0, Omega), and at omega = 0 the nearer of the poles of
    coth(omega/2T) at 2 pi T and, for a channel with no root on the
    imaginary axis (to the stopping step), a stand-in 1/(4 gamma) for its
    symmetric peak; a root on the axis nearer than both leaves no entry.
    """
    rows = np.reshape(np.asarray(sign, dtype=float), (-1, 1))
    r = params.distance
    reach = _REACH / max(r, 1e-9)
    step, top = _scan_span(params)
    grid = np.concatenate([np.arange(step, top, step), np.arange(top, 2.0 * top, 4.0 * step)])
    re, im, d_re, d_im = _det_parts(grid, params, rows, _channel_trig(grid, r, rows), slope=True)
    # a node with D' = 0 counts as far from every root
    size, turn = re * re + im * im, d_re * d_re + d_im * d_im
    newton = np.divide(size, turn, out=np.full_like(size, np.inf), where=turn > 0)
    low = ((newton[:, 1:-1] < newton[:, :-2]) & (newton[:, 1:-1] <= newton[:, 2:])
           & (newton[:, 1:-1] <= reach**2))
    row, node = np.nonzero(low)
    node += 1       # the scan's D and D' give each seed its first Newton step
    z = grid[node] - (re[row, node] + 1j * im[row, node]) / (d_re[row, node] + 1j * d_im[row, node])
    # a strongly damped channel's roots can be as deep as they are far out,
    # with no minimum on the axis; at small r they are near those of the
    # quartic (s^2 - Omega^2) D(s) with e^{-s r} ~ 1 - s r, s = i z, which
    # seed such a channel: the eigenvalues of its companion matrix
    bare = np.setdiff1d(np.arange(len(rows)), row)
    if bare.size:
        g, Om, sg = 2.0 * params.gamma * params.omega_cut, params.omega_cut, rows[bare, 0]
        companion = np.zeros((bare.size, 4, 4))
        companion[:, 1:, :3] = np.eye(3)
        companion[:, 0, 1] = Om * Om - 1.0 - g * (1.0 + sg * (math.exp(-Om * r) + Om * r))
        companion[:, 0, 2:] = np.column_stack([g * Om * (1.0 + sg), np.full(bare.size, Om * Om)])
        q = -1j * np.linalg.eigvals(companion)
        # one of each mirror pair; Newton from the imaginary axis stays on it,
        # where a root deeper than the Drude pole is never the nearer singularity
        seed = (q.real >= 0.0) & (q.imag > 0.0) & ((q.real > 0.0) | (q.imag < Om))
        row, z = np.concatenate([row, bare[np.nonzero(seed)[0]]]), np.concatenate([z, q[seed]])
    at = np.flatnonzero(np.abs(z.imag) <= reach)       # the iterates still running
    za, sa, slope = z[at], rows[row[at], 0], np.zeros(z.size)
    with np.errstate(all="ignore"):         # a diverging iterate overflows, and is dropped
        for _ in range(_NEWTON_MAX):
            re, im, d_re, d_im = _det_parts(za, params, sa, _channel_trig(za, r, sa), slope=True)
            d = d_re + 1j * d_im
            step = (re + 1j * im) / d
            za = za - step
            done = np.abs(step) <= np.sqrt(np.finfo(float).eps) * (1.0 + np.abs(za))
            z[at[done]], slope[at[done]] = za[done], np.abs(d[done])
            run = ~done & (np.abs(za.imag) <= reach)
            at, za, sa = at[run], za[run], sa[run]
            if not at.size:
                break
    # below the axis (Re s > 0) D has no root, and the closed form cancels
    # exponentially large terms: an iterate that ends there diverged
    found = np.flatnonzero((slope > 0) & (z.imag >= 0.0))
    z = np.abs(z[found].real) + 1j * z[found].imag
    order = np.lexsort((z.imag, z.real, row[found]))
    row, z, slope = row[found][order], z[order], slope[found][order]
    # copies of one root agree well within the stopping step sqrt(eps) (1 + |z|)
    copy = (row[1:] == row[:-1]) & (np.abs(z[1:] - z[:-1])
                                    <= np.sqrt(np.finfo(float).eps) * (1.0 + np.abs(z[1:])))
    row, z, slope = (v[np.append(True, ~copy)[:z.size]] for v in (row, z, slope))

    # a root on the imaginary axis is the symmetric peak itself
    axis = [math.inf] * len(rows)           # per channel, its nearest root on the axis
    on_axis = np.flatnonzero(z.real <= np.sqrt(np.finfo(float).eps) * (1.0 + np.abs(z)))
    for i, b in zip(row[on_axis].tolist(), z.imag[on_axis].tolist()):
        axis[i] = min(axis[i], b)
    stand_in = 0.25 / params.gamma if params.gamma > 0 else math.inf
    thermal = 2.0 * math.pi * params.temperature or math.inf
    at_zero, width = [], []
    for i, a in enumerate(axis):
        b = min(thermal, stand_in if a == math.inf else math.inf)
        if b < a:
            at_zero.append(i)
            width.append(b)
    return (np.concatenate([row, np.arange(len(rows)), np.array(at_zero, dtype=row.dtype)]),
            np.concatenate([z.real, np.zeros(len(rows) + len(width))]),
            np.concatenate([z.imag, np.full(len(rows), params.omega_cut), width]),
            np.concatenate([slope, np.zeros(len(rows) + len(width))]))


_MIN_SPACINGS = 1e4   # resonance half-widths resolved, in float spacings, weighted by area
_MAX_NODES = 20_000_000   # uniform grid nodes at 2.5 / r, or scan nodes: 320 MB of grid nodes and weights


def _require_resolvable(params: ModelParams, resonances) -> None:
    """Log the narrowest root of the `channel_resonances` record
    ``resonances`` at DEBUG, and raise `TruncationError` for a channel whose
    roots z = omega_r + i w have sum A spacing(omega_r) / w > sum A / `_MIN_SPACINGS`.
    It reads only the roots off the imaginary axis (the entries with a slope
    and omega_r > 0), whose Lorentzian areas A the bound weighs.
    A node off by two ulps of omega_r moves the area A of a Lorentzian of
    half-width w by up to (4/pi) eps omega_r / w of it (total variation 2/w^2
    over area pi/w); A = 2 coth(omega_r/2T) / |D'(z)| in alpha, the weight
    over Im D being (2/pi) coth(omega/2T).  So a lone resonance (the
    antisymmetric one as r -> 0+, width ~ r^2) is refused below 1e4
    spacings, a narrow one among the many at large r only where it carries
    their area.  A channel with no root is accepted."""
    row, om, width, slope = (v[(resonances[3] > 0) & (resonances[1] > 0)] for v in resonances)
    if not row.size:
        return
    T = params.temperature
    area = (coth(om / (2.0 * T)) if T > 0 else 1.0) / slope
    with np.errstate(divide="ignore", over="ignore"):   # Im z -> 0 as r -> 0+; Re z can be tiny
        spacings = width / np.spacing(om)
        blur = area / spacings
    i = int(np.argmin(spacings))
    _log.debug("narrowest resonance: omega_r %.17g, half-width %.6g, %.3g float spacings",
               om[i], width[i], spacings[i])
    for channel in np.unique(row):
        mine = row == channel
        if blur[mine].sum() * _MIN_SPACINGS > area[mine].sum():
            i = np.flatnonzero(mine)[np.argmax(blur[mine])]
            raise TruncationError(
                f"resonance at omega_r = {float(om[i])!r}, half-width {width[i]:.3e} "
                f"({spacings[i]:.3g} float spacings, {area[i] / area[mine].sum():.3g} of its "
                f"channel's area), is too narrow for the frequency grid to resolve")


def frequency_grid(params: ModelParams, omega_max: float):
    """Gauss-Legendre panel grid (12 nodes per panel) on [0, omega_max] for
    the asymptotic noise integrals, by one rule: no panel wider than its
    distance to the nearest singularity of the integrand (Trefethen,
    Approximation Theory and Approximation Practice, ch. 19).

    Each entry (a, b) of the `channel_resonances` record, a singularity a
    distance b from omega = a (at r = 0 the symmetric channel's only, the
    antisymmetric weight vanishing), gets the edges a and a +- b 2^k,
    k = -1, 0, 1, ... below min(2.5/r, omega_max): panels that grow with
    their distance from it, so that the 12-point rule sees a Lorentzian as
    smooth however small b is, down to float spacing (`_require_resolvable`).
    The rest of [0, omega_max] is uniform at 2.5/r, which keeps the
    retardation oscillation cos(omega r) resolved.  As r -> 0 that leaves
    the ladders alone, which grade the grid geometrically out to omega_max.

    At large r the node count grows like omega_max r, to 1.7e7 at
    (1, 10, 0, 1e4).  The resonance scan's 1.25 (3 + 3 gamma) / step nodes
    per channel (`_scan_span`) grow with gamma, and with r through the step
    pi / (10 (r + 1)) below 0.01.  Where the uniform panels, 12 omega_max r
    / 2.5 nodes, or the scan pass the budget `_MAX_NODES` (2e7 nodes, 320 MB
    of grid nodes and weights), the point is refused with `TruncationError`
    before either is made.
    """
    r, channels = params.distance, SIGNS if params.distance > 0 else SIGNS[:1]
    osc = _REACH / max(r, 1e-9)
    step, top = _scan_span(params)
    for what, nodes in (("asymptotic frequency grid", 12.0 * omega_max / osc),
                        (f"resonance scan to omega = {2.0 * top:.3g}",
                         len(channels) * 1.25 * top / step)):
        if nodes > _MAX_NODES:
            raise TruncationError(f"the {what} at r = {r!r} needs about {nodes:.3g} nodes, "
                                  f"past the budget of {_MAX_NODES:.3g}")
    found = channel_resonances(params, channels)
    _require_resolvable(params, found)
    _, centre, width, _ = found
    reach = min(osc, omega_max)
    ladder = width[:, None] * 2.0 ** np.arange(-1.0, math.log2(reach / width.min()))
    short = ladder < reach
    edges = np.concatenate([np.linspace(0.0, omega_max, math.ceil(omega_max / osc) + 1),
                            (centre[:, None] + ladder)[short], (centre[:, None] - ladder)[short],
                            centre])
    return gauss_panels(np.unique(np.clip(edges, 0.0, omega_max)))


# ---------------------------------------------------------------------------
# asymptotic covariance


def _tail_coefficient(params: ModelParams, sign):
    """Bound on the dropped-order coefficient of the beta integrand.

    At large omega, (S/2) = (w_inf/omega)(1 - Omega^2/omega^2 + ...) and
    Re D(i omega) = -omega^2 + 1 + K(0) + O(1/omega), with K(0) the
    channel kernel at t = 0, so

        (S/2) omega^2 / |D|^2 = (w_inf/omega^3) (1 + c/omega^2 + O(omega^-3)),
        c = 2 (1 + K(0)) - Omega^2.

    The two parts of c are bounded separately, so that an accidental
    cancellation between the Drude and the kernel term cannot hide the
    next order.
    """
    return 2.0 * (1.0 + channel_kernel_zero(params, sign)) + params.omega_cut**2


def _asymptotic_tail_error(params: ModelParams, sign, omega_max: float):
    """Bound on what the closed-form tail of `channel_asymptotic_moments`
    drops from beta (alpha's share is smaller by 1/omega_max^2).

    Two parts, each with 1 +- cos(omega r) <= 2: the next order of the
    large-omega expansion (`_tail_coefficient`), and at T > 0 the thermal
    excess coth(omega/2T) - 1 that the tail sets to zero, bounded by its
    value at omega_max.
    """
    w_inf = _tail_prefactor(params)
    err = 2.0 * w_inf * _tail_coefficient(params, sign) * cos_tail(0.0, omega_max, 5)
    if params.temperature > 0:
        excess = coth(omega_max / (2.0 * params.temperature)) - 1.0
        err += 2.0 * w_inf * excess * cos_tail(0.0, omega_max, 3)
    return err


def asymptotic_omega_max(params: ModelParams, tol: float) -> float:
    """Frequency cut of the asymptotic noise integrals for tolerance ``tol``.

    Inverts the tail estimate of `channel_asymptotic_moments` for both
    channels, with a floor of 15 max(Omega, 1) so that the large-omega
    expansion the tail rests on holds.  The expansion part,
    w_inf c / (2 omega_max^4) <= tol, is inverted in closed form; the cut
    is then raised in 5 % steps until the thermal part fits as well.
    """
    c = float(np.max(_tail_coefficient(params, SIGNS)))
    need = (_tail_prefactor(params) * c / (2.0 * tol)) ** 0.25 * (1.0 + 1e-9)  # rounding margin
    omega_max = float(max(15.0 * max(params.omega_cut, 1.0), need))
    while np.max(_asymptotic_tail_error(params, SIGNS, omega_max)) > tol:
        omega_max *= 1.05
    return omega_max


_BLOCK = 1 << 15    # grid nodes per vectorized step of the channel integrals


def channel_asymptotic_moments(params: ModelParams, sign,
                               omega_max: float, tol: float, grid=None):
    """Stationary (position, velocity) variances of the channels ``sign``
    (+1, -1, or a column such as `SIGNS`, giving (2,) arrays).

    Returns (alpha, beta, tail_error_estimate), the last the largest over
    the channels.  The weight of the noise quadratic form against
    |col_2 of g|^2 gives exactly diag(1, omega^2) after taking the
    Hermitian part, so both moments are single integrals of
    weight / |D(i omega)|^2, in real arithmetic: the integrand is
    (S/2)(1 +- cos(omega r)) / ((Re D)^2 + (Im D)^2), the weight and the
    closed form of `_det_parts` sharing one `_channel_trig` per node.
    ``grid`` is a `frequency_grid` on [0, omega_max] (built here when not
    given); it is summed in blocks of nodes, so memory stays flat however
    many nodes it has.  Beyond omega_max the integrand's leading
    w_inf (1 +- cos(omega r)) / omega^3 term is integrated in closed form;
    `_asymptotic_tail_error` bounds what that drops.
    """
    sign = np.asarray(sign, dtype=float)
    r = params.distance
    x, w = frequency_grid(params, omega_max) if grid is None else grid
    alpha = beta = 0.0
    for lo in range(0, x.size, _BLOCK):
        xb = x[lo:lo + _BLOCK]
        trig = _channel_trig(xb, r, sign)
        re, im = _det_parts(xb, params, sign, trig)
        core = w[lo:lo + _BLOCK] * _noise_weight(xb, params, sign, trig) / (re * re + im * im)
        alpha = alpha + np.sum(core, axis=-1)
        beta = beta + np.sum(core * xb * xb, axis=-1)

    w_inf = _tail_prefactor(params)
    row = sign.reshape(np.shape(alpha))         # one sign per moment
    alpha += w_inf * (cos_tail(0.0, omega_max, 5) + row * cos_tail(r, omega_max, 5))
    beta += w_inf * (cos_tail(0.0, omega_max, 3) + row * cos_tail(r, omega_max, 3))
    tail_err = float(np.max(_asymptotic_tail_error(params, sign, omega_max)))
    if tail_err > tol:
        raise TruncationError(
            f"asymptotic tail estimate {tail_err:.3e} > tol {tol:.3e}; "
            f"raise omega_max (currently {omega_max})")
    return alpha, beta, tail_err


def covariance_asymptotic(params: ModelParams) -> CovarianceMatrix:
    """Stationary covariance; requires gamma > 0 and r >= 0.

    Both channels come from one `channel_asymptotic_moments` call on one
    frequency grid.  At r = 0 the relative coordinate decouples and never
    forgets its initial state: only the symmetric row is integrated, and
    the antisymmetric block keeps its ground-state value, the identity.
    The frequency cut is `asymptotic_omega_max(params, ASYMPTOTIC_TOL)`:
    the smallest cut whose tail estimate meets ``ASYMPTOTIC_TOL``, and at
    least 15 max(Omega, 1).  A T at or below `_THERMAL_FLOOR` Omega, whose
    thermal excess is below rounding, is taken as T = 0.  The grid's
    omega_max, node count and tail estimate are logged at DEBUG on the
    "bathpair" logger.
    """
    if params.gamma <= 0:
        raise ValueError("covariance_asymptotic requires gamma > 0")
    if params.distance < 0:
        raise ValueError("covariance_asymptotic requires r >= 0")
    if params.temperature <= _THERMAL_FLOOR * params.omega_cut:
        params = params.with_(temperature=0.0)      # as in `_lag_kernels`
    omega_max = asymptotic_omega_max(params, ASYMPTOTIC_TOL)
    grid = frequency_grid(params, omega_max)
    damped = SIGNS if params.distance > 0 else SIGNS[:1]
    alpha, beta, tail_err = channel_asymptotic_moments(params, damped, omega_max,
                                                       ASYMPTOTIC_TOL, grid)
    _log.debug("asymptotic grid for %s: omega_max %.6g, %d nodes, tail estimate %.3e",
               params, omega_max, grid[0].size, tail_err)
    blocks = np.array([np.eye(2), np.eye(2)])   # the ground state where not integrated
    blocks[:len(damped), 0, 0] = alpha
    blocks[:len(damped), 1, 1] = beta
    c4 = four_by_four(*blocks)
    out = CovarianceMatrix(entries=c4, time_label="asymptotic")
    require_physical(out)
    return out


# ---------------------------------------------------------------------------
# transient covariance


def _filon_base(theta: np.ndarray):
    """Filon moments for a quadratic through three equispaced samples.

    With theta = omega*h, the pair integral over [a, a+2h] is
    e^{i omega (a+h)} * h * (2 f1 s0 + i (f2 - f0) p1 + (f0 - 2 f1 + f2) s2).
    Small-theta branches keep full precision.
    """
    theta = np.asarray(theta, dtype=float)
    small = np.abs(theta) < 5e-2
    th = np.where(small, 1.0, theta)
    s, c = np.sin(th), np.cos(th)
    t2 = theta * theta
    s0 = np.where(small, 1.0 - t2 / 6.0 + t2 * t2 / 120.0, s / th)
    p1 = np.where(small, theta / 3.0 - t2 * theta / 30.0 + t2 * t2 * theta / 840.0,
                  (s - th * c) / (th * th))
    s2 = np.where(small, 1.0 / 3.0 - t2 / 10.0 + t2 * t2 / 168.0,
                  ((th * th - 2.0) * s + 2.0 * th * c) / (th**3))
    return s0, p1, s2


def _sin_tail4(a, W: float):
    """int_W^inf sin(a w)/w^4 dw (odd in a); vectorized over a."""
    a = np.asarray(a, dtype=float)
    b = np.abs(a)
    out = np.sign(a) * (np.sin(b * W) / (3 * W**3) + (b / 3.0) * cos_tail(b, W, 3))
    return out if out.ndim else float(out)


def _channel_noise_tail(params: ModelParams, W: float, t,
                        g12, g22, dg12, dg22) -> np.ndarray:
    """Closed-form frequency tail of the transient noise blocks beyond W.

    Built from the by-parts expansion h_col = X/(i omega) + Y/omega^2 of the
    accumulated oscillatory integrals; only even (cos) and odd (sin) tail
    moments of the weight survive.  Accurate to O(|G'|^2 / W^4).  ``t`` is
    the (Nt,) output times and the G samples are (2, Nt), one row per
    channel of `SIGNS`; returns (2, Nt, 2, 2).
    """
    r = params.distance
    w_inf = _tail_prefactor(params)

    def cc(a):
        return cos_tail(a, W, 3) + SIGNS * 0.5 * (cos_tail(a - r, W, 3) + cos_tail(a + r, W, 3))

    def ss(a):
        return _sin_tail4(a, W) + SIGNS * 0.5 * (_sin_tail4(a - r, W) + _sin_tail4(a + r, W))

    c_0, c_t, s_t = cc(0.0), cc(t), ss(t)
    out = np.empty(np.shape(g12) + (2, 2))
    out[..., 0, 0] = w_inf * (g12 * g12 * c_0 - 2.0 * g12 * s_t)
    out[..., 0, 1] = out[..., 1, 0] = w_inf * (g12 * g22 * c_0 - g12 * c_t
                                              + (dg12 - g22) * s_t)
    out[..., 1, 1] = w_inf * ((1.0 + g22 * g22) * c_0 - 2.0 * g22 * c_t
                              + 2.0 * dg22 * s_t)
    return out


def _moment_rows(omega, h: float) -> np.ndarray:
    """The six products of Filon moments at omega h that the noise form
    weighs: (s0^2, s0 s2, s2^2, p1^2, p1 s0, p1 s2), shape (6,) + omega.shape."""
    s0, p1, s2 = _filon_base(omega * h)
    return np.stack([s0 * s0, s0 * s2, s2 * s2, p1 * p1, p1 * s0, p1 * s2])


# Endpoint weights of the cubic Filon rule (Press et al., Numerical Recipes,
# 3rd ed., sec. 13.9), written as
#     d_j theta^4 alpha_j(theta) = P_j(theta) + (6 + theta^2) sum_k c_jk e^{i k theta}
# with P_j a cubic; the first four Taylor orders cancel between the two parts.
_ALPHA_DEN = np.array([6.0, 6.0, 3.0, 6.0])
_ALPHA_POLY = np.array([[-42, -12j, 5, 6j], [42, 30j, -14, 0],
                        [-12, -12j, 4, 0], [6, 6j, -2, 0]])          # ascending powers
_ALPHA_FREQ = np.array([1, -1, -2])
_ALPHA_EXP = np.array([[4.0, 4.0, -1.0], [-6.0, -1.0, 0.0], [2.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
_SERIES_BELOW = 1.0   # |theta| below this takes the series; the closed form loses eps/theta^4


def _alpha_series(n_terms: int) -> np.ndarray:
    """Taylor coefficients (4, n_terms), ascending, of alpha_0..alpha_3.  With
    e_n those of sum_k c_jk e^{i k theta}, theta^m in alpha_j has
    (6 e_{m+4} + e_{m+2}) / d_j; 26 terms reach rounding level at |theta| = 1."""
    n = np.arange(n_terms + 4)
    factorial = np.cumprod(np.maximum(n, 1).astype(float))
    e = _ALPHA_EXP @ ((1j * _ALPHA_FREQ[:, None]) ** n / factorial)
    return (6.0 * e[:, 4:] + e[:, 2:-2]) / _ALPHA_DEN[:, None]


_ALPHA_SERIES = _alpha_series(26)


def _filon_weights(theta):
    """Cubic Filon weights W(theta) and alpha_0..alpha_3(theta) at real theta
    of either sign: W has theta's shape, alpha is (4,) + theta.shape.

    W = (1 + theta^2/6) (sin(theta/2) / (theta/2))^4 is stable as written;
    alpha_j takes its Taylor series below |theta| = `_SERIES_BELOW` and the
    closed form above.
    """
    theta = np.asarray(theta, dtype=float)
    w = (1.0 + theta * theta / 6.0) * np.sinc(theta / (2.0 * math.pi)) ** 4
    flat = theta.ravel()
    small = np.abs(flat) < _SERIES_BELOW
    alpha = np.empty((4, flat.size), dtype=complex)
    alpha[:, small] = P.polyval(flat[small], _ALPHA_SERIES.T)
    th = flat[~small]
    alpha[:, ~small] = ((P.polyval(th, _ALPHA_POLY.T)
                         + (6.0 + th * th) * (_ALPHA_EXP @ np.exp(1j * _ALPHA_FREQ[:, None] * th)))
                        / (_ALPHA_DEN[:, None] * th**4))
    return w, alpha.reshape((4,) + theta.shape)


def _next_fast_len(n: int, real: bool = False) -> int:
    """The smallest length >= n whose prime factors are all 2, 3 and 5 (``real``)
    or 2 to 11: the lengths that numpy's FFT (pocketfft) factors fastest, and
    the same number as `scipy.fft.next_fast_len`."""
    odd = [1]               # the odd smooth m < 2n: the answer is one of them times 2^k
    for p in (3, 5) if real else (3, 5, 7, 11):
        grown = []
        for m in odd:
            while m < 2 * n:
                grown.append(m)
                m *= p
        odd = grown
    return min(m << (-(-n // m) - 1).bit_length() for m in odd)


def _zoom_dft(g: np.ndarray, period: int, m_lo: int, n_out: int) -> np.ndarray:
    """sum_k g[..., k] e^{2 pi i k m / period} for m = m_lo, ..., m_lo + n_out - 1.

    Bluestein's chirp transform: k m = (k^2 + m^2 - (m - k)^2) / 2 turns the
    sum into one FFT convolution of length n_nodes + n_out - 1 (rounded up to
    a fast length), whatever the period.  The chirp phases pi j^2 / period are
    reduced modulo 2 pi in integers, so they are exact at every j; a period
    beyond every j^2 needs no reduction, and may exceed the integer range.
    """
    n_nodes = g.shape[-1]
    n_fft = _next_fast_len(n_nodes + n_out - 1)

    def chirp(j):
        jj = j * j
        if 2 * period <= jj.max():
            jj %= 2 * period
        return np.exp(1j * (math.pi / period) * jj)

    kernel = np.conj(chirp(np.arange(m_lo - n_nodes + 1, m_lo + n_out)))
    conv = np.fft.ifft(np.fft.fft(g * chirp(np.arange(n_nodes)), n_fft)
                       * np.fft.fft(kernel, n_fft), n_fft)
    return chirp(np.arange(m_lo, m_lo + n_out)) * conv[..., n_nodes - 1:n_nodes - 1 + n_out]


def _fourier_part(spectrum, end: float, dw_max: float, h: float, n_lags: int,
                  shifts, first_lag: int) -> np.ndarray:
    """Fourier integrals of spectrum rows against the six Filon-moment rows,
    at the lags first_lag <= m < n_lags: (n_shifts, 6, n_lags - first_lag)
    complex,

        J[s, :, i] = int_0^end (spectrum(omega)[s]/2) F(omega h) e^{i omega tau} d omega,
        tau = 2 m h + shifts[s],  m = first_lag + i,

    with F = `_moment_rows` and ``spectrum`` giving one row per shift.  The
    nodes omega_k = k dw are uniform, dw = pi / (h period) <= dw_max for an
    integer period, so that lag m's phase is e^{2 pi i k m / period} times
    the exact prephase e^{i omega_k shift}: all lags of a row come from one
    `_zoom_dft`, and a shift costs no resolution in omega.  Cubic Filon rule
    with endpoint corrections (Press et al., Numerical Recipes, 3rd ed.,
    sec. 13.9) at theta = dw tau; the sliver past the last node, narrower
    than dw, is one Gauss panel.
    """
    period = math.ceil(math.pi / (h * dw_max))
    dw = math.pi / (h * period)
    n = math.ceil(end / dw) - 1
    omega = dw * np.arange(n + 1)
    f = 0.5 * spectrum(omega)[:, None] * _moment_rows(omega, h)          # (n_shifts, 6, n + 1)
    shifts = np.asarray(shifts, dtype=float)[:, None]
    tau = 2.0 * h * np.arange(first_lag, n_lags) + shifts               # (n_shifts, n_out)
    theta = dw * tau
    w, alpha = _filon_weights(theta)
    out = w[:, None] * _zoom_dft(f * np.exp(1j * omega * shifts)[:, None], period,
                                 first_lag, n_lags - first_lag)
    out += f[..., :4] @ alpha.swapaxes(0, 1)
    out += (f[..., n - np.arange(4)] @ alpha.conj().swapaxes(0, 1)) * np.exp(1j * n * theta)[:, None]
    out *= dw
    xs, ws = gauss_panels([n * dw, end])
    fs = 0.5 * ws * spectrum(xs)[:, None] * _moment_rows(xs, h)
    return out + fs @ np.exp(1j * xs[:, None] * tau[:, None])


_NODES_PER_SCALE = 400    # uniform nodes per smoothness scale of the spectrum
_FOLD_BELOW = 0.4         # r min(Omega, 1/h) below this: cos(omega r) stays in the weight
_THERMAL_CUT = 40.0       # coth(omega/2T) - 1 < 1e-17 beyond omega = 40 T
_THERMAL_FLOOR = 1e-9     # T / Omega below this, the thermal excess is below rounding


def _lag_kernels(params: ModelParams, h: float, n_lags: int, omega_max: float) -> np.ndarray:
    """Toeplitz lag kernels of the Filon noise form, one set per channel of `SIGNS`.

    Returns (2, 6, n_lags): for lags m < n_lags, the integrals over
    [0, omega_max] of (S/2)(1 +- cos omega r) times {s0^2, s0 s2, s2^2, p1^2}
    cos(2 m h omega) and {p1 s0, p1 s2} sin(2 m h omega), (s0, p1, s2) the
    Filon moments at omega h.

    The node spacing is a fixed fraction, 1/`_NODES_PER_SCALE`, of the
    shortest scale on which S (Omega, and 2 pi T) or the moments (1/h) vary,
    never of the time span.  Nor of r: where cos(omega r) would advance by
    more than `_FOLD_BELOW` / `_NODES_PER_SCALE` = 1e-3 per node, it becomes a
    lag shift, cos(omega r) e^{i omega t} = (e^{i omega (t + r)} + e^{i omega (t - r)}) / 2.
    Below that it stays in the weight, as 2 (cos^2, sin^2)(omega r / 2), which
    carries the antisymmetric channel's ~r^2 without the cancellation of a
    difference of shifted lags.  S is split into its T = 0 part on
    [0, omega_max] and, at T > 0, the thermal excess S_0 (coth(omega/2T) - 1),
    which lives below 40 T, on its own finer grid; so the node count stays
    bounded as T -> 0+.  At r = 0 only the symmetric row is transformed: the
    antisymmetric one carries no noise and is zero.  Unshifted rows need
    only the lags m >= 0; the shifted one also needs m < 0, for J(-tau), and
    is transformed on its own.
    """
    r, Om, T = params.distance, params.omega_cut, params.temperature
    scale = min(Om, 1.0 / h)
    cold = params.with_(temperature=0.0)
    fold = r * scale < _FOLD_BELOW
    # at r = 0 the antisymmetric weight 2 sin^2(omega r / 2) is zero, and so is its row
    n_rows = 2 if r > 0 else 1

    parts = [(lambda w: noise_spectrum(w, cold), omega_max, scale)]
    if T > _THERMAL_FLOOR * Om:
        parts.append((lambda w: noise_spectrum(w, params) - noise_spectrum(w, cold),
                      min(omega_max, _THERMAL_CUT * T), min(scale, 2.0 * math.pi * T)))

    def transform(shifts, first_lag):
        def rows(spectrum):        # one row per shift, with cos(omega r) in the weight if folded
            if fold:
                return lambda w: 2.0 * spectrum(w) * np.stack(
                    [np.cos(0.5 * w * r), np.sin(0.5 * w * r)][:len(shifts)]) ** 2
            return lambda w: np.broadcast_to(spectrum(w), (len(shifts),) + np.shape(w))
        return sum(_fourier_part(rows(spectrum), end, smooth / _NODES_PER_SCALE, h, n_lags,
                                 shifts, first_lag) for spectrum, end, smooth in parts)

    if fold:
        k = transform([0.0, 0.0][:n_rows], 0)
    else:       # J(-tau) = conj J(tau): tau = 2 m h - r is the conjugate of -2 m h + r
        j = transform([r], 1 - n_lags)[0]
        k = transform([0.0], 0) + SIGNS[:, :, None] * 0.5 * (j[:, n_lags - 1:]
                                                            + np.conj(j[:, n_lags - 1::-1]))
    out = np.zeros((2, 6, n_lags))
    out[:n_rows] = np.concatenate([k[:, :4].real, k[:, 4:].imag], axis=1)
    return out


def _transient_omega_max(params: ModelParams, tol: float) -> float:
    """Frequency cut of the transient noise: the smallest whose tail-correction
    error bound 2 w_inf (1 + (1 + K(0))^2) / omega_max^4 meets ``tol`` (K(0)
    the larger channel kernel at t = 0), and at least 15 max(Omega, 1)."""
    k0 = float(np.max(channel_kernel_zero(params, SIGNS)))
    need = (2.0 * _tail_prefactor(params) * (1.0 + (1.0 + k0) ** 2) / max(tol, 1e-12)) ** 0.25
    return float(max(15.0 * params.omega_cut, 15.0, need))


def _pair_noise(g_cols: np.ndarray, params: ModelParams, h: float, n_pairs: int,
                omega_max: float) -> np.ndarray:
    """Filon-discretized noise blocks N(p), p = 0..n_pairs, of each channel.

    g_cols is (n_ch, 2, N_grid): the (G12, G22) samples of each channel of
    `SIGNS`; the noise is integrated up to omega_max.
    With u_q = h (2 f1, f0 - 2 f1 + f2, f2 - f0) the Filon coefficients of
    pair q, P(omega, p) = sum_{q<p} e^{i omega (2q+1) h} (u_q . (s0, s2, i p1)),
    and

        N_ab(p) = int (S/2)(1 +- cos omega r) Re P_a conj(P_b) d omega
                = sum_{q,q'<p} u^a_q . K(q - q') u^b_q',

    with K(m) the 3x3 matrix of `_lag_kernels` and K(-m) = K(m)^T.  Its
    increments N(p+1) - N(p) need only the causal products Z = K * u, one
    FFT convolution per channel (Hairer, Lubich & Schlichte, SIAM J. Sci.
    Stat. Comput. 6, 532, 1985).  Returns (n_ch, n_pairs + 1, 2, 2).
    """
    n_ch = g_cols.shape[0]
    out = np.zeros((n_ch, n_pairs + 1, 2, 2))
    if n_pairs == 0:
        return out
    c00, c02, c22, c11, s10, s12 = _lag_kernels(params, h, n_pairs, omega_max).transpose(1, 0, 2)
    k = np.stack([np.stack([c00, c02, s10], 1),
                  np.stack([c02, c22, s12], 1),
                  np.stack([-s10, -s12, c11], 1)], 1)                # (n_ch, 3, 3, n)
    f0, f1, f2 = (g_cols[..., i:i + 2 * n_pairs:2] for i in range(3))
    u = h * np.stack([2.0 * f1, f0 - 2.0 * f1 + f2, f2 - f0], axis=2)  # (n_ch, 2, 3, n)
    n_fft = _next_fast_len(2 * n_pairs - 1, real=True)
    spec = np.einsum("cijf,cxjf->cxif", np.fft.rfft(k, n_fft), np.fft.rfft(u, n_fft))
    z = np.fft.irfft(spec, n_fft)[..., :n_pairs]                     # (n_ch, 2, 3, n)
    uz = np.einsum("cxip,cyip->cxyp", u, z)
    uku = np.einsum("cxip,cij,cyjp->cxyp", u, k[..., 0], u)       # K(0) is symmetric
    step = uz + uz.transpose(0, 2, 1, 3) - uku
    out[:, 1:] = np.cumsum(step, axis=-1).transpose(0, 3, 1, 2)
    return out


def covariance_time_series(greens: GreensFunction, params: ModelParams, times,
                           c0: CovarianceMatrix | None = None,
                           tol: float = 1e-5) -> CovarianceMatrix:
    """C(t) at the requested times (each must sit on the stored G pair grid),
    as one stack in the order requested; t = 0 gives ``c0`` itself.

    Both channels run in one pass over the channel axis.  The noise of all
    requested times comes from one set of lag kernels (`_lag_kernels`, all
    lags of a uniform frequency grid by one chirp FFT) and one FFT
    convolution per channel (`_pair_noise`): O(N log N + N_pairs log N_pairs),
    N the frequency nodes plus the lags.  The frequency cut omega_max is
    `_transient_omega_max(params, tol)`.  ``c0`` and the outputs must pass
    `require_physical`; a refusal names the first unphysical time.
    """
    h = greens.spacing
    grid = greens.time_grid
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if np.any(times < 0):
        raise ValueError("negative times requested")
    if np.any(times > grid[-1] + 1e-9):
        raise ValueError(
            f"requested time beyond stored Green's function grid "
            f"(t_max = {grid[-1]})")

    pair_idx = times / (2.0 * h)
    pair_int = np.rint(pair_idx).astype(int)
    if np.any(np.abs(pair_idx - pair_int) > 1e-6):
        raise ValueError("requested times must lie on the pair grid of G "
                         f"(step {2 * h})")

    c0 = c0 if c0 is not None else ground_state_covariance()
    require_physical(c0)
    cp0, cm0, cx0 = channel_blocks(c0.entries)

    omega_max = _transient_omega_max(params, tol)
    pairs, inverse = np.unique(pair_int, return_inverse=True)
    n_pairs = int(pairs[-1])
    series = greens.channel_series                  # (2, N_grid, 2, 2)
    noise = np.zeros((2, n_pairs + 1, 2, 2))
    if n_pairs > 0:
        noise = _pair_noise(series[..., 1].swapaxes(1, 2), params, h, n_pairs, omega_max)

    gi = 2 * pairs
    t_out = grid[gi]
    g = series[:, gi]
    dg = np.gradient(series[..., 1], h, axis=1, edge_order=2)[:, gi]
    tail = _channel_noise_tail(params, omega_max, t_out, g[..., 0, 1], g[..., 1, 1],
                               dg[..., 0], dg[..., 1])
    c0_blocks = np.stack([cp0, cm0])[:, None]
    blocks = g @ c0_blocks @ g.swapaxes(-1, -2) + noise[:, pairs] + tail
    cross = g[0] @ cx0 @ g[1].swapaxes(-1, -2)
    c4 = four_by_four(*blocks, cross)
    c4[pairs == 0] = c0.entries
    out = CovarianceMatrix(entries=c4, time_label=t_out)
    require_physical(out)
    return out[inverse]
