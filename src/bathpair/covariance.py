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

and its exact omega-derivative, whose scan seeds the complex roots of D
(`channel_resonances`); each root is then refined on the quasi-polynomial
(Omega^2 + z^2) D(i z), in complex scalars.  The moment integrand
(S/2)(1 +- cos(omega r)) / ((Re D)^2 + (Im D)^2) is summed on 12-point
Gauss-Legendre panels (`frequency_grid`) by one rule, a panel no wider
than its distance to the nearest singularity: each singularity near the
real axis, a root z = a + i b of D, the Drude pole or a pole at omega = 0,
gets a ladder of edges a +- b 2^k.  The rest of the grid, the fill, is uniform at 2.5/r
where the chains of roots of D lie within 5/r of the axis, and past them
grades with their depth ln(|P0| / |P1|) / r, a closed form, up to the
width 9/r over which a 12-point panel resolves cos(omega r).  Roots too
near the axis for float64 nodes, and grids or resonance scans past a node
budget (at large r or gamma), are refused.  Past the cut omega_max the
moments take their large-frequency expansions in closed form, beta's to
two terms, so the cut falls as tol^(-1/5).

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

import cmath
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
    """(Re D, Im D) of the channel determinant D(i omega) at real ``omega``
    (the nodes of the scan of `channel_resonances` and of the moments), by
    the real closed form of the module docstring, and with ``slope`` also
    the exact d Re D / d omega and d Im D / d omega; ``trig`` is
    `_channel_trig` of the same frequencies.  Im D = omega Re Gamma^(i omega)
    is the channel damping at omega.
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
    return 4.0 * params.gamma * params.omega_cut * params.omega_cut / math.pi


_REACH = 2.5          # / r: the root search's reach, and the narrowest panel of the fill
_NEWTON_MAX = 40      # complex Newton steps; an iterate not converged by then is dropped
_STOP = math.sqrt(np.finfo(float).eps)   # Newton steps below _STOP (1 + |z|) have converged


def _quasi_polynomial(params: ModelParams, sign: float):
    """The map z -> (q, F(z), dF/dz) on Python complex scalars, for the
    channel ``sign`` (+1.0 or -1.0), of the quasi-polynomial

        F(z) = q D(i z) = q (1 - z)(1 + z) + K(0) z^2 + i z 2 gamma Omega^2 (1 +- e^{-i r z}),

    q = Omega^2 + z^2 and K(0) = 2 gamma Omega (1 +- e^{-Omega r}) the
    channel kernel at t = 0: P0(s) + P1(s) e^{-s r} at s = i z (Bellman &
    Cooke, Differential-Difference Equations, 1963, ch. 12-13).  As in
    `_det_parts`, (1 - z)(1 + z) keeps its digits at the bare resonance, and
    K(0) of the antisymmetric channel and 1 +- e^{-i theta} take the forms
    -expm1 and 2 e^{-i theta/2} (cos(theta/2) or i sin(theta/2)), which keep
    theirs as r -> 0+, where that channel's roots leave the axis as r^2."""
    g, Om, r = params.gamma, params.omega_cut, params.distance
    k0 = 2.0 * g * Om * (1.0 + math.exp(-Om * r) if sign > 0 else -math.expm1(-Om * r))
    p1, om2 = 2.0 * g * Om * Om, Om * Om
    # u = i p1 (1 +- e^{-i r z}) = tc half(r z / 2) e^{-i r z / 2} has the
    # z-derivative sign p1 r e^{-i r z}, so that
    # F' = z (2 (1 - Omega^2 + K(0)) - 4 z^2 + sign p1 r e^{-i r z}) + u
    half, tc = (cmath.cos, 2.0j * p1) if sign > 0 else (cmath.sin, -2.0 * p1)
    ha, hr, swing, c0, exp = -0.5j * r, 0.5 * r, sign * p1 * r, 2.0 * (1.0 - om2 + k0), cmath.exp

    def f(z):
        zz, h = z * z, exp(ha * z)
        q, u = om2 + zz, tc * half(hr * z) * h
        return (q, q * ((1.0 - z) * (1.0 + z)) + z * (k0 * z + u),
                z * (c0 - 4.0 * zz + swing * (h * h)) + u)
    return f


def _newton_root(z: complex, quasi, reach: float):
    """(root, |dD/dz| there) that Newton's method on D(i z) reaches from the
    Python complex ``z``, or None.  ``quasi`` is the channel's
    `_quasi_polynomial`, and each step D / D' is taken through it, as
    F / (F' - 2 z F / q) = F q / (F' q - 2 z F), so that the iteration keeps
    the basins of D, whose pole at z = i Omega F lacks.  A step below
    sqrt(eps) (1 + |z|), which leaves an error ~ step^2, ends it, and the
    slope |F' - 2 z F / q| / |q| is taken at the last iterate.  An iterate
    that leaves |Im z| <= ``reach`` (a NaN one too), sits on the Drude pole
    (q = 0: ZeroDivisionError) or overflows (OverflowError, or cmath's
    ValueError where r z does) has no root, nor has one not ended in
    `_NEWTON_MAX` steps."""
    try:
        for _ in range(_NEWTON_MAX):
            if not -reach <= z.imag <= reach:
                return None
            q, f, df = quasi(z)
            d = df - 2.0 * z * f / q
            step = f / d
            z -= step
            if abs(step) <= _STOP * (1.0 + abs(z)):
                return z, abs(d) / abs(q)
    except (OverflowError, ValueError, ZeroDivisionError):
        pass
    return None


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
    Newton distance |D / D'| within `_REACH` / r, on a scan of `_det_parts`
    uniform below 3 + 3 gamma and on to twice that at 4 times the step,
    takes its first Newton step from the scan's D and D'; a channel with
    none takes the roots of a small-r quartic.  Each seed is then refined
    on its own, in Python complex scalars, by `_newton_root` on the
    quasi-polynomial F = (Omega^2 + z^2) D of `_quasi_polynomial`; an
    iterate that leaves |Im z| <= `_REACH` / r, or has not converged in
    `_NEWTON_MAX` steps, is dropped.  Mirror roots -conj(z) are folded onto
    Re z >= 0 and copies merged.  Im z has no floor: the antisymmetric root
    near omega = 1 leaves the axis as r^2 as r -> 0+.  Roots past the scan's
    top, such as the chain roots within reach at (1, 50, 0, 2) from
    Re z = 8.7 to 21, are not listed; they are left to the fill of
    `frequency_grid`, whose panels are no wider than 2.5 / r where the
    chains lie within 5 / r of the axis.
    Per channel, the record also lists the Drude pole, (0, Omega), and at
    omega = 0 the nearer of the poles of coth(omega/2T) at 2 pi T and, for
    the symmetric channel with no root on the imaginary axis (to the
    stopping step), a stand-in 1/(4 gamma) for its peak; a root on the axis
    nearer than both leaves no entry.  The antisymmetric channel has no
    stand-in: its weight 1 - cos(omega r) vanishes at omega = 0 as omega^2.
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
    bare = np.flatnonzero(~low.any(axis=1))
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
    found, quasi = [], [_quasi_polynomial(params, s) for s in rows[:, 0].tolist()]
    for i, z0 in zip(row.tolist(), z.tolist()):
        root = _newton_root(z0, quasi[i], reach)
        # below the axis (Re s > 0) D has no root, and the closed form cancels
        # exponentially large terms: an iterate that ends there diverged
        if root is not None and root[0].imag >= 0.0:
            found.append((i, abs(root[0].real), root[0].imag, root[1]))
    row, re_z, im_z, slope = np.reshape(sorted(found), (-1, 4)).T
    row, z = row.astype(int), re_z + 1j * im_z
    # copies of one root agree well within the stopping step sqrt(eps) (1 + |z|)
    copy = (row[1:] == row[:-1]) & (np.abs(z[1:] - z[:-1]) <= _STOP * (1.0 + np.abs(z[1:])))
    row, z, slope = (v[np.append(True, ~copy)[:z.size]] for v in (row, z, slope))

    # a root on the imaginary axis is the symmetric peak itself
    axis = [math.inf] * len(rows)           # per channel, its nearest root on the axis
    on_axis = np.flatnonzero(z.real <= _STOP * (1.0 + np.abs(z)))
    for i, b in zip(row[on_axis].tolist(), z.imag[on_axis].tolist()):
        axis[i] = min(axis[i], b)
    stand_in = 0.25 / params.gamma if params.gamma > 0 else math.inf
    thermal = 2.0 * math.pi * params.temperature or math.inf
    at_zero, width = [], []
    for i, a in enumerate(axis):
        peak = a == math.inf and rows[i, 0] > 0
        b = min(thermal, stand_in if peak else math.inf)
        if b < a:
            at_zero.append(i)
            width.append(b)
    return (np.concatenate([row, np.arange(len(rows)), np.array(at_zero, dtype=row.dtype)]),
            np.concatenate([z.real, np.zeros(len(rows) + len(width))]),
            np.concatenate([z.imag, np.full(len(rows), params.omega_cut), width]),
            np.concatenate([slope, np.zeros(len(rows) + len(width))]))


_MIN_SPACINGS = 1e4   # resonance half-widths resolved, in float spacings, weighted by area
_MAX_NODES = 20_000_000   # fill or scan nodes: 320 MB of grid nodes and weights


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


# The fill of `frequency_grid` past the chains.  A 12-point Gauss-Legendre
# panel of half-width h integrates a function analytic inside the Bernstein
# ellipse E_rho of the panel (semi-minor axis h (rho - 1/rho) / 2), and of
# modulus at most M there, to within (64/15) M rho^-24 / (rho^2 - 1) of the
# panel (Trefethen, Approximation Theory and Approximation Practice, ch. 19).
# Above the chains the integrand is a smooth envelope times cos(omega r) and
# the geometric series in e^{-+i omega r} of 1 / |D|^2, whose ratio
# |P1(i omega) / P0(i omega)| = e^{-sigma r} places the chain roots sigma
# below the axis (`_chain_depth`).  Each factor bounds the panel:
#   - depth: the ellipse through half the depth, where the series stays
#     within (1 - e^{-sigma r / 2})^-2 <= 1.19 of its axis value at sigma r >= 5,
#     with rho = 2 + sqrt(5) has h (rho - 1/rho) / 2 = 2 h = sigma / 2, a
#     panel sigma / 2 wide, and a bound of 2.3e-16 M;
#   - phase: e^{i omega r} reaches e^{kappa (rho - 1/rho) / 2} on the ellipse,
#     kappa = h r; the bound minimized over rho is 2.3e-16 at kappa = 4.56
#     (rho = 11.3), a panel 9.1 / r wide, of which 9 / r is taken.
# Both factors on one ellipse give a bound below 2.1e-15 for every depth,
# the worst where the two widths meet, at sigma r = 18.
_DEPTH_PANEL = 0.5    # widest fill panel / chain-root depth
_PHASE_PANEL = 9.0    # / r: widest fill panel over which cos(omega r) is resolved
_FILL_SAMPLES = 16    # depth samples per octave of the fill


def _chain_depth(params: ModelParams, omega):
    """ln(|P0(i omega)| / |P1(i omega)|) / r at ``omega`` (an array, at or
    above `_fill_start`): the depth of the chain roots of D near omega
    (Bellman & Cooke, Differential-Difference Equations, 1963, ch. 12-13).
    (Omega^2 - s^2) D(s) = P0(s) + P1(s) e^{-s r}, with |P1(i omega)| =
    2 gamma Omega^2 omega = Im P0(i omega) and Re P0(i omega) = Omega^2 +
    b omega^2 - omega^4, b = 1 - Omega^2 + K(0), K(0) the channel kernel at
    t = 0.  Past `_fill_start` Re P0 < 0, so the symmetric channel, whose
    K(0) is the larger, has the shallower chains: its depth is the one
    taken.  Where omega^3 overflows, or |P1| underflows to 0, the depth is
    infinite."""
    om2 = params.omega_cut * params.omega_cut
    b = 1.0 - om2 + channel_kernel_zero(params, 1.0)
    p1 = 2.0 * params.gamma * om2
    if p1 == 0.0:
        return np.full(np.shape(omega), math.inf)
    with np.errstate(over="ignore"):
        ratio = (om2 / omega + b * omega - omega * omega * omega) / p1
    return np.log(np.hypot(ratio, 1.0)) / max(params.distance, 1e-9)


def _fill_start(params: ModelParams) -> float:
    """The frequency above which `_DEPTH_PANEL` times the chain depth exceeds
    `_REACH` / r: ln(|P0| / |P1|) = L = `_REACH` / `_DEPTH_PANEL`, or, with
    Re P0 < 0 past it, the one positive root y (one sign change) of

        f(y) = y^4 - b y^2 - c y - Omega^2,   c = 2 gamma Omega^2 sqrt(e^{2L} - 1),

    in the symmetric channel's b (`_chain_depth`), whose root is the larger.
    f is convex and increasing past its root (y^2 >= b there), so Newton's
    method from above stays above it; it starts where each negative term is
    at most y^4 / 3.  Above the root |Re P0| / omega, and so the depth,
    grows with omega."""
    om2 = params.omega_cut * params.omega_cut
    b = 1.0 - om2 + channel_kernel_zero(params, 1.0)
    c = 2.0 * params.gamma * om2 * math.sqrt(math.expm1(2.0 * _REACH / _DEPTH_PANEL))
    y = max(math.sqrt(3.0 * max(b, 0.0)), (3.0 * c) ** (1.0 / 3.0), (3.0 * om2) ** 0.25)
    for _ in range(_NEWTON_MAX):
        step = (((y * y - b) * y - c) * y - om2) / ((4.0 * y * y - 2.0 * b) * y - c)
        y -= step
        if step <= 1e-9 * y:
            break
    return y


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
    Of the entries at omega = 0 (the Drude pole, 2 pi T and the symmetric
    peak) only the narrowest gets its ladder, whose panels are no wider
    than the others' would be.

    Between the ladders lies the fill.  Below `_fill_start` omega_c, where
    the chain roots of D come within 5/r of the axis, it is uniform at
    2.5/r.  Above it, a panel starting at omega is as wide as the smallest
    of `_DEPTH_PANEL` times the chain depth there (`_chain_depth`), the
    phase width `_PHASE_PANEL` / r over which cos(omega r) is resolved, and
    its distance omega - omega_c from the chains and the record, but never
    narrower than 2.5/r.  That width w(omega) grows with omega, and a panel
    that reaches omega starts at or above omega - 9/r: the fill takes
    w(omega - 9/r) as its width from each of `_FILL_SAMPLES` samples an
    octave to the next, and places its edges at the integers of the panel
    count.  As r -> 0 the ladders alone are left, which grade the grid
    geometrically out to omega_max.

    At large r the node count grows like omega_max r, to 7.55e6 at
    (1, 10, 0, 1e4), where the fill past omega_c = 30 takes 3.8e6.  The
    resonance scan's 1.25 (3 + 3 gamma) / step nodes per channel
    (`_scan_span`) grow with gamma, and with r through the step
    pi / (10 (r + 1)) below 0.01.  Where the fill or the scan passes the
    budget `_MAX_NODES` (2e7 nodes, 320 MB of grid nodes and weights), the
    point is refused with `TruncationError` before either is made.
    """
    r, channels = params.distance, SIGNS if params.distance > 0 else SIGNS[:1]
    osc, phase = _REACH / max(r, 1e-9), _PHASE_PANEL / max(r, 1e-9)
    start = min(_fill_start(params), omega_max)
    n = math.ceil(_FILL_SAMPLES * math.log2(omega_max / start)) + 1
    x = start * (omega_max / start) ** (np.arange(n + 1) / n)
    x[-1] = omega_max
    at = np.maximum(x[:-1] - phase, start)  # at or below the start of any panel that reaches x
    fill_width = np.minimum(np.maximum(np.minimum(_DEPTH_PANEL * _chain_depth(params, at),
                                                  at - start), osc), phase)
    count = np.zeros(n + 1)                 # fill panels below each sample
    np.cumsum(np.diff(x) / fill_width, out=count[1:])
    uniform, fill = math.ceil(start / osc), max(math.ceil(count[-1]), 1)
    step, top = _scan_span(params)
    for what, nodes in (("asymptotic frequency grid", 12.0 * (uniform + fill)),
                        (f"resonance scan to omega = {2.0 * top:.3g}",
                         len(channels) * 1.25 * top / step)):
        if nodes > _MAX_NODES:
            raise TruncationError(f"the {what} at r = {r!r} needs about {nodes:.3g} nodes, "
                                  f"past the budget of {_MAX_NODES:.3g}")
    found = channel_resonances(params, channels)
    _require_resolvable(params, found)
    _, centre, width, _ = found
    # at omega = 0 (the Drude pole, 2 pi T, the symmetric peak) the narrowest
    # entry's ladder meets the rule for all
    keep = (centre > 0.0) | (width == width[centre == 0.0].min())
    centre, width = centre[keep], width[keep]
    reach = min(osc, omega_max)
    ladder = width[:, None] * 2.0 ** np.arange(-1.0, math.log2(reach / width.min()))
    short = ladder < reach
    uniform_edges = np.arange(uniform + 1) * (start / uniform)
    uniform_edges[-1] = start
    panel = np.arange(fill + 1) * (count[-1] / fill)
    panel[-1] = count[-1]
    edges = np.concatenate([uniform_edges, np.interp(panel, count, x),
                            (centre[:, None] + ladder)[short], (centre[:, None] - ladder)[short],
                            centre])
    return gauss_panels(np.unique(np.minimum(np.maximum(edges, 0.0), omega_max)))


# ---------------------------------------------------------------------------
# asymptotic covariance


def _tail_coefficient(params: ModelParams, sign):
    """The omega^-5 coefficient c of the beta integrand of the channels ``sign``.

    At large omega, with k = K(0) the channel kernel at t = 0 and
    A = 1 + k, (S/2) = (w_inf/omega)(1 - Omega^2/omega^2 + Omega^4/omega^4 - ...)
    and, from the closed form of `_det_parts`,

        Re D(i omega) = -omega^2 + A - k Omega^2/omega^2
                        +- 2 gamma Omega^2 sin(omega r)/omega + ...,

    Im D = O(1/omega), so that per unit of w_inf (1 +- cos(omega r))

        (S/2) omega^2 / |D|^2 = omega^-3 + c omega^-5 +- 4 gamma Omega^2 sin(omega r) omega^-6
                                + d omega^-7 + O(omega^-8),
        c = 2 A - Omega^2,   d = 3 A^2 - 2 k Omega^2 - 2 A Omega^2 + Omega^4,

    and the alpha integrand is (S/2) / |D|^2 = omega^-5 + c omega^-7 + O(omega^-8).
    """
    return 2.0 * (1.0 + channel_kernel_zero(params, sign)) - params.omega_cut * params.omega_cut


_SIN_ONE_COS = 3.0 * math.sqrt(3.0) / 4.0   # max |sin x (1 +- cos x)|, at cos x = +-1/2


def _tail_orders(params: ModelParams, sign):
    """(e5, e6) of the channels ``sign``: beyond omega_max = W the closed-form
    tail of `channel_asymptotic_moments` drops at most e5 / W^5 + e6 / W^6
    from alpha or beta at T = 0, to the orders of `_tail_coefficient`.

    e5 bounds beta's omega^-6 term, |sin(omega r) (1 +- cos(omega r))| being
    at most `_SIN_ONE_COS`; e6 bounds the omega^-7 terms of both moments,
    with 1 +- cos(omega r) <= 2.  d is bounded term by term, so that a
    cancellation between the kernel and the Drude terms cannot hide the
    order (and |c| <= 2 A + Omega^2 is below that sum at A >= 1).
    """
    om2 = params.omega_cut * params.omega_cut
    w_inf = _tail_prefactor(params)
    k = channel_kernel_zero(params, sign)
    a = 1.0 + k
    d = 3.0 * a * a + 2.0 * k * om2 + 2.0 * a * om2 + om2 * om2
    return 0.2 * _SIN_ONE_COS * w_inf * 4.0 * params.gamma * om2, w_inf * d / 3.0


def _thermal_tail(params: ModelParams, omega_max: float) -> float:
    """Bound on what the tail drops at T > 0 by setting the thermal excess
    coth(omega/2T) - 1 = 2 / (e^{omega/T} - 1) to zero beyond omega_max:
    w_inf (1 +- cos) <= 2 w_inf times the excess at omega_max times
    int omega^-3 = 1 / (2 omega_max^2)."""
    T = params.temperature
    if T <= 0.0:
        return 0.0
    u = omega_max / T
    excess = 2.0 / math.expm1(u) if u < 700.0 else 2.0 * math.exp(-u)
    return _tail_prefactor(params) * excess / omega_max / omega_max


def _expansion_tail(e5: float, e6: float, omega_max: float):
    """e5 / omega_max^5 + e6 / omega_max^6, by divisions, which underflow
    where powers of a large omega_max would overflow."""
    w = omega_max
    return e5 / w / w / w / w / w + e6 / w / w / w / w / w / w


def _asymptotic_tail_error(params: ModelParams, sign, omega_max: float) -> float:
    """Estimate of what the closed-form tail of `channel_asymptotic_moments`
    drops from alpha or beta of any of the channels ``sign``: the orders
    `_tail_orders` leaves out, of the channel with the largest K(0), and at
    T > 0 `_thermal_tail`."""
    expansion = _expansion_tail(*_tail_orders(params, float(np.max(sign))), omega_max)
    return expansion + _thermal_tail(params, omega_max)


def _expansion_cut(e5: float, e6: float, floor: float, tol: float) -> float:
    """The cut W >= floor at which e5 / W^5 + e6 / W^6 <= tol, in closed form:
    at W0, the larger of floor and each term's own root, the sum is p <= 2 tol,
    and W0 (p / tol)^(1/5) brings both terms down by at least p / tol."""
    w = max(floor, (e5 / tol) ** 0.2, (e6 / tol) ** (1.0 / 6.0))
    return w * max(1.0, _expansion_tail(e5, e6, w) / tol) ** 0.2 * (1.0 + 1e-12)  # rounding margin


def _thermal_cut(params: ModelParams, tol: float) -> float:
    """The cut W at which `_thermal_tail` is at most ``tol``.

    With u = W / T the condition is u^2 (e^u - 1) >= K = 2 w_inf / (tol T^2).
    In v = ln u, h(v) = ln(u^2 (e^u - 1)) is increasing and convex (h' = 2 +
    u / (1 - e^-u) grows with u), so Newton's method from above the root
    stays above it, and every iterate is a valid cut.  It starts from the
    smaller of u^3 = K (e^u - 1 >= u) and, where it is at least 1,
    u = ln 2K (e^u - 1 >= e^u / 2 there).  Everything is in logarithms, so
    that no T or K overflows.
    """
    log_k = math.log(2.0 * _tail_prefactor(params) / tol) - 2.0 * math.log(params.temperature)
    v = log_k / 3.0
    if log_k + math.log(2.0) >= 1.0:
        v = min(v, math.log(log_k + math.log(2.0)))
    for _ in range(_NEWTON_MAX):
        if v < -30.0:           # u < 1e-13: e^u - 1 = u, and u^3 = K is the root
            break
        u = math.exp(v)
        h = 2.0 * v + (u + math.log1p(-math.exp(-u)) if u > 1.0 else math.log(math.expm1(u)))
        step = (h - log_k) / (2.0 + u / -math.expm1(-u))
        v -= max(step, 0.0)
        if step <= 1e-12:
            break
    return math.exp(math.log(params.temperature) + v) * (1.0 + 1e-9)    # a rounding margin


def asymptotic_omega_max(params: ModelParams, tol: float) -> float:
    """Frequency cut of the asymptotic noise integrals for tolerance ``tol``.

    A cut, from the closed forms below, whose tail estimate
    (`_asymptotic_tail_error`) meets ``tol`` in both channels, and at least
    15 max(Omega, 1), so that the large-omega expansion the tail rests on
    holds.  The expansion part, e5 / omega_max^5 + e6 / omega_max^6 (the
    symmetric channel's, the larger), is inverted in closed form
    (`_expansion_cut`), so omega_max grows as tol^(-1/5).  Where the thermal
    part does not fit beside it, ``tol`` is split between the two parts in
    the proportion they take at the cut that gives each half, and the
    thermal part is inverted by `_thermal_cut`.  Coefficients or a cut past
    the float range (Omega or gamma near 1e300) raise `TruncationError`, as
    no cut can meet ``tol``.
    """
    e5, e6 = _tail_orders(params, 1.0)
    floor = 15.0 * max(params.omega_cut, 1.0)      # where the large-omega expansion holds
    omega_max = _expansion_cut(e5, e6, floor, tol) if math.isfinite(e5 + e6) else math.inf
    if not math.isfinite(omega_max):
        raise TruncationError(f"the large-frequency tail at {params} overflows (e5 = {e5:.3g}, "
                              f"e6 = {e6:.3g}): no frequency cut meets tol {tol:.3g}")
    if _expansion_tail(e5, e6, omega_max) + _thermal_tail(params, omega_max) > tol:
        omega_max = max(_expansion_cut(e5, e6, floor, 0.5 * tol), _thermal_cut(params, 0.5 * tol))
        expansion = _expansion_tail(e5, e6, omega_max)
        share = tol * expansion / (expansion + _thermal_tail(params, omega_max))
        if 0.0 < share < tol:
            omega_max = min(omega_max, max(_expansion_cut(e5, e6, floor, share),
                                           _thermal_cut(params, tol - share)))
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
    many nodes it has.  Beyond omega_max the integrands' large-omega
    expansions (`_tail_coefficient`) are integrated in closed form: alpha's
    w_inf (1 +- cos(omega r)) / omega^5, and beta's
    w_inf (1 +- cos(omega r)) (1/omega^3 + c/omega^5), whose second term is
    c times alpha's; `_asymptotic_tail_error` estimates what that drops.
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
    fifth = w_inf * (cos_tail(0.0, omega_max, 5) + row * cos_tail(r, omega_max, 5))
    alpha += fifth
    beta += (w_inf * (cos_tail(0.0, omega_max, 3) + row * cos_tail(r, omega_max, 3))
             + _tail_coefficient(params, row) * fifth)
    tail_err = _asymptotic_tail_error(params, sign, omega_max)
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
    a cut, in closed form, whose tail estimate meets ``ASYMPTOTIC_TOL``,
    and at least 15 max(Omega, 1).  A T at or below `_THERMAL_FLOOR` Omega, whose
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
