"""Independent brute-force validator: discretized bath, exact Gaussian evolution.

The bath is discretized on a linear frequency grid; couplings are fixed by
matching the spectral density with unit mode masses,
g_k^2 = 2 omega_k J(omega_k) dOmega.
Exchange symmetry splits the quadratic Hamiltonian into two independent
channels, each a chain of one collective coordinate plus N bath modes, with
the quadratic counter-term that cancels the bath-induced frequency shift.
Each chain's position-sector quadratic form V is an arrowhead: the bath
modes couple only to the collective coordinate, so V is diag(omega_k^2)
bordered by the couplings lambda_k, with corner
omega0^2 + sum lambda_k^2 / omega_k^2.  Its eigenpairs cost O(N^2) time, not
the O(N^3) of a dense solver (Gu & Eisenstat, SIAM J. Matrix Anal. Appl. 15,
1266, 1994): a zero coupling (all of them at gamma = 0, the antisymmetric
ones at r = 0) deflates its bath mode; the squared normal-mode frequencies
mu^2 of the rest are the roots of the secular equation
omega0^2 + sum lambda_k^2/omega_k^2 - mu^2 - sum lambda_k^2/(omega_k^2 - mu^2) = 0,
one in each interval between successive omega_k^2 and one beyond each end;
the couplings are recomputed from those roots (Loewner's formula), and the
eigenvectors are (1, lambda_k / (mu^2 - omega_k^2)) normalized, orthonormal
to rounding.  They stay in that closed form: the (N+1)^2 mode matrix U is
never built, so memory is O(_ROWS N + N N_t) for N_t times.  Each chain is
then evolved exactly, as the symplectic propagator

    S(t) = [[ U cos(mu t) U^T,        U sin(mu t)/mu U^T ],
            [ -U mu sin(mu t) U^T,    U cos(mu t) U^T    ]]

is exp(t * Sigma * H) in closed form, so there is no step error for the
discrete bath at any t.  Only the two system rows of S(t) are ever
materialized, summed one block of modes at a time, which makes long series of
reduced covariances cheap.

Each channel makes about five O(N^2) passes over its Cauchy-like matrix of
differences d_k - x_j (5.2 at N = 2000 at the criterion-9 point):

1. the secular function, about 2.2 times per root: every 16th root is
   solved from its gap's midpoint in four or five evaluations, and the rest
   start from seeds interpolated between them and stop after about two
   (`_secular_roots`);
2. Loewner's products, two passes, one for the roots and one for the poles
   (`_loewner_border`);
3. one pass over the Cauchy rows b_k / (x_j - d_k), which gives both the
   head norms and, added into every time's bath columns, the system rows
   (`_heads_and_rows`).

The image noise's phases then make one pass of N modes by the midpoints of
its grid (`_midpoint_response`).  Every pass works on one block of _ROWS
rows of an N-wide array at a time.  At N = 2000, 64 rows of float64 are
1 MB, which stays in a 2 MiB per-core L2 cache through the half-dozen
passes over the block; 256 rows (4 MB) did not.  A block's rows are
neighbouring roots, so its columns split at the block: the poles below
every row, the poles above every row, and a band about as wide as the
block between them.  The secular sums and Loewner's factors take whole
column views outside the band and choose per entry only inside it.

Against the continuum bath the discrete one differs in two ways, and
`reduced_covariance_series` corrects both from the oracle's own channel
Green's function g = (G12, G22) (the response of (u, udot) to a kick):

* Modes above omega_max_bath = W are missing, and with them their vacuum
  noise.  With (S/2) -> w_inf / omega, w_inf = 4 gamma Omega^2 / pi, and
  h(omega, t) = int_0^t g(u) e^{i omega u} du ~ (g(t) e^{i omega t} - e_2)/(i omega)
  (by parts, g(0) = e_2), the missing noise of channel +- is

      w_inf [ (g g^T + e_2 e_2^T) c(0) - (g e_2^T + e_2 g^T) c(t) ],
      c(a) = int_W^inf (1 +- cos(omega r)) cos(omega a) / omega^3 domega,

  about w_inf (1 + G22^2) / (2 W^2) on the momentum entry; the next order
  is smaller by |g'| / W.
* Midpoint sampling with spacing dOmega turns the channel noise kernel
  nu(tau) = int (S/2)(1 +- cos(omega r)) cos(omega tau) domega into the
  alternating image sum sum_m (-1)^m nu(tau + m t_rec), t_rec = 2 pi/dOmega
  (Poisson summation).  At T = 0 the kernel has the power-law tail
  nu(tau) ~ -(4 gamma/pi)[f(tau) +- (f(tau - r) + f(tau + r))/2], with
  f = 1/tau^2 (f = (pi T)^2 / sinh^2(pi T tau) at T > 0), so the images
  reach back to t << t_rec: at dOmega = 0.13 they shift the position
  entries by ~1e-3.  Their contribution
  int_0^t int_0^t g(u) g(u')^T I(u - u') du du',
  I(tau) = sum_{m != 0} (-1)^m nu(tau + m t_rec), is computed on a
  midpoint grid in u and subtracted.

Both corrections act on the noise only; the mean dynamics (the system
columns of the system rows) is the discrete bath's own.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from ._panels import cos_tail
from .covariance import _THERMAL_FLOOR, CovarianceMatrix
from .greens import channel_blocks, four_by_four
from .kernels import coth
from .model import ModelParams, spectral_density

__all__ = [
    "DiscreteBath",
    "build_bath",
    "reduced_covariance_series",
    "RecurrenceHorizonError",
    "SymplecticityError",
]


_log = logging.getLogger("bathpair")


class RecurrenceHorizonError(ValueError):
    """Discretization too coarse for the requested comparison time."""


class SymplecticityError(RuntimeError):
    """Propagator lost symplecticity beyond tolerance."""


@dataclass(frozen=True)
class DiscreteBath:
    """Sampled bath modes; the same (omega_k, g_k) list serves both channels."""

    omegas: np.ndarray          # mode frequencies, midpoint grid
    couplings: np.ndarray       # g_k > 0
    k_spacing: float            # dk = dOmega (omega = c k with c = 1)
    n_modes: int

    @property
    def recurrence_time(self) -> float:
        return 2.0 * math.pi / self.k_spacing


def build_bath(params: ModelParams, n_modes: int, omega_max_bath: float,
               compare_time: float | None = None) -> DiscreteBath:
    """Linear-in-omega discretization with J-matching couplings.

    Midpoint sampling avoids the omega = 0 mode.  If ``compare_time`` is
    given, configurations whose recurrence horizon t_rec/2 does not cover it
    are rejected, and so are those where it reaches t_rec - r, the arrival
    of the retarded kernel's first image.
    """
    if n_modes < 100:
        raise ValueError(f"n_modes must be >= 100 (got {n_modes})")
    if omega_max_bath < 20.0 * params.omega_cut:
        raise ValueError(
            f"omega_max_bath must be >= 20*Omega = {20 * params.omega_cut}")
    dw = omega_max_bath / n_modes
    om = (np.arange(n_modes) + 0.5) * dw
    g2 = 2.0 * om * spectral_density(om, params) * dw
    bath = DiscreteBath(omegas=om, couplings=np.sqrt(g2), k_spacing=dw,
                        n_modes=n_modes)
    if compare_time is not None and compare_time >= 0.5 * bath.recurrence_time:
        raise RecurrenceHorizonError(
            f"comparison time {compare_time} exceeds recurrence horizon "
            f"t_rec/2 = {0.5 * bath.recurrence_time:.3f}; increase n_modes")
    if compare_time is not None and compare_time + params.distance >= bath.recurrence_time:
        raise RecurrenceHorizonError(
            f"comparison time {compare_time} reaches the first image of the "
            f"retarded kernel at t_rec - r = {bath.recurrence_time - params.distance:.3f}; "
            "increase n_modes")
    return bath


# ---------------------------------------------------------------------------
# per-channel normal modes


@dataclass(frozen=True)
class _ChannelModes:
    """Eigenmodes of one channel chain (collective coordinate + bath), the
    eigenvectors kept in the closed form of `_solve_arrowhead`.

    The first m + 1 modes are coupled: mode j has eigenvalue
    x_j = d[origin_j] + tau_j and the eigenvector head_j (1, b_k / (x_j - d_k))
    over the chain's coordinates (collective, then bath columns ``cols``).
    The deflated modes follow, each a unit vector on its own bath column,
    with head 0.  (origin, tau) are empty when no bath mode couples.  The
    heads are None until `_heads_and_rows` has taken them from the border.
    """

    mu2: np.ndarray             # squared normal-mode frequencies, shape (N+1,)
    head: np.ndarray | None     # first row of the mode matrix, u_0j
    origin: np.ndarray          # nearer pole of each coupled root
    tau: np.ndarray             # its offset from that pole
    d: np.ndarray               # coupled diagonal entries d_k, ascending
    border: np.ndarray          # Loewner border b_k
    cols: np.ndarray            # chain columns of the coupled bath modes
    evaluations: int            # secular rows evaluated to find the roots

    @property
    def mu(self) -> np.ndarray:
        return np.sqrt(self.mu2)


def _channel_couplings(bath: DiscreteBath, params: ModelParams, sign: int) -> np.ndarray:
    # wavenumber k = omega_k / c with c = 1
    half = 0.5 * bath.omegas * params.distance
    proj = np.cos(half) if sign > 0 else np.sin(half)
    return math.sqrt(2.0) * bath.couplings * proj


def _channel_potential(bath: DiscreteBath, params: ModelParams, sign: int):
    """The chain's position-sector potential as its arrowhead parts
    (corner, border, diagonal): V = [[corner, border^T], [border, diag(diagonal)]],
    with the bath modes' omega_k^2 (strictly ascending) on the diagonal."""
    lam = _channel_couplings(bath, params, sign)
    om2 = bath.omegas**2
    return 1.0 + float(np.sum(lam**2 / om2)), lam, om2   # counter-term in the corner


def _channel_modes(bath: DiscreteBath, params: ModelParams, sign: int) -> _ChannelModes:
    modes = _solve_arrowhead(*_channel_potential(bath, params, sign))
    if modes.mu2.min() <= 0:
        raise SymplecticityError(
            f"channel potential not positive definite (min eig {modes.mu2.min():.3e}); "
            "counter-term wiring broken?")
    return modes


# ---------------------------------------------------------------------------
# arrowhead eigensolver: secular equation, Loewner border, closed-form vectors

_ROWS = 64                      # rows (or columns) per block of the O(N^2) passes: L2-sized
_SEED_STRIDE = 16               # every 16th gap's root is solved cold, the rest seeded from them
_EPS = np.finfo(float).eps


def _gaps(d, *shifts):
    """d_k - shift_j - ..., row j over the columns d_k, rounded left to
    right: with shifts (d[origin], tau), x_j - d_k keeps full relative
    precision next to x_j's own pole.  One matrix product, [1, -shift...]
    times [d; 1; ...]: every product in it is exact and the sum runs left to
    right, so each shift costs its one rounding, as a rank-1 update would.
    BLAS writes the block in one pass: on a 64 x 2000 block of the N = 2000
    oracle it took 71 us, against 87 us for two BLAS rank-1 updates and
    320 us for numpy's broadcast subtraction, one pass per shift (one BLAS
    thread, 2 vCPU).  The whole oracle call at the criterion-9 point
    (N = 2000, t = 0..20), whose channels make about five such passes each
    (module docstring), took 0.140 and 0.142 s as best of 7 in two runs."""
    shifts = [np.ravel(s) for s in shifts]
    left = np.column_stack([np.ones(shifts[0].size)] + [-s for s in shifts])
    return left @ np.vstack([d, np.ones((len(shifts), d.size))])


def _solve_arrowhead(corner: float, border: np.ndarray, diag: np.ndarray) -> _ChannelModes:
    """Eigenvalues and eigenvectors, in closed form, of the arrowhead
    [[corner, border^T], [border, diag(diag)]], ``diag`` strictly ascending.

    A border entry below eps times the matrix scale decouples its diagonal
    entry, which is then an eigenvalue with a unit eigenvector.  The m
    coupled entries d_k leave m + 1 eigenvalues, the roots of the secular
    equation (`_secular_roots`), one below d_1, one in each gap and one above
    d_m.  The border is recomputed from those roots (`_loewner_border`), so
    that they are the exact eigenvalues of a matrix within rounding of the
    input, and the eigenvector of root x is (1, b_k / (x - d_k)) normalized.
    The mode matrix is never built, and the norms' inverses, its first row,
    are left to the pass that uses them (`_heads_and_rows`).  Cost O(N^2) in
    time and O(_ROWS N) in memory: the secular iteration and Loewner's
    products each take the roots _ROWS at a time and split the columns at the
    block (module docstring).
    """
    n = diag.size
    scale = max(abs(corner), abs(diag[-1])) + float(np.linalg.norm(border))
    live = np.abs(border) > _EPS * scale
    d, lam = diag[live], border[live]
    dead = np.flatnonzero(~live)
    if d.size == 0:
        x, origin, tau, b = np.array([corner]), np.zeros(0, dtype=int), np.zeros(0), np.zeros(0)
        evaluations = 0
    else:
        origin, tau, evaluations = _secular_roots(corner, lam * lam, d)
        x = d[origin] + tau
        b = np.copysign(np.sqrt(_loewner_border(d, origin, tau)), lam)
    return _ChannelModes(mu2=np.concatenate([x, diag[dead]]), head=None, origin=origin,
                         tau=tau, d=d, border=b, cols=1 + np.flatnonzero(live),
                         evaluations=evaluations)


def _secular_terms(z, lam2, d, origin, tau):
    """The secular function f(x) = z - x - sum_k lam2_k / (d_k - x) at
    x = d[origin] + tau, one point per row, with the sums of
    lam2_k / (d_k - x)^2 over the poles below and above x and the sum of the
    magnitudes of f's terms, which sets its rounding error.

    The rows, sorted by x, are taken in blocks of at most _ROWS.  Row i has
    the poles d[:split_i] below its x.  The poles below every split of the
    block and those from its highest split on are summed as whole column
    views; only the band between the lowest and highest split, as wide as
    the rows' spread, is masked.  A block ends early where its band would
    pass 4 _ROWS columns, so that scattered rows (every 16th gap's, or the
    few an iteration keeps) mask little more than neighbouring ones: the
    cold start of every 16th root took 0.9 ms a step at N = 2000 so, and
    2.3 ms in blocks of 64."""
    out = np.empty((4, tau.size))
    splits = origin + (tau > 0.0)
    first = 0
    while first < tau.size:
        stop = min(first + _ROWS, int(np.searchsorted(splits, splits[first] + 4 * _ROWS)))
        j = slice(first, stop)
        first = stop
        org, t, split = origin[j], tau[j], splits[j]
        lo, hi = int(split[0]), int(split[-1])
        under = np.arange(lo, hi) < split[:, None]
        w = _gaps(d, d[org], t)
        np.reciprocal(w, out=w)                 # 1 / (d_k - x)

        def below_above(w):
            band = np.where(under, w[:, lo:hi], 0.0)
            return (w[:, :lo] @ lam2[:lo] + band @ lam2[lo:hi],
                    w[:, hi:] @ lam2[hi:] + (w[:, lo:hi] - band) @ lam2[lo:hi])

        psi_below, psi_above = below_above(w)
        w *= w
        out[1, j], out[2, j] = below_above(w)
        base = z - d[org]
        out[0, j] = base - t - (psi_below + psi_above)
        out[3, j] = np.abs(base) + np.abs(t) + psi_above - psi_below
    return tuple(out)                           # f, slope below, slope above, size


def _positive_root(c, q):
    """Positive root of t^2 - c t - q = 0 for q > 0, without cancellation."""
    s = np.sqrt(c * c + 4.0 * q)
    return np.where(c >= 0.0, 0.5 * (c + s), 2.0 * q / (s - np.minimum(c, 0.0)))


def _two_pole_root(c, a, b, g):
    """Root in (0, g) of c + a/t - b/(g - t) = 0 for a, b > 0."""
    q = c * g - a - b
    s = np.sqrt((c * g + a - b) ** 2 + 4.0 * a * b)
    small = q <= 0.0
    return np.where(small, 2.0 * a * g, s + q) / np.where(small, s - q, 2.0 * c)


def _gap_step(d, j, origin):
    """`_iterate`'s step for the roots in the gaps (d[j-1], d[j]), measured
    from ``origin`` (j - 1 or j): it fits f and f' at the current point by
    the gap's two poles plus a constant and takes the fit's root."""
    upper, g = origin == j, d[j] - d[j - 1]

    def step(t, f, sb, sa, rows):
        up = upper[rows]
        dist_lo = np.where(up, g[rows] + t, t)          # x - d_{j-1}
        dist_hi = np.where(up, -t, g[rows] - t)         # d_j - x
        a, b = dist_lo**2 * sb, dist_hi**2 * (sa + 1.0)
        c = f - a / dist_lo + b / dist_hi
        # in the upper half, the same fit seen from d_j with t -> -t
        s = _two_pole_root(np.where(up, -c, c), np.where(up, b, a),
                           np.where(up, a, b), g[rows])
        return np.where(up, -s, s)

    return step


def _cold_roots(z, lam2, d, j):
    """The roots in the gaps (d[j-1], d[j]) from f at the gaps' midpoints,
    whose sign gives each root's half and so its nearer pole: (origin, tau,
    the number of rows evaluated)."""
    g = d[j] - d[j - 1]
    terms = _secular_terms(z, lam2, d, j - 1, 0.5 * g)
    upper = terms[0] > 0.0                      # root in the upper half
    origin, t = np.where(upper, j, j - 1), np.where(upper, -0.5, 0.5) * g
    tau, evaluated = _iterate(z, lam2, d, origin, t, np.where(upper, t, 0.0),
                              np.where(upper, 0.0, t), terms, _gap_step(d, j, origin))
    return origin, tau, j.size + evaluated


def _cubic_interpolate(x, nodes, values):
    """Lagrange cubic through the four nodes about each point x, nodes
    ascending (at least four of them)."""
    first = np.clip(np.searchsorted(nodes, x) - 2, 0, nodes.size - 4)
    near = first[:, None] + np.arange(4)
    xs, ys = nodes[near], values[near]
    out = np.zeros(x.size)
    for a in range(4):
        weight = ys[:, a]
        for b in range(4):
            if b != a:
                weight = weight * (x - xs[:, b]) / (xs[:, a] - xs[:, b])
        out += weight
    return out


def _secular_roots(z, lam2, d):
    """Roots of f(x) = z - x - sum_k lam2_k / (d_k - x), lam2 > 0 and d
    strictly ascending, as x = d[origin] + tau with origin the nearer pole,
    so that each x - d_k comes out to full relative precision; and the
    number of secular rows evaluated on the way.

    f falls strictly between its poles, so each gap holds one root.  The
    iteration fits f and f' at the current point by the two nearest poles
    plus a constant (the "middle way" of R.-C. Li, LAPACK Working Note 89,
    1993) and takes the fit's root, or bisects the bracket where that root
    falls outside it.  Every `_SEED_STRIDE`th gap, and the last, starts cold:
    its half is found from f at the midpoint.  The others start from a seed:
    at a root, f = c_j + lam2_{j-1} / (x - d_{j-1}) - lam2_j / (d_j - x)
    with c_j, the rest of f, smooth in j (it is a sum over all the poles),
    so c_j is interpolated from the cold gaps and the two-pole equation
    solved with the gap's own lam2, which keeps the seed accurate for a
    root that hugs a pole with a tiny lam2.  A seeded root iterates in its
    whole gap, measured from the pole nearer its seed; one that ends in the
    other half is solved again cold, so that origin is the nearer pole of
    every root.  At N = 2000 ((1, 10, 0, 0.1), W = 265) the seeds were off
    by 2e-9 relative in the median and 6e-7 at p90, one root in 2000 was
    solved again, and the roots took 2.2 evaluations each, against 4.1 when
    all started cold.  The edge roots below d_1 and above d_m keep the linear
    term of f in their fit instead of the missing pole.
    """
    m = d.size
    origin, tau = np.empty(m + 1, dtype=int), np.empty(m + 1)
    gaps = np.arange(1, m)
    cold = np.unique(np.r_[gaps[::_SEED_STRIDE], gaps[-1:]])
    if cold.size < 4:
        cold = gaps
    origin[cold], tau[cold], evaluations = _cold_roots(z, lam2, d, cold)

    j = np.setdiff1d(gaps, cold)
    if j.size:
        g, a, b = d[j] - d[j - 1], lam2[j - 1], lam2[j]
        gc = d[cold] - d[cold - 1]
        up = origin[cold] == cold
        dist_lo = np.where(up, gc + tau[cold], tau[cold])
        dist_hi = np.where(up, -tau[cold], gc - tau[cold])
        c = _cubic_interpolate(j, cold, lam2[cold] / dist_hi - lam2[cold - 1] / dist_lo)
        up = c + 2.0 * (a - b) / g > 0.0        # the two-pole root in the upper half
        s = _two_pole_root(np.where(up, -c, c), np.where(up, b, a), np.where(up, a, b), g)
        org, t = np.where(up, j, j - 1), np.where(up, -s, s)
        t, more = _iterate(z, lam2, d, org, t, np.where(up, -g, 0.0), np.where(up, 0.0, g),
                           _secular_terms(z, lam2, d, org, t), _gap_step(d, j, org))
        evaluations += j.size + more
        # a root that its seed misplaced ends in the other half: solve it cold
        far = np.flatnonzero(np.abs(t) > 0.5 * g)
        if far.size:
            org[far], t[far], more = _cold_roots(z, lam2, d, j[far])
            evaluations += more
        origin[j], tau[j] = org, t

    radius = math.sqrt(float(lam2.sum()))
    for j, org, bound in ((0, 0, min(z, d[0]) - radius - d[0]),
                          (m, m - 1, max(z, d[-1]) + radius - d[-1])):
        side = 1.0 if bound > 0.0 else -1.0     # root above d_m or below d_1

        def step(t, f, sb, sa, rows, side=side):
            # fit c - t + q/t, the one pole on the root's side plus f's linear term
            q = t * t * (sb if side > 0.0 else sa)
            return side * _positive_root(side * (f + t - q / t), q)

        org, t = np.array([org]), np.array([0.5 * bound])
        bracket = np.array([min(bound, 0.0)]), np.array([max(bound, 0.0)])
        origin[j] = org[0]
        edge, more = _iterate(z, lam2, d, org, t, *bracket,
                              _secular_terms(z, lam2, d, org, t), step)
        tau[j] = edge[0]
        evaluations += 1 + more
    return origin, tau, evaluations


def _iterate(z, lam2, d, origin, tau, lo, hi, terms, step):
    """Safeguarded iteration of the rows' offsets ``tau`` inside their
    brackets (lo, hi), starting from the secular ``terms`` at ``tau``;
    returns the offsets and the number of rows it evaluated.

    ``step`` proposes each row's next offset from its fit; a proposal outside
    the bracket, and every step after the 40th, bisects instead, so each row
    ends within 200 steps.  A row stops when |f| is at its rounding level,
    when the step is below the spacing of floats near tau, or when its
    bracket has shrunk to that spacing.  Every row still going is evaluated
    in one `_secular_terms` call per step."""
    tau, lo, hi = tau.copy(), lo.copy(), hi.copy()
    rows = np.arange(tau.size)
    f, sb, sa, size = terms
    evaluated = 0
    for it in range(200):
        t = tau[rows]
        lo[rows] = np.where(f > 0.0, t, lo[rows])
        hi[rows] = np.where(f < 0.0, t, hi[rows])
        a, b = lo[rows], hi[rows]
        new = step(t, f, sb, sa, rows)
        inside = (new > a) & (new < b) & (it < 40)
        new = np.where(inside, new, 0.5 * (a + b))
        done = ((np.abs(f) <= 8.0 * _EPS * size)
                | (np.abs(new - t) <= 2.0 * _EPS * np.abs(t))
                | (b - a <= 2.0 * _EPS * np.maximum(np.abs(a), np.abs(b))))
        tau[rows] = np.where(done, t, new)
        rows = rows[~done]
        if rows.size == 0:
            break
        f, sb, sa, size = _secular_terms(z, lam2, d, origin[rows], tau[rows])
        evaluated += rows.size
    return tau, evaluated


def _loewner_border(d, origin, tau):
    """Squared border of the arrowhead whose secular roots are exactly
    x = d[origin] + tau (Loewner's formula):

        b_k^2 = (d_k - x_0)(x_m - d_k) prod_{l<k} (d_k - x_{l+1})/(d_k - d_l)
                                       prod_{l>k} (x_l - d_k)/(d_l - d_k),

    every factor of the products in (0, 1) by interlacing.  A block of
    k in [lo, hi) holds factor l of b_k^2 in row l, column k: the rows
    l < lo all take the first form and l >= hi the second, so only the band
    of rows l in [lo, hi) chooses per entry."""
    m = d.size
    base = d[origin]
    out = np.empty(m)
    for lo in range(0, m, _ROWS):
        hi = min(lo + _ROWS, m)
        k = np.arange(lo, hi)
        dk = d[lo:hi]
        # row l, column k: the root x_{l+1} for l < lo, x_l for l >= lo
        roots = np.r_[1:lo + 1, lo:m]
        num = _gaps(dk, base[roots], tau[roots])
        num[lo:hi] = np.where(k > k[:, None], _gaps(dk, base[lo + 1:hi + 1], tau[lo + 1:hi + 1]),
                              num[lo:hi])
        den = _gaps(dk, d)
        num[k, k - lo] = den[k, k - lo] = 1.0
        num /= den
        out[lo:hi] = ((dk - base[0]) - tau[0]) * ((base[-1] - dk) + tau[-1]) * np.prod(num, axis=0)
    return out


def _thermal_diagonals(bath: DiscreteBath, params: ModelParams):
    """Raw (undoubled) thermal variances of the bath modes."""
    om = bath.omegas
    T = params.temperature
    th = coth(om / (2.0 * T)) if T > 0 else np.ones_like(om)
    return th / (2.0 * om), om * th / 2.0     # <q^2>, <p^2>


def _heads_and_rows(ch: _ChannelModes, t):
    """The modes with their heads, and the two system rows of the channel
    propagator S(t), shape t.shape + (2, 2N+2), from one pass over the
    Cauchy matrix b_k / (x_j - d_k).

    Row 0 propagates onto the collective position, row 1 onto its momentum;
    columns are (positions, momenta) of (system, bath modes).  Each row is
    f U^T for phase rows f = head_j (cos, sin / mu, -mu sin)(mu_j t) over the
    modes, and U^T is applied in its closed form (`_ChannelModes`).  One
    block of _ROWS roots j at a time, the block's Cauchy rows are made once:
    head_j = (1 + sum_k (b_k / (x_j - d_k))^2)^(-1/2) comes from them, then
    the block adds (phase_j head_j^2) times them into the bath columns of
    every time's rows.  The heads are the border's, so that the vectors stay
    orthonormal to rounding.  Deflated modes have head 0 and leave their
    bath columns zero.
    """
    m, n = ch.d.size, ch.mu2.size
    mu = np.sqrt(ch.mu2[:m + 1])
    ph = np.multiply.outer(np.asarray(t, dtype=float), mu)
    c, s = np.cos(ph), np.sin(ph)
    phases = np.stack([c, s / mu, -mu * s])
    flat = phases.reshape(-1, m + 1)
    head = np.zeros(n)
    head[0] = 1.0                               # if no bath mode couples
    bath = np.zeros((flat.shape[0], m))
    product = np.empty_like(bath)
    base = ch.d[ch.origin]
    for lo in range(0, ch.tau.size, _ROWS):
        j = slice(lo, min(lo + _ROWS, m + 1))
        cauchy = _gaps(ch.d, base[j], ch.tau[j])
        np.divide(-ch.border, cauchy, out=cauchy)              # b_k / (x_j - d_k)
        head[j] = 1.0 / np.sqrt(1.0 + np.einsum("ij,ij->i", cauchy, cauchy))
        np.matmul(flat[:, j] * head[j] * head[j], cauchy, out=product)
        bath += product
    out = np.zeros((flat.shape[0], n))
    out[:, 0] = (flat * head[:m + 1]) @ head[:m + 1]
    out[:, ch.cols] = bath
    a_row, b_row, c_row = out.reshape(phases.shape[:-1] + (n,))
    rows = np.stack([np.concatenate([a_row, b_row], axis=-1),
                     np.concatenate([c_row, a_row], axis=-1)], axis=-2)
    return replace(ch, head=head), rows


def _missing_mode_noise(params: ModelParams, sign: int, W: float, t: np.ndarray,
                        g12: np.ndarray, g22: np.ndarray) -> np.ndarray:
    """Doubled noise block of the channel modes above W (module docstring),
    shape (Nt, 2, 2) over the times ``t``."""
    r = params.distance
    w_inf = 4.0 * params.gamma * params.omega_cut**2 / math.pi

    def c(a):
        return cos_tail(a, W, 3) + sign * 0.5 * (cos_tail(np.abs(a - r), W, 3)
                                                 + cos_tail(a + r, W, 3))

    g = np.stack([g12, g22], axis=-1)[..., :, None]
    e2 = np.array([[0.0], [1.0]])
    gg, ge = g * g.swapaxes(-1, -2), g * e2.T
    return w_inf * ((gg + e2 * e2.T) * c(0.0)
                    - (ge + ge.swapaxes(-1, -2)) * c(t)[:, None, None])


# B_2k, k = 1..7, of psi'(y) ~ 1/y + 1/(2 y^2) + sum_k B_2k / y^(2k+1)
_BERNOULLI = (1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0, 5.0 / 66.0, -691.0 / 2730.0,
              7.0 / 6.0)
_TRIGAMMA_SERIES_FROM = 20.0


def _trigamma(x: np.ndarray) -> np.ndarray:
    """psi'(x) for x > 0: the recurrence psi'(x) = psi'(x + 1) + 1/x^2 up to
    y = x + n >= 20, where the asymptotic series above stops at B_14, whose
    term is below 1e-18 of psi'(y); the 1/(x + j)^2 are added smallest first."""
    n = np.maximum(np.ceil(_TRIGAMMA_SERIES_FROM - x), 0.0)
    y = x + n
    w = 1.0 / (y * y)
    acc = _BERNOULLI[-1]
    for b in _BERNOULLI[-2::-1]:
        acc = acc * w + b
    out = 1.0 / y + 0.5 * w + acc * w / y
    for j in range(int(n.max(initial=0.0)) - 1, -1, -1):
        out += np.where(j < n, 1.0 / (x + j) ** 2, 0.0)
    return out


def _image_sum(x: np.ndarray, period: float, T: float) -> np.ndarray:
    """sum_{m != 0} (-1)^m f(x + m period) for 0 <= x < period.

    f = (pi T)^2 / sinh^2(pi T x), or 1/x^2 at T = 0.  At T = 0 the sum is
    closed-form: with a = +-x/period, sum_{m>=1} (-1)^m / (m + a)^2 =
    -[psi'((a + 1)/2) - psi'((a + 2)/2)] / 4, psi' the trigamma function.
    At T > 0 the series alternates with decreasing terms, so stopping after
    an even number of them leaves less than the first omitted term: as many
    as the exp(-2 pi T m period) decay needs.
    """
    if T == 0.0:
        a = np.stack([x, -x]) / period
        return -0.25 * np.sum(_trigamma(0.5 * (a + 1.0)) - _trigamma(0.5 * (a + 2.0)),
                              axis=0) / period**2

    def f(y):
        e = np.exp(-2.0 * math.pi * T * y)
        return (2.0 * math.pi * T) ** 2 * e / (1.0 - e) ** 2

    n_terms = min(2000, int(20.0 / (math.pi * T * period)) + 2)
    out = np.zeros_like(x)
    for m in range(1, n_terms + n_terms % 2 + 1):
        out += (-1) ** m * (f(m * period + x) + f(m * period - x))
    return out


def _midpoint_response(ch: _ChannelModes, n: int, du: float) -> np.ndarray:
    """The channel's g = (G12, G22) = sum_j w_j (sin(mu_j u) / mu_j, cos(mu_j u)),
    w = head^2, at the n midpoints u = (i + 1/2) du, shape (n, 2).

    The phases e^{i mu u} of one block of _ROWS midpoints are made once and
    advanced in place to the next block; each block is one product of their
    interleaved (cos, sin) columns with the weights (0, w) and (w / mu, 0)."""
    w, mu = ch.head ** 2, ch.mu
    weights = np.zeros((mu.size, 2, 2))
    weights[:, 1, 0], weights[:, 0, 1] = w / mu, w
    weights = weights.reshape(-1, 2)
    ph = np.exp(1j * np.outer((np.arange(_ROWS) + 0.5) * du, mu))
    jump = np.exp(1j * mu * _ROWS * du)
    g = np.empty((n, 2))
    for lo in range(0, n, _ROWS):
        g[lo:lo + _ROWS] = ph[:min(_ROWS, n - lo)].view(float) @ weights
        ph *= jump
    return g


def _image_lags(bath: DiscreteBath, params: ModelParams, times: np.ndarray):
    """The image sums that `_image_noise` weighs, on its lag grid: (img, du),
    img of shape (3, n) at the lags tau, |tau - r| and tau + r; None when no
    time is past 0.

    The double integral over [0, t]^2 is a midpoint sum on a grid of step
    du <= 0.1 / max(Omega, 1)."""
    t_max = float(times.max())
    if t_max <= 0.0:
        return None
    n = int(math.ceil(t_max * max(params.omega_cut, 1.0) / 0.1))
    du = t_max / n
    r = params.distance
    lag = np.arange(n) * du
    img = _image_sum(np.concatenate([lag, np.abs(lag - r), lag + r]),
                     bath.recurrence_time, params.temperature).reshape(3, n)
    return img, du


def _image_noise(ch: _ChannelModes, sign: int, lags, params: ModelParams,
                 times: np.ndarray) -> np.ndarray:
    """Doubled noise that the recurrence images add to channel ``sign`` at
    the ``times``, shape (Nt, 2, 2), from the `_image_lags` ``lags``.

    With uniform weights the midpoint sum grows by one causal Toeplitz
    product per step, so all grid times come from one convolution and the
    requested times are interpolated between them.
    """
    if lags is None:
        return np.zeros((times.size, 2, 2))
    img, du = lags
    n = img.shape[1]
    k = np.minimum((times / du).astype(int), n - 1)
    frac = (times / du - k)[:, None, None]
    kern = -(4.0 * params.gamma / math.pi) * (img[0] + sign * 0.5 * (img[1] + img[2]))
    g = _midpoint_response(ch, n, du)
    # c_k = sum_{j<k} kern[k-j] g_j; step k adds g_k c_k^T + c_k g_k^T + kern[0] g_k g_k^T
    shifted = np.concatenate([[0.0], kern[1:]])
    c = np.stack([np.convolve(shifted, g[:, i])[:n] for i in range(2)], axis=1)
    steps = (g[:, :, None] * c[:, None, :] + c[:, :, None] * g[:, None, :]
             + kern[0] * g[:, :, None] * g[:, None, :])
    cum = np.concatenate([np.zeros((1, 2, 2)), np.cumsum(steps, axis=0)]) * du * du
    # linear interpolation between grid times
    return (1.0 - frac) * cum[k] + frac * cum[k + 1]


def reduced_covariance_series(params: ModelParams, times, n_modes: int,
                              omega_max_bath: float,
                              c0: CovarianceMatrix | None = None) -> CovarianceMatrix:
    """Reduced (doubled, dimensionless) system covariances at the given times,
    as one stack in the order requested.

    The workhorse for cross-validation runs: the normal modes of each
    channel from its secular equation (module docstring), then the closed-form
    eigenvectors applied to the phase rows of all the times at once.  Cost
    O(N^2) time and O(_ROWS N + N N_t) memory for N_t times; every O(N^2)
    pass runs on blocks of _ROWS rows, each small enough to stay in a core's
    L2 cache at the criterion-9 N (module docstring).  Times
    must stay below half the recurrence horizon.  The noise of each channel
    is corrected to the continuum bath: the missing modes above
    ``omega_max_bath`` are added and the recurrence images of the frequency
    grid removed (module docstring).  A T at or below `_THERMAL_FLOOR` Omega,
    whose thermal excess is below rounding, is taken as T = 0, as on the
    pipeline's paths.  Each channel's coupled and deflated modes, secular row
    evaluations per root and the wall times of its modes, system rows and
    image noise are logged at DEBUG on the "bathpair" logger.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if params.temperature <= _THERMAL_FLOOR * params.omega_cut:
        params = params.with_(temperature=0.0)
    bath = build_bath(params, n_modes, omega_max_bath,
                      compare_time=float(times.max()))
    cp0, cm0, cx0 = channel_blocks(np.eye(4) if c0 is None else c0.entries)

    lags = _image_lags(bath, params, times)
    vq, vp = _thermal_diagonals(bath, params)
    diag = np.concatenate([[0.0], vq, [0.0], vp])
    sys_cols = np.array([0, bath.n_modes + 1])
    later = (times > 0.0)[:, None, None]
    blocks, prop, report = {}, {}, []
    for s, c0_block in ((+1, cp0), (-1, cm0)):
        start = time.perf_counter()
        modes = _channel_modes(bath, params, s)
        solved = time.perf_counter()
        modes, rows = _heads_and_rows(modes, times)                # rows (Nt, 2, 2N+2)
        swept = time.perf_counter()
        images = _image_noise(modes, s, lags, params, times)
        report.append((s, modes.d.size + 1, bath.n_modes - modes.d.size,
                       modes.evaluations / (modes.d.size + 1), solved - start,
                       swept - solved, time.perf_counter() - swept))
        prop[s] = rows[..., sys_cols]                              # channel propagator
        raw = ((rows * diag) @ rows.swapaxes(-1, -2)
               + prop[s] @ (0.5 * c0_block) @ prop[s].swapaxes(-1, -2))
        missing = _missing_mode_noise(params, s, omega_max_bath, times,
                                      prop[s][:, 0, 1], prop[s][:, 1, 1])
        blocks[s] = 2.0 * raw - images + np.where(later, missing, 0.0)
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("oracle at %s, N = %d: " + "; ".join(
            ["channel %+d: %d coupled and %d deflated modes, %.2f secular evaluations "
             "per root, %.4f s modes, %.4f s rows, %.4f s image noise"] * len(report)),
            params, n_modes, *(v for entry in report for v in entry))
    cross = prop[+1] @ cx0 @ prop[-1].swapaxes(-1, -2)
    c4 = four_by_four(blocks[+1], blocks[-1], cross)
    return CovarianceMatrix(entries=c4, time_label=times)
