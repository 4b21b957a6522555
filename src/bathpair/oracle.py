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
materialized, one block of bath columns at a time, which makes long series of
reduced covariances cheap.

Every O(N^2) pass (the secular function, Loewner's products, the head norms,
the system rows, the image noise's phases) works on one block of _ROWS rows
of an N-wide array at a time.  At N = 2000, 64 rows of float64 are 1 MB,
which stays in a 2 MiB per-core L2 cache through the half-dozen passes over
the block; 256 rows (4 MB) did not.  A block's rows are neighbouring roots,
so its columns split at the block: the poles below every row, the poles
above every row, and a band about as wide as the block between them.  The
secular sums and Loewner's factors take whole column views outside the band
and choose per entry only inside it.

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

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dger
from scipy.special import polygamma

from ._panels import cos_tail
from .covariance import CovarianceMatrix
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
    with head 0.  (origin, tau) are empty when no bath mode couples.
    """

    mu2: np.ndarray             # squared normal-mode frequencies, shape (N+1,)
    head: np.ndarray            # first row of the mode matrix, u_0j
    origin: np.ndarray          # nearer pole of each coupled root
    tau: np.ndarray             # its offset from that pole
    d: np.ndarray               # coupled diagonal entries d_k, ascending
    border: np.ndarray          # Loewner border b_k
    cols: np.ndarray            # chain columns of the coupled bath modes

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
_EPS = np.finfo(float).eps


def _gaps(d, *shifts):
    """d_k - shift_j - ..., row j over the columns d_k, rounded left to
    right: with shifts (d[origin], tau), x_j - d_k keeps full relative
    precision next to x_j's own pole.  Each shift is a rank-1 update of the
    rows, exact but for its one rounding; numpy broadcasts a per-row scalar
    several times slower."""
    w = np.repeat(d[None], shifts[0].size, axis=0)
    for shift in shifts:
        w = dger(-1.0, np.ones(d.size), shift, a=w.T, overwrite_a=True).T
    return w


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
    The mode matrix is never built: only its first row, the norms' inverses,
    is kept (`_ChannelModes`).  Cost O(N^2) in time and O(_ROWS N) in memory:
    the secular iteration, Loewner's products and the norms each take the
    roots _ROWS at a time, and the first two split the columns at the block
    (module docstring).
    """
    n = diag.size
    scale = max(abs(corner), abs(diag[-1])) + float(np.linalg.norm(border))
    live = np.abs(border) > _EPS * scale
    d, lam = diag[live], border[live]
    dead = np.flatnonzero(~live)
    head = np.zeros(n + 1)
    if d.size == 0:
        x, origin, tau, b = np.array([corner]), np.zeros(0, dtype=int), np.zeros(0), np.zeros(0)
        head[0] = 1.0
    else:
        origin, tau = _secular_roots(corner, lam * lam, d)
        x = d[origin] + tau
        b = np.copysign(np.sqrt(_loewner_border(d, origin, tau)), lam)
        for lo in range(0, d.size + 1, _ROWS):
            j = slice(lo, min(lo + _ROWS, d.size + 1))
            v = _gaps(d, d[origin[j]], tau[j])
            np.divide(b, v, out=v)                              # b_k / (d_k - x_j)
            head[j] = 1.0 / np.sqrt(1.0 + np.einsum("ij,ij->i", v, v))
    return _ChannelModes(mu2=np.concatenate([x, diag[dead]]), head=head, origin=origin,
                         tau=tau, d=d, border=b, cols=1 + np.flatnonzero(live))


def _secular_terms(z, lam2, d, origin, tau):
    """The secular function f(x) = z - x - sum_k lam2_k / (d_k - x) at
    x = d[origin] + tau, one point per row, with the sums of
    lam2_k / (d_k - x)^2 over the poles below and above x and the sum of the
    magnitudes of f's terms, which sets its rounding error.

    Row i has the poles d[:split_i] below its x.  The poles below every
    row's split and those from the highest split on are summed as whole
    column views; only the band between the lowest and highest split, as
    wide as the rows' spread, is masked."""
    split = origin + (tau > 0.0)
    lo, hi = int(split.min()), int(split.max())
    under = np.arange(lo, hi) < split[:, None]
    w = _gaps(d, d[origin], tau)
    np.reciprocal(w, out=w)                 # 1 / (d_k - x)

    def below_above(w):
        band = np.where(under, w[:, lo:hi], 0.0)
        return (w[:, :lo] @ lam2[:lo] + band @ lam2[lo:hi],
                w[:, hi:] @ lam2[hi:] + (w[:, lo:hi] - band) @ lam2[lo:hi])

    psi_below, psi_above = below_above(w)
    w *= w
    slope_below, slope_above = below_above(w)
    base = z - d[origin]
    f = base - tau - (psi_below + psi_above)
    size = np.abs(base) + np.abs(tau) + psi_above - psi_below
    return f, slope_below, slope_above, size


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


def _secular_roots(z, lam2, d):
    """Roots of f(x) = z - x - sum_k lam2_k / (d_k - x), lam2 > 0 and d
    strictly ascending, as x = d[origin] + tau with origin the nearer pole,
    so that each x - d_k comes out to full relative precision.

    f falls strictly between its poles, so each gap holds one root.  Its
    half is found from f at the midpoint.  The iteration then fits f and f'
    at the current point by the two nearest poles plus a constant (the
    "middle way" of R.-C. Li, LAPACK Working Note 89, 1993) and takes the
    fit's root, or bisects the bracket where that root falls outside it.
    The edge roots below d_1 and above d_m keep the linear term of f in
    their fit instead of the missing pole.  All interior roots iterate
    together, one block of rows at a time.
    """
    m = d.size
    origin, tau = np.empty(m + 1, dtype=int), np.empty(m + 1)
    for lo in range(1, m, _ROWS):
        j = np.arange(lo, min(lo + _ROWS, m))
        g = d[j] - d[j - 1]
        f, sb, sa, size = _secular_terms(z, lam2, d, j - 1, 0.5 * g)
        upper = f > 0.0                         # root in the upper half
        org = np.where(upper, j, j - 1)
        t = np.where(upper, -0.5, 0.5) * g
        lo_t, hi_t = np.where(upper, t, 0.0), np.where(upper, 0.0, t)

        def step(t, f, sb, sa, rows, upper=upper, g=g):
            up = upper[rows]
            dist_lo = np.where(up, g[rows] + t, t)          # x - d_{j-1}
            dist_hi = np.where(up, -t, g[rows] - t)         # d_j - x
            a, b = dist_lo**2 * sb, dist_hi**2 * (sa + 1.0)
            c = f - a / dist_lo + b / dist_hi
            # in the upper half, the same fit seen from d_j with t -> -t
            s = _two_pole_root(np.where(up, -c, c), np.where(up, b, a),
                               np.where(up, a, b), g[rows])
            return np.where(up, -s, s)

        origin[j], tau[j] = org, _iterate(z, lam2, d, org, t, lo_t, hi_t,
                                          (f, sb, sa, size), step)
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
        tau[j] = _iterate(z, lam2, d, org, t, *bracket,
                          _secular_terms(z, lam2, d, org, t), step)[0]
    return origin, tau


def _iterate(z, lam2, d, origin, tau, lo, hi, terms, step):
    """Safeguarded iteration of the rows' offsets ``tau`` inside their
    brackets (lo, hi), starting from the secular ``terms`` at ``tau``.

    ``step`` proposes each row's next offset from its fit; a proposal outside
    the bracket, and every step after the 40th, bisects instead, so each row
    ends within 200 steps.  A row stops when |f| is at its rounding level,
    when the step is below the spacing of floats near tau, or when its
    bracket has shrunk to that spacing."""
    tau, lo, hi = tau.copy(), lo.copy(), hi.copy()
    rows = np.arange(tau.size)
    f, sb, sa, size = terms
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
    return tau


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


def _system_rows(ch: _ChannelModes, t):
    """Two system rows of the channel propagator S(t), shape t.shape + (2, 2N+2).

    Row 0 propagates onto the collective position, row 1 onto its momentum;
    columns are (positions, momenta) of (system, bath modes).  Each row is
    f U^T for phase rows f over the modes; U^T is applied in its closed form
    (`_ChannelModes`), one block of _ROWS bath columns at a time, so that all
    times share each block's Cauchy matrix b_k / (x_j - d_k).  Deflated bath
    columns stay zero.
    """
    mu = ch.mu
    ph = np.multiply.outer(np.asarray(t, dtype=float), mu)
    c, s = np.cos(ph), np.sin(ph)
    f = ch.head * np.stack([c, s / mu, -mu * s])
    flat = f.reshape(-1, mu.size)
    out = np.zeros_like(flat)
    out[:, 0] = flat @ ch.head
    m = ch.d.size
    w = flat[:, :m + 1] * ch.head[:m + 1]
    base = ch.d[ch.origin]
    for lo in range(0, m, _ROWS):
        k = slice(lo, min(lo + _ROWS, m))
        cauchy = _gaps(ch.d[k], base, ch.tau)
        np.divide(-ch.border[k], cauchy, out=cauchy)           # b_k / (x_j - d_k)
        out[:, ch.cols[k]] = w @ cauchy
    a_row, b_row, c_row = out.reshape(f.shape)
    return np.stack([np.concatenate([a_row, b_row], axis=-1),
                     np.concatenate([c_row, a_row], axis=-1)], axis=-2)


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
        return -0.25 * np.sum(polygamma(1, 0.5 * (a + 1.0)) - polygamma(1, 0.5 * (a + 2.0)),
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


def _image_noise(chans: dict, bath: DiscreteBath, params: ModelParams,
                 times: np.ndarray) -> dict:
    """Doubled noise that the recurrence images add, per channel sign and
    time: {sign: (Nt, 2, 2)}.

    The double integral over [0, t]^2 is a midpoint sum on a grid of step
    du <= 0.1 / max(Omega, 1); with uniform weights it grows by one
    causal Toeplitz product per step, so all grid times come from one
    convolution and the requested times are interpolated between them.
    """
    t_max = float(times.max())
    if t_max <= 0.0:
        return {s: np.zeros((times.size, 2, 2)) for s in chans}
    n = int(math.ceil(t_max * max(params.omega_cut, 1.0) / 0.1))
    du = t_max / n
    r = params.distance
    lag = np.arange(n) * du
    img = _image_sum(np.concatenate([lag, np.abs(lag - r), lag + r]),
                     bath.recurrence_time, params.temperature).reshape(3, n)
    k = np.minimum((times / du).astype(int), n - 1)
    frac = (times / du - k)[:, None, None]
    out = {}
    for sign, ch in chans.items():
        kern = -(4.0 * params.gamma / math.pi) * (img[0] + sign * 0.5 * (img[1] + img[2]))
        g = _midpoint_response(ch, n, du)
        # c_k = sum_{j<k} kern[k-j] g_j; step k adds g_k c_k^T + c_k g_k^T + kern[0] g_k g_k^T
        shifted = np.concatenate([[0.0], kern[1:]])
        c = np.stack([np.convolve(shifted, g[:, i])[:n] for i in range(2)], axis=1)
        steps = (g[:, :, None] * c[:, None, :] + c[:, :, None] * g[:, None, :]
                 + kern[0] * g[:, :, None] * g[:, None, :])
        cum = np.concatenate([np.zeros((1, 2, 2)), np.cumsum(steps, axis=0)]) * du * du
        # linear interpolation between grid times
        out[sign] = (1.0 - frac) * cum[k] + frac * cum[k + 1]
    return out


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
    grid removed (module docstring).
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    bath = build_bath(params, n_modes, omega_max_bath,
                      compare_time=float(times.max()))
    cp0, cm0, cx0 = channel_blocks(np.eye(4) if c0 is None else c0.entries)

    chans = {s: _channel_modes(bath, params, s) for s in (+1, -1)}
    images = _image_noise(chans, bath, params, times)
    vq, vp = _thermal_diagonals(bath, params)
    diag = np.concatenate([[0.0], vq, [0.0], vp])
    sys_cols = np.array([0, bath.n_modes + 1])
    later = (times > 0.0)[:, None, None]
    blocks, prop = {}, {}
    for s, c0_block in ((+1, cp0), (-1, cm0)):
        rows = _system_rows(chans[s], times)                       # (Nt, 2, 2N+2)
        prop[s] = rows[..., sys_cols]                              # channel propagator
        raw = ((rows * diag) @ rows.swapaxes(-1, -2)
               + prop[s] @ (0.5 * c0_block) @ prop[s].swapaxes(-1, -2))
        missing = _missing_mode_noise(params, s, omega_max_bath, times,
                                      prop[s][:, 0, 1], prop[s][:, 1, 1])
        blocks[s] = 2.0 * raw - images[s] + np.where(later, missing, 0.0)
    cross = prop[+1] @ cx0 @ prop[-1].swapaxes(-1, -2)
    c4 = four_by_four(blocks[+1], blocks[-1], cross)
    return CovarianceMatrix(entries=c4, time_label=times)

