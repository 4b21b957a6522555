"""Logarithmic negativity of two-mode Gaussian states, one matrix or a stack.

Conventions (locked to the rest of the package): phase-space ordering
(Q1, Q2, P1, P2), covariance doubled so the two-oscillator ground state is
the 4x4 identity, and separability threshold 1 for the symplectic
eigenvalues of the partially transposed covariance.

The symplectic spectrum has one route, the two-mode closed form.  Every
function takes one 4x4 matrix or a stack (..., 4, 4), bare or as a
`covariance.CovarianceMatrix`; a stack costs a few batched ``det`` calls,
and each of its members gets the checks a single matrix gets.  The eigen
route (moduli of the eigenvalues of i*Sigma*C) is kept in the tests as the
cross-check.

Physicality has one rule, `require_physical`: positive definite, and the
smallest symplectic eigenvalue at least 1 - 1e-6.  `log_negativity` and
`negativity_margin` apply it to their inputs, and the covariance builders to
what they take and return; a `CovarianceMatrix` that passed is not checked again.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SYMPLECTIC_FORM",
    "partial_transpose",
    "symplectic_eigenvalues",
    "positive_definite",
    "require_physical",
    "log_negativity",
    "negativity_margin",
    "PairingError",
    "UnphysicalCovarianceError",
]


class PairingError(ValueError):
    """The symplectic spectrum of C is undefined: C is not finite and symmetric,
    or the eigenvalues of i*Sigma*C do not come in real +- pairs."""


class UnphysicalCovarianceError(ValueError):
    """Covariance violates the uncertainty bound beyond tolerance."""


#: Read-only symplectic form for ordering (Q1, Q2, P1, P2): upper-right +I2,
#: lower-left -I2 (Sigma^T = -Sigma, Sigma^2 = -I).
SYMPLECTIC_FORM = np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0],
                            [-1.0, 0.0, 0.0, 0.0], [0.0, -1.0, 0.0, 0.0]])
SYMPLECTIC_FORM.flags.writeable = False
_PT_SIGNS = np.outer([1.0, 1.0, 1.0, -1.0], [1.0, 1.0, 1.0, -1.0])
# (row, col) of the entry products giving det A, det B and det X in one gather
_DET_ROWS = np.array([[0, 1, 0], [2, 3, 2], [0, 1, 0], [2, 3, 2]])
_DET_COLS = np.array([[0, 1, 1], [2, 3, 3], [2, 3, 3], [0, 1, 1]])
_MINUS_PLUS = np.array([-1.0, 1.0])


def _as_stack(c) -> np.ndarray:
    arr = np.asarray(getattr(c, "entries", c), dtype=float)
    if arr.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 covariance or a stack of them, got shape {arr.shape}")
    return arr


def _first(bad: np.ndarray) -> tuple[tuple, str]:
    """Index of the first flagged member, and ' at stack index ...' ('' for one matrix)."""
    i = tuple(int(k) for k in np.argwhere(bad)[0]) if bad.ndim else ()
    return i, f" at stack index {i}" if i else ""


def partial_transpose(c):
    """Time-reversal of the second oscillator: flip sign of row/column 4.

    The (4,4) entry flips twice and is unchanged; the map is an involution.
    CovarianceMatrix in gives CovarianceMatrix out, arrays (or stacks) give arrays.
    """
    arr = _as_stack(c) * _PT_SIGNS
    if hasattr(c, "entries"):
        return type(c)(entries=arr, time_label=c.time_label)
    return arr


def symplectic_eigenvalues(c):
    """Symplectic eigenvalues of (not necessarily physical) symmetric 4x4 C.

    One matrix gives the ascending pair (lambda_-, lambda_+); a stack
    (..., 4, 4) gives an array (..., 2).  Closed form: lambda_pm^2 = x_pm,
    the roots of x^2 - Delta x + det C, with Delta = det A + det B + 2 det X
    over the per-mode (Q_i, P_i) blocks A, B and the off-diagonal block X.
    The eigenvalues of i*Sigma*C are +-sqrt(x_pm), so their moduli pair up
    and equal the closed form exactly when C is finite and symmetric and
    both roots are real and non-negative.  The first member that fails
    raises PairingError naming its index; the tolerances are where the
    moduli would leave the closed form by 1e-7 s, s = max(1, lambda_+):
    -disc * lambda_+ <= 4e-7 Delta^2 s (first order) and x_- >= -(1e-7 s)^2.
    Symmetry is |C - C^T| <= 1e-9 max(1, max|C|).
    """
    arr = _as_stack(c)
    finite = np.isfinite(arr).all(axis=(-2, -1))
    if not finite.all():     # flagged below; the stand-in keeps the arithmetic quiet
        arr = np.where(finite[..., None, None], arr, np.eye(4))
    asym = np.abs(arr - arr.swapaxes(-1, -2)).max(axis=(-2, -1))
    not_symmetric = asym > 1e-9 * np.maximum(1.0, np.abs(arr).max(axis=(-2, -1)))
    e = arr[..., _DET_ROWS, _DET_COLS]
    dets = e[..., 0, :] * e[..., 1, :] - e[..., 2, :] * e[..., 3, :]
    delta = dets[..., 0] + dets[..., 1] + 2.0 * dets[..., 2]
    disc = delta * delta - 4.0 * np.linalg.det(arr)
    root = np.sqrt(np.maximum(disc, 0.0))
    x = 0.5 * (delta[..., None] + _MINUS_PLUS * root[..., None])
    lam = np.sqrt(np.maximum(x, 0.0))
    scale = np.maximum(1.0, lam[..., 1])
    complex_roots = -disc * lam[..., 1] > 4e-7 * delta * delta * scale
    negative_root = x[..., 0] < -(1e-7 * scale) ** 2
    bad = ~finite | not_symmetric | complex_roots | negative_root
    if bad.any():
        i, where = _first(bad)
        if not finite[i]:
            raise PairingError(f"covariance is not finite{where}")
        if not_symmetric[i]:
            raise PairingError(f"covariance is not symmetric{where}")
        if complex_roots[i]:
            raise PairingError(f"symplectic roots are complex{where}: discriminant {disc[i]}")
        raise PairingError(f"symplectic root x_- = {x[i][0]} is negative{where}")
    return tuple(lam) if lam.ndim == 1 else lam


def positive_definite(c):
    """Whether C is positive definite (all leading principal minors > 0), as
    a bool per member.  -C has the symplectic spectrum of C, so only this
    check tells a physical covariance from its negative.
    """
    arr = _as_stack(c)
    minors = np.stack([np.linalg.det(arr[..., :k, :k]) for k in range(1, 5)], axis=-1)
    return (minors > 0.0).all(axis=-1)


def require_physical(c) -> None:
    """Refuse ``c`` unless every member is positive definite with smallest
    symplectic eigenvalue >= 1 - 1e-6, the package's one physicality rule.

    The first member that breaks it raises UnphysicalCovarianceError naming
    its time when ``c`` carries a ``time_label``, else its stack index.  A
    spectrum that is undefined raises PairingError first.  A read-only
    `covariance.CovarianceMatrix` that passes is marked ``physical``, never checked again.
    """
    if getattr(c, "physical", False):
        return
    arr = _as_stack(c)
    lam_min = np.asarray(symplectic_eigenvalues(arr))[..., 0]
    not_pd = ~positive_definite(arr)
    bad = not_pd | (lam_min < 1.0 - 1e-6)
    if bad.any():
        i, where = _first(bad)
        why = "not positive definite" if not_pd[i] else f"min symplectic eigenvalue {lam_min[i]}"
        if hasattr(c, "time_label"):
            label = c.time_label[i] if i else c.time_label
            raise UnphysicalCovarianceError(f"covariance at t={label} unphysical: {why}")
        raise UnphysicalCovarianceError(f"input covariance unphysical{where}: {why}")
    if hasattr(c, "physical"):
        object.__setattr__(c, "physical", True)


def _pt_spectrum(c) -> np.ndarray:
    """Partial-transpose symplectic spectrum (..., 2) of a physical ``c``."""
    require_physical(c)
    return np.asarray(symplectic_eigenvalues(partial_transpose(_as_stack(c))))


def log_negativity(c):
    """E = -sum_j log2 min(1, lambda_j~) over the partial-transpose spectrum.

    One matrix gives a float; a stack (..., 4, 4) gives an array (...).
    Every input must pass `require_physical` first.  Values of lambda~
    within 1e-12 of 1 count as exactly 1, so roundoff never produces
    spurious entanglement; E = 0 if and only if the state is separable.
    """
    lam_pt = _pt_spectrum(c)
    logs = np.where(lam_pt < 1.0 - 1e-12, np.log2(lam_pt), 0.0)
    E = 0.0 - logs[..., 0] - logs[..., 1]    # 0.0 - ...: a separable state gives +0.0
    return float(E) if E.ndim == 0 else E


def negativity_margin(c):
    """Signed margin mu = -log2 lambda~_- of the partial-transpose spectrum
    `log_negativity` uses: E = mu where mu > 0 (a physical two-mode state has
    lambda~_+ >= 1), and mu keeps falling past separability, smooth where E is
    clamped to zero.  One matrix gives a float, a stack an array.
    """
    mu = -np.log2(_pt_spectrum(c)[..., 0])
    return float(mu) if mu.ndim == 0 else mu
