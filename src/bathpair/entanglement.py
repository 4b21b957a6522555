"""Logarithmic negativity of two-mode Gaussian states, one matrix or a stack.

Conventions (locked to the rest of the package): phase-space ordering
(Q1, Q2, P1, P2), covariance doubled so the two-oscillator ground state is
the 4x4 identity, and separability threshold 1 for the symplectic
eigenvalues of the partially transposed covariance.

Every route takes one 4x4 matrix or a stack (..., 4, 4).  A stack costs one
batched ``eigvals`` and one batched ``det``, and each of its members gets
the checks a single matrix gets.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SYMPLECTIC_FORM",
    "partial_transpose",
    "symplectic_eigenvalues",
    "symplectic_eigenvalues_closed_form",
    "log_negativity",
    "PairingError",
    "UnphysicalCovarianceError",
]


class PairingError(ValueError):
    """Eigenvalues of i*Sigma*C failed to come in +- pairs (corrupted input)."""


class UnphysicalCovarianceError(ValueError):
    """Covariance violates the uncertainty bound beyond tolerance."""


#: Read-only symplectic form for ordering (Q1, Q2, P1, P2): upper-right +I2,
#: lower-left -I2 (Sigma^T = -Sigma, Sigma^2 = -I).
SYMPLECTIC_FORM = np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0],
                            [-1.0, 0.0, 0.0, 0.0], [0.0, -1.0, 0.0, 0.0]])
SYMPLECTIC_FORM.flags.writeable = False
_I_SIGMA = 1j * SYMPLECTIC_FORM
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


def _closed_form(arr: np.ndarray) -> np.ndarray:
    """Two-mode closed form lambda_pm^2 = (Delta +- sqrt(Delta^2 - 4 det C))/2, (..., 2).

    Delta = det A + det B + 2 det X over the per-mode (Q_i, P_i) blocks A, B
    and the off-diagonal block X; the 2x2 determinants are taken entry-wise.
    """
    e = arr[..., _DET_ROWS, _DET_COLS]
    dets = e[..., 0, :] * e[..., 1, :] - e[..., 2, :] * e[..., 3, :]
    delta = dets[..., 0] + dets[..., 1] + 2.0 * dets[..., 2]
    root = np.sqrt(np.maximum(delta * delta - 4.0 * np.linalg.det(arr), 0.0))
    return np.sqrt(np.maximum(0.5 * (delta[..., None] + _MINUS_PLUS * root[..., None]), 0.0))


def symplectic_eigenvalues(c):
    """Symplectic eigenvalues of (not necessarily physical) symmetric 4x4 C.

    One matrix gives the ascending pair (lambda_-, lambda_+); a stack
    (..., 4, 4) gives an array (..., 2).  The values are the moduli of the
    eigenvalues of i*Sigma*C, which come in two +- pairs.  The first member
    that fails one of these checks raises PairingError naming its index:
    symmetry (|C - C^T| <= 1e-9 max(1, max|C|)); pairing of the sorted
    moduli, within 1e-8 of the largest (at least 1); and agreement with the
    two-mode closed form within 1e-7 on that scale, as a disagreement means
    a corrupted input.
    """
    arr = _as_stack(c)
    asym = np.abs(arr - arr.swapaxes(-1, -2)).max(axis=(-2, -1))
    not_symmetric = asym > 1e-9 * np.maximum(1.0, np.abs(arr).max(axis=(-2, -1)))
    mods = np.sort(np.abs(np.linalg.eigvals(_I_SIGMA @ arr)), axis=-1)
    scale = np.maximum(1.0, mods[..., 3:])
    lam = 0.5 * (mods[..., 0::2] + mods[..., 1::2])
    cf = _closed_form(arr)
    unpaired = (mods[..., 1::2] - mods[..., 0::2] > 1e-8 * scale).any(axis=-1)
    disagrees = (np.abs(cf - lam) > 1e-7 * scale).any(axis=-1)
    bad = not_symmetric | unpaired | disagrees
    if bad.any():
        i, where = _first(bad)
        if not_symmetric[i]:
            raise PairingError(f"covariance is not symmetric{where}")
        if unpaired[i]:
            raise PairingError(f"eigenvalue moduli do not pair up{where}: {mods[i]}")
        raise PairingError(f"eigen-decomposition {lam[i]} disagrees with closed form {cf[i]}{where}")
    return tuple(lam) if lam.ndim == 1 else lam


def symplectic_eigenvalues_closed_form(c):
    """Closed-form (block determinant) symplectic eigenvalues, unchecked, shaped as above."""
    cf = _closed_form(_as_stack(c))
    return tuple(cf) if cf.ndim == 1 else cf


def log_negativity(c):
    """E = -sum_j log2 min(1, lambda_j~) over the partial-transpose spectrum.

    One matrix gives a float; a stack (..., 4, 4) gives an array (...).
    The inputs and their partial transposes share one `symplectic_eigenvalues`
    call, so a PairingError on either comes first.  Every input must itself
    be physical (own symplectic eigenvalues >= 1 - 1e-6); the first
    that is not raises UnphysicalCovarianceError naming its index.  Values of
    lambda~ within 1e-12 of 1 count as exactly 1, so roundoff never produces
    spurious entanglement; E = 0 if and only if the state is separable.
    """
    arr = _as_stack(c)
    lam_own, lam_pt = symplectic_eigenvalues(np.stack([arr, partial_transpose(arr)]))
    bad = lam_own[..., 0] < 1.0 - 1e-6
    if bad.any():
        i, where = _first(bad)
        raise UnphysicalCovarianceError(
            f"input covariance unphysical{where}: min symplectic eigenvalue {lam_own[i][0]}")
    logs = np.where(lam_pt < 1.0 - 1e-12, np.log2(lam_pt), 0.0)
    E = 0.0 - logs[..., 0] - logs[..., 1]    # 0.0 - ...: a separable state gives +0.0
    return float(E) if E.ndim == 0 else E
