"""Shared quadrature helpers: Gauss-Legendre panels and analytic cosine tails."""

from __future__ import annotations

import math

import numpy as np

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(12)   # Gauss-Legendre rule per panel
_EULER = 0.57721566490153286061          # Euler-Mascheroni constant
_CI_SERIES_BELOW = 4.0
# (-1)^k / (2k (2k)!), k = 1..17: the last term at x = 4 is below 3e-20
_CI_SERIES = tuple((-1) ** k / (2 * k * math.factorial(2 * k)) for k in range(1, 18))


def gauss_panels(edges):
    """Composite 12-point Gauss-Legendre nodes/weights on the panels defined by ``edges``.

    ``edges`` must be strictly increasing.  Returns flat (nodes, weights).
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2:
        raise ValueError("need at least two panel edges")
    if np.any(np.diff(edges) <= 0):
        raise ValueError("panel edges must be strictly increasing")
    a = edges[:-1][:, None]
    b = edges[1:][:, None]
    nodes = 0.5 * (b - a) * _NODES[None, :] + 0.5 * (a + b)
    weights = 0.5 * (b - a) * _WEIGHTS[None, :]
    return nodes.ravel(), weights.ravel()


def _ci_series(x, log):
    """gamma + ln x + sum_k (-1)^k x^(2k) / (2k (2k)!), by Horner's rule in x^2."""
    y, acc = x * x, _CI_SERIES[-1]
    for c in _CI_SERIES[-2::-1]:
        acc = acc * y + c
    return _EULER + log(x) + acc * y


def _ci(x):
    """Cosine integral Ci(x) = gamma + ln x + int_0^x (cos t - 1)/t dt of a
    float x > 0, or of an array of them (Press et al., Numerical Recipes,
    3rd ed., sec. 6.8).  Below x = 4 its power series; from 4 on
    Ci(x) = -Re E1(ix), with e^{ix} E1(ix) = 1/(ix + 1 - 1/(ix + 3 - 4/(ix + 5
    - ...))), k^2 the k-th numerator, evaluated bottom-up from the depth
    ceil(200/x) + 3, which leaves the fraction within 1e-16 relative of its
    limit at every x >= 4: a fixed depth, so a float and an array take the
    same steps.  Against mpmath the absolute error is below 9e-16 on
    [1e-3, 1e6] (6e-17 from x = 4 on), and below 1e-3 it is the rounding
    of ln x.  An array takes its fractions in order of x, the deepest
    first, each from its own depth on.
    """
    if not isinstance(x, np.ndarray):
        if x < _CI_SERIES_BELOW:
            return _ci_series(x, math.log)
        depth, z = math.ceil(200.0 / x) + 3, complex(0.0, x)
        f = z + (2 * depth + 1)
        for k in range(depth, 0, -1):
            f = z + (2 * k - 1) - k * k / f
        f = 1.0 / f
        return -(math.cos(x) * f.real + math.sin(x) * f.imag)
    flat = x.ravel()
    out = np.empty(flat.shape)
    small = flat < _CI_SERIES_BELOW
    out[small] = _ci_series(flat[small], np.log)
    at = np.flatnonzero(~small)
    at = at[np.argsort(flat[at])]
    v = flat[at]
    depth = np.ceil(200.0 / v).astype(int) + 3           # non-increasing
    z = 1j * v
    f = z + (2 * depth + 1)
    levels = np.arange(depth[0] if v.size else 0, 0, -1)
    for k, n in zip(levels, np.searchsorted(-depth, -levels, side="right")):
        f[:n] = z[:n] + (2 * k - 1) - k * k / f[:n]     # the n fractions this deep
    f = 1.0 / f
    out[at] = -(np.cos(v) * f.real + np.sin(v) * f.imag)
    return out.reshape(x.shape)


def cos_tail(a, W: float, power: int):
    """Exact tail integral  int_W^inf cos(a*w) / w**power dw  for power in {3, 5}.

    Evaluated through the cosine integral Ci (`_ci`: its series below
    x = aW = 4, the continued fraction of E1(ix) above, absolute error
    below 9e-16) and vectorized over a; a may be zero.  A scalar a gives a
    scalar, computed without array temporaries, since the asymptotic path
    calls this for single values.  At large aW the closed form cancels:
    the tail, O(1/(a W^3)), is what is left of terms O(a/W), so it keeps
    a relative error of about (aW)^2 eps.
    """
    if W <= 0:
        raise ValueError("tail cut W must be positive")
    if power not in (3, 5):
        raise ValueError(f"unsupported power {power}")
    scalar = not isinstance(a, np.ndarray)
    a = abs(float(a)) if scalar else np.abs(a.astype(float))
    zero = a == 0.0
    at_zero = 1.0 / ((power - 1) * W ** (power - 1))
    if scalar and zero:
        return at_zero
    b = a if scalar else np.where(zero, 1.0, a)
    cos, sin = (math.cos, math.sin) if scalar else (np.cos, np.sin)
    ci = _ci(b * W)
    c, s = cos(b * W), sin(b * W)
    k3 = c / (2 * W**2) - b * s / (2 * W) + 0.5 * b * b * ci
    if power == 5:
        k3 = c / (4 * W**4) - (b / 4.0) * (s / (3 * W**3) + (b / 3.0) * k3)
    return float(k3) if scalar else np.where(zero, at_zero, k3)
