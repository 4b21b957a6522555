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


def _fraction(x, n: int):
    """e^{ix} E_n(ix) of a float x >= 4, or of an array of them, by the
    continued fraction 1/(ix + n - 1 n/(ix + n + 2 - 2 (n + 1)/(ix + n + 4
    - ...))), k (n - 1 + k) the k-th numerator (Press et al., Numerical
    Recipes, 3rd ed., sec. 6.3), evaluated bottom-up from the depth
    ceil(200/x) + n + 2.  That leaves it within 3e-16 relative of mpmath's
    at n = 1, 3 and 5 on [4, 1e6]: a fixed depth, so a float and an array
    take the same steps.  An array takes its fractions in order of x, the
    deepest first, each from its own depth on."""
    if not isinstance(x, np.ndarray):
        depth, z = math.ceil(200.0 / x) + n + 2, complex(0.0, x)
        f = z + (n + 2 * depth)
        for k in range(depth, 0, -1):
            f = z + (n + 2 * k - 2) - k * (n - 1 + k) / f
        return 1.0 / f
    order = np.argsort(x)
    v = x[order]
    depth = np.ceil(200.0 / v).astype(int) + n + 2           # non-increasing
    z = 1j * v
    f = z + (n + 2 * depth)
    levels = np.arange(depth[0] if v.size else 0, 0, -1)
    for k, m in zip(levels, np.searchsorted(-depth, -levels, side="right")):
        f[:m] = z[:m] + (n + 2 * k - 2) - k * (n - 1 + k) / f[:m]     # the m fractions this deep
    out = np.empty(x.shape, dtype=complex)
    out[order] = 1.0 / f
    return out


def _ci(x):
    """Cosine integral Ci(x) = gamma + ln x + int_0^x (cos t - 1)/t dt of a
    float x > 0, or of an array of them (Press et al., Numerical Recipes,
    3rd ed., sec. 6.8).  Below x = 4 its power series; from 4 on
    Ci(x) = -Re E1(ix), by the continued fraction `_fraction`.  Against
    mpmath the absolute error is below 9e-16 on [1e-3, 1e6] (6e-17 from
    x = 4 on), and below 1e-3 it is the rounding of ln x.
    """
    if not isinstance(x, np.ndarray):
        if x < _CI_SERIES_BELOW:
            return _ci_series(x, math.log)
        f = _fraction(x, 1)
        return -(math.cos(x) * f.real + math.sin(x) * f.imag)
    flat = x.ravel()
    out = np.empty(flat.shape)
    small = flat < _CI_SERIES_BELOW
    out[small] = _ci_series(flat[small], np.log)
    v = flat[~small]
    f = _fraction(v, 1)
    out[~small] = -(np.cos(v) * f.real + np.sin(v) * f.imag)
    return out.reshape(x.shape)


def cos_tail(a, W: float, power: int):
    """Exact tail integral  int_W^inf cos(a*w) / w**power dw  for power in {3, 5}.

    Vectorized over a; a may be zero.  Below x = aW = 4 it is the closed
    form through the cosine integral (`_ci`, its series there); from 4 on it
    is W^(1 - power) Re E_power(i x), by the continued fraction `_fraction`,
    within about 3e-16 relative of mpmath's.  The closed form cancels at
    large x, where the tail, O(1/(a W^3)), is what is left of terms
    O(a/W): it would keep a relative error of about x^2 eps, and at power 5
    worse.  A scalar a gives a scalar, computed without array temporaries,
    since the asymptotic path calls this for single values.
    """
    if W <= 0:
        raise ValueError("tail cut W must be positive")
    if power not in (3, 5):
        raise ValueError(f"unsupported power {power}")
    scalar = not isinstance(a, np.ndarray)
    a = abs(float(a)) if scalar else np.abs(a.astype(float))
    x = a * W
    scale = 1.0 / W ** (power - 1)
    if scalar:
        if x == 0.0:
            return scale / (power - 1)
        if x >= _CI_SERIES_BELOW:
            f = _fraction(x, power)
            return scale * (math.cos(x) * f.real + math.sin(x) * f.imag)
        return _cos_tail_closed(a, W, power, math.cos, math.sin)
    out = np.full(a.shape, scale / (power - 1))
    far = x >= _CI_SERIES_BELOW
    near = (x > 0.0) & ~far
    f = _fraction(x[far], power)
    out[far] = scale * (np.cos(x[far]) * f.real + np.sin(x[far]) * f.imag)
    out[near] = _cos_tail_closed(a[near], W, power, np.cos, np.sin)
    return out


def _cos_tail_closed(b, W: float, power: int, cos, sin):
    """`cos_tail` at b > 0 through Ci(bW), with c, s = ``cos``, ``sin``(bW):
    the power-3 tail c/(2W^2) - b s/(2W) + b^2 Ci/2, and from it by parts the
    power-5 tail c/(4W^4) - (b/4)(s/(3W^3) + (b/3) k3)."""
    c, s = cos(b * W), sin(b * W)
    k3 = c / (2 * W**2) - b * s / (2 * W) + 0.5 * b * b * _ci(b * W)
    if power == 5:
        k3 = c / (4 * W**4) - (b / 4.0) * (s / (3 * W**3) + (b / 3.0) * k3)
    return k3
