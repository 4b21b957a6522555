"""Shared quadrature helpers: Gauss-Legendre panels and analytic cosine tails."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.special import sici


@lru_cache(maxsize=8)
def _leggauss(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def gauss_panels(edges, n: int = 12):
    """Composite Gauss-Legendre nodes/weights on the panels defined by ``edges``.

    ``edges`` must be strictly increasing.  Returns flat (nodes, weights).
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2:
        raise ValueError("need at least two panel edges")
    if np.any(np.diff(edges) <= 0):
        raise ValueError("panel edges must be strictly increasing")
    x0, w0 = _leggauss(n)
    a = edges[:-1][:, None]
    b = edges[1:][:, None]
    nodes = 0.5 * (b - a) * x0[None, :] + 0.5 * (a + b)
    weights = 0.5 * (b - a) * w0[None, :] * np.ones_like(x0)[None, :]
    return nodes.ravel(), weights.ravel()


def merge_edges(*edge_groups, lo: float, hi: float, min_gap: float = 1e-12):
    """Merge edge candidates into a sorted, deduplicated grid on [lo, hi]."""
    vals = [np.asarray(g, dtype=float).ravel() for g in edge_groups]
    edges = np.concatenate([[lo, hi]] + vals) if vals else np.array([lo, hi])
    edges = edges[(edges >= lo) & (edges <= hi)]
    edges = np.unique(edges)
    keep = [edges[0]]
    for e in edges[1:]:
        if e - keep[-1] > min_gap:
            keep.append(e)
    if keep[-1] < hi:
        keep[-1] = hi
    return np.asarray(keep)


def cos_tail(a, W: float, power: int):
    """Exact tail integral  int_W^inf cos(a*w) / w**power dw  for power in {3, 5}.

    Evaluated through the cosine integral Ci and vectorized over a; a may
    be zero.  A scalar a gives a scalar, computed without array
    temporaries, since the asymptotic path calls this for single values.
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
    ci = sici(b * W)[1]
    c, s = cos(b * W), sin(b * W)
    k3 = c / (2 * W**2) - b * s / (2 * W) + 0.5 * b * b * ci
    if power == 5:
        k3 = c / (4 * W**4) - (b / 4.0) * (s / (3 * W**3) + (b / 3.0) * k3)
    return float(k3) if scalar else np.where(zero, at_zero, k3)
