import math

import numpy as np
import pytest

from bathpair._panels import _CI_SERIES, _CI_SERIES_BELOW, _ci

mpmath = pytest.importorskip("mpmath")
EPS = np.finfo(float).eps


def _ci_tolerance(x: float) -> float:
    """An absolute bound on the rounding of `_panels._ci`, set from its two
    branches before comparing; u = eps/2.  Below x = 4: Horner's rule on the
    series rounds each partial sum once in its product and once in its sum,
    and a rounding at step j reaches the result scaled by the tail of the
    series past j, so the series costs at most 2 u A, A = sum_j j |c_j| x^(2j).
    ln x, gamma + ln x, the sum with the series and the reference's own
    rounding to a double add u (|ln x| + |gamma + ln x| + 2 |Ci|), and
    |Ci| <= |ln x| + gamma + A, so that is at most u (4 |ln x| + 2 A + 2).
    Above: the continued fraction f, |f| <= 1/x <= 1/4, is summed bottom-up
    from its deepest level, each level damping the error below it (by
    k^2 / |f_k|^2 < 1), and its truncation is below 1e-16 relative; with
    the products by cos x and sin x, 8 u |f| <= eps / x bounds it, and the
    reference's rounding adds u |Ci| <= u."""
    if x >= _CI_SERIES_BELOW:
        return EPS / x + 0.5 * EPS
    a = sum((j + 1) * abs(c) * x ** (2 * j + 2) for j, c in enumerate(_CI_SERIES))
    return EPS * (2.0 * a + 2.0 * abs(math.log(x)) + 1.0)


def _points():
    below, above = np.nextafter(_CI_SERIES_BELOW, 0.0), np.nextafter(_CI_SERIES_BELOW, 8.0)
    # the switch of branches, and the fraction's depth ceil(200 / x) + 3 going 9 -> 8 at 40
    edges = [below, _CI_SERIES_BELOW, above, 3.99, 4.01, 0.61650549, 40.0,
             np.nextafter(40.0, 0.0), np.nextafter(40.0, 50.0), 200.0, 0.5 * math.pi, 1e6]
    return np.concatenate([np.geomspace(1e-8, 1e6, 400), np.linspace(0.1, 12.0, 120), edges])


def test_ci_matches_mpmath():
    """Ci(x) of a float and of an array, against mpmath's Ci at 30 digits,
    from 1e-8 to 1e6 and on both sides of the switch from the series to the
    continued fraction, within the bound of `_ci_tolerance`."""
    mpmath.mp.dps = 30
    x = _points()
    ref = np.array([float(mpmath.ci(mpmath.mpf(float(v)))) for v in x])
    tol = np.array([_ci_tolerance(float(v)) for v in x])
    scalar = np.array([_ci(float(v)) for v in x])
    assert all(isinstance(_ci(float(v)), float) for v in x[:3])
    assert np.all(np.abs(scalar - ref) <= tol), x[np.argmax(np.abs(scalar - ref) / tol)]
    array = _ci(x.reshape(2, -1)).ravel()
    assert np.all(np.abs(array - ref) <= tol), x[np.argmax(np.abs(array - ref) / tol)]


def test_ci_of_an_empty_or_zero_dimensional_array():
    assert _ci(np.array([])).shape == (0,)
    assert _ci(np.array(5.0)).shape == ()
    assert float(_ci(np.array(5.0))) == pytest.approx(_ci(5.0), abs=1e-16)
