import math

import numpy as np
import pytest

from bathpair.entanglement import (
    SYMPLECTIC_FORM,
    PairingError,
    UnphysicalCovarianceError,
    log_negativity,
    negativity_margin,
    partial_transpose,
    positive_definite,
    require_physical,
    symplectic_eigenvalues,
)
from conftest import eigen_symplectic_eigenvalues, random_physical_covariance

LN2 = math.log(2.0)


def two_mode_squeezed(s: float) -> np.ndarray:
    """Apply the two-mode squeezing symplectic to the vacuum identity."""
    ch, sh = math.cosh(s), math.sinh(s)
    S = np.array([
        [ch, sh, 0.0, 0.0],
        [sh, ch, 0.0, 0.0],
        [0.0, 0.0, ch, -sh],
        [0.0, 0.0, -sh, ch],
    ])
    # sanity: S must be symplectic
    assert np.allclose(S @ SYMPLECTIC_FORM @ S.T, SYMPLECTIC_FORM, atol=1e-12)
    return S @ S.T


def test_symplectic_form_invariants():
    sig = SYMPLECTIC_FORM
    assert np.array_equal(sig.T, -sig)
    assert np.allclose(sig @ sig, -np.eye(4))
    with pytest.raises(ValueError):
        sig[0, 0] = 1.0


def test_partial_transpose_rules():
    assert np.array_equal(partial_transpose(np.eye(4)), np.eye(4))
    c = np.eye(4)
    c[0, 3] = c[3, 0] = 0.3
    ct = partial_transpose(c)
    assert ct[0, 3] == -0.3 and ct[3, 0] == -0.3
    assert ct[3, 3] == 1.0
    assert np.array_equal(partial_transpose(ct), c)


def test_symplectic_eigenvalues_basics():
    assert symplectic_eigenvalues(np.eye(4)) == pytest.approx((1.0, 1.0))
    a = 1.7
    assert symplectic_eigenvalues(a * np.eye(4)) == pytest.approx((a, a))


@pytest.mark.parametrize("s", [0.1, 0.5, 1.0])
def test_two_mode_squeezed_spectrum_and_E(s):
    c = two_mode_squeezed(s)
    # direct eigen-decomposition of the partial transpose
    lam = symplectic_eigenvalues(partial_transpose(c))
    assert lam[0] == pytest.approx(math.exp(-2 * s), rel=1e-11)
    assert lam[1] == pytest.approx(math.exp(2 * s), rel=1e-11)
    assert log_negativity(c) == pytest.approx(2 * s / LN2, abs=1e-9)


def test_log_negativity_zero_cases():
    assert log_negativity(np.eye(4)) == 0.0
    n = 2.3
    assert log_negativity(n * np.eye(4)) == 0.0
    # squeezing below roundoff clamps exactly to zero
    assert log_negativity(two_mode_squeezed(1e-14)) == 0.0


def test_log_negativity_rejects_unphysical():
    with pytest.raises(UnphysicalCovarianceError):
        log_negativity(0.5 * np.eye(4))


def test_pairing_error_on_garbage():
    bad = np.arange(16.0).reshape(4, 4)
    with pytest.raises(PairingError):
        symplectic_eigenvalues(bad)


def test_eigen_vs_closed_form_on_1000_random_states(rng):
    """The eigen route (tests only) against the closed form of the library."""
    for _ in range(1000):
        c = random_physical_covariance(rng)
        lam = eigen_symplectic_eigenvalues(c)
        cf = symplectic_eigenvalues(c)
        scale = max(1.0, lam[1])
        assert abs(lam[0] - cf[0]) <= 1e-10 * scale
        assert abs(lam[1] - cf[1]) <= 1e-10 * scale
        assert lam[0] >= 1.0 - 1e-6     # generator produces physical states


def test_local_symplectic_invariance(rng):
    """E is invariant under independent single-mode symplectic operations."""
    from scipy.linalg import expm

    for _ in range(60):
        c = random_physical_covariance(rng)
        e0 = log_negativity(c)
        # build S1 (+) S2 acting on (Q_i, P_i) separately, then reorder
        blocks = []
        for _mode in range(2):
            q = rng.normal(scale=0.4, size=(2, 2))
            q = 0.5 * (q + q.T)
            j2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
            blocks.append(expm(j2 @ q))
        s = np.zeros((4, 4))
        for m, blk in enumerate(blocks):
            # mode m occupies rows/cols (m, m+2) in (Q1,Q2,P1,P2) ordering
            idx = np.array([m, m + 2])
            s[np.ix_(idx, idx)] = blk
        assert np.allclose(s @ SYMPLECTIC_FORM @ s.T, SYMPLECTIC_FORM, atol=1e-12)
        e1 = log_negativity(s @ c @ s.T)
        assert abs(e1 - e0) <= 1e-9 * max(1.0, e0)


def test_uncertainty_bound_on_random_states(rng):
    for _ in range(200):
        c = random_physical_covariance(rng)
        assert symplectic_eigenvalues(c)[0] >= 1.0 - 1e-6


def test_covariance_matrix_round_trip():
    """partial_transpose preserves the CovarianceMatrix wrapper type."""
    from bathpair.covariance import CovarianceMatrix

    c = CovarianceMatrix(entries=two_mode_squeezed(0.3), time_label=1.5)
    ct = partial_transpose(c)
    assert isinstance(ct, CovarianceMatrix)
    assert ct.time_label == 1.5
    assert log_negativity(c.entries) == pytest.approx(0.6 / LN2, abs=1e-9)


def test_stack_equals_per_matrix_on_1000_random_states(rng):
    cs = np.array([random_physical_covariance(rng) for _ in range(1000)])
    lam = symplectic_eigenvalues(cs)
    e = log_negativity(cs)
    assert lam.shape == (1000, 2) and e.shape == (1000,)
    assert np.max(np.abs(lam - [symplectic_eigenvalues(c) for c in cs])) <= 1e-14
    assert np.max(np.abs(e - [log_negativity(c) for c in cs])) <= 1e-14
    # any leading shape works, member by member
    assert np.array_equal(log_negativity(cs.reshape(10, 100, 4, 4)), e.reshape(10, 100))


# One member of a stack of physical states is replaced by each input the
# spectrum is undefined for; the refusal names that member.
_UNDEFINED_SPECTRA = [
    (None, r"not symmetric"),                   # one entry moved by 1e-6
    (np.diag([1.0, 1.0, -1.0, -1.0]), r"is negative"),     # A = B = diag(1, -1): x = -1, -1
    (np.array([[2.0, 3.0, 0.0, -3.0], [3.0, 2.0, -1.0, -3.0],
               [0.0, -1.0, -2.0, 4.0], [-3.0, -3.0, 4.0, 2.0]]),
     r"roots are complex"),                     # Delta = 9, discriminant -99
    (np.full((4, 4), np.nan), r"not finite"),
    (np.diag([np.inf, 1.0, 1.0, 1.0]), r"not finite"),
]


def test_stack_refuses_one_bad_member(rng):
    cs = np.array([random_physical_covariance(rng) for _ in range(8)])
    for member, message in _UNDEFINED_SPECTRA:
        bad = cs.copy()
        if member is None:
            bad[5, 0, 1] += 1e-6
        else:
            bad[5] = member
        with pytest.raises(PairingError, match=message + r".*at stack index \(5,\)"):
            symplectic_eigenvalues(bad)
        with pytest.raises(PairingError):
            log_negativity(bad)
        if member is not None:      # a single matrix is refused the same way
            with pytest.raises(PairingError, match=message):
                symplectic_eigenvalues(member)


def test_negative_definite_states_are_refused(rng):
    """-C has the symplectic spectrum of C; only positive definiteness tells
    the physical state from its negative."""
    from bathpair.covariance import CovarianceMatrix

    c = random_physical_covariance(rng)
    for neg in (-np.eye(4), -c):
        assert not positive_definite(neg)
        with pytest.raises(UnphysicalCovarianceError, match="not positive definite"):
            log_negativity(neg)
        with pytest.raises(UnphysicalCovarianceError, match=r"at t=2\.0 unphysical: not positive"):
            require_physical(CovarianceMatrix(entries=[c, neg], time_label=[1.0, 2.0]))
    cs = np.array([random_physical_covariance(rng) for _ in range(6)])
    assert positive_definite(cs).all()
    cs[2] = -cs[2]
    with pytest.raises(UnphysicalCovarianceError, match=r"at stack index \(2,\)"):
        log_negativity(cs)


def test_stack_refuses_one_unphysical_member(rng):
    cs = np.array([random_physical_covariance(rng) for _ in range(6)])
    cs[4] = 0.5 * np.eye(4)
    with pytest.raises(UnphysicalCovarianceError, match=r"at stack index \(4,\)"):
        log_negativity(cs)


def test_trace_equals_per_output_log_negativity(monkeypatch):
    """ROADMAP trace case: the stacked E(t) of `trace` against one call per output."""
    from bathpair import analysis
    from bathpair.model import ModelParams

    seen = []

    def recording(*args, **kwargs):
        out = real(*args, **kwargs)
        seen.extend(out)
        return out

    real = analysis.covariance_time_series
    monkeypatch.setattr(analysis, "covariance_time_series", recording)
    params = ModelParams(gamma=1.0, omega_cut=10.0, temperature=0.0, distance=0.2)
    tr = analysis.trace(params, t_max=40.0, dt=0.02)
    per_output = np.array([log_negativity(c.entries) for c in seen])
    assert len(seen) == tr.values.size == 2001
    assert np.max(np.abs(tr.values - per_output)) <= 1e-12
    assert np.max(tr.values) > 0.0
    # the eigen route on every output and its partial transpose
    cs = np.stack([c.entries for c in seen])
    for stack in (cs, partial_transpose(cs)):
        lam = symplectic_eigenvalues(stack)
        ref = eigen_symplectic_eigenvalues(stack)
        assert np.all(np.abs(lam - ref) <= 1e-10 * np.maximum(1.0, ref[:, 1:]))


def test_series_refusal_names_first_unphysical_time(monkeypatch):
    from bathpair import covariance
    from bathpair.greens import greens_time
    from bathpair.model import ModelParams

    params = ModelParams(gamma=1.0, omega_cut=10.0, distance=0.1)
    greens = greens_time(np.linspace(0.0, 2.0, 401), params)
    real = covariance.four_by_four

    def halved_from_t_1_5(*blocks):
        c4 = real(*blocks).copy()
        c4[3:] *= 0.5       # outputs t = 1.5 and 2.0 drop below the bound
        return c4

    monkeypatch.setattr(covariance, "four_by_four", halved_from_t_1_5)
    with pytest.raises(UnphysicalCovarianceError, match=r"t=1\.5\d*\b unphysical"):
        covariance.covariance_time_series(greens, params, [0.0, 0.5, 1.0, 1.5, 2.0])


def test_margin_is_the_signed_log_negativity(rng):
    """E = mu where the state is entangled (past the 1e-12 snap) and 0 elsewhere,
    bit for bit; mu keeps its sign past separability."""
    cs = np.array([random_physical_covariance(rng) for _ in range(400)]
                  + [two_mode_squeezed(s) for s in (1e-14, 0.1, 1.0)] + [2.3 * np.eye(4)])
    mu = negativity_margin(cs)
    E = log_negativity(cs)
    entangled = mu > -math.log2(1.0 - 1e-12)
    assert entangled.any() and (~entangled).any()
    assert np.array_equal(E[entangled], mu[entangled])
    assert np.all(E[~entangled] == 0.0)
    assert negativity_margin(np.diag([2.0, 3.0, 2.0, 3.0])) == pytest.approx(-1.0, rel=1e-12)
    assert negativity_margin(two_mode_squeezed(0.5)) == pytest.approx(1.0 / LN2, rel=1e-11)
    with pytest.raises(UnphysicalCovarianceError):
        negativity_margin(0.5 * np.eye(4))


def _count_members(monkeypatch, name):
    """Spy on an `entanglement` function: the stack size of every call."""
    from bathpair import entanglement

    seen = []
    real = getattr(entanglement, name)

    def spy(c):
        seen.append(int(np.prod(np.shape(c)[:-2])))
        return real(c)

    monkeypatch.setattr(entanglement, name, spy)
    return seen


def test_asymptotic_state_is_checked_once(monkeypatch):
    """One spectrum for the physicality check, one for the partial transpose."""
    from bathpair.analysis import asymptotic_log_negativity
    from bathpair.covariance import covariance_asymptotic
    from bathpair.model import ModelParams

    params = ModelParams(gamma=1.0, omega_cut=10.0, temperature=0.1, distance=0.1)
    seen = _count_members(monkeypatch, "symplectic_eigenvalues")
    asymptotic_log_negativity(params)
    assert seen == [1, 1]
    seen.clear()
    c = covariance_asymptotic(params)
    negativity_margin(c)
    log_negativity(c)
    assert seen == [1, 1, 1]


def test_trace_checks_each_output_once(monkeypatch):
    from bathpair.analysis import trace
    from bathpair.model import ModelParams

    seen = _count_members(monkeypatch, "positive_definite")
    tr = trace(ModelParams(gamma=1.0, omega_cut=10.0, distance=0.2), t_max=2.0, dt=0.05)
    # the initial state, the stack of outputs, the asymptote
    assert seen == [1, tr.times.size, 1]


def test_only_a_passing_covariance_is_marked():
    from bathpair.covariance import CovarianceMatrix

    bad = CovarianceMatrix(entries=0.5 * np.eye(4))
    for _ in range(2):
        with pytest.raises(UnphysicalCovarianceError):
            require_physical(bad)
    assert not bad.physical
    good = CovarianceMatrix(entries=np.eye(4)[None].repeat(3, axis=0), time_label=[0.0, 1.0, 2.0])
    require_physical(good)
    assert good.physical and good[1].physical and good[[0, 2]].physical
    assert not partial_transpose(good).physical
    with pytest.raises(TypeError):
        CovarianceMatrix(entries=0.5 * np.eye(4), physical=True)
