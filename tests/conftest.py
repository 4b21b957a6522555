import numpy as np
import pytest

from bathpair.model import ModelParams


BOX = {"gamma": (0.01, 50.0), "omega_cut": (0.5, 100.0),
       "temperature": (0.01, 10.0), "distance": (1e-4, 20.0)}


def box_points(seed: int, n: int = 64, **bounds) -> list[ModelParams]:
    """Log-uniform sample of the parameter box, a quarter of it at T = 0;
    ``bounds`` replaces the (lo, hi) of the axes it names."""
    rng = np.random.default_rng(seed)
    box = {**BOX, **bounds}
    out = []
    for _ in range(n):
        vals = {k: lo * (hi / lo) ** rng.uniform() for k, (lo, hi) in box.items()}
        if rng.uniform() < 0.25:
            vals["temperature"] = 0.0
        out.append(ModelParams(**vals))
    return out


@pytest.fixture(scope="session")
def base_params() -> ModelParams:
    """Reference parameter point used across the suite."""
    return ModelParams(gamma=1.0, omega_cut=10.0, temperature=0.0, distance=0.1)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


def random_symplectic(rng: np.random.Generator, scale: float = 0.5) -> np.ndarray:
    """Random 4x4 symplectic matrix exp(Sigma Q) with Q symmetric."""
    from scipy.linalg import expm

    from bathpair.entanglement import SYMPLECTIC_FORM

    q = rng.normal(scale=scale, size=(4, 4))
    q = 0.5 * (q + q.T)
    return expm(SYMPLECTIC_FORM @ q)


def eigen_symplectic_eigenvalues(c) -> np.ndarray:
    """Reference symplectic eigenvalues by the eigen route, (..., 2) ascending.

    The eigenvalues of i*Sigma*C come in +- pairs; their sorted moduli are
    checked to pair up within 1e-8 of the largest (at least 1), and each
    pair is averaged.  This is the cross-check of the closed form in
    `bathpair.entanglement.symplectic_eigenvalues`.
    """
    from bathpair.entanglement import SYMPLECTIC_FORM

    mods = np.sort(np.abs(np.linalg.eigvals(1j * SYMPLECTIC_FORM @ np.asarray(c))), axis=-1)
    scale = np.maximum(1.0, mods[..., 3:])
    assert np.all(mods[..., 1::2] - mods[..., 0::2] <= 1e-8 * scale), "moduli do not pair up"
    return 0.5 * (mods[..., 0::2] + mods[..., 1::2])


def random_physical_covariance(rng: np.random.Generator,
                               nu_max: float = 3.0) -> np.ndarray:
    """Random physical covariance S diag(nu1, nu2, nu1, nu2) S^T, nu >= 1."""
    s = random_symplectic(rng)
    nu = 1.0 + rng.uniform(0.0, nu_max - 1.0, size=2)
    d = np.diag([nu[0], nu[1], nu[0], nu[1]])
    return s @ d @ s.T
