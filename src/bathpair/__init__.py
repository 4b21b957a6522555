"""Entanglement of two harmonic oscillators coupled to a common 1D heat bath.

The package computes the time-dependent and asymptotic logarithmic
negativity of two identical oscillators at separation r, damped by an
ohmic bath with a Drude cutoff, in natural units omega0 = c = hbar =
k_B = m = 1.  Two independent routes are provided: an analytic pipeline
(Laplace-domain Green's function, numerically inverted, with all noise
integrals done against the bath spectrum in the frequency domain) and a
brute-force discretized-bath reference (`oracle`) that evolves each
exchange channel's chain of bath modes exactly and keeps the rows of the
oscillators.
"""

from .model import ModelParams, spectral_density, validate
from .entanglement import log_negativity, partial_transpose, symplectic_eigenvalues

__all__ = [
    "ModelParams",
    "validate",
    "spectral_density",
    "log_negativity",
    "partial_transpose",
    "symplectic_eigenvalues",
]

__version__ = "0.1.0"
