"""Physical parameters and the bath spectral density.

Natural units are fixed by the model itself, for the whole package:

    omega0 = c = hbar = k_B = m = 1

Distances are measured in c/omega0, frequencies in omega0, temperature in
hbar*omega0/k_B.  There is no field for the bare frequency or the mass:
the formulas carry them as the number 1, and the ground state of the bare
oscillators is the identity covariance only because they are 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "ModelParams",
    "validate",
    "spectral_density",
    "read_config_file",
]


@dataclass(frozen=True)
class ModelParams:
    """Model parameters in natural units.  Immutable once created."""

    gamma: float                # damping constant (units of omega0)
    omega_cut: float            # Drude cutoff frequency Omega (units of omega0)
    temperature: float = 0.0    # bath temperature T (units of hbar*omega0/k_B)
    distance: float = 0.0       # oscillator separation r (units of c/omega0)

    @property
    def cutoff_wavelength(self) -> float:
        """lambda = 2*pi*c/Omega with c = 1."""
        return 2.0 * math.pi / self.omega_cut

    def with_(self, **changes) -> "ModelParams":
        return replace(self, **changes)


def validate(params: ModelParams) -> ModelParams:
    """Return ``params`` unchanged if all invariants hold.

    Raises ValueError naming the offending field otherwise.  T = 0 is an
    exact, fully supported value (downstream formulas branch on it), so
    only strictly negative temperatures are rejected.
    """
    if not params.gamma > 0.0:
        raise ValueError(f"gamma must be positive (got {params.gamma})")
    if not params.omega_cut > 0.0:
        raise ValueError(f"omega_cut must be positive (got {params.omega_cut})")
    if params.temperature < 0.0:
        raise ValueError(f"negative temperature (got {params.temperature})")
    if params.distance < 0.0:
        raise ValueError(f"negative distance (got {params.distance})")
    for name in ("gamma", "omega_cut", "temperature", "distance"):
        value = getattr(params, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite (got {value})")
    return params


def spectral_density(omega, params: ModelParams):
    """Bath spectral density J(omega) = (2 gamma / pi) omega Omega^2/(Omega^2+omega^2).

    Ohmic at small omega, Drude-suppressed above the cutoff; maximum at
    omega = Omega.  Total on omega >= 0 (and even continuation is never
    needed here).
    """
    omega = np.asarray(omega, dtype=float)
    Om2 = params.omega_cut**2
    out = (2.0 * params.gamma / math.pi) * omega * Om2 / (Om2 + omega**2)
    return out if out.ndim else float(out)


def read_config_file(path) -> dict:
    """Parse a flat ``key = value`` config file into a string-valued dict.

    Blank lines and ``#`` comments are ignored.  Values are returned as
    raw strings; the CLI layer interprets ranges/lists.
    """
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out
