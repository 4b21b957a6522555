import math
from dataclasses import fields

import numpy as np
import pytest

from bathpair.model import (
    ModelParams,
    read_config_file,
    spectral_density,
    validate,
)


def test_validate_accepts_reference_point():
    p = ModelParams(gamma=1.0, omega_cut=10.0, temperature=0.0, distance=0.1)
    assert validate(p) is p


@pytest.mark.parametrize("kw, field", [
    (dict(gamma=0.0, omega_cut=10.0), "gamma"),
    (dict(gamma=-1.0, omega_cut=10.0), "gamma"),
    (dict(gamma=1.0, omega_cut=0.0), "omega_cut"),
    (dict(gamma=1.0, omega_cut=10.0, temperature=-0.1), "temperature"),
    (dict(gamma=1.0, omega_cut=10.0, distance=-0.5), "distance"),
])
def test_validate_rejects_with_named_field(kw, field):
    with pytest.raises(ValueError, match=field):
        validate(ModelParams(**kw))


def test_natural_units_locked():
    """omega0 = m = 1 is fixed by the model: there is no field to set."""
    assert [f.name for f in fields(ModelParams)] == [
        "gamma", "omega_cut", "temperature", "distance"]
    for name in ("omega0", "mass"):
        with pytest.raises(TypeError, match=name):
            ModelParams(gamma=1.0, omega_cut=10.0, **{name: 2.0})


def test_cutoff_wavelength():
    p = ModelParams(gamma=1.0, omega_cut=10.0)
    assert p.cutoff_wavelength == pytest.approx(2.0 * math.pi / 10.0)


def test_spectral_density_values():
    p = ModelParams(gamma=1.0, omega_cut=10.0)
    assert spectral_density(0.0, p) == 0.0
    # at omega = Omega the Drude factor is 1/2
    assert spectral_density(10.0, p) == pytest.approx(10.0 / math.pi, rel=1e-14)
    # ohmic limit J ~ (2 gamma/pi) omega
    w = 1e-4
    assert spectral_density(w, p) == pytest.approx(2.0 / math.pi * w, rel=1e-6)
    # 1/omega tail
    w = 1e6
    assert spectral_density(w, p) == pytest.approx(
        2.0 * 100.0 / (math.pi * w), rel=1e-6)


def test_spectral_density_properties():
    p = ModelParams(gamma=2.0, omega_cut=5.0)
    w = np.linspace(0.0, 200.0, 4001)
    j = spectral_density(w, p)
    assert np.all(j >= 0.0)
    assert w[np.argmax(j)] == pytest.approx(p.omega_cut, abs=0.06)


def test_read_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\ngamma = 1.0\nomega_cut=10\n\ndistance = 0.1 # inline\n")
    parsed = read_config_file(cfg)
    assert parsed == {"gamma": "1.0", "omega_cut": "10", "distance": "0.1"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("gamma 1.0\n")
    with pytest.raises(ValueError, match="key = value"):
        read_config_file(bad)
