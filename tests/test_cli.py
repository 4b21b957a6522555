import os

import numpy as np
import pytest

from bathpair.analysis import short_time_slope
from bathpair.cli import ConfigError, main, parse_values
from bathpair.model import ModelParams


def _read_body(path):
    """CSV rows with the tool-version comment excluded."""
    with open(path) as fh:
        return [ln for ln in fh if not ln.startswith("# tool:")]


def _load(path):
    """Parse one of our CSVs into {column: array} (comment block skipped)."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    names = lines[0].split(",")
    rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    return {name: rows[:, i] for i, name in enumerate(names)}


def test_parse_values():
    assert parse_values("1.5") == [1.5]
    assert parse_values("0,0.1,0.3") == [0.0, 0.1, 0.3]
    vals = parse_values("0:0.25:0.05")
    assert vals == pytest.approx([0.0, 0.05, 0.1, 0.15, 0.2, 0.25])
    with pytest.raises(ConfigError):
        parse_values("1:2:3:4")
    with pytest.raises(ConfigError):
        parse_values("2:1:0.5")


def test_config_error_exit_code(tmp_path, capsys):
    point = ["--gamma", "1", "--omega-cut", "10", "--distance", "0.1"]
    bad_file = tmp_path / "bad.cfg"
    bad_file.write_text("t_max = abc\n")
    for argv in (["asymptotic-sweep", "--gamma", "-1", "--omega-cut", "10",
                  "--distance", "0.05"],
                 # values that are not numbers, on the command line or in a file
                 ["asymptotic-sweep", "--gamma", "abc", "--omega-cut", "10",
                  "--distance", "0.05"],
                 ["time-trace", *point, "--config", str(bad_file)],
                 ["time-trace", *point, "--dt", "0"],
                 ["time-trace", *point, "--dt", "nan"],
                 ["time-trace", *point, "--t-max", "-1"],
                 ["time-trace", *point, "--t-max", "inf"],
                 # no output step fits into the window
                 ["oracle-compare", *point, "--t-max", "0.1", "--dt", "0.25"]):
        rc = main(argv + ["--jobs", "1", "--output-dir", str(tmp_path)])
        assert rc == 2, argv
        assert "error: config" in capsys.readouterr().err, argv


def test_asymptotic_sweep_deterministic(tmp_path):
    args = ["asymptotic-sweep", "--gamma", "1", "--omega-cut", "10",
            "--temperature", "0,0.3", "--distance", "0.05:0.2:0.05",
            "--jobs", "1", "--output-dir"]
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert main(args + [str(d1)]) == 0
    assert main(args + [str(d2)]) == 0
    assert _read_body(d1 / "fig1.csv") == _read_body(d2 / "fig1.csv")
    body = _read_body(d1 / "fig1.csv")
    header = [ln for ln in body if not ln.startswith("#")][0]
    assert header.strip() == "temperature,distance,E"
    assert os.path.exists(d1 / "MANIFEST")
    with open(d1 / "MANIFEST") as fh:
        assert "status: COMPLETE" in fh.read()


def test_asymptotic_sweep_parallel_matches_serial(tmp_path):
    base = ["asymptotic-sweep", "--gamma", "1", "--omega-cut", "10",
            "--temperature", "0", "--distance", "0.05,0.1,0.15,0.2"]
    d1, d2 = tmp_path / "serial", tmp_path / "par"
    assert main(base + ["--jobs", "1", "--output-dir", str(d1)]) == 0
    assert main(base + ["--jobs", "2", "--output-dir", str(d2)]) == 0
    rows1 = [ln for ln in _read_body(d1 / "fig1.csv") if not ln.startswith("#")]
    rows2 = [ln for ln in _read_body(d2 / "fig1.csv") if not ln.startswith("#")]
    assert rows1 == rows2


@pytest.mark.parametrize("command, point_fn, csv", [
    ("asymptotic-sweep", "_asym_point", "fig1.csv"),
    ("time-trace", "_trace_point", "fig2.csv"),
])
def test_partial_sweep_keeps_rows_before_the_failure(tmp_path, monkeypatch, command,
                                                     point_fn, csv):
    from bathpair import cli
    from bathpair.entanglement import UnphysicalCovarianceError

    real = getattr(cli, point_fn)

    def third_fails(args):
        if args[3] == 0.3:
            raise UnphysicalCovarianceError("refused for the test")
        return real(args)

    monkeypatch.setattr(cli, point_fn, third_fails)
    rc = main([command, "--gamma", "1", "--omega-cut", "10", "--distance", "0.1,0.2,0.3,0.4",
               "--t-max", "0.5", "--dt", "0.1", "--jobs", "1", "--output-dir", str(tmp_path)])
    assert rc == 3
    data = _load(tmp_path / csv)
    assert np.unique(data["distance"]) == pytest.approx([0.1, 0.2])
    assert "status: PARTIAL" in (tmp_path / "MANIFEST").read_text()


def test_time_trace_and_plot_script(tmp_path):
    rc = main(["time-trace", "--gamma", "1", "--omega-cut", "10",
               "--distance", "0.1", "--t-max", "2", "--dt", "0.05",
               "--jobs", "1", "--emit-plot-script",
               "--output-dir", str(tmp_path)])
    assert rc == 0
    data = _load(tmp_path / "fig2.csv")
    assert data["E"].min() >= 0.0
    assert data["t"].max() == pytest.approx(2.0)
    assert (tmp_path / "plot_time-trace.py").exists()
    # plot script is generated text only, never executed by the CLI
    text = (tmp_path / "plot_time-trace.py").read_text()
    assert "matplotlib" in text


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("gamma = 1.0\nomega_cut = 10\ndistance = 0.4\n"
                   "t_max = 1.0\ndt = 0.05\n")
    rc = main(["time-trace", "--config", str(cfg), "--distance", "0.1",
               "--jobs", "1", "--output-dir", str(tmp_path)])
    assert rc == 0
    data = _load(tmp_path / "fig2.csv")
    assert np.unique(data["distance"]) == pytest.approx([0.1])


def test_short_time_check(tmp_path):
    rc = main(["short-time-check", "--gamma", "1", "--omega-cut", "10",
               "--distance", "0,0.1", "--output-dir", str(tmp_path)])
    assert rc == 0
    data = _load(tmp_path / "shorttime.csv")
    assert data["distance"].size == 2
    assert np.all(data["slope_measured"] > 0)
    # the formula column is the analysis module's coefficient, to CSV precision
    expect = [short_time_slope(ModelParams(gamma=1.0, omega_cut=10.0, distance=r))
              for r in (0.0, 0.1)]
    assert data["slope_formula"] == pytest.approx(expect, rel=1e-11)


def test_critical_distance_command(tmp_path):
    rc = main(["critical-distance", "--gamma", "1", "--omega-cut", "10",
               "--temperature", "0", "--tol", "2e-3",
               "--output-dir", str(tmp_path)])
    assert rc == 0
    data = _load(tmp_path / "d0.csv")
    assert abs(float(data["d0"][0]) - 0.151) <= 0.005


def test_oracle_compare_exit_codes(tmp_path):
    rc = main(["oracle-compare", "--gamma", "1", "--omega-cut", "10",
               "--distance", "0.1", "--t-max", "4", "--dt", "1",
               "--oracle-modes", "3000", "--output-dir", str(tmp_path)])
    assert rc == 0
    data = _load(tmp_path / "deviation.csv")
    assert np.all(data["max_abs_dC"] <= 1e-3)
    # absurdly tight tolerance: same computation, exit code 4
    rc = main(["oracle-compare", "--gamma", "1", "--omega-cut", "10",
               "--distance", "0.1", "--t-max", "4", "--dt", "1",
               "--oracle-modes", "3000", "--tol", "1e-12",
               "--output-dir", str(tmp_path)])
    assert rc == 4
