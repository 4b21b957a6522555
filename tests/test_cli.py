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
                 ["oracle-compare", *point, "--t-max", "0.1", "--dt", "0.25"],
                 # every command validates its points before any work
                 ["slope-fit", "--gamma", "-1", "--omega-cut", "2,5,10"],
                 ["slope-fit", "--gamma", "1", "--omega-cut", "2,5,10",
                  "--temperature", "nan"],
                 ["critical-distance", "--gamma", "1", "--omega-cut", "10",
                  "--r-lo", "-0.1"],
                 ["critical-distance", "--gamma", "1", "--omega-cut", "10",
                  "--r-lo", "-0.1", "--r-hi", "0.5"]):
        rc = main(argv + ["--output-dir", str(tmp_path)])
        assert rc == 2, argv
        assert "error: config" in capsys.readouterr().err, argv


@pytest.mark.parametrize("modes, where", [("50", "flag"), ("0", "flag"), ("-3", "flag"),
                                          ("50", "file")])
def test_oracle_modes_below_the_floor_are_refused(tmp_path, capsys, monkeypatch, modes, where):
    """Fewer than the oracle's 100 modes is a config error (exit 2), raised
    before the pipeline or the oracle computes anything."""
    from bathpair import cli

    def no_work(*args, **kwargs):
        raise AssertionError("computed before refusing the mode count")

    monkeypatch.setattr(cli, "greens_time", no_work)
    monkeypatch.setattr(cli, "reduced_covariance_series", no_work)
    argv = ["oracle-compare", "--gamma", "1", "--omega-cut", "10", "--distance", "0.1",
            "--t-max", "1", "--output-dir", str(tmp_path)]
    if where == "flag":
        argv += ["--oracle-modes", modes]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"oracle_modes = {modes}\n")
        argv += ["--config", str(cfg)]
    assert main(argv) == 2
    assert "oracle_modes must be >= 100" in capsys.readouterr().err
    assert not (tmp_path / "MANIFEST").exists()


def test_jobs_option_is_refused(tmp_path, capsys):
    """Points run in one process; the retired --jobs is an unknown option."""
    with pytest.raises(SystemExit) as exc:
        main(["asymptotic-sweep", "--gamma", "1", "--omega-cut", "10", "--distance", "0.1",
              "--jobs", "2", "--output-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["temprature", "jobs"])
def test_unknown_config_file_key_is_refused(tmp_path, capsys, key):
    """A misspelt or retired key is a config error, never a silent default."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"gamma = 1\nomega_cut = 10\ndistance = 0.1\n{key} = 0.3\n")
    rc = main(["asymptotic-sweep", "--config", str(cfg), "--output-dir", str(tmp_path)])
    assert rc == 2
    assert f"unknown config key(s) {key}" in capsys.readouterr().err
    assert not (tmp_path / "fig1.csv").exists()


def test_asymptotic_sweep_deterministic(tmp_path):
    args = ["asymptotic-sweep", "--gamma", "1", "--omega-cut", "10",
            "--temperature", "0,0.3", "--distance", "0.05:0.2:0.05",
            "--output-dir"]
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


def test_asymptotic_sweep_rows_match_library(tmp_path):
    """Every row is the library's asymptotic E at its point, to CSV precision."""
    from bathpair.analysis import asymptotic_log_negativity

    assert main(["asymptotic-sweep", "--gamma", "1", "--omega-cut", "10",
                 "--temperature", "0,0.3", "--distance", "0.05,0.1,0.15,0.2",
                 "--output-dir", str(tmp_path)]) == 0
    data = _load(tmp_path / "fig1.csv")
    expect = [asymptotic_log_negativity(ModelParams(gamma=1.0, omega_cut=10.0,
                                                    temperature=T, distance=r))
              for T, r in zip(data["temperature"], data["distance"])]
    assert data["temperature"].tolist() == [0.0] * 4 + [0.3] * 4
    assert data["distance"].tolist() == [0.05, 0.1, 0.15, 0.2] * 2
    assert data["E"] == pytest.approx(expect, rel=1e-11, abs=1e-300)


@pytest.mark.parametrize("command, library_fn, csv", [
    ("asymptotic-sweep", "asymptotic_log_negativity", "fig1.csv"),
    ("time-trace", "trace", "fig2.csv"),
], ids=["asymptotic-sweep", "time-trace"])
def test_partial_sweep_keeps_rows_before_the_failure(tmp_path, monkeypatch, command,
                                                     library_fn, csv):
    from bathpair import cli
    from bathpair.entanglement import UnphysicalCovarianceError

    real = getattr(cli, library_fn)

    def third_fails(params, *args, **kwargs):
        if params.distance == 0.3:
            raise UnphysicalCovarianceError("refused for the test")
        return real(params, *args, **kwargs)

    monkeypatch.setattr(cli, library_fn, third_fails)
    rc = main([command, "--gamma", "1", "--omega-cut", "10", "--distance", "0.1,0.2,0.3,0.4",
               "--t-max", "0.5", "--dt", "0.1", "--output-dir", str(tmp_path)])
    assert rc == 3
    data = _load(tmp_path / csv)
    assert np.unique(data["distance"]) == pytest.approx([0.1, 0.2])
    assert "status: PARTIAL" in (tmp_path / "MANIFEST").read_text()


def test_time_trace_and_plot_script(tmp_path):
    rc = main(["time-trace", "--gamma", "1", "--omega-cut", "10",
               "--distance", "0.1", "--t-max", "2", "--dt", "0.05",
               "--emit-plot-script",
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
               "--output-dir", str(tmp_path)])
    assert rc == 0
    data = _load(tmp_path / "fig2.csv")
    assert np.unique(data["distance"]) == pytest.approx([0.1])


def test_short_time_check(tmp_path):
    rc = main(["short-time-check", "--gamma", "1", "--omega-cut", "10",
               "--distance", "0,0.1", "--emit-plot-script", "--output-dir", str(tmp_path)])
    assert rc == 0
    assert "status: COMPLETE" in (tmp_path / "MANIFEST").read_text()
    assert "None, 'distance', 'ratio'" in (tmp_path / "plot_short-time-check.py").read_text()
    data = _load(tmp_path / "shorttime.csv")
    assert data["distance"].size == 2
    assert np.all(data["slope_measured"] > 0)
    # the formula column is the analysis module's coefficient, to CSV precision
    expect = [short_time_slope(ModelParams(gamma=1.0, omega_cut=10.0, distance=r))
              for r in (0.0, 0.1)]
    assert data["slope_formula"] == pytest.approx(expect, rel=1e-11)


def test_short_time_check_refuses_a_temperature(tmp_path, capsys):
    """The check runs at T = 0 only: a non-zero temperature is a config error
    (exit 2), not a value echoed into a T = 0 run."""
    rc = main(["short-time-check", "--gamma", "1", "--omega-cut", "10", "--distance", "0",
               "--temperature", "0.1", "--output-dir", str(tmp_path)])
    assert rc == 2
    assert "temperature" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_short_time_check_keeps_the_rows_before_a_failure(tmp_path, monkeypatch):
    """A refusal at the second distance keeps the first row under a PARTIAL
    MANIFEST, and writes no plot script."""
    from bathpair import cli
    from bathpair.greens import DurbinConvergenceError

    real = cli.measured_initial_slope

    def second_fails(params):
        if params.distance == 0.1:
            raise DurbinConvergenceError("refused for the test")
        return real(params)

    monkeypatch.setattr(cli, "measured_initial_slope", second_fails)
    rc = main(["short-time-check", "--gamma", "1", "--omega-cut", "10", "--distance", "0,0.1",
               "--emit-plot-script", "--output-dir", str(tmp_path)])
    assert rc == 3
    assert _load(tmp_path / "shorttime.csv")["distance"].tolist() == [0.0]
    manifest = (tmp_path / "MANIFEST").read_text()
    assert "status: PARTIAL" in manifest and "DurbinConvergenceError" in manifest
    assert not (tmp_path / "plot_short-time-check.py").exists()


def test_critical_distance_command(tmp_path):
    rc = main(["critical-distance", "--gamma", "1", "--omega-cut", "10",
               "--temperature", "0", "--tol", "2e-3",
               "--output-dir", str(tmp_path)])
    assert rc == 0
    data = _load(tmp_path / "d0.csv")
    assert abs(float(data["d0"][0]) - 0.151) <= 0.005


@pytest.mark.parametrize("argv, csv", [
    (["slope-fit", "--omega-cut", "2,5,10,20"], "slopefit.csv"),
    (["critical-distance", "--omega-cut", "2"], "d0.csv"),
], ids=["slope-fit", "critical-distance"])
def test_thermal_d0_commands_complete(tmp_path, argv, csv):
    """At T = 0.3 and Omega = 2 the critical distance sits below 0.1 = 0.2/Omega;
    the library's own bracket finds it, where a fixed one reported no zero."""
    rc = main(argv + ["--gamma", "1", "--temperature", "0.3", "--output-dir", str(tmp_path)])
    assert rc == 0
    assert "status: COMPLETE" in (tmp_path / "MANIFEST").read_text()
    data = _load(tmp_path / csv)
    assert np.all((data["d0"] > 0.0) & (data["d0"] < 0.1))


def test_slope_fit_keeps_the_rows_before_a_failing_search(tmp_path, monkeypatch):
    """A d0 search that fails at the second Omega keeps the first row under a
    PARTIAL MANIFEST that names the error."""
    from bathpair import cli
    from bathpair.analysis import BracketError

    real = cli.find_d0

    def second_fails(params, **kwargs):
        if params.omega_cut == 5.0:
            raise BracketError("refused for the test")
        return real(params, **kwargs)

    monkeypatch.setattr(cli, "find_d0", second_fails)
    rc = main(["slope-fit", "--gamma", "1", "--omega-cut", "2,5,10",
               "--output-dir", str(tmp_path)])
    assert rc == 3
    assert _load(tmp_path / "slopefit.csv")["omega_cut"].tolist() == [2.0]
    manifest = (tmp_path / "MANIFEST").read_text()
    assert "status: PARTIAL" in manifest and "BracketError: refused for the test" in manifest


@pytest.mark.parametrize("argv, csv", [
    (["slope-fit", "--omega-cut", "2,5,10"], "slopefit.csv"),
    (["critical-distance", "--omega-cut", "10"], "d0.csv"),
], ids=["slope-fit", "critical-distance"])
def test_d0_commands_that_fail_still_write_csv_and_manifest(tmp_path, argv, csv):
    """At T = 3 the asymptotic E is zero at the smallest r the bracket tries:
    exit 3, with the CSV header and a PARTIAL MANIFEST naming the error."""
    rc = main(argv + ["--gamma", "1", "--temperature", "3", "--output-dir", str(tmp_path)])
    assert rc == 3
    header = (tmp_path / csv).read_text().splitlines()[-1]
    assert header.split(",")[-1] in ("d0", "bracket_hi")
    manifest = (tmp_path / "MANIFEST").read_text()
    assert "status: PARTIAL" in manifest and "BracketError" in manifest


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


def test_oracle_compare_echoes_the_step_it_used(tmp_path):
    """Rows are at least 0.25 apart; asked for dt = 0.01, the CSV and the
    MANIFEST echo dt = 0.25, the step of the rows written."""
    rc = main(["oracle-compare", "--gamma", "1", "--omega-cut", "10",
               "--distance", "0.1", "--t-max", "1", "--dt", "0.01",
               "--oracle-modes", "3000", "--output-dir", str(tmp_path)])
    assert rc == 0
    assert np.diff(_load(tmp_path / "deviation.csv")["t"]) == pytest.approx([0.25] * 4)
    for name in ("deviation.csv", "MANIFEST"):
        text = (tmp_path / name).read_text()
        assert "dt=0.25 " in text and "dt=0.01" not in text, name
