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


@pytest.mark.parametrize("name", ["distance", "temperature"])
@pytest.mark.parametrize("where", ["flag", "file"])
def test_a_list_with_no_values_is_refused(tmp_path, capsys, name, where):
    """A list with no values (",") is a config error (exit 2) before any
    output, not a sweep of no points that reports itself complete."""
    argv = ["asymptotic-sweep", "--gamma", "1", "--omega-cut", "10",
            "--output-dir", str(tmp_path / "out")]
    if where == "flag":
        argv += ["--" + name, ","]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{name} = ,\n")
        argv += ["--config", str(cfg)]
    assert main(argv) == 2
    assert "no values in the list ','" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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

    monkeypatch.setattr(cli, "transient_covariances", no_work)
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


@pytest.mark.parametrize("argv, name", [
    (["time-trace", "--omega-cut", "10", "--distance", "0.1", "--temperature", "0,0.3",
      "--t-max", "1"], "temperature"),
    (["slope-fit", "--omega-cut", "2,5,10", "--temperature", "0,0.3"], "temperature"),
    (["critical-distance", "--omega-cut", "10", "--temperature", "0,0.3"], "temperature"),
    (["critical-distance", "--omega-cut", "10", "--r-lo", "0.1,0.2", "--r-hi", "1"], "r_lo"),
    (["oracle-compare", "--omega-cut", "10", "--temperature", "0,0.2", "--t-max", "1"],
     "temperature"),
    (["oracle-compare", "--omega-cut", "10", "--distance", "0.1,5", "--t-max", "1"],
     "distance"),
], ids=["time-trace-T", "slope-fit-T", "critical-distance-T", "critical-distance-r_lo",
        "oracle-compare-T", "oracle-compare-r"])
def test_a_list_where_one_value_is_taken_is_refused(tmp_path, capsys, argv, name):
    """A parameter a command does not sweep takes one value: a list there is a
    config error (exit 2) naming it, not a run at its first value."""
    rc = main(argv + ["--gamma", "1", "--output-dir", str(tmp_path)])
    assert rc == 2
    assert f"needs a single value for {name}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("tol, where", [("-1", "flag"), ("0", "flag"), ("nan", "flag"),
                                        ("inf", "flag"), ("0", "file"), ("nan", "file")])
def test_a_tolerance_that_is_not_positive_and_finite_is_refused(tmp_path, capsys,
                                                                 monkeypatch, tol, where):
    """``tol`` <= 0 or not finite is a config error (exit 2) before any search,
    not a traceback from inside one."""
    from bathpair import cli

    def no_work(*args, **kwargs):
        raise AssertionError("searched before refusing the tolerance")

    monkeypatch.setattr(cli, "find_d0", no_work)
    argv = ["critical-distance", "--gamma", "1", "--omega-cut", "10",
            "--output-dir", str(tmp_path / "out")]
    if where == "flag":
        argv += ["--tol", tol]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"tol = {tol}\n")
        argv += ["--config", str(cfg)]
    assert main(argv) == 2
    assert "tol must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["asymptotic-sweep", "time-trace", "short-time-check"])
@pytest.mark.parametrize("where", ["flag", "file"])
def test_a_tolerance_is_refused_where_no_number_reads_it(tmp_path, capsys, command, where):
    """These commands read no tolerance: a given tol is a config error (exit 2)
    before any output, and a run without one echoes none."""
    point = ["--gamma", "1", "--omega-cut", "10", "--distance", "0.1"]
    if command == "time-trace":
        point += ["--t-max", "0.2", "--dt", "0.1"]
    argv = [command, *point, "--output-dir", str(tmp_path / "out")]
    if where == "flag":
        argv += ["--tol", "1e-4"]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tol = 1e-4\n")
        argv += ["--config", str(cfg)]
    assert main(argv) == 2
    assert f"{command} reads no tol" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert main([command, *point, "--output-dir", str(tmp_path / "ok")]) == 0
    for path in (tmp_path / "ok").iterdir():
        assert "tol=" not in path.read_text(), path.name


@pytest.mark.parametrize("where", ["flag", "file"])
@pytest.mark.parametrize("command, name", [
    ("asymptotic-sweep", "t_max"), ("asymptotic-sweep", "dt"), ("critical-distance", "t_max"),
    ("critical-distance", "distance"), ("slope-fit", "dt"), ("slope-fit", "r_lo"),
    ("time-trace", "oracle_modes"), ("short-time-check", "oracle_modes"),
])
def test_an_option_the_command_does_not_read_is_refused(tmp_path, capsys, command, name,
                                                        where):
    """A value option given to a command that does not read it, by flag or by
    config file, is a config error (exit 2) naming it, before any output."""
    value = "500" if name == "oracle_modes" else "0.5"
    argv = [command, "--gamma", "1", "--omega-cut", "10", "--output-dir", str(tmp_path / "out")]
    if where == "flag":
        argv += ["--" + name.replace("_", "-"), value]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{name} = {value}\n")
        argv += ["--config", str(cfg)]
    assert main(argv) == 2
    assert f"{command} reads no {name}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, echoed", [
    ("asymptotic-sweep", []), ("time-trace", ["t_max", "dt"]), ("critical-distance", ["tol"]),
    ("short-time-check", []), ("oracle-compare", ["t_max", "dt", "tol", "oracle_modes"]),
    ("slope-fit", ["tol"]),
], ids=["asymptotic-sweep", "time-trace", "critical-distance", "short-time-check",
        "oracle-compare", "slope-fit"])
def test_the_echo_lists_only_the_options_the_command_reads(tmp_path, command, echoed):
    """The config echo of CSV and MANIFEST names the given model parameters and
    then each scalar option the command reads, defaults included, and no
    other: no t_max or dt without a time axis, no oracle_modes without the
    oracle."""
    from bathpair.cli import _config_echo, build_parser, config_from_args

    args = build_parser().parse_args([command, "--gamma", "1", "--output-dir", str(tmp_path)])
    echo = " ".join(_config_echo(config_from_args(args)))
    assert [part.split("=")[0] for part in echo.split()] == ["gamma", *echoed]


def test_slope_fit_searches_at_the_tolerance_it_echoes(tmp_path, monkeypatch):
    """slope-fit runs each d0 search at min(tol, 1e-3), as critical-distance
    does, so the default tol 1e-3 keeps its searches as they were."""
    from bathpair import cli
    from bathpair.analysis import CriticalDistanceResult

    seen = []

    def spy(params, tol):
        seen.append(tol)
        return CriticalDistanceResult(d0=0.1 / params.omega_cut)

    monkeypatch.setattr(cli, "find_d0", spy)
    argv = ["slope-fit", "--gamma", "1", "--omega-cut", "5,10,20",
            "--output-dir", str(tmp_path)]
    assert main(argv + ["--tol", "1e-5"]) == 0
    assert main(argv + ["--tol", "0.1"]) == 0
    assert main(argv) == 0
    assert seen == [1e-5] * 3 + [1e-3] * 6
    assert "tol=0.001" in (tmp_path / "MANIFEST").read_text()


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
    window = ["--t-max", "0.5", "--dt", "0.1"] if command == "time-trace" else []
    rc = main([command, "--gamma", "1", "--omega-cut", "10", "--distance", "0.1,0.2,0.3,0.4",
               *window, "--output-dir", str(tmp_path)])
    assert rc == 3
    data = _load(tmp_path / csv)
    assert np.unique(data["distance"]) == pytest.approx([0.1, 0.2])
    assert "status: PARTIAL" in (tmp_path / "MANIFEST").read_text()


def test_time_trace_rows_match_library(tmp_path):
    """Every row is `analysis.trace` at its distance, to CSV precision."""
    from bathpair.analysis import trace

    assert main(["time-trace", "--gamma", "1", "--omega-cut", "10", "--temperature", "0.2",
                 "--distance", "0.1,0.25", "--t-max", "1.5", "--dt", "0.05",
                 "--output-dir", str(tmp_path)]) == 0
    data = _load(tmp_path / "fig2.csv")
    expect = {"distance": [], "t": [], "E": [], "asymptote": []}
    for r in (0.1, 0.25):
        tr = trace(ModelParams(gamma=1.0, omega_cut=10.0, temperature=0.2, distance=r),
                   t_max=1.5, dt=0.05)
        expect["distance"] += [r] * tr.times.size
        expect["t"] += tr.times.tolist()
        expect["E"] += tr.values.tolist()
        expect["asymptote"] += [tr.asymptote] * tr.times.size
    for column, values in expect.items():
        assert data[column] == pytest.approx(values, rel=1e-11, abs=1e-300), column


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


def test_a_huge_coupling_is_answered(tmp_path, capsys):
    """gamma = 1e8 once died in a MemoryError traceback (the real-frequency
    resonance scan), then was refused by its node budget; on the Matsubara
    axis it is an answer: exit 0 and a COMPLETE MANIFEST."""
    rc = main(["asymptotic-sweep", "--gamma", "1e8", "--omega-cut", "10", "--distance", "0.1",
               "--output-dir", str(tmp_path)])
    assert rc == 0
    assert "status: COMPLETE" in (tmp_path / "MANIFEST").read_text()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("flag, value", [("--omega-cut", "1e300"), ("--gamma", "1e300")])
def test_tail_coefficients_past_the_float_range_exit_3(tmp_path, capsys, flag, value):
    """Omega = 1e300 once died in a bare OverflowError traceback, and gamma =
    1e300 overflowed in the tail estimate: now exit 3, with a PARTIAL
    MANIFEST naming the refusal."""
    args = {"--gamma": "1", "--omega-cut": "10", flag: value}
    rc = main(["asymptotic-sweep", *[v for kv in args.items() for v in kv], "--distance", "0.1",
               "--output-dir", str(tmp_path)])
    assert rc == 3
    assert "TruncationError" in capsys.readouterr().err
    manifest = (tmp_path / "MANIFEST").read_text()
    assert "status: PARTIAL" in manifest and "large-frequency tail" in manifest


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


@pytest.mark.parametrize("t_max, t_end", [(1.1, 1.25), (0.1, 0.25)])
def test_oracle_compare_window_ends_where_trace_ends(tmp_path, t_max, t_end):
    """A t_max that is no multiple of the step 0.25 ends the rows at the
    step `analysis.trace` ends at, the first one past it: not short of the
    t_max echoed (1.1), and not a refusal for a window under half a step (0.1)."""
    from bathpair.analysis import trace

    assert main(["oracle-compare", "--gamma", "1", "--omega-cut", "10", "--distance", "0.1",
                 "--t-max", str(t_max), "--output-dir", str(tmp_path)]) == 0
    times = trace(ModelParams(gamma=1.0, omega_cut=10.0, distance=0.1),
                  t_max=t_max, dt=0.25).times
    assert times[-1] == t_end
    assert _load(tmp_path / "deviation.csv")["t"].tolist() == times.tolist()


def test_oracle_compare_rows_match_library(tmp_path):
    """Every row is the pipeline's deviation from the oracle at its time, by
    the chain of library calls the command stands for: G on a grid of step
    <= min(0.005, 0.05/Omega) whose pair grid holds t = 0, dt, ..., then the
    transient covariances and the oracle's."""
    from bathpair.covariance import covariance_time_series
    from bathpair.entanglement import log_negativity
    from bathpair.greens import greens_time
    from bathpair.oracle import reduced_covariance_series

    assert main(["oracle-compare", "--gamma", "1", "--omega-cut", "10", "--temperature", "0.2",
                 "--distance", "0.3", "--t-max", "2", "--dt", "0.5",
                 "--output-dir", str(tmp_path)]) == 0
    data = _load(tmp_path / "deviation.csv")
    p = ModelParams(gamma=1.0, omega_cut=10.0, temperature=0.2, distance=0.3)
    times = np.linspace(0.0, 2.0, 5)
    ours = covariance_time_series(greens_time(np.linspace(0.0, 2.0, 401), p), p, times)
    oracle = reduced_covariance_series(p, times, n_modes=2000, omega_max_bath=400.0)
    assert data["t"].tolist() == times.tolist()
    assert data["max_abs_dC"] == pytest.approx(
        np.abs(ours.entries - oracle.entries).max(axis=(1, 2)), rel=1e-11, abs=1e-300)
    assert data["abs_dE"] == pytest.approx(
        np.abs(log_negativity(ours) - log_negativity(oracle)), rel=1e-11, abs=1e-300)


def test_oracle_compare_keeps_a_partial_manifest_on_a_numerical_failure(tmp_path, capsys):
    """100 modes recur before t = 2: exit 3 with the CSV header and a PARTIAL
    MANIFEST naming the error, as every other command leaves."""
    rc = main(["oracle-compare", "--gamma", "1", "--omega-cut", "10", "--distance", "0.1",
               "--t-max", "2", "--oracle-modes", "100", "--emit-plot-script",
               "--output-dir", str(tmp_path)])
    assert rc == 3
    assert "RecurrenceHorizonError" in capsys.readouterr().err
    assert (tmp_path / "deviation.csv").read_text().splitlines()[-1] == "t,max_abs_dC,abs_dE"
    manifest = (tmp_path / "MANIFEST").read_text()
    assert "status: PARTIAL" in manifest and "RecurrenceHorizonError" in manifest
    assert not (tmp_path / "plot_oracle-compare.py").exists()


def test_oracle_compare_plot_script(tmp_path):
    rc = main(["oracle-compare", "--gamma", "1", "--omega-cut", "10", "--distance", "0.1",
               "--t-max", "1", "--dt", "0.5", "--emit-plot-script",
               "--output-dir", str(tmp_path)])
    assert rc == 0
    assert "None, 't', 'max_abs_dC'" in (tmp_path / "plot_oracle-compare.py").read_text()
    assert "output: plot_oracle-compare.py" in (tmp_path / "MANIFEST").read_text()
