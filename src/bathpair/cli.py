"""Command-line front end: parameter sweeps, figure data, oracle comparisons.

Every command writes CSV files (12 significant digits, full resolved config
echoed in a comment block) plus a MANIFEST recording completion state.
Outputs are deterministic for a given config: the numerical pipeline has no
randomness anywhere.  Points run in turn in one process.  `analysis.find_d0`
grows its own d0 bracket unless ``--r-lo`` and ``--r-hi`` give one.  A
config-file key that names no value option is a config error.

Exit codes: 0 success, 2 config error, 3 numerical-tolerance failure,
4 oracle disagreement beyond tolerance.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .analysis import (
    BracketError,
    asymptotic_log_negativity,
    find_d0,
    fit_slope,
    measured_initial_slope,
    short_time_slope,
    trace,
)
from .covariance import TruncationError, covariance_time_series
from .entanglement import UnphysicalCovarianceError, log_negativity
from .greens import DurbinConvergenceError, greens_time
from .model import ModelParams, read_config_file, validate
from .oracle import RecurrenceHorizonError, reduced_covariance_series

COMMANDS = ("asymptotic-sweep", "time-trace", "critical-distance",
            "short-time-check", "oracle-compare", "slope-fit")

_NUMERICAL_ERRORS = (TruncationError, DurbinConvergenceError,
                     UnphysicalCovarianceError, BracketError,
                     RecurrenceHorizonError)


class ConfigError(ValueError):
    pass


class OracleDisagreement(RuntimeError):
    pass


@dataclass
class RunConfig:
    command: str
    params: dict = field(default_factory=dict)      # name -> list of floats
    t_max: float = 30.0
    dt: float = 0.01
    tol: float = 1e-3
    oracle_modes: int = 2000
    output_dir: str = "."
    emit_plot_script: bool = False


def _number(cast, raw):
    try:
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"not a valid {cast.__name__}: {raw!r}") from exc


def parse_values(text: str) -> list[float]:
    """Scalar, comma list, or start:stop:step range (inclusive end)."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"range must be start:stop:step, got {text!r}")
        start, stop, step = (_number(float, x) for x in parts)
        if step <= 0 or stop < start:
            raise ConfigError(f"empty or backwards range {text!r}")
        n = int(math.floor((stop - start) / step + 1e-9))
        return [start + k * step for k in range(n + 1)]
    if "," in text:
        return [_number(float, x) for x in text.split(",") if x.strip()]
    return [_number(float, text)]


def _scalar(config: RunConfig, name: str) -> float:
    vals = config.params.get(name)
    if not vals or len(vals) != 1:
        raise ConfigError(f"{config.command} needs a single value for {name}, "
                          f"got {vals}")
    return vals[0]


def _base_params(config: RunConfig) -> ModelParams:
    return _checked_params(_scalar(config, "gamma"), _scalar(config, "omega_cut"),
                           config.params.get("temperature", [0.0])[0],
                           config.params.get("distance", [0.0])[0])


# ---------------------------------------------------------------------------
# output helpers


def _config_echo(config: RunConfig) -> list[str]:
    parts = []
    for key, vals in sorted(config.params.items()):
        parts.append(f"{key}=" + ",".join(f"{v:g}" for v in vals))
    parts.append(f"t_max={config.t_max:g} dt={config.dt:g} tol={config.tol:g}")
    parts.append(f"oracle_modes={config.oracle_modes}")
    return parts


def write_csv(path, columns, rows, config: RunConfig) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# tool: bathpair {__version__}\n")
        fh.write(f"# command: {config.command}\n")
        for line in _config_echo(config):
            fh.write(f"# config: {line}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.12e}" for v in row) + "\n")


def write_manifest(config: RunConfig, outputs, status: str, note: str = "") -> None:
    path = os.path.join(config.output_dir, "MANIFEST")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"command: {config.command}\n")
        fh.write(f"status: {status}\n")
        for line in _config_echo(config):
            fh.write(f"config: {line}\n")
        for out in outputs:
            fh.write(f"output: {os.path.basename(out)}\n")
        if note:
            fh.write(f"note: {note}\n")


_PLOT_TEMPLATE = """\
# generated by bathpair; plots {csv} (never invoked by the CLI itself)
import matplotlib.pyplot as plt
import numpy as np

data = np.genfromtxt("{csv}", delimiter=",", names=True, comments="#")
group_key, x_key, y_key = {keys}
fig, ax = plt.subplots()
if group_key:
    for val in np.unique(data[group_key]):
        sel = data[group_key] == val
        ax.plot(data[x_key][sel], data[y_key][sel], label=f"{{group_key}}={{val:g}}")
    ax.legend()
else:
    ax.plot(data[x_key], data[y_key])
ax.set_xlabel(x_key)
ax.set_ylabel(y_key)
fig.savefig("{png}", dpi=160)
"""


def _emit_plot_script(config: RunConfig, csv_name: str, keys) -> str:
    path = os.path.join(config.output_dir, f"plot_{config.command}.py")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_PLOT_TEMPLATE.format(csv=csv_name, keys=repr(keys),
                                       png=csv_name.replace(".csv", ".png")))
    return path


# ---------------------------------------------------------------------------
# commands


def _checked_params(gamma, omega_cut, temperature, distance) -> ModelParams:
    try:
        return validate(ModelParams(gamma=gamma, omega_cut=omega_cut,
                                    temperature=temperature, distance=distance))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _sweep(config: RunConfig, name: str, columns, points, rows_of,
           plot_keys=None, note=None) -> list[str]:
    """The rows of each point in turn into one CSV; a numerical failure keeps
    the rows before it, marks the run PARTIAL and propagates.  The plot script
    draws ``plot_keys`` = (group or None, x, y), by default the first columns;
    ``note`` of the rows, if given, goes into a COMPLETE MANIFEST."""
    path = os.path.join(config.output_dir, name)
    rows = []
    try:
        for p in points:
            rows.extend(rows_of(p))
    except _NUMERICAL_ERRORS as exc:
        write_csv(path, columns, rows, config)
        write_manifest(config, [path], "PARTIAL", f"{type(exc).__name__}: {exc}")
        raise
    write_csv(path, columns, rows, config)
    outputs = [path]
    if config.emit_plot_script:
        outputs.append(_emit_plot_script(config, name, plot_keys or columns[:3]))
    write_manifest(config, outputs, "COMPLETE", note(rows) if note else "")
    return outputs


def run_asymptotic_sweep(config: RunConfig) -> list[str]:
    gamma = _scalar(config, "gamma")
    omega_cut = _scalar(config, "omega_cut")
    temps = config.params.get("temperature", [0.0])
    dists = config.params.get("distance")
    if not dists:
        raise ConfigError("asymptotic-sweep needs --distance")
    points = [_checked_params(gamma, omega_cut, T, r) for T in temps for r in dists]
    return _sweep(config, "fig1.csv", ("temperature", "distance", "E"), points,
                  lambda p: [(p.temperature, p.distance, asymptotic_log_negativity(p))])


def run_time_trace(config: RunConfig) -> list[str]:
    gamma = _scalar(config, "gamma")
    omega_cut = _scalar(config, "omega_cut")
    temperature = config.params.get("temperature", [0.0])[0]
    dists = config.params.get("distance")
    if not dists:
        raise ConfigError("time-trace needs --distance")
    points = [_checked_params(gamma, omega_cut, temperature, r) for r in dists]

    def rows_of(p):
        tr = trace(p, t_max=config.t_max, dt=config.dt)
        return [(p.distance, t, e, tr.asymptote) for t, e in zip(tr.times, tr.values)]

    return _sweep(config, "fig2.csv", ("distance", "t", "E", "asymptote"), points, rows_of)


def run_critical_distance(config: RunConfig) -> list[str]:
    p = _base_params(config)
    given = [_scalar(config, k) for k in ("r_lo", "r_hi") if k in config.params]
    if given and not (len(given) == 2 and 0.0 <= given[0] < given[1] < math.inf):
        raise ConfigError(f"a d0 bracket needs both 0 <= r_lo < r_hi < inf (got {given})")

    def rows_of(p):
        res = find_d0(p, r_bracket=given or None, tol=min(config.tol, 1e-3))
        return [(p.gamma, p.omega_cut, p.temperature, res.d0, *res.bracket)]

    return _sweep(config, "d0.csv", ("gamma", "omega_cut", "temperature", "d0",
                                     "bracket_lo", "bracket_hi"), [p], rows_of,
                  plot_keys=(None, "temperature", "d0"))


def run_short_time_check(config: RunConfig) -> list[str]:
    if any(config.params.get("temperature", [0.0])):
        raise ConfigError("short-time-check runs at T = 0, where its short-time law holds; "
                          f"got temperature {config.params['temperature']}")
    gamma = _scalar(config, "gamma")
    omega_cut = _scalar(config, "omega_cut")
    points = [_checked_params(gamma, omega_cut, 0.0, r)
              for r in config.params.get("distance", [0.0])]

    def rows_of(p):
        measured, formula = measured_initial_slope(p), short_time_slope(p)
        return [(p.distance, measured, formula, measured / formula)]

    return _sweep(config, "shorttime.csv",
                  ("distance", "slope_measured", "slope_formula", "ratio"), points, rows_of,
                  plot_keys=(None, "distance", "ratio"))


def run_oracle_compare(config: RunConfig) -> list[str]:
    # rows at least 0.25 apart; the CSV and MANIFEST echo the step used
    config = replace(config, dt=max(config.dt, 0.25))
    p = _base_params(config)
    n_modes = config.oracle_modes
    t_max = config.t_max
    dt = config.dt
    n_out = int(round(t_max / dt))
    if n_out < 1:
        raise ConfigError(f"t_max = {t_max:g} holds no output step of {dt:g}")
    times = np.linspace(0.0, n_out * dt, n_out + 1)

    # pair grid aligned with the output times: dt = per_out * grid_h, even
    h_max = min(0.005, 0.05 / p.omega_cut)
    per_out = int(math.ceil(dt / h_max))
    per_out += per_out % 2
    grid_h = dt / per_out
    steps = n_out * per_out
    grid = np.linspace(0.0, n_out * dt, steps + 1)
    greens = greens_time(grid, p)
    ours = covariance_time_series(greens, p, times)

    # recurrence horizon at least 30% past the comparison window; within that
    # constraint prefer a denser grid over a cutoff beyond ~40 Omega (the
    # spectral weight out there is already handled analytically pipeline-side)
    omega_max_bath = min(n_modes * math.pi / (1.3 * t_max), 40.0 * p.omega_cut)
    omega_max_bath = max(omega_max_bath, 20.0 * p.omega_cut)
    oracle = reduced_covariance_series(p, times, n_modes=n_modes,
                                       omega_max_bath=omega_max_bath)
    dc = np.abs(ours.entries - oracle.entries).max(axis=(1, 2))
    de = np.abs(log_negativity(ours) - log_negativity(oracle))
    rows = list(zip(times, dc, de))
    worst_c, worst_e = float(dc.max()), float(de.max())
    path = os.path.join(config.output_dir, "deviation.csv")
    write_csv(path, ("t", "max_abs_dC", "abs_dE"), rows, config)
    write_manifest(config, [path], "COMPLETE",
                   note=f"max|dC|={worst_c:.3e} max|dE|={worst_e:.3e}")
    if worst_c > config.tol or worst_e > 2.0 * config.tol:
        raise OracleDisagreement(
            f"oracle deviation max|dC|={worst_c:.3e}, max|dE|={worst_e:.3e} "
            f"beyond tolerance {config.tol:g}")
    return [path]


def run_slope_fit(config: RunConfig) -> list[str]:
    gamma = _scalar(config, "gamma")
    temperature = config.params.get("temperature", [0.0])[0]
    omegas = config.params.get("omega_cut")
    if not omegas or len(omegas) < 3:
        raise ConfigError("slope-fit needs >= 3 omega_cut values")
    points = [_checked_params(gamma, om, temperature, 0.0) for om in omegas]

    def note(rows):
        fit = fit_slope([(inv_omega, d0) for _, inv_omega, d0 in rows])
        return (f"slope={fit.slope:.6f} residual={fit.residual:.3e} "
                f"ill_conditioned={fit.ill_conditioned}")

    return _sweep(config, "slopefit.csv", ("omega_cut", "inv_omega", "d0"), points,
                  lambda p: [(p.omega_cut, 1.0 / p.omega_cut, find_d0(p, tol=1e-3).d0)],
                  plot_keys=(None, "inv_omega", "d0"), note=note)


# ---------------------------------------------------------------------------
# argument handling


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bathpair",
        description="Entanglement of two oscillators in a common 1D heat bath.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--gamma", type=str)
    parser.add_argument("--omega-cut", type=str)
    parser.add_argument("--temperature", type=str)
    parser.add_argument("--distance", type=str)
    parser.add_argument("--r-lo", type=str, help="d0 search interval low end (with --r-hi)")
    parser.add_argument("--r-hi", type=str, help="d0 search interval high end (with --r-lo)")
    parser.add_argument("--t-max", type=float)
    parser.add_argument("--dt", type=float)
    parser.add_argument("--tol", type=float)
    parser.add_argument("--oracle-modes", type=int)
    parser.add_argument("--output-dir", type=str)
    parser.add_argument("--config", type=str, help="flat key = value file")
    parser.add_argument("--emit-plot-script", action="store_true")
    return parser


_PARAM_KEYS = ("gamma", "omega_cut", "temperature", "distance", "r_lo", "r_hi")
_FILE_KEYS = _PARAM_KEYS + ("t_max", "dt", "tol", "oracle_modes", "output_dir")


def config_from_args(args: argparse.Namespace) -> RunConfig:
    file_cfg = {}
    if args.config:
        try:
            file_cfg = read_config_file(args.config)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        unknown = sorted(set(file_cfg) - set(_FILE_KEYS))
        if unknown:
            raise ConfigError(f"unknown config key(s) {', '.join(unknown)}; "
                              f"known: {', '.join(_FILE_KEYS)}")

    params = {}
    for key in _PARAM_KEYS:
        flag = getattr(args, key, None)
        raw = flag if flag is not None else file_cfg.get(key)
        if raw is not None:
            params[key] = parse_values(str(raw))

    def pick(name, cast, default):
        flag = getattr(args, name, None)
        raw = flag if flag is not None else file_cfg.get(name)
        return default if raw is None else _number(cast, raw)

    config = RunConfig(
        command=args.command,
        params=params,
        t_max=pick("t_max", float, 30.0),
        dt=pick("dt", float, 0.01),
        tol=pick("tol", float, 1e-3),
        oracle_modes=pick("oracle_modes", int, 2000),
        output_dir=pick("output_dir", str, "."),
        emit_plot_script=bool(args.emit_plot_script),
    )
    for name in ("t_max", "dt"):
        value = getattr(config, name)
        if not (math.isfinite(value) and value > 0.0):
            raise ConfigError(f"{name} must be positive and finite (got {value})")
    if config.oracle_modes < 100:               # the floor of oracle.build_bath
        raise ConfigError(f"oracle_modes must be >= 100 (got {config.oracle_modes})")
    if not os.path.isdir(config.output_dir):
        try:
            os.makedirs(config.output_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"output dir not writable: {exc}") from exc
    return config


_RUNNERS = {
    "asymptotic-sweep": run_asymptotic_sweep,
    "time-trace": run_time_trace,
    "critical-distance": run_critical_distance,
    "short-time-check": run_short_time_check,
    "oracle-compare": run_oracle_compare,
    "slope-fit": run_slope_fit,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        outputs = _RUNNERS[config.command](config)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL_ERRORS as exc:
        print(f"error: numerical: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except OracleDisagreement as exc:
        print(f"error: oracle: {exc}", file=sys.stderr)
        return 4
    for out in outputs:
        print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
