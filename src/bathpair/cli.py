"""Command-line front end: parameter sweeps, figure data, oracle comparisons.

Every command writes CSV files (12 significant digits, full resolved config
echoed in a comment block) plus a MANIFEST recording completion state.  A
numerical failure keeps the rows before it under a PARTIAL MANIFEST, then
exits 3.  Outputs are deterministic for a given config: the numerical
pipeline has no randomness anywhere.  Points run in turn in one process.
Each command sweeps some model parameters over the values given (a scalar,
a comma list or a start:stop:step range); every other one takes exactly one
value, and a list there is a config error.  `analysis.find_d0` grows its own
d0 bracket unless ``--r-lo`` and ``--r-hi`` give one.  ``t_max``, ``dt`` and
``tol`` must be positive and finite.  `_OPTIONS` is the one table of
value options: each is a flag and a config-file key, and a config-file key
that names none of them is a config error.  Each command in `_RUNNERS`
declares the options it reads: one given to a command that does not read
it is a config error, and only the options read are echoed.

Exit codes: 0 success, 2 config error, 3 numerical-tolerance failure,
4 oracle disagreement beyond tolerance.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys
from dataclasses import dataclass, replace

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
    transient_covariances,
)
from .covariance import TruncationError
from .entanglement import UnphysicalCovarianceError, log_negativity
from .greens import DurbinConvergenceError
from .model import ModelParams, read_config_file, validate
from .oracle import RecurrenceHorizonError, reduced_covariance_series

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
    params: dict                # name -> list of floats, as given
    t_max: float
    dt: float
    tol: float
    oracle_modes: int
    output_dir: str
    emit_plot_script: bool


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


# Every value option, as flag --name-with-dashes and config-file key name:
# (type, default).  A `parse_values` option is a list, kept in
# RunConfig.params only when given; its default is applied per point.  A
# float option must be positive and finite.
_OPTIONS = {
    "gamma": (parse_values, None),
    "omega_cut": (parse_values, None),
    "temperature": (parse_values, [0.0]),
    "distance": (parse_values, [0.0]),
    "r_lo": (parse_values, None),
    "r_hi": (parse_values, None),
    "t_max": (float, 30.0),
    "dt": (float, 0.01),
    "tol": (float, 1e-3),
    "oracle_modes": (int, 2000),
    "output_dir": (str, "."),
}


def _scalar(config: RunConfig, name: str) -> float:
    vals = config.params.get(name, _OPTIONS[name][1])
    if not vals or len(vals) != 1:
        raise ConfigError(f"{config.command} needs a single value for {name}, "
                          f"got {vals}")
    return vals[0]


def _points(config: RunConfig, swept=(), required=()) -> list[ModelParams]:
    """One validated point per combination of the ``swept`` parameters' values
    (the last varying fastest); every other model parameter takes one value.
    A ``required`` parameter has no default."""
    for name in required:
        if name not in config.params:
            raise ConfigError(f"{config.command} needs --{name}")
    names = ("gamma", "omega_cut", "temperature", "distance")
    axes = [config.params.get(n, _OPTIONS[n][1]) if n in swept else [_scalar(config, n)]
            for n in names]
    try:
        return [validate(ModelParams(**dict(zip(names, combo))))
                for combo in itertools.product(*axes)]
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# output helpers


def _config_echo(config: RunConfig) -> list[str]:
    """The given model parameters, then the scalar options the command reads."""
    reads = _RUNNERS[config.command][1]
    parts = [f"{key}=" + ",".join(f"{v:g}" for v in vals)
             for key, vals in sorted(config.params.items())]
    scalars = " ".join(f"{name}={getattr(config, name):g}" for name in ("t_max", "dt", "tol")
                       if name in reads)
    if scalars:
        parts.append(scalars)
    if "oracle_modes" in reads:
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
    return _sweep(config, "fig1.csv", ("temperature", "distance", "E"),
                  _points(config, ("temperature", "distance"), required=("distance",)),
                  lambda p: [(p.temperature, p.distance, asymptotic_log_negativity(p))])


def run_time_trace(config: RunConfig) -> list[str]:
    def rows_of(p):
        tr = trace(p, t_max=config.t_max, dt=config.dt)
        return [(p.distance, t, e, tr.asymptote) for t, e in zip(tr.times, tr.values)]

    return _sweep(config, "fig2.csv", ("distance", "t", "E", "asymptote"),
                  _points(config, ("distance",), required=("distance",)), rows_of)


def run_critical_distance(config: RunConfig) -> list[str]:
    points = _points(config)
    given = [_scalar(config, k) for k in ("r_lo", "r_hi") if k in config.params]
    if given and not (len(given) == 2 and 0.0 <= given[0] < given[1] < math.inf):
        raise ConfigError(f"a d0 bracket needs both 0 <= r_lo < r_hi < inf (got {given})")

    def rows_of(p):
        res = find_d0(p, r_bracket=given or None, tol=min(config.tol, 1e-3))
        return [(p.gamma, p.omega_cut, p.temperature, res.d0, *res.bracket)]

    return _sweep(config, "d0.csv", ("gamma", "omega_cut", "temperature", "d0",
                                     "bracket_lo", "bracket_hi"), points, rows_of,
                  plot_keys=(None, "temperature", "d0"))


def run_short_time_check(config: RunConfig) -> list[str]:
    points = _points(config, ("distance",))
    if points[0].temperature != 0.0:
        raise ConfigError("short-time-check runs at T = 0, where its short-time law holds; "
                          f"got temperature {config.params['temperature']}")

    def rows_of(p):
        measured, formula = measured_initial_slope(p), short_time_slope(p)
        return [(p.distance, measured, formula, measured / formula)]

    return _sweep(config, "shorttime.csv",
                  ("distance", "slope_measured", "slope_formula", "ratio"), points, rows_of,
                  plot_keys=(None, "distance", "ratio"))


def run_oracle_compare(config: RunConfig) -> list[str]:
    # rows at least 0.25 apart; the CSV and MANIFEST echo the step used
    config = replace(config, dt=max(config.dt, 0.25))
    points = _points(config)
    worst = []

    def rows_of(p):
        times, ours = transient_covariances(p, config.dt, config.t_max,
                                            min(0.005, 0.05 / p.omega_cut))
        # recurrence horizon at least 30% past the comparison window; within
        # that constraint prefer a denser grid over a cutoff beyond ~40 Omega
        # (the spectral weight out there is already handled analytically
        # pipeline-side)
        omega_max_bath = min(config.oracle_modes * math.pi / (1.3 * float(times[-1])),
                             40.0 * p.omega_cut)
        oracle = reduced_covariance_series(p, times, n_modes=config.oracle_modes,
                                           omega_max_bath=max(omega_max_bath,
                                                              20.0 * p.omega_cut))
        dc = np.abs(ours.entries - oracle.entries).max(axis=(1, 2))
        de = np.abs(log_negativity(ours) - log_negativity(oracle))
        worst[:] = float(dc.max()), float(de.max())
        return list(zip(times, dc, de))

    outputs = _sweep(config, "deviation.csv", ("t", "max_abs_dC", "abs_dE"), points,
                     rows_of, plot_keys=(None, "t", "max_abs_dC"),
                     note=lambda rows: "max|dC|={:.3e} max|dE|={:.3e}".format(*worst))
    if worst[0] > config.tol or worst[1] > 2.0 * config.tol:
        raise OracleDisagreement(
            f"oracle deviation max|dC|={worst[0]:.3e}, max|dE|={worst[1]:.3e} "
            f"beyond tolerance {config.tol:g}")
    return outputs


def run_slope_fit(config: RunConfig) -> list[str]:
    if len(config.params.get("omega_cut") or ()) < 3:
        raise ConfigError("slope-fit needs >= 3 omega_cut values")

    def note(rows):
        fit = fit_slope([(inv_omega, d0) for _, inv_omega, d0 in rows])
        return (f"slope={fit.slope:.6f} residual={fit.residual:.3e} "
                f"ill_conditioned={fit.ill_conditioned}")

    return _sweep(config, "slopefit.csv", ("omega_cut", "inv_omega", "d0"),
                  _points(config, ("omega_cut",)),
                  lambda p: [(p.omega_cut, 1.0 / p.omega_cut,
                              find_d0(p, tol=min(config.tol, 1e-3)).d0)],
                  plot_keys=(None, "inv_omega", "d0"), note=note)


# ---------------------------------------------------------------------------
# argument handling


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bathpair",
        description="Entanglement of two oscillators in a common 1D heat bath.")
    parser.add_argument("command", choices=_RUNNERS)
    for name in _OPTIONS:
        parser.add_argument("--" + name.replace("_", "-"), dest=name)
    parser.add_argument("--config", type=str, help="flat key = value file")
    parser.add_argument("--emit-plot-script", action="store_true")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    file_cfg = {}
    if args.config:
        try:
            file_cfg = read_config_file(args.config)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        unknown = sorted(set(file_cfg) - set(_OPTIONS))
        if unknown:
            raise ConfigError(f"unknown config key(s) {', '.join(unknown)}; "
                              f"known: {', '.join(_OPTIONS)}")

    reads = _RUNNERS[args.command][1]
    unread = [name for name in _OPTIONS if name not in reads
              and (getattr(args, name) is not None or name in file_cfg)]
    if unread:
        raise ConfigError(f"{args.command} reads no {', '.join(unread)}")
    params, values = {}, {}
    for name, (cast, default) in _OPTIONS.items():
        raw = getattr(args, name)
        raw = raw if raw is not None else file_cfg.get(name)
        if cast is parse_values:
            if raw is not None:
                params[name] = parse_values(raw)
        else:
            values[name] = default if raw is None else _number(cast, raw)
            if cast is float and not (math.isfinite(values[name]) and values[name] > 0.0):
                raise ConfigError(f"{name} must be positive and finite (got {values[name]})")
    config = RunConfig(command=args.command, params=params,
                       emit_plot_script=bool(args.emit_plot_script), **values)
    if config.oracle_modes < 100:               # the floor of oracle.build_bath
        raise ConfigError(f"oracle_modes must be >= 100 (got {config.oracle_modes})")
    if not os.path.isdir(config.output_dir):
        try:
            os.makedirs(config.output_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"output dir not writable: {exc}") from exc
    return config


# every command: its runner and the value options it reads
_MODEL = ("gamma", "omega_cut", "temperature", "distance", "output_dir")
_D0 = ("gamma", "omega_cut", "temperature", "tol", "output_dir")   # the distance is searched
_RUNNERS = {
    "asymptotic-sweep": (run_asymptotic_sweep, _MODEL),
    "time-trace": (run_time_trace, (*_MODEL, "t_max", "dt")),
    "critical-distance": (run_critical_distance, (*_D0, "r_lo", "r_hi")),
    "short-time-check": (run_short_time_check, _MODEL),
    "oracle-compare": (run_oracle_compare, (*_MODEL, "t_max", "dt", "tol", "oracle_modes")),
    "slope-fit": (run_slope_fit, _D0),
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        outputs = _RUNNERS[config.command][0](config)
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
