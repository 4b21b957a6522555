"""The library functions the traced run wraps, and the per-layer metrics.

Every per-layer figure is reported per traced operation of the workload
(one trace, one oracle point, one critical-distance round), so runs that
fit a different number of operations into their time stay comparable.
Self time is reported as a share of the traced operations' wall time;
the record file beside the result keeps the absolute seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from spans import Tracer, self_times

SUM, MAX = "sum", "max"


def _observe_greens(tracer: Tracer, name: str, g) -> None:
    tracer.count(name, "points", len(g.time_grid))
    tracer.count(name, "tail", g.tail_contribution)
    tracer.count(name, "imag_residual", g.imag_residual)
    if g.time_grid[0] == 0.0:
        tracer.count(name, "g0_defect", np.max(np.abs(g.time_values[0] - np.eye(4))))


def _observe_series(tracer: Tracer, name: str, covs) -> None:
    tracer.count(name, "outputs", len(covs))


def _observe_grid(tracer: Tracer, name: str, grid) -> None:
    tracer.count(name, "nodes", len(grid[0]))


def _observe_moments(tracer: Tracer, name: str, moments) -> None:
    tracer.count(name, "tail_err", moments[2])


@dataclass(frozen=True)
class Layer:
    module: str
    function: str
    # (stat, unit, aggregation over the run): SUM is reported per operation
    extras: tuple = ()
    observe: Callable | None = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.function}"


LAYERS = (
    Layer("greens", "greens_time",
          (("points", "count", SUM), ("tail", "1", MAX),
           ("imag_residual", "1", MAX), ("g0_defect", "1", MAX)), _observe_greens),
    Layer("kernels", "damping_kernel_laplace"),
    Layer("kernels", "noise_spectrum"),
    Layer("covariance", "covariance_time_series", (("outputs", "count", SUM),), _observe_series),
    Layer("covariance", "frequency_grid", (("nodes", "count", SUM),), _observe_grid),
    Layer("covariance", "channel_resonances"),
    Layer("covariance", "covariance_asymptotic"),
    Layer("covariance", "channel_asymptotic_moments", (("tail_err", "1", MAX),), _observe_moments),
    Layer("entanglement", "log_negativity"),
    Layer("entanglement", "symplectic_eigenvalues"),
    Layer("analysis", "trace"),
    Layer("analysis", "detect_peaks"),
    # evals_per_search is derived from the span tree, not observed
    Layer("analysis", "find_d0", (("evals_per_search", "count", None),)),
    Layer("analysis", "asymptotic_log_negativity"),
    # the oracle workload records its deviation from the pipeline here
    Layer("oracle", "reduced_covariance_series", (("max_dC", "1", MAX), ("max_dE", "1", MAX))),
)

BASE_STATS = (("calls", "count"), ("self_pct", "%"), ("fail", "count"))

RUN_STATS = (
    ("bench.traced_op_s", "s"),            # median wall time of a traced operation
    ("bench.trace_overhead_pct", "%"),     # traced minus untraced, same inputs
    ("bench.spans_per_op", "count"),
    ("bench.missing_layers", "count"),     # listed functions the library no longer has
)


def targets():
    """(module, function, observe) triples for `spans.instrumented`."""
    return [(layer.module, layer.function, layer.observe) for layer in LAYERS]


def metric_specs() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in reporting order."""
    out = []
    for layer in LAYERS:
        out += [(f"{layer.name}.{stat}", unit) for stat, unit in BASE_STATS]
        out += [(f"{layer.name}.{stat}", unit) for stat, unit, _ in layer.extras]
    return out + list(RUN_STATS)


def summarize(tracer: Tracer, n_ops: int, traced_wall_s: float):
    """Per-layer metrics per traced operation, plus absolute self seconds."""
    selfs = self_times(tracer.spans)
    calls: dict[str, int] = {}
    fails: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for span, st in zip(tracer.spans, selfs):
        calls[span.name] = calls.get(span.name, 0) + 1
        fails[span.name] = fails.get(span.name, 0) + (span.error is not None)
        self_s[span.name] = self_s.get(span.name, 0.0) + st

    metrics = {}
    for layer in LAYERS:
        n = layer.name
        metrics[f"{n}.calls"] = calls.get(n, 0) / n_ops
        metrics[f"{n}.self_pct"] = 100.0 * self_s.get(n, 0.0) / traced_wall_s
        metrics[f"{n}.fail"] = fails.get(n, 0) / n_ops
        for stat, _, agg in layer.extras:
            values = tracer.counts.get((n, stat), [])
            if agg == SUM:
                metrics[f"{n}.{stat}"] = sum(values) / n_ops
            elif agg == MAX:
                metrics[f"{n}.{stat}"] = max(values, default=0.0)

    searches = [s.id for s in tracer.spans if s.name == "analysis.find_d0"]
    parents = set(searches)
    evals = sum(1 for s in tracer.spans
                if s.name == "analysis.asymptotic_log_negativity" and s.parent in parents)
    metrics["analysis.find_d0.evals_per_search"] = evals / len(searches) if searches else 0.0
    metrics["bench.spans_per_op"] = sum(
        1 for s in tracer.spans if not s.name.startswith("bench.")) / n_ops
    return metrics, self_s
