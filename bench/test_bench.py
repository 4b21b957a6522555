"""Tests of the benchmark's own machinery: spans, self time, inputs, patching."""

import json
import math
import sys
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import bathpair.analysis  # noqa: E402
import bathpair.covariance  # noqa: E402
import bathpair.greens  # noqa: E402
import bathpair.kernels  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, instrumented, self_times  # noqa: E402


class Boom(Exception):
    pass


def test_wrapper_passes_value_and_exception_through():
    tracer = Tracer()
    marker = object()
    assert tracer.wrap("f", lambda x: x)(marker) is marker
    exc = Boom("boom")

    def raises():
        raise exc

    with pytest.raises(Boom) as info:
        tracer.wrap("g", raises)()
    assert info.value is exc
    assert [(s.name, s.error) for s in tracer.spans] == [("f", None), ("g", "Boom")]
    assert all(s.end >= s.start for s in tracer.spans)


def test_self_time_on_synthetic_nested_spans():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("outer"):          # 0 .. 10
        with tracer.span("a"):          # 1 .. 3
            pass
        with tracer.span("b"):          # 4 .. 8
            with tracer.span("c"):      # 5 .. 6
                pass
    names = [s.name for s in tracer.spans]
    assert dict(zip(names, self_times(tracer.spans))) == {
        "outer": 4.0, "a": 2.0, "b": 3.0, "c": 1.0}
    assert [s.parent for s in tracer.spans] == [None, 0, 0, 2]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    make_inputs, _ = workloads.WORKLOADS[name]
    first = list(islice(make_inputs(7), 3))
    assert first == list(islice(make_inputs(7), 3))


def test_seeds_vary_the_inputs():
    assert next(workloads.trace_inputs(0)).distance == 0.2
    rs = {next(workloads.trace_inputs(s)).distance for s in range(1, 6)}
    assert len(rs) == 5 and all(0.2 <= r <= 0.25 for r in rs)
    a = next(workloads.critical_inputs(1))[1]
    b = next(workloads.critical_inputs(2))[1]
    assert a != b and len(a) == workloads.N_POINTS


def test_box_sample_covers_each_stratum_once():
    n = 64
    pts = workloads.box_points(np.random.default_rng(3), n)
    lo, hi = workloads.BOX["gamma"]
    u = np.log([p.gamma / lo for p in pts]) / math.log(hi / lo)
    assert sorted(np.floor(u * n).astype(int)) == list(range(n))
    assert sum(p.temperature == 0.0 for p in pts) == n * workloads.T_ZERO_SHARE


def test_wrapper_covers_by_name_imports():
    original = bathpair.greens.greens_time
    spectrum = bathpair.kernels.noise_spectrum
    tracer = Tracer()
    with instrumented(tracer, [("greens", "greens_time", None),
                               ("kernels", "noise_spectrum", None)]) as missing:
        assert missing == []
        assert bathpair.analysis.greens_time is bathpair.greens.greens_time
        assert bathpair.analysis.greens_time is not original
        assert bathpair.analysis.greens_time.__wrapped__ is original
        params = workloads.ModelParams(gamma=1.0, omega_cut=10.0, distance=0.1)
        bathpair.covariance._noise_weight(np.array([1.0, 2.0]), params, +1)
    assert [s.name for s in tracer.spans] == ["kernels.noise_spectrum"]
    assert bathpair.analysis.greens_time is original
    assert bathpair.covariance.noise_spectrum is spectrum


def test_missing_function_is_reported_not_raised():
    tracer = Tracer()
    with instrumented(tracer, [("analysis", "no_such_function", None),
                               ("no_such_module", "f", None),
                               ("greens", "greens_time", None)]) as missing:
        assert missing == ["analysis.no_such_function", "no_such_module.f"]
        assert bathpair.greens.greens_time.__wrapped__ is not None


def test_request_records_failures_by_class():
    def raises(req):
        req.time(lambda: None)
        raise workloads.BracketSearchError("no bracket")

    def wrong(req):
        workloads.check(False, "E < 0")

    def refuses(req):
        raise bathpair.covariance.TruncationError("raise omega_max")

    failed = workloads.request("d0_search", {}, raises)
    assert (failed.error, failed.detail) == ("BracketSearchError", "no bracket")
    assert failed.wall_s > 0.0 and not failed.refused
    assert (workloads.request("trace", {}, wrong).error, failed.refused) == ("check", False)
    refused = workloads.request("asymptotic_point", {}, refuses)
    assert (refused.error, refused.refused) == ("TruncationError", True)
    ok = workloads.request("trace", {}, lambda req: None)
    assert (ok.error, ok.refused) == (None, False)


def test_outside_checks_on_known_states():
    assert np.allclose(workloads.symplectic_spectrum(np.eye(4)), 1.0)
    for s in (0.1, 0.5):
        ch, sh = math.cosh(s), math.sinh(s)
        sq = np.array([[ch, sh, 0, 0], [sh, ch, 0, 0], [0, 0, ch, -sh], [0, 0, -sh, ch]])
        assert workloads.log_negativity(sq @ sq.T) == pytest.approx(2 * s / math.log(2), abs=1e-9)
    with pytest.raises(workloads.CheckFailed):
        workloads.check_physical(0.5 * np.eye(4), "squeezed below vacuum")


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END.items())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.metric_specs()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
