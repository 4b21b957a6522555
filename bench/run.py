"""Benchmark runner for the bathpair library.

    python3 bench/run.py --workload transient-trace --seed 1 --seconds 40 --trace 0

Runs one workload in this process (no process pool, one BLAS thread) for
about ``--seconds`` seconds: after the first two operations, another is
started only while the slowest one so far still fits.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics are
the end-to-end ones of BENCHMARK.json; with ``--trace 1`` each operation runs
twice on the same inputs, untraced and then with every listed library
function wrapped in a span, and the metrics are the per-layer ones.  The
full record (environment, every request with its scientific outputs,
absolute self times) is written under ``bench/out/``, with the spans of a
traced run beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
# Two operations at least, whatever their length: a run that stopped after
# one slow operation would report exactly the slow ones and widen the spread.
MIN_OPS = 2
SETUP_CODE = ("import time; t0 = time.perf_counter(); "
              "import numpy, scipy, bathpair.analysis, bathpair.oracle; "
              "print(time.perf_counter() - t0)")
# One BLAS thread: on a small shared machine a second spinning BLAS thread
# makes the oracle's eigendecompositions several times slower whenever the
# other core is busy, which costs far more steadiness than it saves time.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = {"setup_s": "s", "op_s": "s", "ok_frac": "1", "peak_rss_mb": "MB"}


def measure_setup() -> float:
    """Median import time of numpy, scipy and bathpair in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "seed": seed,
    }


def op_wall(requests) -> float:
    return sum(r.wall_s for r in requests)


def request_summary(requests) -> dict:
    """Per request kind: count, refusals and failures with their exception
    classes, median and p90 wall time."""
    out = {}
    for kind in dict.fromkeys(r.kind for r in requests):
        reqs = [r for r in requests if r.kind == kind]
        walls = sorted(r.wall_s for r in reqs)
        errors: dict[str, int] = {}
        for r in reqs:
            if r.error:
                errors[r.error] = errors.get(r.error, 0) + 1
        out[kind] = {
            "attempted": len(reqs),
            "refused": sum(r.refused for r in reqs),
            "failed": sum(r.error is not None and not r.refused for r in reqs),
            "errors": errors,
            "wall_median_s": statistics.median(walls),
            "wall_p90_s": walls[min(len(walls) - 1, int(0.9 * len(walls)))],
        }
    return out


def run_untraced(inputs, run_op, seconds: float):
    ops = []
    start = time.perf_counter()
    while True:
        ops.append(run_op(next(inputs)))
        longest = max(op_wall(op) for op in ops)
        if len(ops) >= MIN_OPS and time.perf_counter() - start + longest > seconds:
            return ops


def run_traced(inputs, run_op, seconds: float):
    from layers import targets
    from spans import Tracer, instrumented

    tracer = Tracer()
    pairs = []
    missing: list[str] = []
    start = time.perf_counter()
    while True:
        inp = next(inputs)
        t0 = time.perf_counter()
        plain = run_op(inp)
        with instrumented(tracer, targets()) as missing, tracer.span("bench.op"):
            traced = run_op(inp, tracer)
        pairs.append((plain, traced, time.perf_counter() - t0))
        longest = max(p[2] for p in pairs)
        if time.perf_counter() - start + longest > seconds:
            return pairs, tracer, missing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bathpair" / "__init__.py").is_file():
        print(f"bench: no library source at {SRC / 'bathpair'}", file=sys.stderr)
        return 2
    os.environ.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    make_inputs, run_op = workloads.WORKLOADS[args.workload]
    inputs = make_inputs(args.seed)

    setup_s = measure_setup()
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "environment": environment(args.seed), "setup_s": setup_s}

    if args.trace:
        import layers

        pairs, tracer, missing = run_traced(inputs, run_op, args.seconds)
        requests = [r for plain, traced, _ in pairs for r in plain + traced]
        traced_walls = [op_wall(traced) for _, traced, _ in pairs]
        metrics, self_s = layers.summarize(tracer, len(pairs), sum(traced_walls))
        metrics["bench.traced_op_s"] = statistics.median(traced_walls)
        metrics["bench.trace_overhead_pct"] = statistics.median(
            100.0 * (op_wall(traced) - op_wall(plain)) / op_wall(plain)
            for plain, traced, _ in pairs)
        metrics["bench.missing_layers"] = len(missing)
        units = dict(layers.metric_specs())
        record.update(missing_layers=missing, self_s=self_s)
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"{args.workload}-seed{args.seed}-trace1-spans.json", "w") as fh:
            json.dump([[s.id, s.name, s.parent, s.start, s.end, s.error]
                       for s in tracer.spans], fh)
    else:
        ops = run_untraced(inputs, run_op, args.seconds)
        requests = [r for op in ops for r in op]
        metrics = {
            "setup_s": setup_s,
            "op_s": statistics.median(op_wall(op) for op in ops),
            "ok_frac": 1.0 - sum(r.error is not None for r in requests) / len(requests),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END

    # The library's own refusals are counted in ok_frac, which has a bound;
    # failed counts wrong outputs and exceptions the library does not define.
    failed = sum(r.error is not None and not r.refused for r in requests)
    correct = not any(r.error == "check" for r in requests)
    record.update(metrics=metrics, summary=request_summary(requests),
                  requests=[vars(r) for r in requests])
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=float)

    for kind, s in record["summary"].items():
        print(f"{kind}: {s['attempted']} attempted, {s['refused']} refused, "
              f"{s['failed']} failed {s['errors']}, "
              f"median {s['wall_median_s']:.4g} s, p90 {s['wall_p90_s']:.4g} s",
              file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": len(requests),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
