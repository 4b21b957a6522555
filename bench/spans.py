"""In-memory span tracing around the library's public functions.

A `Tracer` records one span (name, start, end, parent, error) per call of a
wrapped function and keeps them in memory; `instrumented` wraps each listed
function at every binding in the loaded ``bathpair`` modules, because
``analysis`` and ``covariance`` import their collaborators by name and a
patch of the defining module alone would miss those calls.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

PACKAGE = "bathpair"


@dataclass(slots=True)
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = float("nan")
    error: str | None = None       # exception class name when the call raised


class Tracer:
    """Collects spans and per-layer counts; one instance per traced run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[tuple[str, str], list[float]] = {}
        self._stack: list[int] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, parent, self.clock())
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def _close(self, span: Span) -> None:
        span.end = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Span around a block of the benchmark's own code."""
        span = self._open(name)
        try:
            yield span
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            self._close(span)

    def count(self, layer: str, stat: str, value: float) -> None:
        self.counts.setdefault((layer, stat), []).append(float(value))

    def wrap(self, name: str, fn: Callable, observe: Callable | None = None) -> Callable:
        """Return ``fn`` wrapped in a span; the value and any exception pass
        through unchanged.  ``observe(tracer, name, result)`` reads counts off
        the returned value outside the span; a result that no longer has the
        fields it reads is counted as ``observe_error`` instead of failing the
        library call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                self._close(span)
            if observe is not None:
                try:
                    observe(self, name, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    self.count(name, "observe_error", 1)
            return result

        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the time its direct children cover.

    Spans come from one thread, so the children of a span run one after
    another inside it and their durations simply add up.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]


@contextmanager
def instrumented(tracer: Tracer, targets):
    """Wrap ``targets`` — (module, function, observe) triples naming functions
    of the package — at every module binding, and restore them on exit.

    Yields the list of ``module.function`` names that no longer exist, so a
    renamed or deleted function is reported instead of crashing the run.
    """
    found = []
    missing = []
    for module, function, observe in targets:
        name = f"{module}.{function}"
        try:
            original = getattr(importlib.import_module(f"{PACKAGE}.{module}"), function)
        except (ImportError, AttributeError):
            missing.append(name)
            continue
        found.append((name, original, observe))
    loaded = [m for n, m in list(sys.modules.items())
              if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
    patches = []
    try:
        for name, original, observe in found:
            wrapped = tracer.wrap(name, original, observe)
            for mod in loaded:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
                        patches.append((mod, attr, original))
        yield missing
    finally:
        for mod, attr, original in reversed(patches):
            setattr(mod, attr, original)
