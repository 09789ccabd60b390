"""In-memory span tracer and the instrumentation that feeds it.

A span is ``(id, parent, name, start_ns, end_ns, round)``: the benchmark
opens one around every call it makes into a layer's public function, and one
around each whole operation; ``round`` is the round the span belongs to
(negative numbers key the set-up repeats). Spans stay in memory and are
written out once, when the run ends.

Calls that happen millions of times per operation (the log-densities inside
a fit, the log-posterior evaluations inside the sampler) are not spans; they
are counters of calls and nanoseconds, kept per round. ``instrument``
installs the wrappers that feed those counters and removes them again; it is
only used on traced operations, so untraced operations run the package
exactly as shipped.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time

from gridsynth import distributions, inference, lines, loads, phases, reliability

# Modules that call into ``distributions`` and ``inference.fit`` by name.
_CALLERS = (phases, loads, reliability, lines)

_now = time.perf_counter_ns


class _Span:
    __slots__ = ("tracer", "name", "id", "parent", "start")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        tracer = self.tracer
        self.id = len(tracer.spans)
        self.parent = tracer.stack[-1] if tracer.stack else None
        tracer.spans.append(None)  # reserve the slot so ids follow start order
        tracer.stack.append(self.id)
        self.start = _now()
        return self

    def __exit__(self, *exc) -> None:
        end = _now()
        tracer = self.tracer
        tracer.stack.pop()
        tracer.spans[self.id] = (self.id, self.parent, self.name, self.start, end, tracer.round)


class Tracer:
    """Records spans and per-round counters."""

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.round = 0
        self.counters: dict[str, list[int]] = {}

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def count(self, name: str, calls: int, ns: int) -> None:
        entry = self.counters.setdefault(name, [0, 0])
        entry[0] += calls
        entry[1] += ns

    def take_counters(self) -> dict[str, list[int]]:
        counters, self.counters = self.counters, {}
        return counters

    def write(self, path: str, rounds: list[dict]) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        doc = {
            "fields": ["id", "parent", "name", "start_ns", "end_ns", "round"],
            "spans": self.spans,
            "rounds": rounds,
        }
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        os.replace(tmp, path)


class NullTracer:
    """Tracer stand-in for untraced operations: records nothing."""

    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


def _counted(fn, tracer: Tracer, key: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = _now()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.count(key, 1, _now() - start)

    return wrapper


def _traced_fit(fit, tracer: Tracer):
    """``inference.fit`` inside a span, with its log-posterior counted."""

    @functools.wraps(fit)
    def wrapper(log_posterior, *args, **kwargs):
        evals = [0, 0]

        def timed(values):
            start = _now()
            try:
                return log_posterior(values)
            finally:
                evals[0] += 1
                evals[1] += _now() - start

        with tracer.span("inference.fit"):
            result = fit(timed, *args, **kwargs)
        tracer.count("inference.logpost", evals[0], evals[1])
        return result

    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Count the samplers and log-densities other layers call, and span
    every ``inference.fit`` the model layers start."""
    saved = []
    for module in _CALLERS:
        for name, obj in list(vars(module).items()):
            if getattr(distributions, name, None) is not obj or not callable(obj):
                continue
            if name.startswith("sample_"):
                key = "distributions.sampler"
            elif name.startswith(("logpdf_", "logpmf_")):
                key = "distributions.logdensity"
            else:
                continue
            saved.append((module, name, obj))
            setattr(module, name, _counted(obj, tracer, key))
        if getattr(module, "fit", None) is inference.fit:
            saved.append((module, "fit", inference.fit))
            module.fit = _traced_fit(inference.fit, tracer)
    try:
        yield
    finally:
        for module, name, obj in saved:
            setattr(module, name, obj)
