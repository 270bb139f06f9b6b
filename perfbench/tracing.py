"""Spans recorded by the benchmark around its calls into the program.

The program itself is not instrumented: every span here wraps a public
call made from the benchmark's own code (trace generation, labeling,
training, controller construction, ``run()``, and each ``choose()`` the
engine makes through :class:`TimedChooser`). Spans are kept in memory and
written out once, when the run ends.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class Tracer:
    """In-memory span recorder: ``[name, start, end, parent]`` per span."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = [name, perf_counter(), None, parent]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def self_times(self, root: int) -> dict[str, float]:
        """Self time per span name in the subtree under span ``root``:
        each span's duration minus the part its children cover."""
        inside = {root}
        for i in range(root + 1, len(self.spans)):
            if self.spans[i][3] in inside:
                inside.add(i)
        own = {i: self.spans[i][2] - self.spans[i][1] for i in inside}
        for i in inside:
            parent = self.spans[i][3]
            if i != root and parent in own:
                own[parent] -= self.spans[i][2] - self.spans[i][1]
        totals: dict[str, float] = {}
        for i, t in own.items():
            name = self.spans[i][0]
            totals[name] = totals.get(name, 0.0) + t
        return totals

    def write(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            {"id": i, "name": n, "start_s": s - t0, "end_s": e - t0,
             "parent": p}
            for i, (n, s, e, p) in enumerate(self.spans)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(rows) + "\n")


@contextmanager
def maybe_span(tracer: Tracer | None, name: str):
    if tracer is None:
        yield
    else:
        with tracer.span(name):
            yield


class TimedChooser:
    """Wraps a controller so every ``choose()`` the engine makes is timed
    (and, with a tracer, recorded as a span nested in ``engine.run``).

    Besides the wall time per call it keeps the decision fields the
    controllers expose: ``inference_time`` (DeepBAT's surrogate forward),
    ``fit_time``/``solve_time`` (BATCH), the degraded flag, and whether
    any surrogate prediction was non-finite.
    """

    def __init__(self, inner, span_name: str, tracer: Tracer | None = None):
        self.inner = inner
        self.span_name = span_name
        self.tracer = tracer
        self.durations: list[float] = []
        self.decision_time = 0.0
        self.inference_time = 0.0
        self.fit_time = 0.0
        self.solve_time = 0.0
        self.degraded = 0
        self.nonfinite_predictions = 0

    def choose(self, history: np.ndarray, slo: float):
        with maybe_span(self.tracer, self.span_name):
            t0 = perf_counter()
            decision = self.inner.choose(history, slo)
            self.durations.append(perf_counter() - t0)
        self.decision_time += decision.decision_time
        self.inference_time += getattr(decision, "inference_time", 0.0)
        self.fit_time += getattr(decision, "fit_time", 0.0)
        self.solve_time += getattr(decision, "solve_time", 0.0)
        self.degraded += bool(decision.degraded)
        preds = decision.predictions
        if preds is not None and not np.all(np.isfinite(preds)):
            self.nonfinite_predictions += 1
        return decision
