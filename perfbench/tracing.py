"""In-memory spans around the public entry points of btlrank's modules.

Used only by the traced run. ``rebound`` swaps each entry point the CLI
and the solvers look up at call time for a pass-through wrapper that
records a span, and restores the originals on exit. The wrappers hand
arguments and results through unchanged.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from time import perf_counter


class Span:
    __slots__ = ("op", "name", "start", "end", "parent", "info")

    def __init__(self, op, name, start, parent):
        self.op, self.name, self.start, self.parent = op, name, start, parent
        self.end = start
        self.info = None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Spans of every traced op; ``op`` is the id shared by one op's spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else -1
        span = Span(self.op, name, perf_counter(), parent)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            yield span
        finally:
            span.end = perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, inspect=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if inspect is not None:
                span.info = inspect(result)
            return result

        return traced

    def self_times(self, op):
        """(span, self time) for each span of ``op``: duration minus children.

        Calls are sequential, so children never overlap one another.
        """
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s.op == op and s.parent >= 0:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
        return [(s, s.duration - child_time.get(k, 0.0))
                for k, s in enumerate(self.spans) if s.op == op]


def _solve_info(result):
    _, report = result
    return report.iterations


def _mle_info(result):
    _, trace = result
    return len(trace.iterations) - 1


@contextmanager
def rebound(tracer):
    """Route btlrank's public entry points through ``tracer`` until exit."""
    from btlrank import cli, dc, estimators, graphs, laplacian, model

    op = laplacian.LaplacianOperator
    targets = [
        (cli, "solve_mle", "estimators.solve_mle", _mle_info),
        (cli, "dc_overlap", "dc.dc_overlap", None),
        (cli, "dc_community", "dc.dc_community", None),
        (cli, "partition_grid", "graphs.partition", None),
        (cli, "bound_quantities", "metrics.bounds", None),
        (dc, "local_estimates", "dc.local", None),
        (dc, "overlap_alignment", "dc.align", None),
        (dc, "merge_overlap", "dc.merge", None),
        (dc, "solve_mle", "estimators.solve_mle", _mle_info),
        (estimators, "gradient", "estimators.gradient", None),
        (estimators, "loss", "estimators.loss", None),
        (estimators, "mle_exists", "estimators.mle_exists", None),
        (op, "__init__", "laplacian.assemble", None),
        (op, "solve_orthogonal", "laplacian.solve", _solve_info),
        (op, "resistance_matrix", "laplacian.resistance", None),
        (graphs.ComparisonGraph, "from_csv", "graphs.from_csv", None),
        (model.ComparisonData, "from_csv", "model.data_from_csv", None),
    ]
    saved = []
    try:
        for owner, attr, name, inspect in targets:
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                replacement = classmethod(tracer.wrap(name, original.__func__, inspect))
            else:
                replacement = tracer.wrap(name, original, inspect)
            setattr(owner, attr, replacement)
            saved.append((owner, attr, original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
