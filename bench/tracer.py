"""Outside-in tracing: spans around the calls into each graphmix module.

The program is not instrumented.  The tracer replaces, for the length of
one traced round, the public names that ``graphmix.cli`` and the layer
modules look up at call time with timing wrappers, so every call records a
span (name, start, end, parent) in memory.  Spans are written out when the
run ends; per-layer metrics and self times are derived from them.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.results: list[object] = []  # return value of each wrapped call, by span index
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        idx = self._open()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, name, t0, None)

    def _open(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self.results.append(None)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, name: str, t0: float, result) -> None:
        t1 = time.perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, t0, t1, self._stack[-1] if self._stack else -1)
        self.results[idx] = result

    def wrap(self, owner, attr: str, name, keep_result: bool = False, materialize: bool = False):
        """Time every call of ``owner.attr``.

        ``name`` is a span name or a function of the call's arguments.  A
        generator function is drained inside the span when ``materialize``
        is set, so the span covers the whole walk, and the caller receives
        an iterator over the drained items.
        """
        orig = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            span_name = name(*args, **kwargs) if callable(name) else name
            idx = tracer._open()
            t0 = time.perf_counter()
            result = None
            try:
                result = orig(*args, **kwargs)
                if materialize:
                    result = list(result)
            finally:
                tracer._close(idx, span_name, t0, result if keep_result else None)
            return iter(result) if materialize else result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def restore(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- derived figures --------------------------------------------------------

    def summary(self) -> "SpanSummary":
        return SpanSummary(self)

    def write(self, path: Path) -> None:
        closed = [(i, s) for i, s in enumerate(self.spans) if s is not None]
        base = min((s[1] for _, s in closed), default=0.0)
        lines = ["id,name,start_s,end_s,parent"]
        lines += [f"{i},{s[0]},{s[1] - base:.9f},{s[2] - base:.9f},{s[3]}" for i, s in closed]
        path.write_text("\n".join(lines) + "\n")


class SpanSummary:
    """Totals, counts, self times and results of a tracer's spans, by name."""

    def __init__(self, tracer: Tracer):
        self._index: dict[str, list[int]] = {}
        self._dur: dict[int, float] = {}
        self._self: dict[int, float] = {}
        self._results = tracer.results
        for i, s in enumerate(tracer.spans):
            if s is None:
                continue
            self._index.setdefault(s[0], []).append(i)
            self._dur[i] = s[2] - s[1]
            self._self[i] = self._self.get(i, 0.0) + self._dur[i]
            if s[3] >= 0:
                self._self[s[3]] = self._self.get(s[3], 0.0) - self._dur[i]

    def total(self, name: str) -> float:
        return sum(self._dur[i] for i in self._index.get(name, ()))

    def count(self, name: str) -> int:
        return len(self._index.get(name, ()))

    def self_time(self, name: str) -> float:
        """Duration of the named spans minus the time their direct children cover."""
        return sum(self._self[i] for i in self._index.get(name, ()))

    def results(self, name: str) -> list:
        return [self._results[i] for i in self._index.get(name, ())]


def install(tracer: Tracer) -> None:
    """Wrap the module boundaries the CLI crosses; ``tracer.restore()`` undoes it."""
    cli = importlib.import_module("graphmix.cli")
    # ``import graphmix.generate`` yields the generate() function that the
    # package re-exports under the submodule's name, so fetch the module itself
    gen = importlib.import_module("graphmix.generate")
    graph = importlib.import_module("graphmix.graph")
    ranking = importlib.import_module("graphmix.ranking")
    sampling = importlib.import_module("graphmix.sampling")

    tracer.wrap(cli, "generate", "generate.generate")
    tracer.wrap(gen, "weighted_pick", "rng.weighted_pick")
    tracer.wrap(gen, "pick_from_cumulative", "rng.pick_from_cumulative")  # directed source draws
    tracer.wrap(graph.AttributedGraph, "edges", "graph.edges", materialize=True)
    tracer.wrap(cli, "read_network", "netio.read_network")
    tracer.wrap(cli, "read_trace", "netio.read_trace")
    tracer.wrap(cli, "write_network", "netio.write_network", keep_result=True)
    tracer.wrap(cli, "write_trace", "netio.write_trace", keep_result=True)
    tracer.wrap(cli, "write_config", "netio.write_config")
    tracer.wrap(cli, "select_model", "inference.select_model")
    tracer.wrap(cli, "rank_report", "ranking.rank_report")
    tracer.wrap(ranking, "pagerank", "ranking.pagerank", keep_result=True)
    tracer.wrap(cli, "benchmark", "sampling.benchmark")
    tracer.wrap(sampling, "sample", lambda g, strategy, *a, **k: f"sampling.{strategy}")
    tracer.wrap(cli, "seeding", "spreading.seeding")
    tracer.wrap(cli, "cascade", "spreading.cascade", keep_result=True)
    tracer.wrap(cli, "threshold_cascade", "spreading.threshold_cascade", keep_result=True)
    tracer.wrap(cli, "equality_report", "spreading.equality_report")
