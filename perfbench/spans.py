"""Span recording for the traced benchmark run.

Spans are taken from outside the library: the benchmark times its own calls
into each layer with :meth:`Tracer.call`, and :func:`instrument_engine`
temporarily replaces the search engine's module and class attributes with
timing wrappers, so the calls the engine makes internally (softmax, the
objective, entropy vectors, Nelder-Mead) are recorded too.  Nothing under
``src/`` is modified; the originals are restored on exit.

Each span stores its name, start and end (``perf_counter_ns``), the index of
the span open when it started (its parent) and the unit of work it belongs
to, which plays the role of a request identifier.  Spans stay in memory as
flat arrays until :meth:`Tracer.summary` reduces them; self time is a span's
duration minus the time its children cover.
"""

from __future__ import annotations

from array import array
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

#: tail percentiles considered, highest first; a tail is reported only when at
#: least TAIL_MIN_BEYOND samples lie beyond it
TAIL_PERCENTILES = (99.99, 99.9, 99.0, 90.0)
TAIL_MIN_BEYOND = 10


class NullTracer:
    """Untraced runs: calls go straight through."""

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """In-memory span store with per-unit counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.unit = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.unit_id = -1
        #: deterministic counts of the current unit, keyed by metric name
        self.counts: dict[str, float] = {}

    def begin_unit(self, unit_id: int) -> None:
        self.unit_id = unit_id
        self.counts = {}

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _name(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def call(self, name, fn, *args, **kwargs):
        idx = len(self.start)
        self.name_id.append(self._name(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.unit.append(self.unit_id)
        self.start.append(0)
        self.end.append(0)
        self._stack.append(idx)
        t0 = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter_ns()
            self._stack.pop()
            self.start[idx] = t0
            self.end[idx] = t1

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        """The spans as numpy arrays (names indexed by ``name_id``)."""
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "unit": np.frombuffer(self.unit, dtype=np.int32),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
            "names": np.array(self.names),
        }

    def save(self, path) -> None:
        np.savez(path, **self.arrays())

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total and self microseconds, p50 and tail."""
        a = self.arrays()
        if not len(a["start_ns"]):
            return {}
        dur = (a["end_ns"] - a["start_ns"]) / 1e3
        parent = a["parent"]
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        self_us = dur - covered
        out = {}
        for nid, name in enumerate(self.names):
            sel = a["name_id"] == nid
            out[name] = {
                "calls": int(sel.sum()),
                "total_us": float(dur[sel].sum()),
                "self_us": float(self_us[sel].sum()),
                **percentiles(dur[sel]),
            }
        return out


def percentiles(samples_us: np.ndarray) -> dict:
    """p50, p99 and the highest tail percentile with enough samples beyond it."""
    n = len(samples_us)
    out = {"n": n, "p50_us": float(np.median(samples_us)) if n else 0.0,
           "p99_us": float(np.percentile(samples_us, 99)) if n else 0.0}
    for q in TAIL_PERCENTILES:
        if n * (100.0 - q) / 100.0 >= TAIL_MIN_BEYOND:
            out["tail"] = f"p{q:g}"
            out["tail_us"] = float(np.percentile(samples_us, q))
            break
    return out


@contextmanager
def patched(owner, attr, replacement):
    original = getattr(owner, attr)
    setattr(owner, attr, replacement)
    try:
        yield original
    finally:
        setattr(owner, attr, original)


class Counts(dict):
    """Deterministic per-unit counts for untraced runs."""

    def count(self, name: str, amount: float = 1) -> None:
        self[name] = self.get(name, 0) + amount


@contextmanager
def count_nelder_mead(engine, counter, tracer: "Tracer | None" = None):
    """Add evaluations, restarts and converged restarts of in-process
    Nelder-Mead calls to ``counter``; one wrapper call per restart, and a span
    per restart when a tracer is given."""
    original = engine.nelder_mead

    def counted(*args, **kwargs):
        if tracer is None:
            result = original(*args, **kwargs)
        else:
            result = tracer.call("engine.nelder_mead", original, *args, **kwargs)
        counter.count("evals", result[2])
        counter.count("restarts")
        counter.count("converged", int(result[3]))
        return result

    with patched(engine, "nelder_mead", counted):
        yield


@contextmanager
def instrument_engine(engine, tracer: Tracer, bound: float | None = None):
    """Trace the search engine's internal layers for in-process restarts.

    Worker processes of a pool do not report back, so traced searches must
    run with ``threads=1``.  With ``bound``, the tracer also counts the
    objective evaluations until the first value at or below it
    (``evals_to_bound``).
    """
    cls = engine.DistributionObjective
    original_make = cls.make_objective

    def make_objective(self, *args, **kwargs):
        fn = original_make(self, *args, **kwargs)

        def objective(p):
            value = tracer.call("engine.objective", fn, p)
            tracer.count("objective_calls")
            if (bound is not None and value <= bound
                    and "evals_to_bound" not in tracer.counts):
                tracer.counts["evals_to_bound"] = tracer.counts["objective_calls"]
            return value
        return objective

    with count_nelder_mead(engine, tracer, tracer), \
            patched(engine, "softmax", tracer.wrap("engine.softmax", engine.softmax)), \
            patched(cls, "__init__", tracer.wrap("engine.objective_setup", cls.__init__)), \
            patched(cls, "entropy_vector",
                    tracer.wrap("engine.entropy_vector", cls.entropy_vector)), \
            patched(cls, "score_from_entropy",
                    tracer.wrap("engine.score_from_entropy", cls.score_from_entropy)), \
            patched(cls, "weights_from_entropy",
                    tracer.wrap("engine.weights_from_entropy", cls.weights_from_entropy)), \
            patched(cls, "make_objective", make_objective):
        yield

