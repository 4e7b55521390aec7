"""Spans around the calls into each ``selfsync`` layer.

The traced run replaces public functions where their callers bind them
(``selfsync.experiments.simulate``, ``selfsync.cli.classify``, ...) with
wrappers that record a span: name, start, end, parent, the timed step it
belongs to and a few attributes.  Spans stay in memory and are written out
when the run ends.  A span's self time is its duration minus its direct
children's durations.  Nothing under ``src/`` changes.
"""
from __future__ import annotations

import functools
import json
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

import selfsync.cli
import selfsync.consensus
import selfsync.digraph
import selfsync.dynamics
import selfsync.experiments
import selfsync.netgen

__all__ = ["Span", "Tracer"]


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: "int | None"
    step: int
    attrs: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


def _graph_attrs(args, kwargs, result) -> dict:
    g = args[0]
    return {"n": g.n, "edges": len(g.edges)}


def _network_attrs(args, kwargs, result) -> dict:
    if result is None:
        return {}
    return {"attempts": result.attempts, "edges": len(result.graph.edges), "n": result.graph.n}


def _simulate_attrs(args, kwargs, result) -> dict:
    g, cfg = args[0], args[2]
    longest = max((e.delay_s for e in g.edges), default=0.0)
    m_max = int(np.rint(longest / cfg.step_s))
    return {"n": g.n, "edges": len(g.edges), "m_max": m_max, "steps": cfg.horizon}


def _debias_attrs(args, kwargs, result) -> dict:
    mode = args[3] if len(args) > 3 else kwargs.get("mode", selfsync.consensus.DebiasMode.SIMULATED)
    return {"mode": mode.value}


def _csv_attrs(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(args[1])}


# (module, attribute, span name, attribute extractor); an extractor sees
# result None when the call raised.
_BINDINGS = (
    (selfsync.netgen, "ensure_connectivity", "netgen.ensure_connectivity", _network_attrs),
    (selfsync.experiments, "ensure_connectivity", "netgen.ensure_connectivity", _network_attrs),
    (selfsync.digraph, "classify", "digraph.classify", _graph_attrs),
    (selfsync.netgen, "classify", "digraph.classify", _graph_attrs),
    (selfsync.consensus, "classify", "digraph.classify", _graph_attrs),
    (selfsync.cli, "classify", "digraph.classify", _graph_attrs),
    (selfsync.cli, "load_graph", "digraph.load_graph", None),
    (selfsync.dynamics, "simulate", "dynamics.simulate", _simulate_attrs),
    (selfsync.experiments, "simulate", "dynamics.simulate", _simulate_attrs),
    (selfsync.consensus, "simulate", "dynamics.simulate", _simulate_attrs),
    (selfsync.cli, "simulate", "dynamics.simulate", _simulate_attrs),
    (selfsync.experiments, "detect_consensus", "dynamics.detect_consensus", None),
    (selfsync.consensus, "detect_consensus", "dynamics.detect_consensus", None),
    (selfsync.dynamics, "write_trajectory_csv", "dynamics.write_trajectory_csv", _csv_attrs),
    (selfsync.consensus, "predict", "consensus.predict", None),
    (selfsync.experiments, "predict", "consensus.predict", None),
    (selfsync.cli, "predict", "consensus.predict", None),
    (selfsync.consensus, "debias_two_step", "consensus.debias_two_step", _debias_attrs),
    (selfsync.cli, "debias_two_step", "consensus.debias_two_step", _debias_attrs),
    (selfsync.experiments, "run_estimation_study", "experiments.run_estimation_study", None),
    (selfsync.cli, "run_estimation_study", "experiments.run_estimation_study", None),
    (selfsync.experiments, "run_topology_study", "experiments.run_topology_study", None),
    (selfsync.cli, "run_topology_study", "experiments.run_topology_study", None),
)


class Tracer:
    """Span recorder; wrappers are installed only between ``install``/``remove``."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.active = False
        self.step = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, **attrs):
        """Record a span while tracing; a no-op otherwise."""
        if not self.active:
            yield None
            return
        rec = Span(len(self.spans), name, time.perf_counter(), 0.0,
                   self._stack[-1] if self._stack else None, self.step, dict(attrs))
        self.spans.append(rec)
        self._stack.append(rec.id)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec.end = time.perf_counter()

    def _wrap(self, fn, name: str, extract):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = rec = None
            try:
                with self.span(name) as rec:
                    result = fn(*args, **kwargs)
                return result
            finally:
                # Outside the span, so that reading attributes (a pass over
                # 400k edges for simulate) is not timed as the layer's work.
                if extract is not None and rec is not None:
                    rec.attrs.update(extract(args, kwargs, result))

        return wrapper

    def install(self) -> None:
        for module, attr, name, extract in _BINDINGS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, extract))
        self.active = True

    def remove(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        self.active = False

    def self_ms(self) -> dict[int, float]:
        """Self time of every span, keyed by span id."""
        own = {s.id: s.ms for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.ms
        return own

    def under(self, span: Span, name: str) -> bool:
        """True when some ancestor of ``span`` is named ``name``."""
        parent = span.parent
        while parent is not None:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False

    def write(self, path: Path) -> None:
        path.write_text(json.dumps([asdict(s) for s in self.spans]) + "\n")
