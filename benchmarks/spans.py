"""Span recorder and layer wrappers for the traced benchmark mode.

The traced run wraps the public functions of each pqlab module, from the
benchmark's side, so that the program's own calls between layers go through
the wrappers.  Every wrapped call records a span (name, start, end, parent,
operation) in flat arrays that stay in memory until the run ends; a few hot
functions are only counted.  Spans and counts are filed under their stage,
the outermost span open when they started, so that a layer called both
while a game is built and while it is solved is split between the two.  A
layer's self time is its span time minus the time of its child spans.
Nothing here is active in the untraced run.
"""

from __future__ import annotations

import array
import functools
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Spans and call counts, attributed to the operation that is running."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array.array("d")
        self.end = array.array("d")
        self.name = array.array("i")
        self.parent = array.array("i")
        self.op = array.array("i")
        self.stage = array.array("i")
        # (operation, stage name id, name id) -> calls
        self.calls: dict[tuple[int, int, int], int] = {}
        self.current_op = 0
        self._stack: list[int] = []

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.stage.append(self.name[self._stack[0]] if self._stack else nid)
        self._stack.append(idx)
        self.count(nid)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def count(self, nid: int) -> None:
        stage = self.name[self._stack[0]] if self._stack else -1
        key = (self.current_op, stage, nid)
        self.calls[key] = self.calls.get(key, 0) + 1

    @contextmanager
    def span(self, name: str):
        idx = self.open(self.intern(name))
        try:
            yield
        finally:
            self.close(idx)

    def times(self) -> tuple[dict, dict]:
        """Inclusive and self seconds per (operation, stage, span name)."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        incl: dict[tuple[int, str, str], float] = defaultdict(float)
        own: dict[tuple[int, str, str], float] = defaultdict(float)
        for i, d in enumerate(dur):
            key = (self.op[i], self.names[self.stage[i]], self.names[self.name[i]])
            incl[key] += d
            own[key] += d - child[i]
        return incl, own

    def calls_in(self, op: int, stage: str, name: str) -> int:
        if stage not in self._ids or name not in self._ids:
            return 0
        return self.calls.get((op, self._ids[stage], self._ids[name]), 0)


class NullTracer:
    """Stand-in for the untraced run: spans cost one method call."""

    current_op = 0

    @contextmanager
    def span(self, name: str):
        yield


def _spanned(tracer: Tracer, name: str, fn):
    nid = tracer.intern(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)

    return wrapper


def _counted(tracer: Tracer, name: str, fn):
    nid = tracer.intern(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(nid)
        return fn(*args, **kwargs)

    return wrapper


@contextmanager
def patched(targets):
    """Temporarily replace attributes; targets are (owner, attr, make_wrapper)."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    try:
        for (owner, attr, make), (_, _, old) in zip(targets, saved):
            setattr(owner, attr, make(old))
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


def targets(tracer: Tracer, games, oracles, dag_learner, graphical) -> list:
    """Layer boundaries crossed while a game is built and solved."""

    def span(name):
        return functools.partial(_spanned, tracer, name)

    def count(name):
        return functools.partial(_counted, tracer, name)

    return [
        (games.CongestionGame, "__init__", span("games.construct")),
        (games.GraphicalGame, "__init__", span("games.construct")),
        (oracles.CongestionOracle, "query_loads", span("oracles.query")),
        (oracles.PurePayoffOracle, "query_pure", span("oracles.query")),
        (oracles, "strategy_costs", span("games.eval")),
        (games.GraphicalGame, "payoffs", span("games.eval")),
        (oracles.QueryLedger, "record", span("oracles.ledger")),
        (games.GraphicalGame, "payoff", count("games.payoff")),
        (games.Network, "validate_path", count("games.validate_path")),
        (games, "edge_loads", count("games.edge_loads")),
        (dag_learner, "edge_loads", count("games.edge_loads")),
        (dag_learner, "contract_network", span("dag_learner.contract")),
        (dag_learner, "find_dependent_pair", span("dag_learner.dependent_pair")),
        (dag_learner, "find_bridges", span("dag_learner.bridges")),
        (dag_learner, "learn_costs", span("dag_learner.learn")),
        (dag_learner, "solve_learned_game", span("dag_learner.descent")),
        (dag_learner.ContractionMap, "map_profile_back", span("dag_learner.map_back")),
        (graphical, "build_probe_set", span("graphical.probe")),
    ]
