"""Exact game representations and evaluation semantics.

Everything here is pure and exact: payoffs and costs are `fractions.Fraction`,
strategies are integers, and congestion-game pure strategies are tuples of
edge ids. All types are immutable after construction and safe to share.
"""

from __future__ import annotations

import heapq
import math
import operator
import sys
from bisect import bisect_right
from collections import deque
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import TypeVar

from .errors import InvalidProfile, InvalidSpec, LoadOutOfRange, NotADag

Path = tuple[int, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)
_INT = frozenset({int})
_T = TypeVar("_T")


def _unit(value: object, what: str) -> Fraction:
    # An exact Fraction is taken as it is; its denominator is positive, so
    # the integer test is the same as 0 <= f <= 1.
    f = value if type(value) is Fraction else Fraction(value)  # type: ignore[arg-type]
    if not 0 <= f.numerator <= f.denominator:
        raise InvalidSpec(f"{what} must lie in [0, 1], got {f}")
    return f


@dataclass(frozen=True)
class BimatrixGame:
    """Two-player game with payoff tables over k_row x k_col pure profiles.

    Entries must lie in [0, 1] and both tables must have identical shape.  A
    table with an entry of another spelling is stored as the checked
    Fractions.
    """

    row_payoff: tuple[tuple[Fraction, ...], ...]
    col_payoff: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if not self.row_payoff or not self.row_payoff[0]:
            raise InvalidSpec("payoff tables must be non-empty")
        widths = {len(r) for r in self.row_payoff}
        if len(widths) != 1:
            raise InvalidSpec("row payoff table is ragged")
        if len(self.col_payoff) != len(self.row_payoff) or {
            len(r) for r in self.col_payoff
        } != widths:
            raise InvalidSpec("payoff tables must have identical dimensions")
        for name in ("row_payoff", "col_payoff"):
            table, what = getattr(self, name), f"{name[:3]} payoff"
            exact = tuple(tuple(_unit(v, what) for v in r) for r in table)
            if any(type(v) is not Fraction for r in table for v in r):
                object.__setattr__(self, name, exact)

    @property
    def rows(self) -> int:
        return len(self.row_payoff)

    @property
    def cols(self) -> int:
        return len(self.row_payoff[0])

    def payoffs(self, profile: Sequence[int]) -> tuple[Fraction, Fraction]:
        """Both players' payoffs at a pure profile (row, col)."""
        i, j = profile
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise InvalidProfile(f"pure profile {profile} out of range")
        return self.row_payoff[i][j], self.col_payoff[i][j]


@dataclass(frozen=True)
class MixedProfile:
    """A pair of exact probability vectors, one per player, stored as Fractions."""

    row_dist: tuple[Fraction, ...]
    col_dist: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        for name in ("row", "col"):
            dist = tuple(
                p if type(p) is Fraction else Fraction(p)  # type: ignore[arg-type]
                for p in getattr(self, f"{name}_dist")
            )
            object.__setattr__(self, f"{name}_dist", dist)
            if not dist:
                raise InvalidSpec(f"{name} distribution is empty")
            if any(p < _ZERO for p in dist):
                raise InvalidSpec(f"{name} distribution has a negative entry")
            if sum(dist) != _ONE:
                raise InvalidSpec(f"{name} distribution must sum to exactly 1")

    @classmethod
    def of(
        cls, row_dist: Iterable[object], col_dist: Iterable[object]
    ) -> "MixedProfile":
        return cls(tuple(row_dist), tuple(col_dist))  # type: ignore[arg-type]

    @classmethod
    def pure(cls, row: int, col: int, rows: int, cols: int) -> "MixedProfile":
        if not (0 <= row < rows and 0 <= col < cols):
            raise InvalidProfile(f"pure profile ({row}, {col}) out of range")
        return cls(
            tuple(_ONE if i == row else _ZERO for i in range(rows)),
            tuple(_ONE if j == col else _ZERO for j in range(cols)),
        )

    @classmethod
    def uniform(cls, rows: int, cols: int) -> "MixedProfile":
        if rows < 1 or cols < 1:
            raise InvalidSpec("uniform profile needs at least one strategy per side")
        return cls(
            tuple(Fraction(1, rows) for _ in range(rows)),
            tuple(Fraction(1, cols) for _ in range(cols)),
        )


@dataclass(frozen=True)
class GraphicalGame:
    """n-player game whose payoffs factor through a directed affects graph.

    ``in_neighbors[p]`` lists, in increasing order, the players whose strategy
    can change p's payoff.  ``payoff_tables[p]`` maps
    ``(own_strategy, neighbor_strategies)`` to a payoff in [0, 1], where the
    neighbor strategies follow the order of ``in_neighbors[p]``.

    ``payoff`` reads a derived index, built on the first lookup: per player,
    an ``itemgetter`` that picks ``(own, *neighbor_strategies)`` out of a
    profile (the bare own strategy when p has no in-neighbors) and a dict
    keyed by that, holding the same entries as ``payoff_tables[p]``.  A table
    with an entry of another spelling is stored as the checked Fractions.
    """

    players: int
    strategies: int
    in_neighbors: tuple[tuple[int, ...], ...]
    payoff_tables: tuple[Mapping[tuple[int, tuple[int, ...]], Fraction], ...]

    def __post_init__(self) -> None:
        n, k = self.players, self.strategies
        if n < 1 or k < 1:
            raise InvalidSpec("graphical game needs n >= 1 players, k >= 1 strategies")
        if len(self.in_neighbors) != n or len(self.payoff_tables) != n:
            raise InvalidSpec("per-player fields must have length n")
        tables = list(self.payoff_tables)
        for p, nbrs in enumerate(self.in_neighbors):
            if list(nbrs) != sorted(set(nbrs)):
                raise InvalidSpec(f"in-neighbors of player {p} must be sorted and unique")
            if any(q == p or not 0 <= q < n for q in nbrs):
                raise InvalidSpec(f"in-neighbors of player {p} out of range")
            table = self.payoff_tables[p]
            width = len(nbrs)
            expected = k * k ** width
            if len(table) != expected:
                raise InvalidSpec(
                    f"player {p} table has {len(table)} entries, expected {expected}"
                )
            what, exact = f"player {p} payoff", True
            for (own, ctx), v in table.items():
                if not 0 <= own < k or len(ctx) != width:
                    raise InvalidSpec(f"player {p} table key ({own}, {ctx}) malformed")
                if any(not 0 <= s < k for s in ctx):
                    raise InvalidSpec(f"player {p} table key ({own}, {ctx}) malformed")
                if _unit(v, what) is not v:
                    exact = False
            if not exact:
                tables[p] = {key: _unit(v, what) for key, v in table.items()}
        if any(map(operator.is_not, tables, self.payoff_tables)):
            object.__setattr__(self, "payoff_tables", tuple(tables))

    @property
    def affects_edges(self) -> frozenset[tuple[int, int]]:
        """Directed pairs (q, p): q's strategy may affect p's payoff."""
        return frozenset(
            (q, p) for p, nbrs in enumerate(self.in_neighbors) for q in nbrs
        )

    @cached_property
    def _payoff_index(self) -> tuple[tuple[operator.itemgetter, dict], ...]:
        index = []
        for p, nbrs in enumerate(self.in_neighbors):
            table = self.payoff_tables[p]
            if nbrs:
                flat = {(own, *ctx): v for (own, ctx), v in table.items()}
            else:
                flat = {own: v for (own, _), v in table.items()}
            index.append((operator.itemgetter(p, *nbrs), flat))
        return tuple(index)

    def payoff(self, player: int, profile: Sequence[int]) -> Fraction:
        # The index's keys are exactly the in-range (own, *ctx) entries, so the
        # lookup checks every entry this payoff reads (a negative strategy is
        # no key, never a wrapped index); `payoffs` reads them all.
        if len(profile) == self.players:
            get, table = self._payoff_index[player]
            value = table.get(get(profile))
            if value is not None:
                return value
        raise InvalidProfile(f"profile {tuple(profile)} malformed for this game")

    def payoffs(self, profile: Sequence[int]) -> tuple[Fraction, ...]:
        return tuple([self.payoff(p, profile) for p in range(self.players)])


class Network:
    """Directed multigraph with a distinguished origin and destination.

    Edges carry stable integer ids so parallel edges stay distinguishable.
    Construction rejects cyclic graphs and requires every vertex to lie on
    some origin-destination path; use :meth:`build` to prune instead.  The
    structure never changes, so the constructor works out the adjacency and
    the topological order once.
    """

    __slots__ = ("vertices", "edges", "origin", "destination", "__dict__")

    def __init__(
        self,
        vertices: Iterable[int],
        edges: Mapping[int, tuple[int, int]],
        origin: int,
        destination: int,
    ) -> None:
        self.vertices: tuple[int, ...] = tuple(sorted(set(vertices)))
        self.edges: dict[int, tuple[int, int]] = {
            int(e): (int(t), int(h)) for e, (t, h) in sorted(edges.items())
        }
        self.origin = int(origin)
        self.destination = int(destination)
        if self.origin == self.destination:
            raise InvalidSpec("origin and destination must differ")
        out: dict[int, list[int]] = {v: [] for v in self.vertices}
        inc: dict[int, list[int]] = {v: [] for v in self.vertices}
        if self.origin not in out or self.destination not in out:
            raise InvalidSpec("origin/destination not in vertex set")
        for e, (t, h) in self.edges.items():
            if t not in out or h not in out:
                raise InvalidSpec(f"edge {e} has endpoint outside the vertex set")
            out[t].append(e)
            inc[h].append(e)
        self.out_edges = {v: tuple(es) for v, es in out.items()}
        self.in_edges = {v: tuple(es) for v, es in inc.items()}
        self._order = self._kahn()
        from_o = {self.origin}
        for v in self._order:
            if v in from_o:
                from_o.update(self.edges[e][1] for e in self.out_edges[v])
        stranded = set(self.vertices) - (from_o & self._reaching(self.destination))
        if stranded:
            raise InvalidSpec(
                f"vertices {sorted(stranded)} lie on no origin-destination path"
            )
        self._accepted: dict[Path, Path] = {}  # see validate_path

    @classmethod
    def build(
        cls,
        vertices: Iterable[int],
        edges: Mapping[int, tuple[int, int]] | Sequence[tuple[int, int]],
        origin: int,
        destination: int,
    ) -> "Network":
        """Construct a network, deleting vertices that lie on no o-d path."""
        if not isinstance(edges, Mapping):
            edges = {i: pair for i, pair in enumerate(edges)}
        vs = set(vertices)
        fwd: dict[int, set[int]] = {v: set() for v in vs}
        bwd: dict[int, set[int]] = {v: set() for v in vs}
        for e, (t, h) in edges.items():
            if t not in vs or h not in vs:
                raise InvalidSpec(f"edge {e} has endpoint outside the vertex set")
            fwd[t].add(h)
            bwd[h].add(t)
        from_o = _closure({origin} & vs, fwd)
        to_d = _closure({destination} & vs, bwd)
        keep = from_o & to_d
        if origin not in keep or destination not in keep:
            raise InvalidSpec("no path from origin to destination")
        kept_edges = {
            e: (t, h) for e, (t, h) in edges.items() if t in keep and h in keep
        }
        return cls(keep, kept_edges, origin, destination)

    def _kahn(self) -> tuple[int, ...]:
        """Kahn's algorithm with lowest-vertex-id tie-breaking."""
        indeg = {v: len(es) for v, es in self.in_edges.items()}
        ready = [v for v in self.vertices if indeg[v] == 0]
        heapq.heapify(ready)
        order: list[int] = []
        while ready:
            v = heapq.heappop(ready)
            order.append(v)
            for e in self.out_edges[v]:
                h = self.edges[e][1]
                indeg[h] -= 1
                if indeg[h] == 0:
                    heapq.heappush(ready, h)
        if len(order) != len(self.vertices):
            raise NotADag("graph contains a directed cycle")
        return tuple(order)

    def _reaching(
        self, to: int, banned: frozenset[int] | set[int] = frozenset()
    ) -> set[int]:
        """Vertices with a path to ``to`` that avoids the banned edges.

        One sweep back along the topological order settles the set, because
        the order lists every edge's head after its tail.
        """
        reach = {to}
        for v in reversed(self._order[: self.topo_position[to]]):
            if any(
                e not in banned and self.edges[e][1] in reach for e in self.out_edges[v]
            ):
                reach.add(v)
        return reach

    def topological_order(self) -> tuple[int, ...]:
        """The lowest-vertex-id-first topological order."""
        return self._order

    @cached_property
    def topo_position(self) -> dict[int, int]:
        return {v: i for i, v in enumerate(self._order)}

    def remember(self, key: str, compute: Callable[["Network"], _T]) -> _T:
        """compute(self), worked out on the first call with key and then kept:
        the structure never changes, so neither does what is derived from it."""
        memo = self.__dict__
        if key not in memo:
            memo[key] = compute(self)
        return memo[key]

    @property
    def is_parallel_links(self) -> bool:
        """Whether every edge goes from the origin to the destination."""
        ends = (self.origin, self.destination)
        return all(pair == ends for pair in self.edges.values())

    def least_path(
        self, frm: int, to: int, banned_edges: frozenset[int] | set[int] = frozenset()
    ) -> Path | None:
        """Lexicographically least edge-id path frm -> to, or None.

        Greedily extends by the smallest usable edge id; this yields the
        lexicographic minimum because edge-id sequences are compared
        position by position.
        """
        can_reach = self._reaching(to, banned_edges)
        if frm not in can_reach:
            return None
        path: list[int] = []
        v = frm
        while v != to:
            for e in self.out_edges[v]:
                if e in banned_edges:
                    continue
                h = self.edges[e][1]
                if h in can_reach:
                    path.append(e)
                    v = h
                    break
            else:  # pragma: no cover - can_reach guarantees progress
                return None
        return tuple(path)

    def validate_path(self, path: Path) -> None:
        """Raise InvalidProfile unless path is an origin-destination path.

        The structure never changes, so a tuple path accepted once stays
        valid: it is remembered, and that same tuple, or an equal one whose
        elements all have type int, is accepted again without a walk.  The
        type test matters: ``(False, 2)`` and ``(0.0, 2)`` equal ``(0, 2)``,
        and only the walk refuses them.
        """
        try:
            known = self._accepted.get(path)
        except TypeError:  # a list path or an unhashable edge id: walk it
            known = None
        if known is not None and (
            known is path or (type(path) is tuple and _INT.issuperset(map(type, path)))
        ):
            return
        at = self.origin
        seen_vertices = {at}
        for e in path:
            if type(e) is not int or e not in self.edges:
                raise InvalidProfile(f"unknown edge id {e!r}")
            t, h = self.edges[e]
            if t != at:
                raise InvalidProfile(f"edge {e} does not continue the path at {at}")
            if h in seen_vertices:
                raise InvalidProfile(f"path revisits vertex {h}")
            seen_vertices.add(h)
            at = h
        if at != self.destination:
            raise InvalidProfile(
                f"path ends at {at}, not the destination {self.destination}"
            )
        if type(path) is tuple:
            self._accepted.setdefault(path, path)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Network):
            return NotImplemented
        return (
            self.vertices == other.vertices
            and self.edges == other.edges
            and self.origin == other.origin
            and self.destination == other.destination
        )

    def __repr__(self) -> str:
        return (
            f"Network(|V|={len(self.vertices)}, |E|={len(self.edges)}, "
            f"o={self.origin}, d={self.destination})"
        )


def _closure(start: set[int], adj: Mapping[int, set[int]]) -> set[int]:
    seen = set(start)
    queue = deque(start)
    while queue:
        v = queue.popleft()
        for u in adj.get(v, ()):
            if u not in seen:
                seen.add(u)
                queue.append(u)
    return seen


class StepTable(Sequence):
    """Piecewise-constant cost table over loads 0..n, kept as its breakpoints.

    ``values[k]`` is the cost at every load from ``starts[k]`` up to the next
    breakpoint, so the table costs O(pieces) to build and store whatever n
    is.  It reads like the dense tuple it stands for: indexing (a bisect),
    ``len`` (n + 1), iteration, slices (tuples) and equality with any other
    sequence go by entries.  Adjacent equal values are merged, so equal
    tables have equal breakpoints.
    """

    __slots__ = ("starts", "values", "_size")

    def __init__(self, steps: Iterable[tuple[int, object]], players: int) -> None:
        if players + 1 > sys.maxsize:  # len() must be able to return n + 1
            raise InvalidSpec(f"n={players} is too large: n + 1 exceeds {sys.maxsize}")
        starts: list[int] = []
        values: list[Fraction] = []
        last = -1
        for start, value in steps:
            if start <= last or (last < 0 and start != 0):
                raise InvalidSpec(
                    "step thresholds must start at 0 and strictly increase"
                )
            if start > players:
                raise InvalidSpec(f"step threshold {start} is above n={players}")
            last = start
            value = Fraction(value)  # type: ignore[arg-type]
            if not values or value != values[-1]:
                starts.append(start)
                values.append(value)
        if not starts:
            raise InvalidSpec("a step table needs at least one step")
        self.starts: tuple[int, ...] = tuple(starts)
        self.values: tuple[Fraction, ...] = tuple(values)
        self._size = players + 1

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, load):
        if isinstance(load, slice):
            return tuple(map(self.__getitem__, range(*load.indices(self._size))))
        load = operator.index(load)
        if load < 0:
            load += self._size
        if not 0 <= load < self._size:
            raise IndexError("step table index out of range")
        return self.values[bisect_right(self.starts, load) - 1]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, StepTable):
            return (self._size, self.starts, self.values) == (
                other._size, other.starts, other.values
            )
        if isinstance(other, Sequence):
            return len(other) == self._size and all(map(operator.eq, self, other))
        return NotImplemented

    def __repr__(self) -> str:
        steps = ", ".join(f"({t}, {v})" for t, v in zip(self.starts, self.values))
        return f"StepTable([{steps}], n={self._size - 1})"


class _StepPairs:
    """A step table's entries as (numerator, denominator) pairs, by load."""

    __slots__ = ("starts", "pairs")

    def __init__(self, table: StepTable) -> None:
        self.starts = table.starts
        self.pairs = tuple([(v.numerator, v.denominator) for v in table.values])

    def __getitem__(self, load: int) -> tuple[int, int]:
        return self.pairs[bisect_right(self.starts, load) - 1]


class _PricingView(dict):
    """Edge id -> its cost table as integer (numerator, denominator) pairs
    by load, derived on the edge's first read: a step table by its
    breakpoints, any other table entry by entry."""

    __slots__ = ("cost",)

    def __init__(self, cost: Mapping[int, Sequence[Fraction]]) -> None:
        super().__init__()
        self.cost = cost

    def __missing__(self, e: int):
        table = self.cost[e]
        if isinstance(table, StepTable):
            pairs = self[e] = _StepPairs(table)
        else:
            pairs = self[e] = tuple([(v.numerator, v.denominator) for v in table])
        return pairs


class CongestionGame:
    """Symmetric network congestion game on a DAG (or parallel links).

    Cost tables are per-edge lookup tables over loads 0..n: a tuple of every
    entry, or a :class:`StepTable` of breakpoints; a table that decreases
    anywhere is rejected.

    :func:`strategy_costs` prices a path of several edges from a derived
    view: each edge's table as integer pairs, built on that edge's first
    read.  The constructor leaves the view empty, and equality ignores it.
    """

    __slots__ = ("network", "players", "cost", "_pairs")

    def __init__(
        self,
        network: Network,
        players: int,
        cost: Mapping[int, Sequence[object]],
    ) -> None:
        if players < 1:
            raise InvalidSpec("congestion game needs at least one player")
        self.network = network
        self.players = int(players)
        tables: dict[int, Sequence[Fraction]] = {}
        for e in sorted(network.edges):
            if e not in cost:
                raise InvalidSpec(f"edge {e} has no cost table")
            raw = cost[e]
            if len(raw) != players + 1:
                raise InvalidSpec(
                    f"edge {e} cost table must have {players + 1} entries (loads 0..n)"
                )
            if isinstance(raw, StepTable):
                table, levels = raw, raw.values
            else:
                table = levels = tuple(
                    v if isinstance(v, Fraction) else Fraction(v) for v in raw  # type: ignore[arg-type]
                )
            prev = None
            for v in levels:
                if v < _ZERO:
                    raise InvalidSpec(f"edge {e} cost table has a negative entry")
                if prev is not None and v < prev:
                    raise InvalidSpec(f"edge {e} cost table is decreasing")
                prev = v
            tables[e] = table
        self.cost = tables
        self._pairs = _PricingView(tables)

    @property
    def vertices(self) -> tuple[int, ...]:
        return self.network.vertices

    @property
    def edges(self) -> dict[int, tuple[int, int]]:
        return self.network.edges

    @property
    def origin(self) -> int:
        return self.network.origin

    @property
    def destination(self) -> int:
        return self.network.destination

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CongestionGame):
            return NotImplemented
        return (
            self.network == other.network
            and self.players == other.players
            and self.cost == other.cost
        )

    def __repr__(self) -> str:
        return f"CongestionGame(n={self.players}, {self.network!r})"


def parallel_links_game(tables: Sequence[Sequence[object]], players: int) -> CongestionGame:
    """Encode m parallel links as a two-vertex multigraph game."""
    if not tables:
        raise InvalidSpec("need at least one link")
    net = Network((0, 1), {i: (0, 1) for i in range(len(tables))}, 0, 1)
    return CongestionGame(net, players, {i: t for i, t in enumerate(tables)})


def link_tables(game: CongestionGame) -> list[Sequence[Fraction]]:
    """Cost tables of a parallel-links game, in edge-id order."""
    if not game.network.is_parallel_links:
        raise InvalidSpec("game is not a parallel-links game")
    return [game.cost[e] for e in sorted(game.edges)]


def _network_of(game: "CongestionGame | Network") -> Network:
    return game.network if isinstance(game, CongestionGame) else game


def enumerate_paths(game: "CongestionGame | Network") -> tuple[Path, ...]:
    """All origin-destination paths, lexicographic by edge-id sequence."""
    net = _network_of(game)
    paths: list[Path] = []
    stack: list[tuple[int, tuple[int, ...]]] = [(net.origin, ())]
    while stack:
        v, prefix = stack.pop()
        if v == net.destination:
            paths.append(prefix)
            continue
        # Reverse so that the smallest edge id is explored first.  Every
        # vertex reaches the destination, so no branch is a dead end.
        for e in reversed(net.out_edges[v]):
            stack.append((net.edges[e][1], prefix + (e,)))
    return tuple(paths)


def _used_loads(net: Network, assignment: Mapping[Path, int]) -> dict[int, int]:
    """Validate each path and count, then load only the edges the paths use."""
    loads: dict[int, int] = {}
    for path, count in assignment.items():
        net.validate_path(tuple(path))
        if count < 0:
            raise InvalidProfile(f"negative count {count} for path {path}")
        if not loads:  # a valid path uses each of its edges once
            loads = dict.fromkeys(path, count)
            continue
        get = loads.get
        for e in path:
            loads[e] = get(e, 0) + count
    return loads


def edge_loads(
    game: "CongestionGame | Network", assignment: Mapping[Path, int]
) -> dict[int, int]:
    """Number of assigned players on each edge under the assignment.

    Accepts both strategy profiles and query payloads; each key must be a
    valid origin-destination path and each count non-negative.  Every edge
    of the network is listed, unused ones at 0, in edge-id order.
    """
    net = _network_of(game)
    loads = dict.fromkeys(net.edges, 0)
    loads.update(_used_loads(net, assignment))
    return loads


def _pair_sum(pairs: Iterable[tuple[int, int]]) -> tuple[int, int]:
    """The exact sum of (numerator, denominator) pairs, as one such pair.

    The denominator is the lcm of the denominators read, and the pair is
    not reduced.  Adding over lcm(den, d) = den // g * d scales both sides
    by a quotient by g = gcd(den, d), never dividing the lcm itself.  This
    is the one place pairs are added: :func:`strategy_costs` prices a path
    by it, and the DAG learner sums its learned values by it.
    """
    total, den = 0, 1
    for num, d in pairs:
        if d == den:
            total += num
        elif d == 1:
            total += num * den
        else:
            g = math.gcd(den, d)
            if g == d:
                total += num * (den // d)
            else:
                total = total * (d // g) + num * (den // g)
                den = den // g * d
    return total, den


def strategy_costs(
    game: CongestionGame, assignment: Mapping[Path, int]
) -> dict[Path, Fraction]:
    """Cost of every assigned strategy under the loads the assignment induces.

    Loads on distinct strategies apply simultaneously, so one call prices
    every queried path at once.  Loads are counted on the queried paths'
    edges only, and an edge load above n is rejected, the lowest edge id
    named.  A one-edge path answers with its table's stored entry.  A longer
    path is summed exactly from the game's integer view of its entries by
    :func:`_pair_sum`, and answered with a new ``Fraction`` of that sum.
    """
    loads = _used_loads(game.network, assignment)
    n = game.players
    if loads and max(loads.values()) > n:
        e = min(e for e, load in loads.items() if load > n)
        raise LoadOutOfRange(f"edge {e} carries {loads[e]} players, above n={n}")
    cost, pairs = game.cost, game._pairs
    out: dict[Path, Fraction] = {}
    for path in assignment:
        path = tuple(path)
        if len(path) == 1:
            e = path[0]
            out[path] = cost[e][loads[e]]
        else:
            out[path] = Fraction(*_pair_sum([pairs[e][loads[e]] for e in path]))
    return out


def validate_profile(game: CongestionGame, profile: Mapping[Path, int]) -> dict[int, int]:
    """Check that profile is a multiset of o-d paths of total size n.

    Returns the profile's edge loads, computed by the same single pass.
    """
    loads = edge_loads(game, profile)
    total = sum(profile.values())
    if total != game.players:
        raise InvalidProfile(
            f"profile places {total} players, game has {game.players}"
        )
    return loads


def regret(game: BimatrixGame, profile: MixedProfile) -> Fraction:
    """Largest incentive to deviate over the two players, exactly.

    The profile is an eps-Nash equilibrium iff the result is <= eps.
    """
    x, y = profile.row_dist, profile.col_dist
    if len(x) != game.rows or len(y) != game.cols:
        raise InvalidProfile("mixed profile dimensions do not match the game")
    row_values = [
        sum((game.row_payoff[i][j] * y[j] for j in range(game.cols)), _ZERO)
        for i in range(game.rows)
    ]
    col_values = [
        sum((game.col_payoff[i][j] * x[i] for i in range(game.rows)), _ZERO)
        for j in range(game.cols)
    ]
    row_expected = sum((x[i] * row_values[i] for i in range(game.rows)), _ZERO)
    col_expected = sum((y[j] * col_values[j] for j in range(game.cols)), _ZERO)
    return max(max(row_values) - row_expected, max(col_values) - col_expected)
