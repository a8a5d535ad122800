"""Exact game representations and evaluation semantics.

Everything here is pure and exact: payoffs and costs are `fractions.Fraction`,
strategies are integers, and congestion-game pure strategies are tuples of
edge ids. All types are immutable after construction and safe to share.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import groupby
from typing import Iterable, Mapping, Sequence

from .errors import InvalidProfile, InvalidSpec, LoadOutOfRange, NotADag

Path = tuple[int, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _unit(value: object, what: str) -> Fraction:
    f = Fraction(value)  # type: ignore[arg-type]
    if f < _ZERO or f > _ONE:
        raise InvalidSpec(f"{what} must lie in [0, 1], got {f}")
    return f


@dataclass(frozen=True)
class BimatrixGame:
    """Two-player game with payoff tables over k_row x k_col pure profiles.

    Entries must lie in [0, 1] and both tables must have identical shape.
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
        for table, name in ((self.row_payoff, "row"), (self.col_payoff, "col")):
            for r in table:
                for v in r:
                    _unit(v, f"{name} payoff")

    @classmethod
    def from_tables(
        cls,
        row_payoff: Sequence[Sequence[object]],
        col_payoff: Sequence[Sequence[object]],
    ) -> "BimatrixGame":
        coerce = lambda t: tuple(tuple(Fraction(v) for v in row) for row in t)  # noqa: E731
        return cls(coerce(row_payoff), coerce(col_payoff))

    @property
    def rows(self) -> int:
        return len(self.row_payoff)

    @property
    def cols(self) -> int:
        return len(self.row_payoff[0])


@dataclass(frozen=True)
class MixedProfile:
    """A pair of exact probability vectors, one per player."""

    row_dist: tuple[Fraction, ...]
    col_dist: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        for dist, name in ((self.row_dist, "row"), (self.col_dist, "col")):
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
        return cls(
            tuple(Fraction(p) for p in row_dist),  # type: ignore[arg-type]
            tuple(Fraction(p) for p in col_dist),  # type: ignore[arg-type]
        )

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
        for p, nbrs in enumerate(self.in_neighbors):
            if list(nbrs) != sorted(set(nbrs)):
                raise InvalidSpec(f"in-neighbors of player {p} must be sorted and unique")
            if any(q == p or not 0 <= q < n for q in nbrs):
                raise InvalidSpec(f"in-neighbors of player {p} out of range")
            table = self.payoff_tables[p]
            expected = k * k ** len(nbrs)
            if len(table) != expected:
                raise InvalidSpec(
                    f"player {p} table has {len(table)} entries, expected {expected}"
                )
            for (own, ctx), v in table.items():
                if not 0 <= own < k or len(ctx) != len(nbrs):
                    raise InvalidSpec(f"player {p} table key ({own}, {ctx}) malformed")
                if any(not 0 <= s < k for s in ctx):
                    raise InvalidSpec(f"player {p} table key ({own}, {ctx}) malformed")
                _unit(v, f"player {p} payoff")

    @property
    def max_in_degree(self) -> int:
        return max(len(nbrs) for nbrs in self.in_neighbors)

    @property
    def affects_edges(self) -> frozenset[tuple[int, int]]:
        """Directed pairs (q, p): q's strategy may affect p's payoff."""
        return frozenset(
            (q, p) for p, nbrs in enumerate(self.in_neighbors) for q in nbrs
        )

    def payoff(self, player: int, profile: Sequence[int]) -> Fraction:
        # The table's keys are exactly the in-range (own, ctx) pairs, so the
        # lookup checks every entry this payoff reads; `payoffs` reads them all.
        if len(profile) == self.players:
            ctx = tuple(profile[q] for q in self.in_neighbors[player])
            value = self.payoff_tables[player].get((profile[player], ctx))
            if value is not None:
                return value
        raise InvalidProfile(f"profile {tuple(profile)} malformed for this game")

    def payoffs(self, profile: Sequence[int]) -> tuple[Fraction, ...]:
        return tuple(self.payoff(p, profile) for p in range(self.players))


class Network:
    """Directed multigraph with a distinguished origin and destination.

    Edges carry stable integer ids so parallel edges stay distinguishable.
    Construction rejects cyclic graphs and requires every vertex to lie on
    some origin-destination path; use :meth:`build` to prune instead.
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
        self._validate()

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

    def _validate(self) -> None:
        if self.origin == self.destination:
            raise InvalidSpec("origin and destination must differ")
        vs = set(self.vertices)
        if self.origin not in vs or self.destination not in vs:
            raise InvalidSpec("origin/destination not in vertex set")
        for e, (t, h) in self.edges.items():
            if t not in vs or h not in vs:
                raise InvalidSpec(f"edge {e} has endpoint outside the vertex set")
        self.topological_order()  # raises NotADag on a cycle
        from_o = _closure({self.origin}, self._fwd)
        to_d = _closure({self.destination}, self._bwd)
        stranded = vs - (from_o & to_d)
        if stranded:
            raise InvalidSpec(
                f"vertices {sorted(stranded)} lie on no origin-destination path"
            )

    @cached_property
    def _fwd(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {v: set() for v in self.vertices}
        for t, h in self.edges.values():
            adj[t].add(h)
        return adj

    @cached_property
    def _bwd(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {v: set() for v in self.vertices}
        for t, h in self.edges.values():
            adj[h].add(t)
        return adj

    @cached_property
    def out_edges(self) -> dict[int, tuple[int, ...]]:
        out: dict[int, list[int]] = {v: [] for v in self.vertices}
        for e in sorted(self.edges):
            out[self.edges[e][0]].append(e)
        return {v: tuple(es) for v, es in out.items()}

    @cached_property
    def in_edges(self) -> dict[int, tuple[int, ...]]:
        inc: dict[int, list[int]] = {v: [] for v in self.vertices}
        for e in sorted(self.edges):
            inc[self.edges[e][1]].append(e)
        return {v: tuple(es) for v, es in inc.items()}

    def topological_order(self) -> tuple[int, ...]:
        """Kahn's algorithm with lowest-vertex-id tie-breaking."""
        import heapq

        indeg = {v: 0 for v in self.vertices}
        for _, h in self.edges.values():
            indeg[h] += 1
        ready = [v for v in self.vertices if indeg[v] == 0]
        heapq.heapify(ready)
        order: list[int] = []
        fwd: dict[int, list[int]] = {v: [] for v in self.vertices}
        for t, h in self.edges.values():
            fwd[t].append(h)
        while ready:
            v = heapq.heappop(ready)
            order.append(v)
            for h in fwd[v]:
                indeg[h] -= 1
                if indeg[h] == 0:
                    heapq.heappush(ready, h)
        if len(order) != len(self.vertices):
            raise NotADag("graph contains a directed cycle")
        return tuple(order)

    @cached_property
    def topo_position(self) -> dict[int, int]:
        return {v: i for i, v in enumerate(self.topological_order())}

    def reachable(
        self, frm: int, to: int, banned_edges: frozenset[int] | set[int] = frozenset()
    ) -> bool:
        if frm == to:
            return True
        seen = {frm}
        queue = deque([frm])
        while queue:
            v = queue.popleft()
            for e in self.out_edges[v]:
                if e in banned_edges:
                    continue
                h = self.edges[e][1]
                if h == to:
                    return True
                if h not in seen:
                    seen.add(h)
                    queue.append(h)
        return False

    def least_path(
        self, frm: int, to: int, banned_edges: frozenset[int] | set[int] = frozenset()
    ) -> Path | None:
        """Lexicographically least edge-id path frm -> to, or None.

        Greedily extends by the smallest usable edge id; this yields the
        lexicographic minimum because edge-id sequences are compared
        position by position.
        """
        can_reach = self._reaches(to, frozenset(banned_edges))
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

    def _reaches(self, to: int, banned: frozenset[int]) -> set[int]:
        seen = {to}
        queue = deque([to])
        while queue:
            v = queue.popleft()
            for e in self.in_edges[v]:
                if e in banned:
                    continue
                t = self.edges[e][0]
                if t not in seen:
                    seen.add(t)
                    queue.append(t)
        return seen

    def validate_path(self, path: Path) -> None:
        """Raise InvalidProfile unless path is an origin-destination path."""
        at = self.origin
        seen_vertices = {at}
        for e in path:
            if e not in self.edges:
                raise InvalidProfile(f"unknown edge id {e}")
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


class CongestionGame:
    """Symmetric network congestion game on a DAG (or parallel links).

    Cost tables are explicit per-edge lookup tables over loads 0..n; a table
    that decreases anywhere is rejected.
    """

    __slots__ = ("network", "players", "cost")

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
        tables: dict[int, tuple[Fraction, ...]] = {}
        for e in sorted(network.edges):
            if e not in cost:
                raise InvalidSpec(f"edge {e} has no cost table")
            raw = cost[e]
            if len(raw) != players + 1:
                raise InvalidSpec(
                    f"edge {e} cost table must have {players + 1} entries (loads 0..n)"
                )
            # Keep Fraction objects as-is: generators alias repeated values,
            # which keeps huge piecewise-constant tables cheap to validate.
            table = tuple(
                v if isinstance(v, Fraction) else Fraction(v) for v in raw  # type: ignore[arg-type]
            )
            prev = None
            for _, group in groupby(table, key=id):
                v = next(group)
                if v < _ZERO:
                    raise InvalidSpec(f"edge {e} cost table has a negative entry")
                if prev is not None and v < prev:
                    raise InvalidSpec(f"edge {e} cost table is decreasing")
                prev = v
            tables[e] = table
        self.cost = tables

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

    @property
    def is_parallel_links(self) -> bool:
        o, d = self.origin, self.destination
        return all(pair == (o, d) for pair in self.edges.values())

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


def link_tables(game: CongestionGame) -> list[tuple[Fraction, ...]]:
    """Cost tables of a parallel-links game, in edge-id order."""
    if not game.is_parallel_links:
        raise InvalidSpec("game is not a parallel-links game")
    return [game.cost[e] for e in sorted(game.edges)]


def _network_of(game: "CongestionGame | Network") -> Network:
    return game.network if isinstance(game, CongestionGame) else game


def topological_order(game: "CongestionGame | Network") -> tuple[int, ...]:
    """Deterministic topological ordering of the game's vertices."""
    return _network_of(game).topological_order()


def enumerate_paths(game: "CongestionGame | Network") -> tuple[Path, ...]:
    """All origin-destination paths, lexicographic by edge-id sequence."""
    net = _network_of(game)
    can_reach = net._reaches(net.destination, frozenset())
    paths: list[Path] = []
    stack: list[tuple[int, tuple[int, ...]]] = [(net.origin, ())]
    while stack:
        v, prefix = stack.pop()
        if v == net.destination:
            paths.append(prefix)
            continue
        # Reverse so that the smallest edge id is explored first.
        for e in reversed(net.out_edges[v]):
            if net.edges[e][1] in can_reach:
                stack.append((net.edges[e][1], prefix + (e,)))
    return tuple(paths)


def edge_loads(
    game: "CongestionGame | Network", assignment: Mapping[Path, int]
) -> dict[int, int]:
    """Number of assigned players on each edge under the assignment.

    Accepts both strategy profiles and query payloads; each key must be a
    valid origin-destination path and each count non-negative.
    """
    net = _network_of(game)
    loads = {e: 0 for e in net.edges}
    for path, count in assignment.items():
        net.validate_path(tuple(path))
        if count < 0:
            raise InvalidProfile(f"negative count {count} for path {path}")
        for e in path:
            loads[e] += count
    return loads


def strategy_costs(
    game: CongestionGame, assignment: Mapping[Path, int]
) -> dict[Path, Fraction]:
    """Cost of every assigned strategy under the loads the assignment induces.

    Loads on distinct strategies apply simultaneously, so one call prices
    every queried path at once.  Any induced edge load above n is rejected.
    """
    loads = edge_loads(game, assignment)
    n = game.players
    for e, load in loads.items():
        if load > n:
            raise LoadOutOfRange(f"edge {e} carries {load} players, above n={n}")
    return {
        tuple(path): sum((game.cost[e][loads[e]] for e in path), _ZERO)
        for path in assignment
    }


def validate_profile(game: CongestionGame, profile: Mapping[Path, int]) -> None:
    """Check that profile is a multiset of o-d paths of total size n."""
    total = 0
    for path, count in profile.items():
        game.network.validate_path(tuple(path))
        if count < 0:
            raise InvalidProfile(f"negative count {count} for path {path}")
        total += count
    if total != game.players:
        raise InvalidProfile(
            f"profile places {total} players, game has {game.players}"
        )


def bimatrix_payoffs(
    game: BimatrixGame, profile: tuple[int, int]
) -> tuple[Fraction, Fraction]:
    """Both players' payoffs at a pure profile (row, col)."""
    i, j = profile
    if not (0 <= i < game.rows and 0 <= j < game.cols):
        raise InvalidProfile(f"pure profile {profile} out of range")
    return game.row_payoff[i][j], game.col_payoff[i][j]


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
