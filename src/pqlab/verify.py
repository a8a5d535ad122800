"""Independent ground-truth oracles the acceptance suite trusts.

Everything here is written against the game definitions directly, without
sharing logic with the solvers it cross-checks (beyond core evaluation).
Enumeration caps can be overridden with the PQLAB_CAP environment variable.
"""

from __future__ import annotations

import heapq
import itertools
import math
import os
import random
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidProfile, InvalidSpec, TooLarge
from .games import (
    BimatrixGame,
    CongestionGame,
    GraphicalGame,
    MixedProfile,
    Path,
    edge_loads,
    enumerate_paths,
    validate_profile,
)

_ZERO = Fraction(0)

DEFAULT_CAP = 10**6
_SAMPLES = 200
_SAMPLE_SEED = 0


def _cap() -> int:
    text = os.environ.get("PQLAB_CAP", str(DEFAULT_CAP))
    try:
        return int(text)
    except ValueError:
        raise InvalidSpec(f"PQLAB_CAP must be an integer, got {text!r}") from None


@dataclass(frozen=True)
class DeviationReport:
    """Outcome of a single-deviation sweep over a congestion profile.

    ``improvement`` is the best strict cost saving any player can realise;
    the profile is a pure Nash equilibrium iff it is <= 0.
    """

    profile: tuple[tuple[Path, int], ...]
    worst_path: Path | None
    worst_alternative: Path | None
    improvement: Fraction

    @property
    def is_equilibrium(self) -> bool:
        return self.improvement <= _ZERO


def _path_cost(game: CongestionGame, path: Path, loads: Mapping[int, int]) -> Fraction:
    return sum((game.cost[e][loads[e]] for e in path), _ZERO)


def deviation_report(game: CongestionGame, profile: Mapping[Path, int]) -> DeviationReport:
    """Best unilateral deviation over all players of a congestion profile.

    For each used path, one relaxation over the DAG finds the cheapest
    alternative at the loads after the move; ties go to the
    lexicographically least path, the first in enumerate_paths order.  On
    parallel links the two cheapest links to join settle every used link.
    """
    loads = validate_profile(game, profile)
    other_join = (
        _other_join(game.cost, loads.items(), 1, game.players)
        if game.network.is_parallel_links
        else None
    )
    best = _ZERO
    worst_path = worst_alt = None
    for path, count in sorted(profile.items()):
        if count == 0:
            continue
        cost = _path_cost(game, path, loads)
        if other_join is None:
            alt, moved = _cheapest_move(game, path, loads)
        else:
            moved, j = other_join(path[0]) or (cost, path[0])
            alt = (j,)
        gain = cost - moved
        if gain > best:
            best, worst_path, worst_alt = gain, path, alt
    return DeviationReport(
        profile=tuple(sorted(profile.items())),
        worst_path=worst_path,
        worst_alternative=worst_alt,
        improvement=best,
    )


def _cheapest_move(
    game: CongestionGame, path: Path, loads: Mapping[int, int]
) -> tuple[Path, Fraction]:
    """Lexicographically least cheapest o-d path for one player leaving path.

    Each edge is priced at the load it carries with the player on it.  Costs
    to the destination are computed backwards along a topological order;
    the path then takes, at each vertex, the lowest edge id that stays
    cheapest.  The path itself may come out, at its own cost, when no
    alternative is cheaper.
    """
    net = game.network
    on_path = set(path)
    price = {
        e: game.cost[e][load + (0 if e in on_path else 1)] for e, load in loads.items()
    }
    togo: dict[int, Fraction] = {net.destination: _ZERO}
    for v in reversed(net.topological_order()):
        for e in net.out_edges[v]:
            cand = price[e] + togo[net.edges[e][1]]
            if v not in togo or cand < togo[v]:
                togo[v] = cand
    best: list[int] = []
    v = net.origin
    while v != net.destination:
        e = min(
            e for e in net.out_edges[v] if price[e] + togo[net.edges[e][1]] == togo[v]
        )
        best.append(e)
        v = net.edges[e][1]
    return tuple(best), togo[net.origin]


def _other_join(
    tables, loads: Iterable[tuple[int, int]], delta: int, n: int
) -> Callable[[int], tuple[Fraction, int] | None]:
    """Link i -> the least (cost, j) of adding delta players to a link j != i.

    Loads above n cost infinitely much, and ties go to the lowest j.  The two
    least pairs over all links settle every i, so this reads O(m) entries.
    """
    joins = heapq.nsmallest(
        2, ((tables[j][x + delta], j) for j, x in loads if x + delta <= n)
    )
    return lambda i: next((join for join in joins if join[1] != i), None)


def is_delta_equilibrium(
    tables: Sequence[Sequence[Fraction]],
    loads: Sequence[int],
    delta: int,
    special: int,
) -> bool:
    """Delta-equilibrium check of per-link loads against full cost tables.

    Requires delta | loads[i] off the special link, and that no group of
    delta players on a link with at least delta of them could pay less on
    any other link.  The total is not checked, so any phase's loads can be
    given; a load outside 0..n is rejected, and so are tables of unequal
    or zero length, a delta below 1 and a special index that names no link.
    """
    if not tables or not tables[0] or any(len(t) != len(tables[0]) for t in tables):
        raise InvalidSpec("need one or more cost tables, all over loads 0..n")
    n = len(tables[0]) - 1
    if len(loads) != len(tables):
        raise InvalidSpec("loads do not match the tables")
    if delta < 1 or not 0 <= special < len(tables):
        raise InvalidSpec(f"need delta >= 1 and a link as special, got {delta}, {special}")
    if any(not 0 <= x <= n for x in loads):
        raise InvalidProfile(f"link loads {tuple(loads)} leave the range 0..{n}")
    if any(x % delta for i, x in enumerate(loads) if i != special):
        return False
    other_join = _other_join(tables, enumerate(loads), delta, n)
    for i, x in enumerate(loads):
        join = other_join(i) if x >= delta else None
        if join is not None and join[0] < tables[i][x]:
            return False
    return True


def graphical_improvement(game: GraphicalGame, profile: Sequence[int]) -> Fraction:
    """Largest payoff gain of one player's unilateral pure deviation; the
    pure profile is a Nash equilibrium iff it is 0 (staying gains 0)."""
    base = game.payoffs(profile)
    return max(
        game.payoff(p, (*profile[:p], s, *profile[p + 1 :])) - base[p]
        for p in range(game.players)
        for s in range(game.strategies)
    )


def graphical_equivalence(
    learned: GraphicalGame, game: GraphicalGame
) -> tuple[int, tuple[int, ...]] | None:
    """The first (player, profile) where the two games' payoffs differ, or
    None when they agree at every pure profile.

    A player's payoff reads only its own strategy and its in-neighbors', so
    for each player p, in order, every assignment of p and of the union of
    its in-neighbors in the two games is compared exactly, the other players
    at strategy 0; profiles go in lexicographic order.  An in-neighbor
    listed by one game but ignored by its payoffs is no difference.  Games
    of different sizes are invalid input.
    """
    if (learned.players, learned.strategies) != (game.players, game.strategies):
        raise InvalidSpec("the games differ in their players or strategies")
    n, k = game.players, game.strategies
    for p in range(n):
        free = sorted({p, *learned.in_neighbors[p], *game.in_neighbors[p]})
        profile = [0] * n
        for strategies in itertools.product(range(k), repeat=len(free)):
            for q, s in zip(free, strategies):
                profile[q] = s
            if learned.payoff(p, profile) != game.payoff(p, profile):
                return p, tuple(profile)
    return None


def path_count(game: CongestionGame) -> int:
    """Number of origin-destination paths, by one pass in topological order."""
    net = game.network
    ways = Counter({net.origin: 1})
    for v in net.topological_order():
        for e in net.out_edges[v]:
            ways[net.edges[e][1]] += ways[v]
    return ways[net.destination]


def _check_cap(count: int, what: str) -> None:
    limit = _cap()
    if count > limit:
        raise TooLarge(f"{count} {what} exceed the cap of {limit}")


def _paths(game: CongestionGame) -> int:
    """path_count(game), counted once per network and kept on it: a network
    never changes, so a command that checks its cap before learning and
    again in the check walks the network once."""
    return game.network.remember("_path_count", lambda _: path_count(game))


def _check_profile_cap(game: CongestionGame) -> None:
    n, paths = game.players, _paths(game)
    count = math.comb(paths + n - 1, n)
    _check_cap(count, f"anonymous profiles ({paths} paths, {n} players)")


def check_equivalence_cap(game: CongestionGame, mode: str = "exhaustive") -> None:
    """Raise what check_equivalence(..., game, mode) would raise before it
    lists a path: TooLarge when the anonymous profiles (exhaustive mode) or
    the paths (sampled mode) exceed the cap, InvalidSpec for an unknown mode.
    Needs only the network, so a learner can be stopped before it queries."""
    if mode == "exhaustive":
        _check_profile_cap(game)
    elif mode == "sampled":
        _check_cap(_paths(game), "paths")
    else:
        raise InvalidSpec(f"unknown mode {mode!r}")


def all_profiles(game: CongestionGame) -> Iterator[dict[Path, int]]:
    """Every anonymous profile (multiset of n paths), one at a time; the cap
    is checked when this is called, before any path is listed."""
    _check_profile_cap(game)
    paths = enumerate_paths(game)
    combos = itertools.combinations_with_replacement(paths, game.players)
    return (dict(Counter(combo)) for combo in combos)


def brute_force_pure_ne(game: CongestionGame) -> list[dict[Path, int]]:
    """All pure Nash equilibria by exhaustive enumeration and deviation checks."""
    return [
        profile
        for profile in all_profiles(game)
        if deviation_report(game, profile).is_equilibrium
    ]


def greedy_parallel_ne(
    tables: Sequence[Sequence[Fraction]], players: int
) -> tuple[int, ...]:
    """Sequential best-response insertion onto parallel links.

    With nondecreasing link costs this classic greedy lands on a pure Nash
    equilibrium: each player takes a link minimising the cost after joining,
    ties to the least-loaded link, then to the lowest index.
    """
    if players < 0 or not tables:
        raise InvalidSpec("need links and a non-negative player count")
    loads = [0] * len(tables)
    for _ in range(players):
        best = min(
            range(len(tables)), key=lambda i: (tables[i][loads[i] + 1], loads[i], i)
        )
        loads[best] += 1
    return tuple(loads)


def check_equivalence(
    learned: Mapping[int, Sequence[Fraction]],
    game: CongestionGame,
    mode: str = "exhaustive",
) -> tuple[bool, dict | None]:
    """Do learned tables price every player of every profile as the game does?

    ``learned`` maps edge ids of the game to tables over loads 0..n.  An
    edge missing from it costs 0 at every load (a learner that contracted
    the edge carries its cost in another edge's table); a key that is not
    an edge of the game, or a table without n + 1 entries, is invalid input.
    Exhaustive mode enumerates all anonymous profiles; sampled mode lists
    every path and draws 200 random profiles of game.players players from a
    generator seeded with 0.  The cap (the default or PQLAB_CAP) bounds the
    profiles or the paths, and is checked before any path is listed.
    Returns (equivalent, counterexample) where the counterexample names the
    profile and the disagreeing path of the game.
    """
    foreign = [e for e in learned if e not in game.network.edges]
    if foreign:
        raise InvalidSpec(f"learned tables name edges the game lacks: {foreign}")
    for e, table in learned.items():
        if not isinstance(table, Sequence) or len(table) != game.players + 1:
            raise InvalidSpec(f"edge {e}: the learned table needs loads 0..{game.players}")
    if mode == "exhaustive":
        profiles = all_profiles(game)
    else:
        check_equivalence_cap(game, mode)
        paths = enumerate_paths(game)
        rng = random.Random(_SAMPLE_SEED)
        combos = (rng.choices(paths, k=game.players) for _ in range(_SAMPLES))
        profiles = (dict(Counter(combo)) for combo in combos)

    for profile in profiles:
        loads = edge_loads(game, profile)
        for path, count in profile.items():
            if count == 0:
                continue
            got = sum((Fraction(learned[e][loads[e]]) for e in path if e in learned), _ZERO)
            want = _path_cost(game, path, loads)
            if got != want:
                return False, {"profile": profile, "path": path, "got": got, "want": want}
    return True, None


def exact_ne_2x2(game: BimatrixGame) -> MixedProfile:
    """Exact Nash equilibrium of a 2x2 game: pure scan, then indifference.

    Looks for a pure equilibrium first (lowest indices win ties); failing
    that, the unique fully-mixed equilibrium exists and the indifference
    formula is non-degenerate.
    """
    if game.rows != 2 or game.cols != 2:
        raise InvalidSpec("exact solver only handles 2x2 games")
    R, C = game.row_payoff, game.col_payoff
    for i in range(2):
        for j in range(2):
            if R[i][j] >= R[1 - i][j] and C[i][j] >= C[i][1 - j]:
                return MixedProfile.pure(i, j, 2, 2)
    x_den = C[0][0] - C[0][1] - C[1][0] + C[1][1]
    y_den = R[0][0] - R[1][0] - R[0][1] + R[1][1]
    x = (C[1][1] - C[1][0]) / x_den  # row's weight on row 0
    y = (R[1][1] - R[0][1]) / y_den  # col's weight on col 0
    return MixedProfile.of((x, 1 - x), (y, 1 - y))
