"""Learner that reconstructs a bounded-degree graphical game from payoff queries.

The probe set fixes all but at most d+1 players to the anchor strategy 0.  Its
answers witness every edge of the affects graph and hold every payoff table.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from math import comb
from .errors import DegreeViolation, InvalidSpec
from .games import GraphicalGame
from .oracles import PurePayoffOracle


def _check_promise(n: int, k: int, d: int) -> None:
    if n < 1 or k < 1 or d < 0:
        raise InvalidSpec("need n >= 1, k >= 1, d >= 0")
    if d + 1 > n:
        raise InvalidSpec(f"degree promise d={d} needs d+1 <= n={n}")


def probe_set_size(n: int, k: int, d: int) -> int:
    """Closed form sum_{j<=d+1} C(n,j)(k-1)^j for the probe-set cardinality."""
    _check_promise(n, k, d)
    return sum(comb(n, j) * (k - 1) ** j for j in range(d + 2))


def _layout(n: int, k: int, d: int):
    """Where each block of build_probe_set(n, k, d) starts, in probe order.

    ranks[j][i] lists, per profile of a j-deviator block, the rank in its
    parent's block of the profile with who[i] reset to the anchor: its own
    rank in base k-1 with the i-th digit dropped."""
    _check_promise(n, k, d)
    offsets, start, b = {}, 0, k - 1
    for j in range(d + 2):
        for who in itertools.combinations(range(n), j):
            offsets[who], start = start, start + b**j
    ranks = [[[r // (b * low) * low + r % low for r in range(b**j)]
              for low in (b ** (j - 1 - i) for i in range(j))]
             for j in range(d + 2)]
    return offsets, ranks


def build_probe_set(n: int, k: int, d: int) -> list[tuple[int, ...]]:
    """All pure profiles in which at most d+1 players deviate from strategy 0.

    The size is sum_{j<=d+1} C(n,j)(k-1)^j, strictly below (n*k)^(d+1).  The
    order is the contract the learner relies on: one block of (k-1)^|who|
    profiles per deviator set `who`, by size and then in combinations order,
    with the strategies of `who` in itertools.product(range(1, k)) order.
    """
    probes: list[tuple[int, ...]] = []
    for who in _layout(n, k, d)[0]:
        profile = [0] * n
        for strategies in itertools.product(range(1, k), repeat=len(who)):
            for p, s in zip(who, strategies):
                profile[p] = s
            probes.append(tuple(profile))
    return probes


@dataclass(frozen=True)
class LearnedGraphicalGame:
    """Affects graph and payoff tables recovered by the learner."""

    game: GraphicalGame
    queries_used: int

    @property
    def affects_edges(self) -> frozenset[tuple[int, int]]:
        return self.game.affects_edges


def learn_graphical(
    oracle: PurePayoffOracle, n: int, k: int, d: int
) -> LearnedGraphicalGame:
    """Learn the affects graph and full payoff function of a degree-d game.

    Queries exactly the probe set.  DegreeViolation is raised when some
    player shows more than d influencing players on it; a game that breaks
    the promise but looks consistent with it there cannot be detected.
    Unless the oracle hides n players with k strategies each, InvalidSpec is
    raised before the first query.
    """
    if n != oracle.players or (k,) * n != oracle.strategy_counts:
        raise InvalidSpec(
            f"learning n={n} players with k={k} strategies each, but the oracle hides "
            f"{oracle.players} players with strategy counts {oracle.strategy_counts}"
        )
    answers = [oracle.query_pure(s) for s in build_probe_set(n, k, d)]
    offsets, ranks = _layout(n, k, d)

    # Edges: compare each probe with its parent, the probe with deviator q
    # reset to the anchor; two probes differing only in q share that parent.
    # For q = who[i] the parents of who's block sit in the block of who less
    # q, at ranks[len(who)][i].  get[q] picks the payoffs of watch[q], the
    # players q is not yet seen to influence, so one list comparison (identity
    # before value) covers a block; only if it fails are they walked.
    watch = [[p for p in range(n) if p != q] for q in range(n)]
    get = [operator.itemgetter(*w) if w else None for w in watch]
    for who, start in offsets.items():
        kids = answers[start : start + (k - 1) ** len(who)]
        for i, q in enumerate(who):
            if get[q] is None:
                continue
            base = offsets[who[:i] + who[i + 1 :]]
            parents = [answers[base + r] for r in ranks[len(who)][i]]
            if list(map(get[q], kids)) != list(map(get[q], parents)):
                watch[q] = [p for p in watch[q]
                            if all(a[p] == b[p] for a, b in zip(kids, parents))]
                get[q] = operator.itemgetter(*watch[q]) if watch[q] else None

    in_neighbors = tuple(
        tuple(q for q in range(n) if q != p and p not in watch[q]) for p in range(n)
    )
    for p, nbrs in enumerate(in_neighbors):
        if len(nbrs) > d:
            raise DegreeViolation(
                f"player {p} shows {len(nbrs)} influencing players, promise was {d}"
            )

    # Read p's table at the probes where only p and its neighbors deviate, by
    # block offset plus rank.  The learned game agrees with every response,
    # so no sweep follows: resetting p's non-neighbors one by one walks from a
    # probe to the one read, each step a comparison above that found no edge.
    tables = []
    for p, nbrs in enumerate(in_neighbors):
        table = {}
        for own, *ctx in itertools.product(range(k), repeat=len(nbrs) + 1):
            play = sorted((q, s) for q, s in zip((p, *nbrs), (own, *ctx)) if s)
            rank = sum((s - 1) * (k - 1) ** e for e, (_, s) in enumerate(play[::-1]))
            who = tuple(q for q, _ in play)
            table[(own, tuple(ctx))] = answers[offsets[who] + rank][p]
        tables.append(table)

    learned = GraphicalGame(n, k, in_neighbors, tuple(tables))
    return LearnedGraphicalGame(game=learned, queries_used=len(answers))
