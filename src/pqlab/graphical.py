"""Learner that reconstructs a bounded-degree graphical game from payoff queries.

The probe set fixes all but at most d+1 players to the anchor strategy 0.
Querying it suffices to discover the affects graph (two profiles differing in
one player's strategy and another player's payoff witness an edge) and to
read every payoff table off the profiles where non-neighbors play the anchor.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from .errors import DegreeViolation, InvalidSpec
from .games import GraphicalGame
from .oracles import PurePayoffOracle


def build_probe_set(n: int, k: int, d: int) -> list[tuple[int, ...]]:
    """All pure profiles in which at most d+1 players deviate from strategy 0.

    The size is sum_{j<=d+1} C(n,j)(k-1)^j, strictly below (n*k)^(d+1).
    Profiles are emitted in a deterministic order.
    """
    if n < 1 or k < 1 or d < 0:
        raise InvalidSpec("need n >= 1, k >= 1, d >= 0")
    if d + 1 > n:
        raise InvalidSpec(f"degree promise d={d} needs d+1 <= n={n}")
    probes: list[tuple[int, ...]] = []
    for deviators in range(d + 2):
        for who in itertools.combinations(range(n), deviators):
            for strategies in itertools.product(range(1, k), repeat=deviators):
                profile = [0] * n
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

    Queries exactly the probe set.  If the hidden game violates the degree
    promise, the post-hoc consistency sweep raises DegreeViolation whenever
    the reconstruction disagrees with any queried payoff; a violating game
    that happens to look consistent on the probe set cannot be detected.
    """
    probes = build_probe_set(n, k, d)
    responses: dict[tuple[int, ...], tuple[Fraction, ...]] = {
        s: oracle.query_pure(s) for s in probes
    }

    # Witness-based edge discovery: compare each probe with its parent, the
    # probe with deviator q reset to the anchor.  Probes differing only in q
    # share that parent, so if they disagree on p's payoff, one of them
    # disagrees with the parent.
    edges: set[tuple[int, int]] = set()
    for s, payoffs in responses.items():
        for q in range(n):
            if s[q] == 0:
                continue
            base = responses[s[:q] + (0,) + s[q + 1 :]]
            for p in range(n):
                if p != q and payoffs[p] != base[p]:
                    edges.add((q, p))

    in_neighbors = tuple(
        tuple(sorted(q for (q, p2) in edges if p2 == p)) for p in range(n)
    )
    for p, nbrs in enumerate(in_neighbors):
        if len(nbrs) > d:
            raise DegreeViolation(
                f"player {p} shows {len(nbrs)} influencing players, promise was {d}"
            )

    # Read tables off the probes where everyone outside {p} u neighbors
    # plays the anchor; those profiles have at most d+1 deviators.
    tables = []
    for p in range(n):
        nbrs = in_neighbors[p]
        table: dict[tuple[int, tuple[int, ...]], Fraction] = {}
        for own in range(k):
            for ctx in itertools.product(range(k), repeat=len(nbrs)):
                profile = [0] * n
                profile[p] = own
                for q, s in zip(nbrs, ctx):
                    profile[q] = s
                table[(own, ctx)] = responses[tuple(profile)][p]
        tables.append(table)

    learned = GraphicalGame(n, k, in_neighbors, tuple(tables))
    for s, payoffs in responses.items():
        if learned.payoffs(s) != payoffs:
            raise DegreeViolation(
                f"reconstruction disagrees with the oracle at probe {s}"
            )
    return LearnedGraphicalGame(game=learned, queries_used=len(probes))


def probe_set_size(n: int, k: int, d: int) -> int:
    """Closed form sum_{j<=d+1} C(n,j)(k-1)^j for the probe-set cardinality."""
    from math import comb

    return sum(comb(n, j) * (k - 1) ** j for j in range(min(d + 1, n) + 1))
