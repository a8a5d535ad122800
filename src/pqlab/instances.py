"""Generators for hard-instance families and seeded random test games."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .errors import InvalidSpec
from .games import (
    BimatrixGame,
    CongestionGame,
    GraphicalGame,
    Network,
    StepTable,
    parallel_links_game,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)
# The payoff grid of the seeded random games: _SIXTEENTHS[i] == Fraction(i, 16).
_SIXTEENTHS = tuple(Fraction(i, 16) for i in range(17))


def gen_matching_pennies(k: int) -> BimatrixGame:
    """Generalised matching pennies, rescaled from +-1 into [0, 1].

    The row player gets 1 on the diagonal and 0 off it; column payoffs are
    one minus the row payoffs, keeping the game constant-sum.
    """
    if k < 2:
        raise InvalidSpec(f"matching pennies needs k >= 2, got {k}")
    row = tuple(
        tuple(_ONE if i == j else _ZERO for j in range(k)) for i in range(k)
    )
    col = tuple(tuple(_ONE - v for v in r) for r in row)
    return BimatrixGame(row, col)


def gen_G_ell(ell: int) -> BimatrixGame:
    """Win-lose constant-sum game whose rows are the ell-choose-ell/2 half-one vectors.

    Rows are emitted in lexicographic order of their one-positions; the
    column player's payoff is one minus the row player's.
    """
    if ell < 4 or ell % 2:
        raise InvalidSpec(f"ell must be even and >= 4, got {ell}")
    row = tuple(
        tuple(_ONE if j in ones else _ZERO for j in range(ell))
        for ones in itertools.combinations(range(ell), ell // 2)
    )
    col = tuple(tuple(_ONE - v for v in r) for r in row)
    return BimatrixGame(row, col)


def rows_winning_in_column(game: BimatrixGame, col: int) -> list[int]:
    """Indices of rows that pay the row player 1 in the given column."""
    return [i for i in range(game.rows) if game.row_payoff[i][col] == _ONE]


def gen_R_ell(k: int, target_row: int) -> BimatrixGame:
    """Row matrix that pays 1 on one full row and 0 elsewhere; column all-zero.

    Any epsilon-equilibrium with epsilon < 1 - 1/k must put more than 1/k
    probability on the target row, so identifying it costs k queries.
    """
    if k < 2:
        raise InvalidSpec(f"need k >= 2, got {k}")
    if not 0 <= target_row < k:
        raise InvalidSpec(f"target row {target_row} out of range for k={k}")
    row = tuple(
        tuple(_ONE if i == target_row else _ZERO for _ in range(k)) for i in range(k)
    )
    col = tuple(tuple(_ZERO for _ in range(k)) for _ in range(k))
    return BimatrixGame(row, col)


def gen_random_step_links(links: int, players: int, seed: int) -> CongestionGame:
    """Seeded random step links: per link 1..4 pieces, base cost 0..4, rises 0..5."""
    if links < 1 or players < 1:
        raise InvalidSpec("need at least one link and one player")
    rng = random.Random(seed)
    tables = []
    for _ in range(links):
        pieces = rng.randint(1, 4)
        thresholds = sorted(rng.sample(range(1, players + 1), min(pieces - 1, players)))
        value = rng.randint(0, 4)
        levels = [(0, value)]
        for t in thresholds:
            value += rng.randint(0, 5)
            levels.append((t, value))
        tables.append(StepTable(levels, players))
    return parallel_links_game(tables, players)


def _random_cost_table(rng: random.Random, players: int) -> list[Fraction]:
    den = rng.choice((1, 1, 2, 4))
    value = Fraction(rng.randint(0, 6), den)
    table = [value]
    for _ in range(players):
        value = value + Fraction(rng.randint(0, 3), den)
        table.append(value)
    return table


def gen_random_dag(
    vertices: int,
    edges: int,
    players: int,
    seed: int,
    subdivide: int = 0,
) -> CongestionGame:
    """Seeded random DAG congestion game; every vertex ends up on an o-d path.

    A random spine from origin to destination guarantees connectivity, extra
    edges are sampled forward-only, and stranded vertices are pruned.  With
    ``subdivide`` > 0, that many randomly chosen edges are split in two,
    deliberately planting dependent edge pairs.
    """
    if vertices < 2:
        raise InvalidSpec("need at least origin and destination")
    if edges < 1:
        raise InvalidSpec("need at least one edge")
    if subdivide < 0:
        raise InvalidSpec(f"subdivide must be >= 0, got {subdivide}")
    rng = random.Random(seed)
    o, d = 0, vertices - 1
    spine_len = rng.randint(0, min(max(0, vertices - 2), edges - 1))
    spine = sorted(rng.sample(range(1, vertices - 1), spine_len)) if spine_len else []
    chain = [o, *spine, d]
    pairs: list[tuple[int, int]] = list(zip(chain, chain[1:]))
    candidates = [(i, j) for i in range(vertices) for j in range(i + 1, vertices)]
    while len(pairs) < edges:
        pairs.append(rng.choice(candidates))
    net = Network.build(range(vertices), pairs[:edges], o, d)
    if subdivide:
        next_vertex = max(net.vertices) + 1
        next_edge = max(net.edges) + 1
        edge_map = dict(net.edges)
        for e in rng.sample(sorted(edge_map), min(subdivide, len(edge_map))):
            t, h = edge_map[e]
            edge_map[e] = (t, next_vertex)
            edge_map[next_edge] = (next_vertex, h)
            next_vertex += 1
            next_edge += 1
        net = Network.build(
            list(net.vertices) + list(range(max(net.vertices) + 1, next_vertex)),
            edge_map,
            o,
            d,
        )
    cost = {e: _random_cost_table(rng, players) for e in net.edges}
    return CongestionGame(net, players, cost)


def gen_random_graphical(
    players: int, strategies: int, degree: int, seed: int
) -> GraphicalGame:
    """Seeded random graphical game with in-degree at most ``degree``."""
    if players < 1 or strategies < 1 or degree < 0:
        raise InvalidSpec("players, strategies >= 1 and degree >= 0 required")
    if degree >= players:
        raise InvalidSpec("degree must be below the player count")
    rng = random.Random(seed)
    in_neighbors = []
    tables = []
    for p in range(players):
        others = [q for q in range(players) if q != p]
        nbrs = tuple(sorted(rng.sample(others, rng.randint(0, degree))))
        in_neighbors.append(nbrs)
        table = {}
        for own in range(strategies):
            for ctx in itertools.product(range(strategies), repeat=len(nbrs)):
                table[(own, ctx)] = _SIXTEENTHS[rng.randint(0, 16)]
        tables.append(table)
    return GraphicalGame(players, strategies, tuple(in_neighbors), tuple(tables))


def gen_random_bimatrix(k: int, seed: int) -> BimatrixGame:
    """Seeded random k x k bimatrix game with payoffs on a 1/16 grid in [0, 1]."""
    if k < 1:
        raise InvalidSpec("need at least one strategy per player")
    rng = random.Random(seed)
    rand = lambda: _SIXTEENTHS[rng.randint(0, 16)]  # noqa: E731
    row = tuple(tuple(rand() for _ in range(k)) for _ in range(k))
    col = tuple(tuple(rand() for _ in range(k)) for _ in range(k))
    return BimatrixGame(row, col)
