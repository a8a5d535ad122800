"""Correctness checks of the benchmark, computed apart from the solvers.

Each check returns a list of problems; an empty list means the operation's
output is right.  Nothing here calls into parallel_links, dag_learner,
graphical or verify: the checks read the hidden game's tables and the
generator spec, and recompute the paper's query counts from closed forms.
"""

from __future__ import annotations

import bisect
import random
from collections import defaultdict
from fractions import Fraction
from math import comb


# ---------------------------------------------------------------------------
# Parallel links.


def step_levels(links: int, players: int, seed: int) -> list[list[tuple[int, Fraction]]]:
    """Breakpoints (threshold, value) of the spec step:m=links,n=players,seed=seed.

    Replays the documented draw of ``gen_random_step_links``: per link 1..4
    pieces, thresholds sampled from 1..n, a base value 0..4 and rises 0..5.
    """
    rng = random.Random(seed)
    out = []
    for _ in range(links):
        pieces = rng.randint(1, 4)
        thresholds = sorted(rng.sample(range(1, players + 1), min(pieces - 1, players)))
        value = Fraction(rng.randint(0, 4))
        levels = [(0, value)]
        for t in thresholds:
            value = value + Fraction(rng.randint(0, 5))
            levels.append((t, value))
        out.append(levels)
    return out


def _step_cost(levels: list[tuple[int, Fraction]], starts: list[int], load: int) -> Fraction:
    return levels[bisect.bisect_right(starts, load) - 1][1]


def links_query_bound(links: int, players: int) -> int:
    """1 + (T+1)(L+1)(2kf+L+2) with kf = max(2, ceil(log2 m)),
    T = floor(log_kf n) and L = ceil(log2(kf*m + 1))."""
    kf = max(2, (links - 1).bit_length())
    T, power = 0, kf
    while power <= players:
        T, power = T + 1, power * kf
    L = (kf * links).bit_length()
    return 1 + (T + 1) * (L + 1) * (2 * kf + L + 2)


def check_links(game, levels, loads, queries: int) -> list[str]:
    """Loads place n players, nobody gains by moving, queries within the bound."""
    problems = []
    m, n = len(levels), game.players
    starts = [[t for t, _ in lv] for lv in levels]
    for i, lv in enumerate(levels):
        table = game.cost[i]
        if len(table) != n + 1:
            problems.append(f"link {i}: table has {len(table)} entries, want {n + 1}")
            continue
        for k, (t, v) in enumerate(lv):
            if table[t] != v or (k and table[t - 1] != lv[k - 1][1]):
                problems.append(f"link {i}: hidden table disagrees with the spec at {t}")
        if table[n] != lv[-1][1]:
            problems.append(f"link {i}: hidden table disagrees with the spec at {n}")
    if len(loads) != m or any(x < 0 for x in loads) or sum(loads) != n:
        return problems + [f"loads {tuple(loads)[:8]}... do not place {n} players"]
    # A player on link i pays c_i(x_i); on link j it would pay c_j(x_j + 1).
    join = sorted(
        (_step_cost(levels[j], starts[j], loads[j] + 1), j)
        for j in range(m)
        if loads[j] + 1 <= n
    )
    for i in range(m):
        if loads[i] == 0:
            continue
        here = _step_cost(levels[i], starts[i], loads[i])
        best = next((c for c, j in join if j != i), None)
        if best is not None and best < here:
            problems.append(f"a player on link {i} gains {here - best} by moving")
            break
    bound = links_query_bound(m, n)
    if not 1 <= queries <= bound:
        problems.append(f"{queries} queries, bound {bound}")
    return problems


# ---------------------------------------------------------------------------
# DAG congestion games.


class DagFacts:
    """Structure of a hidden DAG game that the checks need, computed once."""

    def __init__(self, game) -> None:
        self.edges = dict(game.edges)
        self.origin, self.destination = game.origin, game.destination
        out = defaultdict(list)
        indeg = {v: 0 for v in game.vertices}
        for e, (t, h) in sorted(self.edges.items()):
            out[t].append(e)
            indeg[h] += 1
        self.out = out
        order, ready = [], [v for v in game.vertices if indeg[v] == 0]
        while ready:
            v = ready.pop()
            order.append(v)
            for e in out[v]:
                h = self.edges[e][1]
                indeg[h] -= 1
                if indeg[h] == 0:
                    ready.append(h)
        self.order = order
        self.contracted_edges = self._count_path_classes()

    def _paths_between(self, frm: int) -> dict[int, int]:
        """Number of frm -> v paths for every vertex v."""
        count = defaultdict(int)
        count[frm] = 1
        for v in self.order:
            if count[v]:
                for e in self.out[v]:
                    count[self.edges[e][1]] += count[v]
        return count

    def _count_path_classes(self) -> int:
        """Edges grouped by the set of o-d paths through them.

        Two edges are a dependent pair exactly when every o-d path uses both
        or neither, so contraction leaves one edge per group.  Path counts
        decide it: e and f share their path set iff the paths through e,
        through f and through both are equally many.
        """
        paths = {v: self._paths_between(v) for v in self.order}
        to_d = {v: paths[v][self.destination] for v in self.order}
        o = self.origin
        through = {
            e: paths[o][t] * to_d[h] for e, (t, h) in self.edges.items()
        }
        ids = sorted(self.edges)
        parent = {e: e for e in ids}

        def find(e):
            while parent[e] != e:
                parent[e] = parent[parent[e]]
                e = parent[e]
            return e

        for a in ids:
            ta, ha = self.edges[a]
            for b in ids:
                if a == b or through[a] != through[b]:
                    continue
                tb, hb = self.edges[b]
                both = paths[o][ta] * paths[ha][tb] * to_d[hb]
                if both == through[a]:
                    parent[find(a)] = find(b)
        return len({find(e) for e in ids})

    def is_od_path(self, path) -> bool:
        at, seen = self.origin, {self.origin}
        for e in path:
            if e not in self.edges or self.edges[e][0] != at:
                return False
            at = self.edges[e][1]
            if at in seen:
                return False
            seen.add(at)
        return at == self.destination

    def cheapest(self, weight) -> Fraction:
        dist = {self.origin: Fraction(0)}
        for v in self.order:
            if v not in dist:
                continue
            for e in self.out[v]:
                h = self.edges[e][1]
                cand = dist[v] + weight(e)
                if h not in dist or cand < dist[h]:
                    dist[h] = cand
        return dist[self.destination]


def check_dag(game, facts: DagFacts, profile, queries: int) -> list[str]:
    """n players on o-d paths, no improving deviation, n*|E'| queries."""
    n = game.players
    if any(not facts.is_od_path(p) for p in profile):
        return ["profile uses a strategy that is not an origin-destination path"]
    if any(c < 1 for c in profile.values()) or sum(profile.values()) != n:
        return [f"profile places {sum(profile.values())} players, want {n}"]
    loads = defaultdict(int)
    for path, c in profile.items():
        for e in path:
            loads[e] += c
    problems = []
    for path in profile:
        here = sum((game.cost[e][loads[e]] for e in path), Fraction(0))
        on = set(path)
        best = facts.cheapest(lambda e: game.cost[e][loads[e] + (e not in on)])
        if best < here:
            problems.append(f"a player on {path} gains {here - best} by deviating")
            break
    want = n * facts.contracted_edges
    if queries != want or queries > n * len(facts.edges):
        problems.append(f"{queries} queries, want n*|E'| = {want} <= n*|E|")
    return problems


# ---------------------------------------------------------------------------
# Graphical games.


def graphical_queries(n: int, k: int, d: int) -> int:
    """Profiles with at most d+1 deviators from the anchor: sum_j C(n,j)(k-1)^j."""
    return sum(comb(n, j) * (k - 1) ** j for j in range(min(d + 1, n) + 1))


def check_graphical(game, learned, degree: int, queries: int) -> list[str]:
    """Learned affects graph and payoff tables equal the hidden game's."""
    problems = []
    hidden_edges = {(q, p) for p, nbrs in enumerate(game.in_neighbors) for q in nbrs}
    if set(learned.affects_edges) != hidden_edges:
        problems.append("learned affects graph differs from the hidden one")
    if tuple(learned.game.in_neighbors) != tuple(game.in_neighbors):
        problems.append("learned in-neighbour lists differ")
    for p in range(game.players):
        if dict(learned.game.payoff_tables[p]) != dict(game.payoff_tables[p]):
            problems.append(f"learned payoff table of player {p} differs")
            break
    want = graphical_queries(game.players, game.strategies, degree)
    if queries != want:
        problems.append(f"{queries} queries, want {want}")
    return problems
