"""Exact pure Nash equilibrium on m parallel links in few congestion queries.

The solver works in phases with shrinking group size delta.  Each phase
turns a (kf*delta)-equilibrium into a delta-equilibrium by moving whole
groups of delta players, locating the number of groups to move with a
binary search whose probes are batched so that one oracle call covers every
link at once.  Each phase is one object: it probes its addition slots, bisects
and commits.  A probe round hands back the costs it probed, so each caller
reads them directly.

Group moves are committed by pairing "removal slots" (the cost currently
paid by the r-th group from the top of a link) against "addition slots"
(the cost of the r-th group added to a link) and taking every pair in which
the removal strictly exceeds the addition.  The number of such pairs is
found by binary search on q with the threshold set to the q-th smallest
addition cost; a literal (q+1)-smallest threshold compared with equality
admits no fixed point once cost tables have flat stretches, so the commit
rule here is the tie-robust variant.  Probed values are cached and reused,
which can only lower the query count.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Mapping, Sequence

from .errors import AlgorithmInvariantViolated, InvalidSpec
from .games import Path

# The check lives in verify; benchmarks/run.py still reaches it from here.
from .verify import is_delta_equilibrium  # noqa: F401


def default_group_factor(links: int) -> int:
    """kf = max(2, ceil(log2 m)): the Theta(log m) choice."""
    if links < 1:
        raise InvalidSpec("need at least one link")
    return max(2, (links - 1).bit_length())


@dataclass(frozen=True)
class LinkLoads:
    """Player counts per link plus the special link whose load may be ragged."""

    loads: tuple[int, ...]
    special: int

    def __post_init__(self) -> None:
        if not 0 <= self.special < len(self.loads):
            raise InvalidSpec("special link index out of range")
        if any(x < 0 for x in self.loads):
            raise InvalidSpec("negative link load")


@dataclass(frozen=True)
class RefineTrace:
    """Instrumentation of one successful refinement."""

    delta: int
    moved_groups: int
    removed: tuple[int, ...]
    added: tuple[int, ...]


@dataclass
class ParallelLinksResult:
    loads: LinkLoads
    queries_used: int
    query_bound: int
    group_factor: int
    checkpoints: list[tuple[int, tuple[int, ...]]]
    traces: list[RefineTrace]


Cost = int | Fraction


class _ProbeCache:
    """Solver-side cache of (link, load) -> cost with monotonicity auditing.

    An integral cost is kept as a plain int and any other as the oracle's
    Fraction.  Python orders an int against a Fraction exactly, so every
    comparison the solver makes (slot sorts, thresholds, the audit) means
    what it meant over Fractions, and two integral costs compare at native
    speed.
    """

    def __init__(self, oracle, links: Sequence[Path]) -> None:
        self._oracle = oracle
        self._links = list(links)
        self._known: list[dict[int, Cost]] = [{} for _ in links]
        self._sorted_loads: list[list[int]] = [[] for _ in links]

    def probe_round(self, wanted: Mapping[int, int]) -> dict[int, Cost]:
        """Cost of every requested (link, load) pair as {link: cost}.

        The pairs not yet known are learned in one query.
        """
        known = self._known
        missing = {i: load for i, load in wanted.items() if load not in known[i]}
        if missing:
            assignment = {self._links[i]: load for i, load in missing.items()}
            response = self._oracle.query_loads(assignment)
            for i, load in missing.items():
                cost = response[self._links[i]]
                self._store(i, load, cost.numerator if cost.denominator == 1 else cost)
        return {i: known[i][load] for i, load in wanted.items()}

    def _store(self, link: int, load: int, cost: Cost) -> None:
        known, loads = self._known[link], self._sorted_loads[link]
        pos = bisect.bisect_left(loads, load)
        if pos > 0 and known[loads[pos - 1]] > cost:
            raise AlgorithmInvariantViolated(
                f"link {link}: cost at load {load} below cost at {loads[pos - 1]}"
            )
        if pos < len(loads) and known[loads[pos]] < cost:
            raise AlgorithmInvariantViolated(
                f"link {link}: cost at load {load} above cost at {loads[pos]}"
            )
        loads.insert(pos, load)
        known[load] = cost


class _Phase:
    """One refinement at group size delta, from the loads it starts with.

    The constructor probes the addition slots; `refine` bisects for the
    number of groups to move and commits the move.
    """

    def __init__(
        self, cache: _ProbeCache, loads: tuple[int, ...], special: int,
        delta: int, kf: int, players: int,
    ) -> None:
        self.cache, self.loads, self.special = cache, loads, special
        self.delta, self.kf, self.links = delta, kf, len(loads)
        # Most groups one refinement can move: kf*m covers the usual case;
        # a group factor above m+1 lets the ragged special link contribute
        # up to kf-1 extra moves.
        self.window = max(kf * self.links, (kf - 1) * (self.links + 1))
        # Per link, the most top groups one refinement can remove, and the
        # load left once they are gone.
        self.caps = [min(self.window, x // delta) for x in loads]
        self.floors = {
            i: x - cap * delta for i, (x, cap) in enumerate(zip(loads, self.caps)) if cap
        }
        # 2*kf probe rounds: cost of adding r groups to every link, r = 1..2kf.
        # A link that can take r groups can take fewer, so its costs arrive in
        # r order from r = 1.  The slots (cost, link, r) are listed link by
        # link with r ascending and sorted stably on cost alone, so equal
        # costs stay in (link, r) order.
        added_costs: list[list[Cost]] = [[] for _ in loads]
        for r in range(1, 2 * kf + 1):
            costs = cache.probe_round(
                {i: x + r * delta for i, x in enumerate(loads) if x + r * delta <= players}
            )
            for i, cost in costs.items():
                added_costs[i].append(cost)
        self.additions = [
            (cost, i, r)
            for i, link_costs in enumerate(added_costs)
            for r, cost in enumerate(link_costs, 1)
        ]
        self.additions.sort(key=itemgetter(0))

    def removal_counts(self, theta: Cost) -> list[int]:
        """Per link, how many top groups currently pay strictly more than theta.

        Equals min{q : f_i(n_i - q*delta) <= theta} over q in [0, cap_i], or
        cap_i when even draining every countable group leaves the cost above
        theta (the guard case: one batched probe round of the phase's floors,
        which can query only on the phase's first call).
        """
        hi = self.caps.copy()  # the searches below narrow hi in place
        lo = [0] * self.links
        for i, cost in self.cache.probe_round(self.floors).items():
            if cost > theta:
                lo[i] = hi[i]
        # Batched binary searches: one probe round per iteration covers every
        # link still looking for the first drained-load whose cost is <= theta.
        active = [i for i in self.floors if lo[i] < hi[i]]
        while active:
            mids = {i: (lo[i] + hi[i]) // 2 for i in active}
            costs = self.cache.probe_round(
                {i: self.loads[i] - mid * self.delta for i, mid in mids.items()}
            )
            for i, mid in mids.items():
                if costs[i] <= theta:
                    hi[i] = mid
                else:
                    lo[i] = mid + 1
            active = [i for i in active if lo[i] < hi[i]]
        return lo

    def _select_extras(
        self, first_slot: list[int], avail: list[int], need: int
    ) -> list[int]:
        """Take the `need` most expensive removal slots from per-link windows.

        Slot values are nonincreasing within a link, so the windows are consumed
        topmost-first; each iteration probes at most one new value because every
        other link's current top stays cached from the previous round.
        """
        taken = [0] * self.links
        pointers = {i: first_slot[i] for i in range(self.links) if avail[i] > 0}
        while need > 0:
            if not pointers:
                raise AlgorithmInvariantViolated("ran out of removal candidates")
            costs = self.cache.probe_round(
                {i: self.loads[i] - (slot - 1) * self.delta for i, slot in pointers.items()}
            )
            best = max(pointers, key=lambda i: (costs[i], -i))
            taken[best] += 1
            need -= 1
            pointers[best] += 1
            if taken[best] == avail[best]:
                del pointers[best]
        return taken

    def _commit(self, moved: int) -> tuple[tuple[int, ...], RefineTrace]:
        m, delta = self.links, self.delta
        if moved == 0:
            return self.loads, RefineTrace(delta, 0, (0,) * m, (0,) * m)
        counts_low = self.removal_counts(self.additions[moved - 1][0])
        if moved < len(self.additions):
            counts_high = self.removal_counts(self.additions[moved][0])
        else:
            counts_high = [0] * m
        certain = sum(counts_high)
        if certain > moved or sum(counts_low) < moved:
            raise AlgorithmInvariantViolated("removal counts inconsistent with q*")
        avail = [counts_low[i] - counts_high[i] for i in range(m)]
        if certain + sum(avail) == moved:
            extras = avail
        else:
            extras = self._select_extras(
                [counts_high[i] + 1 for i in range(m)], avail, moved - certain
            )
        removed = [counts_high[i] + extras[i] for i in range(m)]

        added = [0] * m
        for _, link, _ in self.additions[:moved]:
            added[link] += 1

        new_loads = list(self.loads)
        for i in range(m):
            if removed[i] and added[i]:
                raise AlgorithmInvariantViolated(f"link {i} both gives and receives")
            if added[i] > 2 * self.kf:
                raise AlgorithmInvariantViolated(f"link {i} receives more than 2k groups")
            new_loads[i] += (added[i] - removed[i]) * delta
            if new_loads[i] < 0:
                raise AlgorithmInvariantViolated(f"link {i} drained below zero")
            if i != self.special and new_loads[i] % delta:
                raise AlgorithmInvariantViolated(f"link {i} load not divisible by delta")
        if sum(new_loads) != sum(self.loads):
            raise AlgorithmInvariantViolated("player count changed by the move")
        return tuple(new_loads), RefineTrace(delta, moved, tuple(removed), tuple(added))

    def refine(self) -> tuple[tuple[int, ...], RefineTrace]:
        """Binary search for the number of groups to move, then commit.

        Invariant: moving lo groups is known feasible, and the answer lies in
        [lo, hi].  The predicate for q, monotone decreasing in q: at least q
        removal slots cost strictly more than the q-th cheapest addition
        slot, i.e. the q-th best removal beats the q-th best addition.
        """
        lo, hi = 0, min(self.window, len(self.additions))
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if sum(self.removal_counts(self.additions[mid - 1][0])) >= mid:
                lo = mid
            else:
                hi = mid - 1
        return self._commit(lo)


def _link_paths(oracle) -> list[Path]:
    net = oracle.network
    if not net.is_parallel_links:
        raise InvalidSpec("oracle is not a parallel-links game")
    return [(e,) for e in sorted(net.edges)]


def solve_parallel_links(oracle, group_factor: int | None = None) -> ParallelLinksResult:
    """Compute an exact pure Nash equilibrium through congestion queries.

    One query finds the link that is cheapest with all n players on it; all
    players start there, and each phase refines the profile at group size
    kf^t for t = T..0.  The final group size 1 makes the result a pure Nash
    equilibrium.  The measured query count is asserted against the closed
    form bound 1 + (T+1) * (L+1) * (2kf + 1 + L + 1), L = ceil(log2(kf*m+1)).
    """
    links = _link_paths(oracle)
    m = len(links)
    n = oracle.players
    kf = group_factor if group_factor is not None else default_group_factor(m)
    if kf < 2:
        raise InvalidSpec("group factor must be at least 2")
    cache = _ProbeCache(oracle, links)
    before = oracle.ledger.count

    costs = cache.probe_round({i: n for i in range(m)})
    special = min(range(m), key=lambda i: (costs[i], i))
    loads = tuple(n if i == special else 0 for i in range(m))
    deltas = [1]  # kf^0, kf^1, ..., kf^T: every power of kf up to n
    while deltas[-1] * kf <= n:
        deltas.append(deltas[-1] * kf)
    checkpoints: list[tuple[int, tuple[int, ...]]] = []
    traces: list[RefineTrace] = []
    if m > 1:
        for delta in reversed(deltas):
            loads, trace = _Phase(cache, loads, special, delta, kf, n).refine()
            checkpoints.append((delta, loads))
            traces.append(trace)
    used = oracle.ledger.count - before
    bound = _query_bound(len(deltas) - 1, kf, m)
    if used > bound:
        raise AlgorithmInvariantViolated(f"{used} queries exceed the bound {bound}")
    return ParallelLinksResult(
        LinkLoads(loads, special), used, bound, kf, checkpoints, traces
    )


def _query_bound(T: int, kf: int, m: int) -> int:
    L = (kf * m).bit_length()  # ceil(log2(kf*m + 1))
    return 1 + (T + 1) * (L + 1) * (2 * kf + 1 + L + 1)
