"""Exact pure Nash equilibrium on m parallel links in few congestion queries.

The solver works in phases with shrinking group size delta.  Each phase
turns a (kf*delta)-equilibrium into a delta-equilibrium by moving whole
groups of delta players, locating the number of groups to move with a
binary search whose probes are batched so that one oracle call covers every
link at once.

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
from dataclasses import dataclass, field
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

    def probe_round(self, wanted: Mapping[int, int]) -> None:
        """Learn every requested (link, load) pair, issuing at most one query."""
        missing = {
            i: load for i, load in wanted.items() if load not in self._known[i]
        }
        if not missing:
            return
        assignment = {self._links[i]: load for i, load in missing.items()}
        response = self._oracle.query_loads(assignment)
        for i, load in missing.items():
            cost = response[self._links[i]]
            self._store(i, load, cost.numerator if cost.denominator == 1 else cost)

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

    def value(self, link: int, load: int) -> Cost:
        return self._known[link][load]


@dataclass
class _PhaseContext:
    delta: int
    kf: int
    players: int
    loads: tuple[int, ...]
    special: int
    # Feasible addition slots (cost, link, r), sorted; r-th extra group on a link.
    additions: list[tuple[Cost, int, int]] = field(default_factory=list)
    # Per link, the most top groups one refinement can remove, and the load
    # left once they are gone.
    caps: list[int] = field(init=False)
    floors: dict[int, int] = field(init=False)

    def __post_init__(self) -> None:
        window, delta = self.window, self.delta
        self.caps = [min(window, x // delta) for x in self.loads]
        self.floors = {
            i: x - cap * delta
            for i, (x, cap) in enumerate(zip(self.loads, self.caps))
            if cap
        }

    @property
    def links(self) -> int:
        return len(self.loads)

    @property
    def window(self) -> int:
        """Most groups one refinement can move.

        kf*m covers the usual case; a group factor above m+1 lets the ragged
        special link contribute up to kf-1 extra moves.
        """
        return max(self.kf * self.links, (self.kf - 1) * (self.links + 1))


def _collect_additions(cache: _ProbeCache, ctx: _PhaseContext) -> None:
    """2*kf probe rounds: cost of adding r groups to every link, r = 1..2kf.

    The slots are listed link by link with r ascending and sorted stably on
    cost alone, so equal costs stay in (link, r) order.
    """
    n, delta, rounds = ctx.players, ctx.delta, range(1, 2 * ctx.kf + 1)
    for r in rounds:
        cache.probe_round(
            {i: x + r * delta for i, x in enumerate(ctx.loads) if x + r * delta <= n}
        )
    ctx.additions = [
        (cache.value(i, x + r * delta), i, r)
        for i, x in enumerate(ctx.loads)
        for r in rounds
        if x + r * delta <= n
    ]
    ctx.additions.sort(key=itemgetter(0))


def _removal_counts(cache: _ProbeCache, ctx: _PhaseContext, theta: Cost) -> list[int]:
    """Per link, how many top groups currently pay strictly more than theta.

    Equals min{q : f_i(n_i - q*delta) <= theta} over q in [0, cap_i], or
    cap_i when even draining every countable group leaves the cost above
    theta (the guard case: one batched probe round of the phase's floors,
    which can query only on the phase's first call).
    """
    cache.probe_round(ctx.floors)
    hi = ctx.caps.copy()  # the searches below narrow hi in place
    lo = [0] * ctx.links
    for i, floor in ctx.floors.items():
        if cache.value(i, floor) > theta:
            lo[i] = hi[i]
    # Batched binary searches: one probe round per iteration covers every
    # link still looking for the first drained-load whose cost is <= theta.
    active = [i for i in ctx.floors if lo[i] < hi[i]]
    while active:
        mids = {i: (lo[i] + hi[i]) // 2 for i in active}
        cache.probe_round(
            {i: ctx.loads[i] - mids[i] * ctx.delta for i in active}
        )
        for i in active:
            if cache.value(i, ctx.loads[i] - mids[i] * ctx.delta) <= theta:
                hi[i] = mids[i]
            else:
                lo[i] = mids[i] + 1
        active = [i for i in active if lo[i] < hi[i]]
    return lo


def _movable_pairs_at_least(cache: _ProbeCache, ctx: _PhaseContext, q: int) -> bool:
    """Predicate of the binary search: do q strictly improving moves exist?

    True iff at least q removal slots cost strictly more than the q-th
    cheapest addition slot, i.e. the q-th best removal beats the q-th best
    addition.  Monotone decreasing in q; the search only asks q in
    [1, len(additions)].
    """
    theta = ctx.additions[q - 1][0]
    return sum(_removal_counts(cache, ctx, theta)) >= q


def _select_extras(
    cache: _ProbeCache,
    ctx: _PhaseContext,
    first_slot: list[int],
    avail: list[int],
    need: int,
) -> list[int]:
    """Take the `need` most expensive removal slots from per-link windows.

    Slot values are nonincreasing within a link, so the windows are consumed
    topmost-first; each iteration probes at most one new value because every
    other link's current top stays cached from the previous round.
    """
    taken = [0] * ctx.links
    pointers = {i: first_slot[i] for i in range(ctx.links) if avail[i] > 0}
    while need > 0:
        if not pointers:
            raise AlgorithmInvariantViolated("ran out of removal candidates")
        cache.probe_round(
            {i: ctx.loads[i] - (slot - 1) * ctx.delta for i, slot in pointers.items()}
        )
        best = max(
            pointers,
            key=lambda i: (
                cache.value(i, ctx.loads[i] - (pointers[i] - 1) * ctx.delta),
                -i,
            ),
        )
        taken[best] += 1
        need -= 1
        pointers[best] += 1
        if taken[best] == avail[best]:
            del pointers[best]
    return taken


def _commit(
    cache: _ProbeCache, ctx: _PhaseContext, moved: int
) -> tuple[tuple[int, ...], RefineTrace]:
    if moved == 0:
        return ctx.loads, RefineTrace(
            ctx.delta, 0, (0,) * ctx.links, (0,) * ctx.links
        )
    theta_low = ctx.additions[moved - 1][0]
    counts_low = _removal_counts(cache, ctx, theta_low)
    if moved < len(ctx.additions):
        counts_high = _removal_counts(cache, ctx, ctx.additions[moved][0])
    else:
        counts_high = [0] * ctx.links
    certain = sum(counts_high)
    if certain > moved or sum(counts_low) < moved:
        raise AlgorithmInvariantViolated("removal counts inconsistent with q*")
    avail = [counts_low[i] - counts_high[i] for i in range(ctx.links)]
    if certain + sum(avail) == moved:
        extras = avail
    else:
        extras = _select_extras(
            cache,
            ctx,
            [counts_high[i] + 1 for i in range(ctx.links)],
            avail,
            moved - certain,
        )
    removed = [counts_high[i] + extras[i] for i in range(ctx.links)]

    added = [0] * ctx.links
    for _, link, _ in ctx.additions[:moved]:
        added[link] += 1

    new_loads = list(ctx.loads)
    for i in range(ctx.links):
        if removed[i] and added[i]:
            raise AlgorithmInvariantViolated(f"link {i} both gives and receives")
        if added[i] > 2 * ctx.kf:
            raise AlgorithmInvariantViolated(f"link {i} receives more than 2k groups")
        new_loads[i] += (added[i] - removed[i]) * ctx.delta
        if new_loads[i] < 0:
            raise AlgorithmInvariantViolated(f"link {i} drained below zero")
        if i != ctx.special and new_loads[i] % ctx.delta:
            raise AlgorithmInvariantViolated(f"link {i} load not divisible by delta")
    if sum(new_loads) != sum(ctx.loads):
        raise AlgorithmInvariantViolated("player count changed by the move")
    return tuple(new_loads), RefineTrace(
        ctx.delta, moved, tuple(removed), tuple(added)
    )


def _refine_phase(
    cache: _ProbeCache,
    loads: LinkLoads,
    delta: int,
    kf: int,
    players: int,
) -> tuple[tuple[int, ...], RefineTrace]:
    """Binary search for the number of groups to move, then commit.

    Invariant: moving lo groups is known feasible, and the answer lies in
    [lo, hi].
    """
    ctx = _PhaseContext(delta, kf, players, loads.loads, loads.special)
    _collect_additions(cache, ctx)
    lo, hi = 0, min(ctx.window, len(ctx.additions))
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _movable_pairs_at_least(cache, ctx, mid):
            lo = mid
        else:
            hi = mid - 1
    return _commit(cache, ctx, lo)


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

    cache.probe_round({i: n for i in range(m)})
    special = min(range(m), key=lambda i: (cache.value(i, n), i))
    loads = LinkLoads(
        tuple(n if i == special else 0 for i in range(m)), special
    )
    deltas = [1]  # kf^0, kf^1, ..., kf^T: every power of kf up to n
    while deltas[-1] * kf <= n:
        deltas.append(deltas[-1] * kf)
    checkpoints: list[tuple[int, tuple[int, ...]]] = []
    traces: list[RefineTrace] = []
    if m > 1:
        for delta in reversed(deltas):
            new_loads, trace = _refine_phase(cache, loads, delta, kf, n)
            loads = LinkLoads(new_loads, special)
            checkpoints.append((delta, new_loads))
            traces.append(trace)
    used = oracle.ledger.count - before
    bound = _query_bound(len(deltas) - 1, kf, m)
    if used > bound:
        raise AlgorithmInvariantViolated(f"{used} queries exceed the bound {bound}")
    return ParallelLinksResult(loads, used, bound, kf, checkpoints, traces)


def _query_bound(T: int, kf: int, m: int) -> int:
    L = (kf * m).bit_length()  # ceil(log2(kf*m + 1))
    return 1 + (T + 1) * (L + 1) * (2 * kf + 1 + L + 1)
