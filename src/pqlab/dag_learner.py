"""Learn an equivalent cost function of a DAG congestion game, then solve it.

True per-edge costs are unidentifiable (shifting cost between the two halves
of every route changes nothing observable), so the learner reconstructs an
*equivalent* cost function: one pricing every strategy of every profile
identically.  It spends exactly |E| queries per player level, n*|E| total.

Pipeline (learn_dag_game, the one entry of `solve dag` and `learn dag`):
contract every dependent edge pair in one rebuild (zero queries), learn all
load-1 values in topological order, then lift level by level with bridge
and two-path queries whose loads make every unknown appear exactly once;
their paths and checks are planned once per network, so a bad path kit
fails before any level query, and every level replays plain queries.
One pass per network finds the edges on every path to and from each vertex,
which gives both the dependent pairs and the bridges.  A pure equilibrium is
found by potential descent and maps back through contraction.
The learner reads its network from the oracle: after contraction, the
ContractedOracle's reduced one.  Contraction touches the network only,
never a cost table, so a step-form game is never listed entry by entry.
Arithmetic is exact: each learned value is kept as its integer
(numerator, denominator) pair only, and the level sums and descent weights
add those pairs over the lcm of the denominators they read, never over one
denominator per game or per table.
"""

from __future__ import annotations

import math
from collections import defaultdict, deque
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .errors import (
    AlgorithmInvariantViolated,
    InvalidProfile,
    InvalidSpec,
    PathSelectionFailed,
    PotentialNotDecreasing,
)
from .games import Network, Path, _pair_sum, edge_loads

_ZERO = Fraction(0)


class PartialCostFunction:
    """Per-edge, per-load optional cost values; once set, a value is final.

    Each value is stored once, as its normalised (numerator, denominator)
    pair by load then edge, which the learner and the descent add as
    integers (:func:`games._pair_sum`); :meth:`value` and :meth:`as_tables`
    build each ``Fraction`` from its pair.
    """

    def __init__(self, edges: Iterable[int], players: int) -> None:
        self.players = players
        self.edges = tuple(edges)
        # A load's dict is made at its first value: n may be far above the
        # loads a budget lets the learner reach.
        self._pairs: defaultdict[int, dict[int, tuple[int, int]]] = defaultdict(dict)

    def define(self, edge: int, load: int, value: Fraction) -> None:
        if not 1 <= load <= self.players:
            raise AlgorithmInvariantViolated(f"load {load} outside 1..{self.players}")
        at = self._pairs[load]
        if edge in at:
            raise AlgorithmInvariantViolated(
                f"edge {edge} already has a value at load {load}"
            )
        at[edge] = (value.numerator, value.denominator)

    def value(self, edge: int, load: int) -> Fraction:
        return Fraction(*self.pairs(load, (edge,))[0])

    def pairs(self, load: int, edges: Iterable[int]) -> list[tuple[int, int]]:
        """The (numerator, denominator) pairs of edges at one load, in order."""
        at = self._pairs.get(load, {})
        try:
            return [at[e] for e in edges]
        except KeyError as missing:
            raise AlgorithmInvariantViolated(
                f"edge {missing.args[0]} has no learned value at load {load}"
            ) from None

    def is_total(self) -> bool:
        # Only loads 1..n are ever stored, so n of them means all of them.
        edges = set(self.edges)
        return len(self._pairs) == self.players and all(
            at.keys() == edges for at in self._pairs.values()
        )

    def as_tables(self) -> dict[int, tuple[Fraction, ...]]:
        """Dense tables over loads 0..n; the (never-charged) load-0 entry
        copies the load-1 value so the table stays nondecreasing."""
        if not self.is_total():
            raise AlgorithmInvariantViolated("cost function is not total yet")
        tables = {}
        for e in self.edges:
            values = [Fraction(*self._pairs[j][e]) for j in range(1, self.players + 1)]
            tables[e] = (values[0], *values)
        return tables


# ---------------------------------------------------------------------------
# Unit-capacity max flow and edge-disjoint path pairs (Menger).


def two_edge_disjoint_paths(net: Network, frm: int, to: int) -> tuple[Path, Path] | None:
    """Two edge-disjoint frm->to paths via augmenting paths, or None.

    Unit capacities on edge ids keep parallel edges independent; two
    augmentations succeed exactly when no frm-to bridge exists.
    """
    if frm == to:
        return (), ()
    flow: dict[int, int] = {e: 0 for e in net.edges}

    def augment() -> bool:
        parents: dict[int, tuple[int, int, bool]] = {}
        seen = {frm}
        queue = deque([frm])
        while queue:
            v = queue.popleft()
            if v == to:
                break
            for e in net.out_edges[v]:
                h = net.edges[e][1]
                if flow[e] == 0 and h not in seen:
                    seen.add(h)
                    parents[h] = (v, e, True)
                    queue.append(h)
            for e in net.in_edges[v]:
                t = net.edges[e][0]
                if flow[e] == 1 and t not in seen:
                    seen.add(t)
                    parents[t] = (v, e, False)
                    queue.append(t)
        if to not in seen:
            return False
        v = to
        while v != frm:
            prev, e, forward = parents[v]
            flow[e] = 1 if forward else 0
            v = prev
        return True

    if not (augment() and augment()):
        return None

    paths: list[Path] = []
    used: set[int] = set()
    for _ in range(2):
        v = frm
        path: list[int] = []
        while v != to:
            e = next(e for e in net.out_edges[v] if flow[e] == 1 and e not in used)
            used.add(e)
            path.append(e)
            v = net.edges[e][1]
        paths.append(tuple(path))
    return paths[0], paths[1]


# ---------------------------------------------------------------------------
# Preprocessing: contract dependent edge pairs.


@dataclass(frozen=True)
class ContractionStep:
    """One contraction: ``removed`` merged into ``absorber``'s cost table."""

    removed: int
    absorber: int


@dataclass
class ContractionMap:
    """Translation between a game and its dependent-pair-free contraction."""

    original: Network
    reduced: Network
    steps: list[ContractionStep]
    _mapped: dict[Path, Path] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @cached_property
    def _removed_out(self) -> dict[int, tuple[int, int]]:
        """Tail vertex -> (removed edge, head).  A vertex has at most one
        removed out-edge: when an edge is removed it is its tail's only one."""
        edges = self.original.edges
        return {edges[s.removed][0]: (s.removed, edges[s.removed][1]) for s in self.steps}

    @cached_property
    def absorbed(self) -> dict[int, tuple[int, ...]]:
        """Surviving edge id -> original edges folded into its cost table."""
        acc: dict[int, list[int]] = {}
        for step in self.steps:
            chain = [step.removed] + acc.pop(step.removed, [])
            acc.setdefault(step.absorber, []).extend(chain)
        return {e: tuple(sorted(ids)) for e, ids in acc.items()}

    def map_path_back(self, path: Path) -> Path:
        """Original o-d path realising a reduced path (contracted edges reinserted).

        Each distinct path is validated against the reduced network once,
        then mapped and remembered.  A valid reduced path maps to a valid
        original one: the reinserted chains continue it through a DAG.
        """
        if path in self._mapped:
            return self._mapped[path]
        self.reduced.validate_path(path)
        out: list[int] = []
        at = self.original.origin
        for e in path:
            tail, head = self.original.edges[e]
            if at != tail:
                out.extend(self._bridge(at, tail))
            out.append(e)
            at = head
        if at != self.original.destination:
            out.extend(self._bridge(at, self.original.destination))
        result = tuple(out)
        self._mapped[path] = result
        return result

    def _bridge(self, frm: int, to: int) -> list[int]:
        """Chain of removed edges frm -> to."""
        chain: list[int] = []
        while frm != to:
            if frm not in self._removed_out:
                raise AlgorithmInvariantViolated(f"no removed-edge chain to {to}")
            e, frm = self._removed_out[frm]
            chain.append(e)
        return chain

    def map_profile_back(self, profile: Mapping[Path, int]) -> dict[Path, int]:
        mapped = {self.map_path_back(p): c for p, c in profile.items()}
        if len(mapped) != len(profile):
            raise AlgorithmInvariantViolated("path mapping is not injective")
        return mapped


def _must_use(net: Network) -> tuple[dict[int, frozenset], dict[int, frozenset]]:
    """Per vertex v, the edges on every origin->v and every v->destination path.

    One intersection sweep each way along the topology: in a DAG the
    dominator dataflow of Cooper, Harvey and Kennedy settles in one pass.
    """
    order = net.topological_order()

    def sweep(vertices, incident, far_end) -> dict[int, frozenset]:
        acc: dict[int, frozenset] = {}
        for v in vertices:
            sets = [acc[net.edges[g][far_end]] | {g} for g in incident[v]]
            acc[v] = frozenset.intersection(*sets) if sets else frozenset()
        return acc

    return sweep(order, net.in_edges, 0), sweep(reversed(order), net.out_edges, 1)


def _dependent_steps(net: Network) -> list[ContractionStep]:
    """Every contraction step, in the order a one-pair-at-a-time search takes them.

    Edges e and a later e' are dependent (every o-d path uses both or
    neither) exactly when e' lies on every path from e's head and e on every
    path to the tail of e'.  Dependence groups edges by the paths using them,
    and contracting a pair leaves the other groups as they were, so the
    search order -- the lowest-id edge with a later partner absorbs its
    lowest-id later partner -- replays on the groups without graph work.
    """
    before, after = net.remember("_must_use", _must_use)
    along = lambda e: net.topo_position[net.edges[e][0]]  # noqa: E731
    chains: list[list[int]] = []
    seen: set[int] = set()
    for e in sorted(net.edges, key=along):
        if e not in seen:
            later = [g for g in after[net.edges[e][1]] if e in before[net.edges[g][0]]]
            chains.append([e, *sorted(later, key=along)])
            seen.update(chains[-1])
    steps: list[ContractionStep] = []
    while chains := [c for c in chains if len(c) > 1]:
        absorber, chain = min((g, c) for c in chains for g in c[:-1])
        removed = min(chain[chain.index(absorber) + 1 :])
        chain.remove(removed)
        steps.append(ContractionStep(removed=removed, absorber=absorber))
    return steps


def find_dependent_pair(net: Network) -> tuple[int, int] | None:
    """First edge pair (e, e') such that every o-d path uses both or neither."""
    steps = _dependent_steps(net)
    return (steps[0].absorber, steps[0].removed) if steps else None


def contract_network(net: Network) -> tuple[Network, ContractionMap]:
    """Contract away dependent pairs in one rebuild; zero queries, structure only.

    In step order, each removed edge's head merges into its tail's label.
    """
    steps = _dependent_steps(net)
    if not steps:
        return net, ContractionMap(original=net, reduced=net, steps=steps)
    label = {v: v for v in net.vertices}
    for step in steps:
        tail, head = (label[v] for v in net.edges[step.removed])
        label = {v: tail if at == head else at for v, at in label.items()}
    gone = {step.removed for step in steps}
    reduced = Network(
        set(label.values()),
        {g: (label[t], label[h]) for g, (t, h) in net.edges.items() if g not in gone},
        net.origin,
        label[net.destination],
    )
    return reduced, ContractionMap(original=net, reduced=reduced, steps=steps)


def contracted(net: Network) -> tuple[Network, ContractionMap]:
    """contract_network(net), worked out once per network and then remembered."""
    return net.remember("_contraction", contract_network)


class ContractedOracle:
    """Query view of the contracted game, simulated on the original oracle."""

    def __init__(self, inner, cmap: ContractionMap) -> None:
        self._inner = inner
        self._map = cmap
        self.players = inner.players
        self.network = cmap.reduced
        self.ledger = inner.ledger

    def query_loads(self, assignment: Mapping[Path, int]) -> dict[Path, Fraction]:
        """Price reduced paths by their original paths: one inner query.

        A key that is not a tuple is refused before anything is charged;
        the inner oracle checks the counts.
        """
        if not isinstance(assignment, Mapping):
            got = type(assignment).__name__
            raise InvalidProfile(f"a load query maps paths to counts, got {got}")
        forward = {}
        for p in assignment:
            if type(p) is not tuple:
                raise InvalidProfile(f"path {p!r} is not a tuple of edge ids")
            forward[p] = self._map.map_path_back(p)
        response = self._inner.query_loads(
            {forward[p]: c for p, c in assignment.items()}
        )
        return {p: response[forward[p]] for p in assignment}


# ---------------------------------------------------------------------------
# Bridges and the path kits of the level-lifting queries.


def find_bridges(net: Network, kv: int) -> list[int]:
    """Edges lying on every kv-destination path, ordered along the topology."""
    after = net.remember("_must_use", _must_use)[1]
    return sorted(after[kv], key=lambda e: net.topo_position[net.edges[e][0]])


def _disjoint_or_fail(net: Network, frm: int, to: int) -> tuple[Path, Path]:
    pair = two_edge_disjoint_paths(net, frm, to)
    if pair is None:
        raise PathSelectionFailed(f"no two edge-disjoint paths {frm} -> {to}")
    return pair


def two_paths_meeting_at(
    net: Network, frm: int, meet: Sequence[int]
) -> tuple[Path, Path]:
    """Two frm->destination paths whose shared edges are exactly ``meet``.

    ``meet`` lists edges lying on every frm-destination path, in order.
    Between consecutive ones (and after the last) none is left, so each gap
    admits an edge-disjoint pair; concatenating the pairs through the meet
    edges gives the required intersection.
    """
    pa: list[int] = []
    pb: list[int] = []
    for b in meet:
        seg_a, seg_b = _disjoint_or_fail(net, frm, net.edges[b][0])
        pa += [*seg_a, b]
        pb += [*seg_b, b]
        frm = net.edges[b][1]
    tail_a, tail_b = _disjoint_or_fail(net, frm, net.destination)
    pa += tail_a
    pb += tail_b
    if set(pa) & set(pb) != set(meet):
        raise PathSelectionFailed(f"two-path kit does not meet exactly at {list(meet)}")
    return tuple(pa), tuple(pb)


def _reroute_along(p1: Path, q: Path, qq: Path) -> tuple[Path, Path]:
    """Make p1 avoid one of two disjoint connector paths, return (p1, connector).

    If p1 crosses both, it is spliced onto whichever it meets first and the
    other connector is returned.
    """
    sq, sqq = set(q), set(qq)
    if not set(p1) & sq:
        return p1, q
    if not set(p1) & sqq:
        return p1, qq
    for idx, e in enumerate(p1):
        if e in sq:
            return p1[:idx] + q[q.index(e) :], qq
        if e in sqq:
            return p1[:idx] + qq[qq.index(e) :], q
    raise PathSelectionFailed("splice failed")  # pragma: no cover


def choose_p1_p3(
    net: Network, kv: int, bridges: Sequence[int], j: int, p2: Path
) -> tuple[Path, Path]:
    """Edge-disjoint (origin->tail(b_j), kv->tail(b_j)) paths for the bridge query.

    If p1 reaches kv at all it must enter by a different edge than p2, so
    that the in-edge shared load stays decodable.
    """
    b = bridges[j]
    v = net.edges[b][0]
    if j > 0:
        prev = bridges[j - 1]
        prev_tail, prev_head = net.edges[prev]
        p1 = net.least_path(net.origin, v, {prev})
        if p1 is None:
            raise PathSelectionFailed(f"no origin path to {v} avoiding bridge {prev}")
        stem = net.least_path(kv, prev_tail)
        if stem is None:
            raise PathSelectionFailed(f"no path {kv} -> {prev_tail}")
        q, qq = _disjoint_or_fail(net, prev_head, v)
        p1, connector = _reroute_along(p1, q, qq)
        p3 = stem + (prev,) + connector
    elif kv == net.origin:
        r1, r2 = _disjoint_or_fail(net, kv, v)
        p1, p3 = r2, r1
    elif len(net.in_edges[kv]) >= 2:
        g2 = p2[-1]
        g1 = min(e for e in net.in_edges[kv] if e != g2)
        r1, r2 = _disjoint_or_fail(net, kv, v)
        stem = net.least_path(net.origin, net.edges[g1][0])
        if stem is None:  # pragma: no cover - tails are always reachable
            raise PathSelectionFailed(f"no origin path to edge {g1}")
        p1 = stem + (g1,) + r2
        p3 = r1
    else:
        sole = net.in_edges[kv][0]
        if kv == v:
            raise PathSelectionFailed(
                "first bridge leaves a single-in-edge vertex; preprocessing broken"
            )
        p1 = net.least_path(net.origin, v, {sole})
        if p1 is None:
            raise PathSelectionFailed(
                f"no origin path to {v} avoiding sole in-edge {sole}"
            )
        q, qq = _disjoint_or_fail(net, kv, v)
        p1, p3 = _reroute_along(p1, q, qq)
    if set(p1) & set(p3):
        raise PathSelectionFailed("p1 and p3 are not edge disjoint")
    return p1, p3


# ---------------------------------------------------------------------------
# The learner proper.


def learn_one_player(oracle) -> PartialCostFunction:
    """Partial equivalent cost function with every load-1 value defined.

    The oracle's vertices are processed in topological order.  Each in-edge
    of a vertex is scored by one query through a fixed stem and continuation,
    less its already learned stem.  At an interior vertex the cheapest
    in-edge is declared free and the others are priced relative to it; the
    slack this hides is pushed onto the vertex's out-edges, which keeps all
    route costs intact.  At the destination the continuation is empty and
    the scores are the absolute values.  One query per edge of the oracle's
    network.
    """
    net = oracle.network
    f = PartialCostFunction(net.edges, oracle.players)
    before = oracle.ledger.count
    for kv in net.topological_order():
        in_edges = net.in_edges[kv]
        if not in_edges:
            continue
        continuation = net.least_path(kv, net.destination)
        if continuation is None:  # pragma: no cover - every vertex reaches d
            raise PathSelectionFailed(f"vertex {kv} cannot reach the destination")
        scores: dict[int, Fraction] = {}
        for e in in_edges:
            stem = net.least_path(net.origin, net.edges[e][0])
            known = Fraction(*_pair_sum(f.pairs(1, stem)))
            path = stem + (e,) + continuation
            scores[e] = oracle.query_loads({path: 1})[path] - known
        base = min(scores.values()) if continuation else _ZERO
        for e in in_edges:
            f.define(e, 1, scores[e] - base)
    used = oracle.ledger.count - before
    if used != len(net.edges):
        raise AlgorithmInvariantViolated(
            f"load-1 pass used {used} queries, expected {len(net.edges)}"
        )
    return f


def learn_level(oracle, f: PartialCostFunction, level: int) -> PartialCostFunction:
    """Extend f from loads <= level to level + 1 in |E| queries on the
    oracle's network, replaying that network's one checked query plan.

    Each query puts one player on the one path and ``level`` players on the
    many path; the target's cost is the one path's response less the
    shared edges at the new load and the other edges at load 1.  Their
    pairs are summed, subtracted from the response's pair over the lcm of
    the two denominators, and one ``Fraction`` is built per value.
    """
    net = oracle.network
    if not 1 <= level < oracle.players:
        raise InvalidSpec(f"level must be in 1..n-1, got {level}")
    new_load = level + 1
    if not f._pairs.get(new_load, {}).keys().isdisjoint(net.edges):
        raise AlgorithmInvariantViolated(f"load {new_load} is already partly learned")
    before = oracle.ledger.count
    plan = net.remember("_level_plan", _plan_level)
    for target, one_path, many_path, shared, single in plan:
        if one_path == many_path:
            assignment = {one_path: 1 + level}
        else:
            assignment = {one_path: 1, many_path: level}
        # Read before the query, so that a missing value charges nothing.
        known, den = _pair_sum(f.pairs(new_load, shared) + f.pairs(1, single))
        response = oracle.query_loads(assignment)[one_path]
        num, d = response.numerator, response.denominator
        g = math.gcd(den, d)
        value = Fraction(num * (den // g) - known * (d // g), den // g * d)
        f.define(target, new_load, value)
    used = oracle.ledger.count - before
    if used != len(net.edges):
        raise AlgorithmInvariantViolated(
            f"level {level} used {used} queries, expected {len(net.edges)}"
        )
    return f


def _plan_level(net: Network) -> tuple[tuple, ...]:
    """The |E| queries every level asks, checked once when the plan is built.

    An entry is (target, one path, many path, shared, single): the target
    and the ``shared`` edges lie on both paths and carry the new load, the
    ``single`` edges carry one player.  For each vertex kv along the
    topology, the kv-bridges are targeted first (in reverse bridge order, so
    each query's later bridges are known), then the remaining in-edges of
    kv; each edge is targeted once.  A query's one path ends in a kit path
    that meets the many path exactly at the kit's ``meet`` edges, and every
    shared edge was targeted by an earlier entry.
    """
    plan: list[tuple] = []
    planned: set[int] = set()

    def add(
        target: int, head: Path, kit: Path, many_path: Path, meet: Sequence[int]
    ) -> None:
        many = set(many_path)
        if target not in many:
            raise AlgorithmInvariantViolated(f"edge {target} is not on the many path")
        if many.intersection(kit) != set(meet):
            raise AlgorithmInvariantViolated(
                f"query load pattern broken for edge {target}"
            )
        one_path = head + kit
        shared = tuple(e for e in one_path if e in many and e != target)
        if not planned.issuperset(shared):
            raise PathSelectionFailed(
                f"query for edge {target} reads an unlearned edge; bad path kit"
            )
        single = tuple(e for e in one_path if e not in many)
        planned.add(target)
        plan.append((target, one_path, many_path, shared, single))

    for kv in net.topological_order():
        bridges = find_bridges(net, kv)
        p2 = net.least_path(net.origin, kv)
        if p2 is None:  # pragma: no cover - kv is on an o-d path
            raise PathSelectionFailed(f"vertex {kv} unreachable from the origin")
        for j in range(len(bridges) - 1, -1, -1):
            b = bridges[j]
            if b not in planned:
                # From b's tail, so both kit paths start with b itself.
                p4, p5 = two_paths_meeting_at(net, net.edges[b][0], bridges[j:])
                p1, p3 = choose_p1_p3(net, kv, bridges, j, p2)
                add(b, p1, p4, p2 + p3 + p5, bridges[j:])
        in_edges = [e for e in net.in_edges[kv] if e not in planned]
        if in_edges:
            pa, pb = two_paths_meeting_at(net, kv, bridges)
        for e in in_edges:
            stem = net.least_path(net.origin, net.edges[e][0])
            if stem is None:  # pragma: no cover
                raise PathSelectionFailed(f"no origin path to edge {e}")
            add(e, stem + (e,), pa, stem + (e,) + pb, bridges)
    if len(plan) != len(net.edges):
        raise AlgorithmInvariantViolated(
            f"level plan has {len(plan)} queries, expected {len(net.edges)}"
        )
    return tuple(plan)


def learn_costs(oracle) -> PartialCostFunction:
    """Full learning pass: |E| queries for load 1, then per level up to n.

    The oracle's network must already be free of dependent edge pairs;
    learn_dag_game contracts any network first and queries through a
    ContractedOracle.  Total ledger cost is exactly |E| * n.
    """
    if find_dependent_pair(oracle.network) is not None:
        raise InvalidSpec("network still contains a dependent edge pair")
    f = learn_one_player(oracle)
    for level in range(1, oracle.players):
        learn_level(oracle, f, level)
    if not f.is_total():
        raise AlgorithmInvariantViolated("learned cost function is not total")
    return f


def learn_dag_game(oracle) -> tuple[PartialCostFunction, ContractionMap]:
    """Contract the oracle's network once, then learn an equivalent cost function.

    The learned function is keyed by the reduced network's edges: each
    surviving edge's table carries the costs of the edges it absorbed.
    """
    _, cmap = contracted(oracle.network)
    view = ContractedOracle(oracle, cmap) if cmap.steps else oracle
    return learn_costs(view), cmap


# ---------------------------------------------------------------------------
# Solving the learned game.


def _best_response(
    f: PartialCostFunction, net: Network, loads: Mapping[int, int], current_path: Path
) -> tuple[Path, Fraction]:
    """Lexicographically least cheapest o-d path for a player on current_path.

    Edge weights are the learned pairs at the load the edge would carry
    after the move, scaled once to integers over their common denominator;
    a positive scale keeps every comparison and tie.  Costs to the
    destination are relaxed backwards along the topology, then the path
    takes the lowest edge id that stays cheapest.  f must be total.
    """
    on_path = set(current_path)
    at = f._pairs
    exact = {e: at[load + (e not in on_path)][e] for e, load in loads.items()}
    den = math.lcm(*{d for _, d in exact.values()})
    weight = {e: num * (den // d) for e, (num, d) in exact.items()}
    togo: dict[int, int] = {net.destination: 0}
    for v in reversed(net.topological_order()):
        for e in net.out_edges[v]:
            cand = weight[e] + togo[net.edges[e][1]]
            if v not in togo or cand < togo[v]:
                togo[v] = cand
    path: list[int] = []
    v = net.origin
    while v != net.destination:
        e = next(
            e for e in net.out_edges[v] if weight[e] + togo[net.edges[e][1]] == togo[v]
        )
        path.append(e)
        v = net.edges[e][1]
    return tuple(path), Fraction(togo[net.origin], den)


def solve_learned_game(
    f: PartialCostFunction, net: Network, players: int
) -> dict[Path, int]:
    """Pure Nash equilibrium of the learned game by best-response descent.

    Players start stacked on the lexicographically least path; single
    players move to a cheapest alternative while one exists.  Each strict
    improvement lowers the Rosenthal potential by exactly the mover's saving
    (updated on the edges the move changes), which guards termination.
    """
    if not f.is_total():
        raise AlgorithmInvariantViolated("cost function is not total yet")
    start = net.least_path(net.origin, net.destination)
    if start is None:  # pragma: no cover - validated network
        raise PathSelectionFailed("no origin-destination path")
    profile: dict[Path, int] = {start: players}
    loads = edge_loads(net, profile)
    at = f._pairs
    while True:
        for path in sorted(p for p, c in profile.items() if c > 0):
            current = Fraction(*_pair_sum([at[loads[e]][e] for e in path]))
            best_path, best_cost = _best_response(f, net, loads, path)
            if best_cost < current and best_path != path:
                profile[path] -= 1
                profile[best_path] = profile.get(best_path, 0) + 1
                left, joined = set(path), set(best_path)
                change = _ZERO
                for e in left - joined:
                    change -= f.value(e, loads[e])
                    loads[e] -= 1
                for e in joined - left:
                    loads[e] += 1
                    change += f.value(e, loads[e])
                if change != best_cost - current or change >= 0:
                    raise PotentialNotDecreasing(
                        "a move did not lower the potential by the mover's saving"
                    )
                break
        else:
            return {p: c for p, c in profile.items() if c > 0}


@dataclass
class DagSolveResult:
    """End-to-end outcome: learned costs, equilibrium, and accounting."""

    profile: dict[Path, int]
    learned: PartialCostFunction
    contraction: ContractionMap
    queries_used: int


def solve_dag_game(oracle) -> DagSolveResult:
    """Contract, learn an equivalent cost function, and compute a pure NE."""
    before = oracle.ledger.count
    f, cmap = learn_dag_game(oracle)
    reduced_profile = solve_learned_game(f, cmap.reduced, oracle.players)
    return DagSolveResult(
        profile=cmap.map_profile_back(reduced_profile),
        learned=f,
        contraction=cmap,
        queries_used=oracle.ledger.count - before,
    )
