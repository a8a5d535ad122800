"""Contraction, bridge machinery, the cost-function learner, and the solver."""

import hashlib
import io
import json
import math
import random
from fractions import Fraction

import pytest

from pqlab import (
    AlgorithmInvariantViolated,
    CongestionGame,
    CongestionOracle,
    InvalidProfile,
    InvalidSpec,
    Network,
    PathSelectionFailed,
    PotentialNotDecreasing,
)
from pqlab import dag_learner
from pqlab.dag_learner import (
    ContractedOracle,
    PartialCostFunction,
    contract_network,
    choose_p1_p3,
    find_bridges,
    find_dependent_pair,
    learn_costs,
    learn_dag_game,
    learn_level,
    learn_one_player,
    solve_dag_game,
    solve_learned_game,
    two_edge_disjoint_paths,
    two_paths_meeting_at,
)
from pqlab.games import edge_loads, enumerate_paths
from pqlab.instances import gen_random_dag, gen_random_step_links
from pqlab.verify import brute_force_pure_ne, check_equivalence, deviation_report
from tests.test_games import diamond

F = Fraction


def _snapshot(f):
    """A copy of the values a partial cost function has learned so far, by
    edge then load."""
    snap = {e: {} for e in f.edges}
    for load, at in f._pairs.items():
        for e in at:
            snap[e][load] = f.value(e, load)
    return snap


def reduced_game(game):
    """The contracted game and its map: each removed edge's cost table is
    added onto its absorber's, which prices every strategy of every profile
    as the original does.  With nothing to contract, the game itself."""
    net, cmap = contract_network(game.network)
    if not cmap.steps:
        return game, cmap
    cost = {e: list(game.cost[e]) for e in game.network.edges}
    for step in cmap.steps:
        cost[step.absorber] = [
            a + b for a, b in zip(cost[step.absorber], cost[step.removed])
        ]
    return CongestionGame(net, game.players, {e: cost[e] for e in net.edges}), cmap


def chain_game(players=2):
    net = Network((0, 1, 2), {0: (0, 1), 1: (1, 2)}, 0, 2)
    return CongestionGame(
        net, players, {0: [F(1)] * (players + 1), 1: [F(2)] * (players + 1)}
    )


class TestDependenceAndContraction:
    def test_chain_contracts_to_single_edge(self):
        game = chain_game(2)
        reduced, cmap = reduced_game(game)
        assert len(reduced.edges) == 1
        (edge,) = reduced.edges
        assert reduced.cost[edge] == (3, 3, 3)
        assert cmap.absorbed[edge] == (1,) if edge == 0 else (0,)

    def test_diamond_has_no_dependent_pairs(self):
        game = diamond(players=2)
        assert find_dependent_pair(game.network) is None
        reduced, cmap = reduced_game(game)
        assert reduced.network == game.network
        assert not cmap.steps

    def test_nothing_to_contract_keeps_the_game_and_its_tables(self):
        game = gen_random_step_links(2, 2**40, seed=0)
        reduced, cmap = reduced_game(game)
        assert reduced is game
        assert not cmap.steps

    def test_diamond_with_mandatory_tail_edge(self):
        # o->m (a, b), m->x (c, d), x->d via a single mandatory edge: the
        # tail edge pairs with no single edge, so nothing contracts.
        net = Network(
            (0, 1, 2, 3),
            {0: (0, 1), 1: (0, 1), 2: (1, 2), 3: (1, 2), 4: (2, 3)},
            0,
            3,
        )
        assert find_dependent_pair(net) is None

    def test_path_costs_preserved_for_every_profile(self):
        for seed in range(20):
            game = gen_random_dag(6, 8, 2, seed, subdivide=2)
            reduced, cmap = reduced_game(game)
            for profile in brute_force_pure_ne(reduced):
                mapped = cmap.map_profile_back(profile)
                # Same strategy costs under the translation.
                from pqlab.games import strategy_costs

                reduced_costs = strategy_costs(reduced, profile)
                original_costs = strategy_costs(game, mapped)
                for path, cost in reduced_costs.items():
                    assert original_costs[cmap.map_path_back(path)] == cost

    def test_contracted_ne_maps_back_to_original_ne(self):
        for seed in range(12):
            game = gen_random_dag(5, 7, 2, seed, subdivide=2)
            reduced, cmap = reduced_game(game)
            for ne in brute_force_pure_ne(reduced):
                mapped = cmap.map_profile_back(ne)
                assert deviation_report(game, mapped).is_equilibrium

    @pytest.mark.parametrize("subdivide", [1, 2, 3])
    def test_contraction_and_bridges_match_path_enumeration(self, subdivide):
        # Edges used by exactly the same o-d paths form one dependent group;
        # the contraction keeps the group's earliest edge and folds the rest
        # into it.  Each step takes the pair a one-pair-at-a-time search
        # finds first: the lowest-id edge with a later partner still present,
        # and its lowest-id such partner.  The kv-bridges are the edges on
        # every kv-destination path, in the order the paths take them.
        for seed in range(15):
            net = gen_random_dag(6, 9, 2, seed, subdivide=subdivide).network
            paths = enumerate_paths(net)
            groups: dict[frozenset, list[int]] = {}
            for e in net.edges:
                users = frozenset(i for i, p in enumerate(paths) if e in p)
                groups.setdefault(users, []).append(e)
            chains = [sorted(g, key=paths[min(u)].index) for u, g in groups.items()]
            assert any(len(chain) > 1 for chain in chains)
            reduced, cmap = contract_network(net)
            for first, *rest in chains:
                assert {first, *rest} & set(reduced.edges) == {first}
                assert cmap.absorbed.get(first, ()) == tuple(sorted(rest))
            alive = set(net.edges)

            def pairs():
                return sorted(
                    (e, g)
                    for chain in chains
                    for i, e in enumerate(chain)
                    for g in chain[i + 1 :]
                    if {e, g} <= alive
                )

            assert find_dependent_pair(net) == pairs()[0]
            for step in cmap.steps:
                assert (step.absorber, step.removed) == pairs()[0]
                alive.remove(step.removed)
            assert pairs() == []
            assert find_dependent_pair(reduced) is None
            for graph in (net, reduced):
                for kv in graph.vertices:
                    onward = [
                        p[next(i for i, e in enumerate(p) if graph.edges[e][0] == kv):]
                        for p in enumerate_paths(graph)
                        if any(graph.edges[e][0] == kv for e in p)
                    ] or [()]
                    common = set.intersection(*map(set, onward))
                    want = [e for e in onward[0] if e in common]
                    assert find_bridges(graph, kv) == want

    def test_contraction_makes_zero_queries(self):
        game = gen_random_dag(6, 9, 2, seed=0, subdivide=3)
        oracle = CongestionOracle(game)
        contract_network(oracle.network)
        assert oracle.ledger.count == 0


class TestBridges:
    def test_diamond_origin_has_no_bridges(self):
        game = diamond()
        assert find_bridges(game.network, 0) == []

    def test_chain_edges_are_origin_bridges(self):
        net = Network((0, 1, 2), {0: (0, 1), 1: (1, 2)}, 0, 2)
        assert find_bridges(net, 0) == [0, 1]

    def test_diamond_with_tail_edge(self):
        net = Network(
            (0, 1, 2, 3),
            {0: (0, 1), 1: (0, 1), 2: (1, 2), 3: (1, 2), 4: (2, 3)},
            0,
            3,
        )
        assert find_bridges(net, 0) == [4]
        assert find_bridges(net, 1) == [4]

    def test_destination_has_none(self):
        game = diamond()
        assert find_bridges(game.network, 2) == []


class TestDisjointPaths:
    def test_diamond_pair(self):
        game = diamond()
        pair = two_edge_disjoint_paths(game.network, 0, 2)
        assert pair is not None
        p, q = pair
        assert not set(p) & set(q)
        game.network.validate_path(p)
        game.network.validate_path(q)

    def test_none_when_bridge_exists(self):
        net = Network((0, 1, 2), {0: (0, 1), 1: (1, 2), 2: (0, 1)}, 0, 2)
        assert two_edge_disjoint_paths(net, 0, 2) is None

    def test_same_vertex_gives_empty_pair(self):
        game = diamond()
        assert two_edge_disjoint_paths(game.network, 1, 1) == ((), ())

    def test_p4_p5_share_exactly_later_bridges(self):
        net = Network(
            (0, 1, 2, 3),
            {0: (0, 1), 1: (0, 1), 2: (1, 2), 3: (1, 2), 4: (2, 3), 5: (2, 3)},
            0,
            3,
        )
        bridges = find_bridges(net, 0)
        assert bridges == []
        # Force a bridge-rich graph: single edges between stages.
        net2 = Network(
            (0, 1, 2, 3),
            {0: (0, 1), 1: (1, 2), 2: (1, 2), 3: (2, 3)},
            0,
            3,
        )
        bridges2 = find_bridges(net2, 0)
        assert bridges2 == [0, 3]
        p4, p5 = two_paths_meeting_at(net2, net2.edges[bridges2[0]][1], bridges2[1:])
        assert set(p4) & set(p5) == {3}

    def test_p1_p3_disjoint_on_random_dags(self):
        for seed in range(20):
            game = gen_random_dag(7, 11, 2, seed)
            net, _ = contract_network(game.network)
            for kv in net.topological_order():
                bridges = find_bridges(net, kv)
                p2 = net.least_path(net.origin, kv)
                for j in range(len(bridges)):
                    p1, p3 = choose_p1_p3(net, kv, bridges, j, p2)
                    assert not set(p1) & set(p3)


class TestLearnOnePlayer:
    def test_diamond_learned_values(self):
        game = diamond(players=1, f_a=1, f_b=1, f_c=0, f_d=0)
        oracle = CongestionOracle(game)
        f = learn_one_player(oracle)
        assert oracle.ledger.count == 4
        assert [f.value(e, 1) for e in range(4)] == [0, 0, 1, 1]
        # Every route still costs exactly 1 under the learned values.
        for path in enumerate_paths(game):
            assert sum(f.value(e, 1) for e in path) == 1

    def test_single_edge_value_pinned(self):
        net = Network((0, 1), {0: (0, 1)}, 0, 1)
        game = CongestionGame(net, 1, {0: [F(7), F(7)]})
        oracle = CongestionOracle(game)
        f = learn_one_player(oracle)
        assert f.value(0, 1) == 7
        assert oracle.ledger.count == 1

    def test_load_one_equivalence_on_random_dags(self):
        for seed in range(50):
            game = gen_random_dag(8, 12, 1, seed)
            net, cmap = contract_network(game.network)
            oracle = CongestionOracle(game)
            view = ContractedOracle(oracle, cmap)
            f = learn_one_player(view)
            reduced, _ = reduced_game(game)
            for path in enumerate_paths(net):
                want = sum(reduced.cost[e][1] for e in path)
                assert sum(f.value(e, 1) for e in path) == want


class TestLearnLevels:
    def test_diamond_two_players_equivalent(self):
        game = diamond(players=2, f_a=1, f_b=1, f_c=0, f_d=0)
        oracle = CongestionOracle(game)
        f = learn_costs(oracle)
        assert oracle.ledger.count == 8  # |E| per level, two levels
        ok, counterexample = check_equivalence(f.as_tables(), game, mode="exhaustive")
        assert ok, counterexample

    def test_single_edge_five_players(self):
        net = Network((0, 1), {0: (0, 1)}, 0, 1)
        game = CongestionGame(net, 5, {0: [F(0), F(1), F(1), F(2), F(3), F(5)]})
        oracle = CongestionOracle(game)
        f = learn_costs(oracle)
        assert oracle.ledger.count == 5
        assert [f.value(0, j) for j in range(1, 6)] == [1, 1, 2, 3, 5]

    def test_parallel_links_as_dag(self):
        game = CongestionGame(
            Network((0, 1), {0: (0, 1), 1: (0, 1), 2: (0, 1)}, 0, 1),
            3,
            {0: [0, 1, 2, 3], 1: [0, 2, 2, 2], 2: [0, 0, 4, 4]},
        )
        oracle = CongestionOracle(game)
        f = learn_costs(oracle)
        # Links are independent, so equivalence forces exact recovery.
        for e in range(3):
            for j in range(1, 4):
                assert f.value(e, j) == game.cost[e][j]

    def test_extension_monotonicity_across_levels(self):
        game = gen_random_dag(6, 9, 3, seed=4)
        net, cmap = contract_network(game.network)
        oracle = CongestionOracle(game)
        view = ContractedOracle(oracle, cmap)
        f = learn_one_player(view)
        snapshots = [_snapshot(f)]
        for level in range(1, game.players):
            learn_level(view, f, level)
            snapshots.append(_snapshot(f))
        for earlier, later in zip(snapshots, snapshots[1:]):
            for e, values in earlier.items():
                for load, v in values.items():
                    assert later[e][load] == v
        # At each checkpoint the defined region is downward-closed: after
        # finishing level i every edge knows exactly loads 1..i+1.
        for depth, snap in enumerate(snapshots, start=1):
            for e in net.edges:
                assert sorted(snap[e]) == list(range(1, depth + 1))

    def test_level_requires_previous_levels(self):
        game = diamond(players=2)
        oracle = CongestionOracle(game)
        f = learn_one_player(oracle)
        with pytest.raises(InvalidSpec):
            learn_level(oracle, f, 2)


class TestQueryAccounting:
    @pytest.mark.parametrize("seed", range(8))
    def test_exactly_edges_times_players(self, seed):
        game = gen_random_dag(6, 10, 3, seed)
        oracle = CongestionOracle(game)
        result = solve_dag_game(oracle)
        edges = len(result.contraction.reduced.edges)
        assert result.queries_used == edges * game.players


class TestSolveLearnedGame:
    def test_one_player_takes_cheapest_route(self):
        game = diamond(players=1, f_a=2, f_b=1, f_c=5, f_d=3)
        oracle = CongestionOracle(game)
        f = learn_costs(oracle)
        profile = solve_learned_game(f, game.network, 1)
        assert profile == {(1, 3): 1}

    def test_diamond_split_is_equilibrium(self):
        game = diamond(players=2, f_a=1, f_b=1, f_c=0, f_d=0)
        oracle = CongestionOracle(game)
        f = learn_costs(oracle)
        profile = solve_learned_game(f, game.network, 2)
        assert deviation_report(game, profile).is_equilibrium

    def test_parallel_links_loads_match_greedy(self):
        from pqlab.games import link_tables
        from pqlab.verify import greedy_parallel_ne

        game = CongestionGame(
            Network((0, 1), {0: (0, 1), 1: (0, 1)}, 0, 1),
            3,
            {0: [0, 1, 2, 3], 1: [0, 2, 2, 2]},
        )
        oracle = CongestionOracle(game)
        f = learn_costs(oracle)
        profile = solve_learned_game(f, game.network, 3)
        loads = tuple(profile.get((i,), 0) for i in range(2))
        assert loads == greedy_parallel_ne(link_tables(game), 3)


def _fraction_best_response(f, net, loads, current_path):
    """The descent's best-response relaxation, in Fractions throughout."""
    on_path = set(current_path)
    weight = {e: f.value(e, load + (e not in on_path)) for e, load in loads.items()}
    togo = {net.destination: F(0)}
    for v in reversed(net.topological_order()):
        for e in net.out_edges[v]:
            cand = weight[e] + togo[net.edges[e][1]]
            if v not in togo or cand < togo[v]:
                togo[v] = cand
    path, v = [], net.origin
    while v != net.destination:
        e = next(
            e for e in net.out_edges[v] if weight[e] + togo[net.edges[e][1]] == togo[v]
        )
        path.append(e)
        v = net.edges[e][1]
    return tuple(path), togo[net.origin]


class TestBestResponse:
    def test_matches_the_fraction_relaxation(self):
        # Steps of 0 or a unit fraction over denominators 1, 2, 3, 6 make many
        # routes cost the same, so the lowest-edge-id tie-break is exercised.
        ties = 0
        for seed in range(8):
            rng = random.Random(seed)
            shape = gen_random_dag(8, 18, 3, seed)
            net, _ = contract_network(shape.network)
            n = shape.players
            tables = {}
            for e in net.edges:
                value, table = F(0), []
                for _ in range(n + 1):
                    value += F(rng.choice((0, 0, 0, 1)), rng.choice((1, 2, 3, 6)))
                    table.append(value)
                tables[e] = table
            f = learn_costs(CongestionOracle(CongestionGame(net, n, tables)))
            paths = enumerate_paths(net)
            for _ in range(30):
                profile = {}
                for _ in range(n):
                    path = rng.choice(paths)
                    profile[path] = profile.get(path, 0) + 1
                loads = edge_loads(net, profile)
                for path in profile:
                    got = dag_learner._best_response(f, net, loads, path)
                    assert got == _fraction_best_response(f, net, loads, path)
                    assert type(got[1]) is Fraction
                    # The least cheapest path, found by pricing every path.
                    priced = sorted(
                        (sum(f.value(e, loads[e] + (e not in path)) for e in p), p)
                        for p in paths
                    )
                    assert got == (priced[0][1], priced[0][0])
                    ties += priced[0][0] == priced[1][0]
        assert ties > 100


class TestEndToEnd:
    @pytest.mark.parametrize("seed", range(10))
    def test_solve_dag_game_full_pipeline(self, seed):
        game = gen_random_dag(7, 10, 3, seed, subdivide=1)
        oracle = CongestionOracle(game)
        result = solve_dag_game(oracle)
        assert deviation_report(game, result.profile).is_equilibrium
        ok, counterexample = check_equivalence(result.learned.as_tables(), game)
        assert ok, counterexample

    def test_original_and_reduced_games_give_one_verdict(self):
        # The learned tables are keyed by surviving edges; on the original
        # game a contracted edge costs 0 and its absorber carries it, which
        # is how the reduced game prices the same paths.
        contracted = 0
        for seed in range(24):
            rng = random.Random(seed)
            game = gen_random_dag(6, 9, rng.randint(1, 3), seed, subdivide=seed % 3)
            f, cmap = learn_dag_game(CongestionOracle(game))
            reduced, _ = reduced_game(game)
            contracted += bool(cmap.steps)
            tables = {e: list(t) for e, t in f.as_tables().items()}
            assert check_equivalence(tables, game) == (True, None)
            assert check_equivalence(tables, reduced) == (True, None)
            e = rng.choice(sorted(tables))
            tables[e][rng.randint(1, game.players)] += 1
            ok, counterexample = check_equivalence(tables, game)
            assert not ok and not check_equivalence(tables, reduced)[0]
            game.network.validate_path(counterexample["path"])
            assert counterexample["got"] == counterexample["want"] + 1
        assert contracted >= 12


class TestBridgeGeometry:
    """Hand-built graphs hitting the delicate path-kit cases."""

    def test_adjacent_bridges_at_interior_vertex(self):
        # Paths: 0-2-3-4 (two parallel first hops) and 0-1-3-4 (two parallel
        # hops into 1); for kv=2 the edges (2,3) and (3,4) are adjacent
        # bridges that are not dependent.
        net = Network(
            (0, 1, 2, 3, 4),
            {
                0: (0, 2),
                1: (0, 2),
                2: (0, 1),
                3: (1, 3),
                4: (2, 3),
                5: (3, 4),
                6: (0, 1),
            },
            0,
            4,
        )
        assert find_dependent_pair(net) is None
        assert find_bridges(net, 2) == [4, 5]
        game = CongestionGame(
            net, 3, {e: [F(e), F(e + 1), F(e + 1), F(e + 3)] for e in net.edges}
        )
        oracle = CongestionOracle(game)
        f = learn_costs(oracle)
        assert oracle.ledger.count == 7 * 3
        ok, counterexample = check_equivalence(f.as_tables(), game)
        assert ok, counterexample

    def test_sole_in_edge_vertex_with_downstream_bridge(self):
        # Vertex 1 has a single in-edge; its bridge (2,3) is reached both
        # through 1 and around it, so the bridge query must route around.
        net = Network(
            (0, 1, 2, 3),
            {0: (0, 1), 1: (1, 2), 2: (1, 2), 3: (2, 3), 4: (0, 2)},
            0,
            3,
        )
        assert find_dependent_pair(net) is None
        assert find_bridges(net, 1) == [3]
        game = CongestionGame(
            net, 4, {e: [F(2 * e)] * 5 for e in net.edges}
        )
        oracle = CongestionOracle(game)
        f = learn_costs(oracle)
        assert oracle.ledger.count == 5 * 4
        ok, counterexample = check_equivalence(f.as_tables(), game)
        assert ok, counterexample

    def test_bridge_between_two_diamonds(self):
        # diamond -> mandatory middle edge -> diamond; the middle edge is a
        # kv-bridge for every kv before it.
        net = Network(
            (0, 1, 2, 3),
            {0: (0, 1), 1: (0, 1), 2: (1, 2), 3: (2, 3), 4: (2, 3)},
            0,
            3,
        )
        game = CongestionGame(
            net, 3, {e: [F(e + 1)] * 4 for e in net.edges}
        )
        oracle = CongestionOracle(game)
        result = solve_dag_game(oracle)
        assert deviation_report(game, result.profile).is_equilibrium
        assert result.queries_used == 5 * 3


# sha256 of the query transcript (QueryLedger.dump_jsonl) and of the sorted
# equilibrium profile of solve_dag_game, per gen_random_dag(v, e, n, seed,
# subdivide).  Recorded from the learner that planned every level afresh and
# recomputed the whole potential after each move; the level plan and the
# incremental potential must reproduce them exactly.
PINNED = {
    (6, 10, 3, 0, 0): (
        "ec1ca26a0ef940d1ccc14983cb0201a8907323e743728bd4c97032d8b4d1ab77",
        "521abb6f745d1800c7859fab71098a40a1f8be414673bddfb5b38456c4b19533",
    ),
    (6, 10, 3, 1, 0): (
        "e71dcfecdb8e3232837aa39c269a7b74a112355bcf6356beeef00f8f3ef1e17f",
        "5e761c727002bbdbd4954b492625a2b2b47d9ab408e61f86addc0efc50e9aff1",
    ),
    (6, 10, 3, 2, 0): (
        "e2c48abddb5becead8976d2efda21caf34ff29c22bb391c826c5865337bc69b9",
        "5421cb63d82539c159d1d14d2eaec4a14dadac4315b0ac9978521e407d68e178",
    ),
    (6, 10, 3, 3, 0): (
        "98dceb2b561f8db6ae2f30195db3218a0a0d435b44e0421a6c5e434a551b7fe3",
        "e63a99890cd551c0f664ea35608df233ef386f8782ea7563254d23ba3d5fe879",
    ),
    (6, 10, 3, 4, 0): (
        "6915cce4962bd50d30ec9d1aa26027e21b75118c10af0f7a7f5a06f5348f6686",
        "624bef26bd0c5cb2e94f2e2e58e24925114be76b3f02e401e3e97d421ec85c93",
    ),
    (6, 10, 3, 5, 0): (
        "c742ec7d91a78f779fb6eb166a64a398c0bd51546a1af4ce87c15eca31bf710c",
        "69d5f69081cbe4074e371957443eff8215b1de6cce75abca294bf9cab5e29789",
    ),
    (6, 10, 3, 6, 0): (
        "50510e6e1400add5d8d725f83cb77311441d71c3a16211533d896e65e4e682f6",
        "b7e7fafdab84a48a5880504e114114b3ac5b4a2d6fbe73d919963ce53684248e",
    ),
    (6, 10, 3, 7, 0): (
        "91b4b003da4b3bca37106cad98cfdb434870b71b52338bc9fd3689ababe0f717",
        "0ee78e355c3ac9529bf45f1f57e4f1e64f4deab30b1960854207c03541063362",
    ),
    (7, 12, 60, 0, 2): (
        "7e0b006dfe0f6a8926679a430af374d663ef2cac1e23278e8f01253e33938983",
        "c3c8c0036785eb38b970ea64422472a5ae82cde72bd384d8a8b4caff9cf76ba9",
    ),
}


def transcript(oracle) -> str:
    buf = io.StringIO()
    oracle.ledger.dump_jsonl(buf)
    return buf.getvalue()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestLevelPlanAndDescent:
    @pytest.mark.parametrize("cell", sorted(PINNED))
    def test_transcript_and_equilibrium_pinned(self, cell):
        v, e, n, seed, subdivide = cell
        oracle = CongestionOracle(gen_random_dag(v, e, n, seed, subdivide=subdivide))
        result = solve_dag_game(oracle)
        profile = repr(sorted(result.profile.items()))
        assert (sha256(transcript(oracle)), sha256(profile)) == PINNED[cell]

    def test_plan_targets_every_edge_once(self):
        for seed in range(20):
            net, _ = contract_network(gen_random_dag(7, 12, 2, seed).network)
            plan = dag_learner._plan_level(net)
            assert len(plan) == len(net.edges)
            assert sorted(target for target, *_ in plan) == sorted(net.edges)
            for target, one_path, many_path, *_ in plan:
                assert target in one_path
                net.validate_path(one_path)
                net.validate_path(many_path)

    @pytest.mark.parametrize(
        "helper, corrupt, error, message",
        [
            ("two_paths_meeting_at", lambda pa, pb: (pa, pb[1:]),
             AlgorithmInvariantViolated, "not on the many path"),
            ("two_paths_meeting_at", lambda pa, pb: (pa, pa),
             AlgorithmInvariantViolated, "load pattern broken"),
            ("choose_p1_p3", lambda p1, p3: (p1, p1),
             PathSelectionFailed, "bad path kit"),
        ],
        ids=["target-off-many-path", "bridge-pattern", "shared-edge-unlearned"],
    )
    def test_bad_kit_fails_before_any_level_query(
        self, monkeypatch, helper, corrupt, error, message
    ):
        # Two links into vertex 1, the bridge 2, then two links on.  The
        # plan's first entry is the bridge query, whose kit is corrupted.
        real = getattr(dag_learner, helper)
        monkeypatch.setattr(dag_learner, helper, lambda *args: corrupt(*real(*args)))
        net = Network(
            (0, 1, 2, 3),
            {0: (0, 1), 1: (0, 1), 2: (1, 2), 3: (2, 3), 4: (2, 3)},
            0,
            3,
        )
        game = CongestionGame(net, 3, {e: [e, e + 1, e + 2, e + 3] for e in net.edges})
        oracle = CongestionOracle(game)
        with pytest.raises(error, match=message):
            learn_costs(oracle)
        assert oracle.ledger.count == len(net.edges)

    def test_plan_builds_bridges_once_per_vertex(self, monkeypatch):
        calls = []
        real = dag_learner.find_bridges
        monkeypatch.setattr(
            dag_learner,
            "find_bridges",
            lambda net, kv: calls.append(kv) or real(net, kv),
        )
        game = gen_random_dag(7, 12, 4, seed=3)
        result = solve_dag_game(CongestionOracle(game))
        assert sorted(calls) == sorted(result.contraction.reduced.vertices)

    @pytest.mark.parametrize("seed", range(6))
    def test_learn_costs_matches_level_by_level(self, seed):
        game = gen_random_dag(6, 10, 4, seed, subdivide=1)
        net, cmap = contract_network(game.network)
        whole = CongestionOracle(game)
        f_whole = learn_costs(ContractedOracle(whole, cmap))
        # A fresh copy of the network, so nothing built for the first run
        # is reused by the second.
        copy = gen_random_dag(6, 10, 4, seed, subdivide=1)
        net2, cmap2 = contract_network(copy.network)
        steps = CongestionOracle(game)
        view = ContractedOracle(steps, cmap2)
        f_steps = learn_one_player(view)
        for level in range(1, game.players):
            learn_level(view, f_steps, level)
        assert _snapshot(f_steps) == _snapshot(f_whole)
        assert transcript(steps) == transcript(whole)

    def test_level_cannot_be_learned_twice(self):
        game = diamond(players=3)
        oracle = CongestionOracle(game)
        f = learn_one_player(oracle)
        learn_level(oracle, f, 1)
        before = oracle.ledger.count
        with pytest.raises(AlgorithmInvariantViolated):
            learn_level(oracle, f, 1)
        assert oracle.ledger.count == before

    def test_under_reported_best_response_is_caught(self, monkeypatch):
        # Both players start on link 0 (cost 3); link 1 (cost 2) is a real
        # improvement, so the first move happens and its saving is checked.
        game = CongestionGame(
            Network((0, 1), {0: (0, 1), 1: (0, 1)}, 0, 1),
            2,
            {0: [0, 1, 3], 1: [0, 2, 2]},
        )
        f = learn_costs(CongestionOracle(game))
        assert solve_learned_game(f, game.network, 2) == {(0,): 1, (1,): 1}
        real = dag_learner._best_response

        def under_reported(*args):
            path, cost = real(*args)
            return path, cost - Fraction(1, 2)

        monkeypatch.setattr(dag_learner, "_best_response", under_reported)
        with pytest.raises(PotentialNotDecreasing):
            solve_learned_game(f, game.network, game.players)

    def test_learn_costs_rejects_dependent_pair(self):
        game = chain_game(2)
        oracle = CongestionOracle(game)
        with pytest.raises(InvalidSpec):
            learn_costs(oracle)
        assert oracle.ledger.count == 0

    @pytest.mark.parametrize("subdivide", [0, 3])
    def test_must_use_pass_runs_once_per_network(self, monkeypatch, subdivide):
        # Contraction, the learner's dependent-pair check and every bridge
        # lookup share one pass per network: the original and, if anything
        # contracted, the reduced one.
        swept = []
        real = dag_learner._must_use
        monkeypatch.setattr(
            dag_learner, "_must_use", lambda net: swept.append(net) or real(net)
        )
        game = gen_random_dag(6, 9, 2, seed=4, subdivide=subdivide)
        cmap = solve_dag_game(CongestionOracle(game)).contraction
        assert bool(cmap.steps) == bool(subdivide)
        networks = [cmap.original] + ([cmap.reduced] if cmap.steps else [])
        assert len(swept) == len(networks)
        assert all(a is b for a, b in zip(swept, networks))


class TestTopologicalOrderOnce:
    @pytest.mark.parametrize("subdivide", [0, 3])
    def test_order_worked_out_once_per_network(self, monkeypatch, subdivide):
        # Every network sorts its vertices when it is built; learning, the
        # descent and the deviation check only read the stored order.
        ordered = []
        real = Network._kahn
        monkeypatch.setattr(
            Network, "_kahn", lambda net: ordered.append(net) or real(net)
        )
        game = gen_random_dag(6, 9, 2, seed=4, subdivide=subdivide)
        result = solve_dag_game(CongestionOracle(game))
        assert deviation_report(game, result.profile).is_equilibrium
        cmap = result.contraction
        assert bool(cmap.steps) == bool(subdivide)
        assert len({id(net) for net in ordered}) == len(ordered)
        assert any(net is cmap.original for net in ordered)
        assert any(net is cmap.reduced for net in ordered)


class TestContractionMapping:
    def test_mapping_is_remembered_and_unchanged(self):
        game = gen_random_dag(7, 12, 2, seed=0, subdivide=2)
        reduced, cmap = contract_network(game.network)
        fresh = contract_network(game.network)[1]
        for path in enumerate_paths(reduced):
            first = cmap.map_path_back(path)
            assert cmap.map_path_back(path) is first
            assert fresh.map_path_back(path) == first
            game.network.validate_path(first)

    def test_invalid_path_raises_every_time(self):
        game = gen_random_dag(7, 12, 2, seed=0, subdivide=2)
        reduced, cmap = contract_network(game.network)
        bad = enumerate_paths(reduced)[0][:-1]
        for _ in range(2):
            with pytest.raises((InvalidProfile, AlgorithmInvariantViolated)):
                cmap.map_path_back(bad)


class TestOneValidationPerQuery:
    def test_each_queried_path_is_validated_once(self, monkeypatch):
        # The oracle validates each path it is asked about; the contracted
        # view validates each distinct reduced path once, on first mapping;
        # descent validates its starting profile.  Nothing else validates.
        calls = []
        real = Network.validate_path
        monkeypatch.setattr(
            Network, "validate_path", lambda net, path: calls.append(path) or real(net, path)
        )
        game = gen_random_dag(6, 9, 3, seed=0, subdivide=3)
        oracle = CongestionOracle(game)
        result = solve_dag_game(oracle)
        assert result.contraction.steps
        queried = [tuple(p) for query, _ in oracle.ledger.entries() for p, _ in query["loads"]]
        first_mappings = set(queried) | set(result.profile)
        assert len(calls) == len(queried) + len(first_mappings) + 1

    @pytest.mark.parametrize("bad", ["unknown edge", "stops early", "removed edge"])
    def test_contracted_view_rejects_bad_paths_uncharged(self, bad):
        game = gen_random_dag(7, 12, 3, 0, subdivide=2)
        oracle = CongestionOracle(game)
        reduced, cmap = contract_network(game.network)
        assert cmap.steps
        good = enumerate_paths(reduced)[0]
        path = {
            "unknown edge": good + (max(game.edges) + 1,),
            "stops early": good[:-1],
            "removed edge": (cmap.steps[0].removed,),
        }[bad]
        view = ContractedOracle(oracle, cmap)
        for _ in range(2):
            with pytest.raises(InvalidProfile):
                view.query_loads({good: 1, path: 1})
        assert oracle.ledger.count == 0
        view.query_loads({good: 1})
        assert oracle.ledger.count == 1

    def test_contracted_view_refuses_untyped_queries_uncharged(self):
        game = gen_random_dag(6, 9, 2, 0, subdivide=2)
        oracle = CongestionOracle(game)
        reduced, cmap = contract_network(game.network)
        assert cmap.steps
        good = enumerate_paths(reduced)[0]
        view = ContractedOracle(oracle, cmap)
        for junk in ({5: 1}, {good: 1, 5: 1}, {frozenset(good): 1}, [(good, 1)]):
            with pytest.raises(InvalidProfile):
                view.query_loads(junk)
        assert oracle.ledger.count == 0
        assert list(view.query_loads({good: 1})) == [good]
        assert oracle.ledger.count == 1


# Per gen_random_dag(7, 12, 3, seed, subdivide) as (seed, subdivide): the
# first 16 hex digits of the sha256 of the reduced network's repr((vertices,
# sorted edges, origin, destination)), and the JSON text of the CLI's
# contracted_edges, whose key order follows the contraction steps.
# Recorded from the contraction that searched for one dependent pair at a
# time and rebuilt the network after each.
CONTRACTION_PINNED = {
    (0, 1): ("4a1a8b22dcf21223", '{"0": [3], "11": [12]}'),
    (1, 1): ("efd267f17cae7d9c", '{"1": [9]}'),
    (2, 1): ("f299b08ac7cc34a3", '{"0": [5]}'),
    (3, 1): ("7f9b05679f19e24e", '{"8": [11]}'),
    (4, 1): ("dcc5e8361b1e6d3d", '{"0": [11]}'),
    (5, 1): ("23b4d278e75dde66", '{"7": [12]}'),
    (6, 1): ("0c2dd2e9b29ef15c", '{"4": [12], "9": [8]}'),
    (7, 1): ("139a056b59f052d3", '{"3": [12]}'),
    (8, 1): ("82c2c1b0b80b0de9", '{"6": [7]}'),
    (9, 1): ("0a62e0c3a88272cd", '{"5": [12], "6": [7]}'),
    (10, 1): ("d83c94f7ff3532d5", '{"9": [12]}'),
    (11, 1): ("269be46a368966a0", '{"0": [1], "2": [12]}'),
    (0, 2): ("bc90ee0ffca54eff", '{"0": [3], "2": [13], "11": [12]}'),
    (1, 2): ("ecf63a809f808ff2", '{"0": [10], "1": [9]}'),
    (2, 2): ("97bf54b55c68c697", '{"0": [5], "4": [6]}'),
    (3, 2): ("012f83448af3e670", '{"5": [12], "8": [11]}'),
    (4, 2): ("bde1bfd7c7d9ba87", '{"0": [11], "1": [12]}'),
    (5, 2): ("74004d709aea9c1e", '{"3": [13], "7": [12]}'),
    (6, 2): ("6bf3c260881a94e3", '{"4": [12], "7": [13], "9": [8]}'),
    (7, 2): ("699b0dceccc86e1d", '{"0": [13], "3": [12]}'),
    (8, 2): ("82c2c1b0b80b0de9", '{"0": [8], "6": [7]}'),
    (9, 2): ("1863952a35425aac", '{"5": [12], "6": [7], "8": [13]}'),
    (10, 2): ("0f871a81433e4979", '{"8": [13], "9": [12]}'),
    (11, 2): ("1a6ca488eb65606c", '{"0": [1, 13], "2": [12]}'),
    (0, 3): ("6779ea6c61d1d5da", '{"0": [3], "2": [13], "9": [14], "11": [12]}'),
    (1, 3): ("be5fb087094ddf64", '{"0": [10], "1": [9], "8": [11]}'),
    (2, 3): ("97bf54b55c68c697", '{"0": [5], "4": [6]}'),
    (3, 3): ("012f83448af3e670", '{"3": [13], "5": [12], "8": [11]}'),
    (4, 3): ("0fb5f2dc0ae57a68", '{"0": [11], "1": [12], "6": [13]}'),
    (5, 3): ("4472143627e28b6e", '{"3": [13], "6": [14], "7": [12]}'),
    (6, 3): ("6bf3c260881a94e3", '{"3": [14], "4": [12], "7": [13], "9": [8]}'),
    (7, 3): ("8eaed76a5a2b4c6c", '{"0": [13], "1": [14], "3": [12]}'),
    (8, 3): ("1a3839164eef71ec", '{"0": [8], "1": [9], "6": [7]}'),
    (9, 3): ("6b4babbff711a61f", '{"0": [14], "5": [12], "6": [7], "8": [13]}'),
    (10, 3): ("8f18706d21b9a02a", '{"5": [14], "8": [13], "9": [12]}'),
    (11, 3): ("86e3acf80efbcfac", '{"0": [1, 13], "2": [12], "3": [14]}'),
}


class TestContractionPinned:
    @pytest.mark.parametrize("cell", sorted(CONTRACTION_PINNED))
    def test_reduced_network_and_absorbed_order(self, cell):
        seed, subdivide = cell
        net = gen_random_dag(7, 12, 3, seed, subdivide=subdivide).network
        reduced, cmap = contract_network(net)
        text = repr(
            (reduced.vertices, sorted(reduced.edges.items()),
             reduced.origin, reduced.destination)
        )
        absorbed = json.dumps({str(e): list(ids) for e, ids in cmap.absorbed.items()})
        assert (sha256(text)[:16], absorbed) == CONTRACTION_PINNED[cell]


def _primes():
    n = 1
    while True:
        n += 1
        if all(n % k for k in range(2, math.isqrt(n) + 1)):
            yield n


def prime_step_game(shape):
    """shape's network and players, with tables that start at 0 and step by
    1/p, p the next prime along the edges in id order: every entry has its
    own denominator, so the learner's sums take the lcm branch."""
    primes = _primes()
    tables = {}
    for e in sorted(shape.network.edges):
        table = [F(0)]
        for _ in range(shape.players):
            table.append(table[-1] + F(1, next(primes)))
        tables[e] = table
    return CongestionGame(shape.network, shape.players, tables)


# (vertices, edges, players, seed, subdivide) -> sha256 of
# repr(sorted(as_tables().items())) of the function learn_dag_game learns on
# prime_step_game(gen_random_dag(...)).  Recorded when the learner added
# its values as Fractions.
PRIME_PINNED = {
    (6, 10, 3, 0, 0): "31bb2a99cc508e05c1419a4b550c776a9772bc0f6d08c3f223bc2553a2a2e39f",
    (6, 10, 3, 1, 1): "c3f7f36c65c0ca903523a6c83e89e1766926435dc3834f72401c19c0aa0afcf5",
    (6, 10, 3, 2, 2): "1e6d3b94844e4786e08fc816df4e7972db2d5488625a96d5de843c50a9174ef2",
    (6, 10, 3, 3, 0): "69dd8cf85ad74b27aeeb739b63109dbc0a56d2caf09e10700bdffa53f56639b3",
    (6, 10, 3, 4, 1): "c25f5a36cbac74d58a38471c7106929a64241ce8ae9d9b7b27ac906def8a51f1",
    (6, 10, 3, 5, 2): "36cb6dab4bd3c84df9eae556a247d67b8cbd199214fa5b6bb0d15de6ebd19d85",
    (5, 8, 6, 0, 0): "4780dc9462164242e7ec4b327d84927d375eadaac4562ea47780b10cce5282fc",
    (5, 8, 6, 1, 0): "29cfc014aa7b216cc64a15460376177a5ba4ffaea5c37b0354ffb34bea674e45",
    (5, 8, 6, 2, 0): "47accd3085495d903537446112fc31ecde50c7c57eb1b2bc75e64a0244fa72f0",
}


class TestPairArithmetic:
    @pytest.mark.parametrize("cell", sorted(PRIME_PINNED))
    def test_prime_denominator_values_pinned(self, cell):
        v, e, n, seed, subdivide = cell
        game = prime_step_game(gen_random_dag(v, e, n, seed, subdivide=subdivide))
        oracle = CongestionOracle(game)
        f, _ = learn_dag_game(oracle)
        tables = f.as_tables()
        assert sha256(repr(sorted(tables.items()))) == PRIME_PINNED[cell]
        assert max(x.denominator for t in tables.values() for x in t) > 10**8
        # Each stored pair is normalised and is its table entry, at every load.
        pairs = {
            (edge, load): pair
            for load, at in f._pairs.items()
            for edge, pair in at.items()
        }
        for (edge, load), (num, den) in pairs.items():
            assert den > 0 and math.gcd(num, den) == 1
            assert F(num, den) == tables[edge][load]
        assert len(pairs) == n * len(tables)

    @pytest.mark.parametrize("seed, edge", [(0, 1), (2, 2), (3, 1), (4, 6), (5, 1)])
    def test_level_on_nothing_learned_names_the_edge_uncharged(self, seed, edge):
        # The first plan entry reads load-1 values that were never learned.
        game = gen_random_dag(6, 10, 3, seed)
        reduced, cmap = contract_network(game.network)
        oracle = CongestionOracle(game)
        view = ContractedOracle(oracle, cmap) if cmap.steps else oracle
        message = f"^edge {edge} has no learned value at load 1$"
        with pytest.raises(AlgorithmInvariantViolated, match=message):
            learn_level(view, PartialCostFunction(reduced.edges, 3), 1)
        assert oracle.ledger.count == 0

    def test_a_missing_value_is_refused_and_stores_nothing(self):
        # A refused read must not add a load to the store, or a total
        # function would stop reading as total.
        f = learn_costs(CongestionOracle(diamond(players=2)))
        for load in (0, 3):
            message = f"^edge 0 has no learned value at load {load}$"
            with pytest.raises(AlgorithmInvariantViolated, match=message):
                f.value(0, load)
        assert sorted(f._pairs) == [1, 2]
        assert f.is_total()

    def test_descent_refuses_a_partial_function(self):
        game = diamond(players=2)
        f = learn_one_player(CongestionOracle(game))
        with pytest.raises(AlgorithmInvariantViolated, match="not total"):
            solve_learned_game(f, game.network, game.players)
