"""The independent ground-truth oracles themselves."""

import ast
import itertools
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from pqlab import (
    CongestionGame,
    CongestionOracle,
    GraphicalGame,
    InvalidProfile,
    InvalidSpec,
    MixedProfile,
    Network,
    PurePayoffOracle,
    TooLarge,
    learn_graphical,
    parallel_links_game,
    regret,
    solve_dag_game,
)
import pqlab.verify
from pqlab.games import edge_loads, enumerate_paths, link_tables, validate_profile
from pqlab.instances import (
    gen_matching_pennies,
    gen_random_bimatrix,
    gen_random_dag,
    gen_random_graphical,
    gen_random_step_links,
)
from pqlab.verify import (
    DeviationReport,
    all_profiles,
    brute_force_pure_ne,
    check_equivalence,
    check_equivalence_cap,
    deviation_report,
    exact_ne_2x2,
    graphical_equivalence,
    greedy_parallel_ne,
    is_delta_equilibrium,
    path_count,
)
from tests.test_games import bimatrix, diamond

F = Fraction


class TestBruteForce:
    def test_two_link_step_instance(self):
        game = parallel_links_game([[1, 1, 1, 1, 1], [0, 0, 0, 2, 2]], 4)
        nes = brute_force_pure_ne(game)
        assert nes
        for profile in nes:
            loads = [profile.get(((0,)), 0), profile.get(((1,)), 0)]
            assert loads == [2, 2]

    def test_single_path_trivially_ne(self):
        from pqlab.games import CongestionGame, Network

        net = Network((0, 1), {0: (0, 1)}, 0, 1)
        game = CongestionGame(net, 2, {0: [0, 1, 5]})
        nes = brute_force_pure_ne(game)
        assert nes == [{(0,): 2}]

    def test_diamond_symmetry_of_ne_set(self):
        game = diamond(players=2, f_a=1, f_b=1, f_c=1, f_d=1)
        nes = brute_force_pure_ne(game)
        assert nes
        swap = {0: 1, 1: 0, 2: 3, 3: 2}
        as_sets = {
            tuple(sorted((tuple(swap[e] for e in p), c) for p, c in ne.items()))
            for ne in nes
        }
        assert as_sets == {
            tuple(sorted((p, c) for p, c in ne.items())) for ne in nes
        }

    def test_existence_on_random_instances(self):
        for seed in range(15):
            game = gen_random_dag(5, 7, 2, seed)
            assert brute_force_pure_ne(game)

    def test_cap_guard(self, monkeypatch):
        game = diamond(players=3)
        monkeypatch.setenv("PQLAB_CAP", "10")
        with pytest.raises(TooLarge):
            brute_force_pure_ne(game)

    @pytest.mark.parametrize("seed", range(4))
    def test_cap_counts_anonymous_profiles_exactly(self, monkeypatch, seed):
        game = gen_random_dag(5, 8, 3, seed)
        paths = len(enumerate_paths(game))
        count = math.comb(paths + game.players - 1, game.players)
        monkeypatch.setenv("PQLAB_CAP", str(count))
        assert len(list(all_profiles(game))) == count
        monkeypatch.setenv("PQLAB_CAP", str(count - 1))
        with pytest.raises(TooLarge):
            all_profiles(game)

    def test_default_cap_admits_a_quarter_million_profiles(self):
        from pqlab.cli import make_game

        # 48 paths and 4 players: 48^4 = 5,308,416 ordered profiles but
        # only C(51, 4) = 249,900 anonymous ones, under the default 10^6.
        game = make_game("random-dag:v=10,e=24,n=4,seed=1")
        assert len(enumerate_paths(game)) == 48
        assert len(list(all_profiles(game))) == 249_900


class TestGreedy:
    def test_step_instance_from_adversary_family(self):
        from pqlab.oracles import step_link_game

        game = step_link_game(16, 5)
        assert greedy_parallel_ne(link_tables(game), 16) == (5, 11)

    def test_all_zero_costs_spread_by_tie_rule(self):
        tables = [[F(0)] * 4 for _ in range(3)]
        assert greedy_parallel_ne(tables, 3) == (1, 1, 1)

    def test_greedy_always_passes_delta_one_check(self):
        from pqlab.instances import gen_random_step_links

        for seed in range(40):
            game = gen_random_step_links(4, 9, seed)
            tables = link_tables(game)
            loads = greedy_parallel_ne(tables, 9)
            assert is_delta_equilibrium(tables, loads, 1, 0)

    def test_greedy_output_in_brute_force_ne_set(self):
        from pqlab.instances import gen_random_step_links

        for seed in range(10):
            game = gen_random_step_links(3, 4, seed)
            tables = link_tables(game)
            greedy = greedy_parallel_ne(tables, 4)
            ne_loads = {
                tuple(ne.get((i,), 0) for i in range(3))
                for ne in brute_force_pure_ne(game)
            }
            assert greedy in ne_loads


class TestCheckEquivalence:
    def test_diamond_alternative_tables_equivalent(self):
        game = diamond(players=1, f_a=1, f_b=1, f_c=0, f_d=0)
        other = {0: [F(0)] * 2, 1: [F(0)] * 2, 2: [F(1)] * 2, 3: [F(1)] * 2}
        ok, counterexample = check_equivalence(other, game)
        assert ok and counterexample is None

    def test_reflexive(self):
        game = gen_random_dag(5, 7, 2, seed=3)
        ok, _ = check_equivalence(game.cost, game)
        assert ok

    def test_mutation_detected(self):
        game = diamond(players=2, f_a=1, f_b=1, f_c=0, f_d=0)
        mutated = {e: list(t) for e, t in game.cost.items()}
        mutated[2][1] += 1
        ok, counterexample = check_equivalence(mutated, game)
        assert not ok
        assert counterexample is not None and 2 in counterexample["path"]

    def test_an_edge_missing_from_the_learned_tables_costs_zero(self):
        # Edge 1 of the chain always shares its load with edge 0, so edge 0
        # may carry both costs, as it does once edge 1 is contracted.
        game = CongestionGame(
            Network((0, 1, 2), {0: (0, 1), 1: (1, 2)}, 0, 2),
            2,
            {0: [F(1), F(1), F(2)], 1: [F(0), F(2), F(5)]},
        )
        ok, counterexample = check_equivalence({0: [F(1), F(3), F(7)]}, game)
        assert ok and counterexample is None
        ok, counterexample = check_equivalence({0: game.cost[0]}, game)
        assert not ok
        assert counterexample["got"] == counterexample["want"] - game.cost[1][2]

    @pytest.mark.parametrize("key", [4, -1, "0"])
    def test_a_learned_edge_the_game_lacks_is_invalid(self, key):
        game = diamond(players=1)
        learned = {**game.cost, key: [F(0), F(0)]}
        for mode in ("exhaustive", "sampled"):
            with pytest.raises(InvalidSpec, match="edges the game lacks"):
                check_equivalence(learned, game, mode=mode)

    @pytest.mark.parametrize(
        "bad",
        [lambda t: t[:2], lambda t: None, lambda t: [*t, t[-1]], lambda t: []],
        ids=["cut-to-2", "none", "one-extra", "empty"],
    )
    def test_a_learned_table_of_the_wrong_length_is_invalid(self, monkeypatch, bad):
        def listed(game):
            raise AssertionError("a path was listed before the tables were checked")

        monkeypatch.setattr(pqlab.verify, "enumerate_paths", listed)
        game = diamond(players=3)
        learned = {**game.cost, 2: bad(list(game.cost[2]))}
        message = "edge 2: the learned table needs loads 0..3$"
        for mode in ("exhaustive", "sampled"):
            with pytest.raises(InvalidSpec, match=message):
                check_equivalence(learned, game, mode=mode)

    def test_sampled_mode(self):
        game = gen_random_dag(6, 9, 3, seed=5)
        ok, _ = check_equivalence(game.cost, game, mode="sampled")
        assert ok

    def test_sampled_mode_draws_every_player(self):
        # The tables differ only at load n = 2, which only profiles of both
        # players can reach.
        game = parallel_links_game([[0, 1, 2], [0, 3, 4]], 2)
        mutated = {e: list(t) for e, t in game.cost.items()}
        mutated[0][2] += 1
        ok, counterexample = check_equivalence(mutated, game, mode="sampled")
        assert not ok
        assert counterexample["profile"] == {(0,): 2}


# 2,575,285,748 o-d paths: listing them runs out of memory, so the cap
# must be checked on a count.
HUGE_DAG = "random-dag:v=120,e=400,n=2,seed=0"


@pytest.mark.parametrize("seed", range(12))
def test_path_count_matches_enumeration(seed):
    rng = random.Random(seed)
    vertices = rng.randint(3, 9)
    game = gen_random_dag(vertices, rng.randint(vertices, 3 * vertices - 3), 2, seed)
    assert path_count(game) == len(enumerate_paths(game))


@pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
def test_cap_is_checked_before_any_path_is_listed(mode):
    from pqlab.cli import make_game

    game = make_game(HUGE_DAG)
    assert path_count(game) == 2_575_285_748
    with pytest.raises(TooLarge, match="2575285748 paths"):
        check_equivalence(game.cost, game, mode=mode)


def test_sampled_mode_cap_counts_paths(monkeypatch):
    game = gen_random_dag(6, 9, 3, seed=5)
    paths = len(enumerate_paths(game))
    monkeypatch.setenv("PQLAB_CAP", str(paths))
    assert check_equivalence(game.cost, game, mode="sampled")[0]
    monkeypatch.setenv("PQLAB_CAP", str(paths - 1))
    with pytest.raises(TooLarge, match=f"{paths} paths exceed the cap of {paths - 1}"):
        check_equivalence(game.cost, game, mode="sampled")


@pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
def test_the_cap_helper_refuses_what_check_equivalence_refuses(monkeypatch, mode):
    # One DAG with 3 players: exhaustive mode counts C(P + 2, 3) profiles,
    # sampled mode counts P paths; either cap is checked without the tables.
    game = gen_random_dag(6, 9, 3, seed=5)
    paths = len(enumerate_paths(game))
    limit = math.comb(paths + 2, 3) if mode == "exhaustive" else paths
    monkeypatch.setenv("PQLAB_CAP", str(limit))
    check_equivalence_cap(game, mode)
    assert check_equivalence(game.cost, game, mode=mode)[0]
    monkeypatch.setenv("PQLAB_CAP", str(limit - 1))
    with pytest.raises(TooLarge, match=f"exceed the cap of {limit - 1}"):
        check_equivalence_cap(game, mode)
    with pytest.raises(TooLarge, match=f"exceed the cap of {limit - 1}"):
        check_equivalence(game.cost, game, mode=mode)


def test_an_unknown_mode_is_invalid_before_anything_is_listed():
    game = diamond(players=1)
    with pytest.raises(InvalidSpec, match="unknown mode"):
        check_equivalence_cap(game, "random")
    with pytest.raises(InvalidSpec, match="unknown mode"):
        check_equivalence(game.cost, game, mode="random")


def with_ignored_neighbor(game, p, q):
    """game, with q listed as an in-neighbor of p whose strategy p's
    payoff ignores: every entry is repeated over q's strategies."""
    nbrs = list(game.in_neighbors)
    nbrs[p] = tuple(sorted({*nbrs[p], q}))
    at = nbrs[p].index(q)
    tables = list(game.payoff_tables)
    tables[p] = {
        (own, ctx[:at] + (s,) + ctx[at:]): v
        for (own, ctx), v in game.payoff_tables[p].items()
        for s in range(game.strategies)
    }
    return GraphicalGame(game.players, game.strategies, tuple(nbrs), tuple(tables))


def with_changed_entry(game, p, key):
    """game, with player p's payoff at table key (own, ctx) moved off its value."""
    tables = list(game.payoff_tables)
    tables[p] = dict(tables[p])
    v = tables[p][key]
    tables[p][key] = F(0) if v == F(1, 2) else 1 - v
    return GraphicalGame(game.players, game.strategies, game.in_neighbors, tuple(tables))


class TestGraphicalEquivalence:
    @pytest.mark.parametrize("seed", range(12))
    def test_agrees_with_equality_on_seeded_games(self, seed):
        n, k, d = 5, 2 + seed % 2, 2
        game = gen_random_graphical(n, k, d, seed)
        learned = learn_graphical(PurePayoffOracle(game), n, k, d).game
        p = seed % n
        changed = with_changed_entry(game, p, min(game.payoff_tables[p]))
        other = gen_random_graphical(n, k, d, seed + 1000)
        for candidate in (learned, game, changed, other):
            agree = graphical_equivalence(candidate, game) is None
            assert agree == (candidate == game)
        assert learned == game

    def test_an_ignored_in_neighbor_is_no_difference(self):
        game = gen_random_graphical(4, 3, 1, 0)
        q = next(q for q in range(1, 4) if q not in game.in_neighbors[0])
        padded = with_ignored_neighbor(game, 0, q)
        assert padded != game
        assert graphical_equivalence(padded, game) is None
        assert graphical_equivalence(game, padded) is None

    @pytest.mark.parametrize("p", range(4))
    def test_one_changed_entry_is_the_counterexample(self, p):
        game = gen_random_graphical(4, 3, 2, 7)
        own, ctx = key = max(game.payoff_tables[p])
        profile = [0] * 4
        profile[p] = own
        for q, s in zip(game.in_neighbors[p], ctx):
            profile[q] = s
        changed = with_changed_entry(game, p, key)
        assert graphical_equivalence(changed, game) == (p, tuple(profile))
        # An ignored in-neighbor on one side moves nothing.
        others = [q for q in range(4) if q != p and q not in game.in_neighbors[p]]
        if others:
            padded = with_ignored_neighbor(changed, p, others[0])
            assert graphical_equivalence(padded, game) == (p, tuple(profile))

    def test_a_game_of_strings_equals_its_fraction_twin(self):
        nbrs = ((1,), (), (0, 1))
        spelled = tuple(
            {
                (own, ctx): "1" if (own + sum(ctx) + p) % 2 else "0"
                for own in range(2)
                for ctx in itertools.product(range(2), repeat=len(nb))
            }
            for p, nb in enumerate(nbrs)
        )
        twin = tuple({key: F(v) for key, v in table.items()} for table in spelled)
        game = GraphicalGame(3, 2, nbrs, spelled)
        exact = GraphicalGame(3, 2, nbrs, twin)
        assert game == exact
        assert graphical_equivalence(game, exact) is None
        assert graphical_equivalence(exact, game) is None

    def test_improvement_reads_an_entry_spelled_as_a_string(self):
        tables = ({(0, ()): F(0), (1, ()): "\t1/3"},)
        game = GraphicalGame(1, 2, ((),), tables)
        assert pqlab.verify.graphical_improvement(game, (0,)) == F(1, 3)
        assert pqlab.verify.graphical_improvement(game, (1,)) == 0

    def test_games_of_different_sizes_are_invalid(self):
        game = gen_random_graphical(4, 2, 1, 0)
        with pytest.raises(InvalidSpec, match="players or strategies"):
            graphical_equivalence(gen_random_graphical(5, 2, 1, 0), game)
        with pytest.raises(InvalidSpec, match="players or strategies"):
            graphical_equivalence(gen_random_graphical(4, 3, 1, 0), game)


class TestExactNe2x2:
    def test_pennies_uniform(self):
        ne = exact_ne_2x2(gen_matching_pennies(2))
        assert ne == MixedProfile.uniform(2, 2)

    def test_dominant_strategy_game(self):
        game = bimatrix([[1, 1], [0, 0]], [[1, 0], [1, 0]])
        ne = exact_ne_2x2(game)
        assert ne.row_dist[0] == 1 and ne.col_dist[0] == 1

    def test_perturbed_pennies_not_uniform(self):
        from pqlab import BimatrixGame

        row = ((F(99, 100), F(0)), (F(0), F(1)))
        game = BimatrixGame(row, tuple(tuple(1 - v for v in r) for r in row))
        ne = exact_ne_2x2(game)
        assert ne.row_dist != (F(1, 2), F(1, 2))
        assert regret(game, ne) == 0

    def test_zero_regret_on_random_2x2(self):
        for seed in range(200):
            game = gen_random_bimatrix(2, seed)
            assert regret(game, exact_ne_2x2(game)) == 0


class TestDeviationReport:
    def test_equilibrium_has_no_improvement(self):
        game = parallel_links_game([[1, 1, 1, 1, 1], [0, 0, 0, 2, 2]], 4)
        report = deviation_report(game, {(0,): 2, (1,): 2})
        assert report.is_equilibrium

    def test_improvement_found_and_named(self):
        game = parallel_links_game([[0, 2, 2], [0, 1, 1]], 2)
        report = deviation_report(game, {(0,): 2})
        assert not report.is_equilibrium
        assert report.worst_path == (0,)
        assert report.worst_alternative == (1,)
        assert report.improvement == 1


def test_cap_env_override(monkeypatch):
    game = diamond(players=3)
    monkeypatch.setenv("PQLAB_CAP", "5")
    with pytest.raises(TooLarge):
        brute_force_pure_ne(game)
    monkeypatch.setenv("PQLAB_CAP", "1000000")
    assert brute_force_pure_ne(game)


def test_cap_env_that_is_no_integer_is_invalid_spec(monkeypatch):
    monkeypatch.setenv("PQLAB_CAP", "lots")
    with pytest.raises(InvalidSpec, match="PQLAB_CAP"):
        brute_force_pure_ne(diamond(players=3))


def _reference_report(game, profile):
    """Every used path against every o-d path, first best in path order."""
    loads = edge_loads(game, profile)
    best, worst_path, worst_alt = Fraction(0), None, None
    for path, count in sorted(profile.items()):
        if count == 0:
            continue
        current = sum(game.cost[e][loads[e]] for e in path)
        for alt in enumerate_paths(game):
            if alt == path:
                continue
            moved = sum(game.cost[e][loads[e] + (e not in path)] for e in alt)
            if current - moved > best:
                best, worst_path, worst_alt = current - moved, path, alt
    return best, worst_path, worst_alt


@pytest.mark.parametrize("seed", range(12))
def test_deviation_report_matches_path_enumeration(seed):
    rng = random.Random(seed)
    game = gen_random_dag(7, 12, 4, seed, subdivide=seed % 3)
    paths = enumerate_paths(game)
    # An equilibrium found by the solver, then random profiles.
    profiles = [solve_dag_game(CongestionOracle(game)).profile]
    for _ in range(15):
        profile = {}
        for path in rng.choices(paths, k=game.players):
            profile[path] = profile.get(path, 0) + 1
        profiles.append(profile)
    reports = [deviation_report(game, profile) for profile in profiles]
    for profile, report in zip(profiles, reports):
        assert (
            report.improvement, report.worst_path, report.worst_alternative
        ) == _reference_report(game, profile)
    assert reports[0].is_equilibrium
    assert not all(report.is_equilibrium for report in reports)


def test_deviation_report_breaks_ties_to_least_path():
    # Three parallel links at equal cost: the first cheaper alternative in
    # path order is named, not a later one at the same price.
    game = parallel_links_game([[0, 1, 5], [0, 1, 1], [0, 1, 1]], 2)
    report = deviation_report(game, {(0,): 2})
    assert report.improvement == 4
    assert (report.worst_path, report.worst_alternative) == ((0,), (1,))


def _relaxation_report(game, profile):
    """The report by the general DAG method, one backward relaxation per used
    path, as the reference for the parallel-links branch of deviation_report."""
    loads = validate_profile(game, profile)
    net = game.network
    best, worst_path, worst_alt = Fraction(0), None, None
    for path, count in sorted(profile.items()):
        if count == 0:
            continue
        price = {e: game.cost[e][x + (e not in path)] for e, x in loads.items()}
        togo = {net.destination: Fraction(0)}
        for v in reversed(net.topological_order()):
            for e in net.out_edges[v]:
                cand = price[e] + togo[net.edges[e][1]]
                if v not in togo or cand < togo[v]:
                    togo[v] = cand
        alt, v = [], net.origin
        while v != net.destination:
            e = min(
                e for e in net.out_edges[v] if price[e] + togo[net.edges[e][1]] == togo[v]
            )
            alt.append(e)
            v = net.edges[e][1]
        gain = sum(game.cost[e][loads[e]] for e in path) - togo[net.origin]
        if gain > best:
            best, worst_path, worst_alt = gain, path, tuple(alt)
    return DeviationReport(tuple(sorted(profile.items())), worst_path, worst_alt, best)


def test_parallel_links_report_matches_the_relaxation():
    rng = random.Random(11)
    verdicts, every_link_loaded = set(), 0
    for case in range(480):
        m, n = rng.randint(1, 6), rng.randint(1, 12)
        if case % 2:
            game = gen_random_step_links(m, n, rng.randrange(10**6))
            ids = range(m)
        else:
            # Few distinct costs, so links tie often and the least id shows;
            # edge ids out of order and with gaps.
            ids = rng.sample(range(20), m)
            game = CongestionGame(
                Network((0, 1), {e: (0, 1) for e in ids}, 0, 1),
                n,
                {e: sorted(rng.randint(0, 4) for _ in range(n + 1)) for e in ids},
            )
        if case % 3 == 0 and n >= m:
            cuts = sorted(rng.sample(range(1, n), m - 1))
            loads = [b - a for a, b in zip([0, *cuts], [*cuts, n])]
        else:
            loads = [0] * m
            for _ in range(n):
                loads[rng.randrange(m)] += 1
        # Idle links are listed with a count of 0 or left out.
        profile = {(e,): x for e, x in zip(ids, loads) if x or rng.random() < 0.5}
        report = deviation_report(game, profile)
        assert report == _relaxation_report(game, profile)
        verdicts.add(report.is_equilibrium)
        every_link_loaded += all(loads)
    assert verdicts == {True, False}
    assert every_link_loaded >= 100


@pytest.mark.parametrize("loads", [(-1, 5), (5, -1), (6, 0), (0, 7)])
def test_delta_equilibrium_rejects_loads_outside_0_to_n(loads):
    tables = link_tables(gen_random_step_links(2, 5, seed=0))
    with pytest.raises(InvalidProfile):
        is_delta_equilibrium(tables, loads, 1, 0)


@pytest.mark.parametrize("loads", [(0, 0), (2, 1)])
def test_link_loads_that_drop_players_are_rejected(loads):
    game = gen_random_step_links(2, 4, seed=0)
    with pytest.raises(InvalidProfile, match="places 3 players|places 0 players"):
        deviation_report(game, {(e,): x for e, x in enumerate(loads)})


# What verify.py may take from games.py: the game types and the evaluation
# semantics.  The solvers' arithmetic helpers, such as the DAG learner's
# pair sum, stay out, so that ground truth adds its own Fractions.
VERIFY_GAMES_IMPORTS = {
    "BimatrixGame",
    "CongestionGame",
    "GraphicalGame",
    "MixedProfile",
    "Path",
    "edge_loads",
    "enumerate_paths",
    "validate_profile",
}


def test_verify_imports_only_the_standard_library_games_and_errors():
    # Ground truth stays independent of the solvers it checks.
    assert "_pair_sum" not in VERIFY_GAMES_IMPORTS
    tree = ast.parse(Path(pqlab.verify.__file__).read_text())
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert "_pair_sum" not in names
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            assert node.level == 1 and node.module in {"games", "errors"}
            if node.module == "games":
                assert {alias.name for alias in node.names} <= VERIFY_GAMES_IMPORTS
        elif isinstance(node, ast.ImportFrom):
            assert node.module.split(".")[0] in sys.stdlib_module_names
        elif isinstance(node, ast.Import):
            for alias in node.names:
                assert alias.name.split(".")[0] in sys.stdlib_module_names
