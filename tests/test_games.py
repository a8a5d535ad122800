"""Core game semantics: loads, costs, payoffs, regret, paths, orderings."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from pqlab import (
    BimatrixGame,
    CongestionGame,
    GraphicalGame,
    InvalidProfile,
    InvalidSpec,
    LoadOutOfRange,
    MixedProfile,
    Network,
    NotADag,
    parallel_links_game,
    regret,
)
from pqlab.games import (
    StepTable,
    _pair_sum,
    edge_loads,
    enumerate_paths,
    strategy_costs,
    validate_profile,
)
from pqlab.instances import (
    gen_G_ell,
    gen_matching_pennies,
    gen_random_bimatrix,
    gen_random_graphical,
)
from pqlab.verify import exact_ne_2x2

F = Fraction


def bimatrix(row_payoff, col_payoff):
    """A bimatrix game from nested lists of anything Fraction accepts."""
    coerce = lambda t: tuple(tuple(F(v) for v in row) for row in t)  # noqa: E731
    return BimatrixGame(coerce(row_payoff), coerce(col_payoff))


def diamond(players=1, f_a=1, f_b=1, f_c=0, f_d=0):
    """The four-edge two-hop multigraph: o->m via a,b; m->d via c,d."""
    net = Network((0, 1, 2), {0: (0, 1), 1: (0, 1), 2: (1, 2), 3: (1, 2)}, 0, 2)
    n = players
    tables = {
        0: [F(f_a)] * (n + 1),
        1: [F(f_b)] * (n + 1),
        2: [F(f_c)] * (n + 1),
        3: [F(f_d)] * (n + 1),
    }
    return CongestionGame(net, n, tables)


class TestEdgeLoads:
    def test_two_links(self):
        game = parallel_links_game([[0, 1, 2], [0, 3, 4]], 2)
        assert edge_loads(game, {(0,): 2, (1,): 1}) == {0: 2, 1: 1}

    def test_diamond_single_player(self):
        game = diamond()
        assert edge_loads(game, {(0, 2): 1}) == {0: 1, 1: 0, 2: 1, 3: 0}

    def test_empty_profile(self):
        game = diamond()
        assert edge_loads(game, {}) == {0: 0, 1: 0, 2: 0, 3: 0}

    def test_invalid_path_rejected(self):
        game = diamond()
        with pytest.raises(InvalidProfile):
            edge_loads(game, {(2,): 1})  # does not start at the origin
        with pytest.raises(InvalidProfile):
            edge_loads(game, {(0,): 1})  # stops before the destination


class TestStrategyCosts:
    def test_diamond_unit_cost_paths(self):
        game = diamond(f_a=1, f_b=1, f_c=0, f_d=0)
        costs = strategy_costs(game, {(0, 2): 1})
        assert costs[(0, 2)] == 1

    def test_diamond_alternative_tables_same_costs(self):
        game = diamond(f_a=0, f_b=0, f_c=1, f_d=1)
        assert strategy_costs(game, {(0, 2): 1})[(0, 2)] == 1

    def test_zero_load_cost_is_table_base(self):
        game = diamond(players=2, f_a=3, f_c=4)
        costs = strategy_costs(game, {(0, 2): 0})
        assert costs[(0, 2)] == game.cost[0][0] + game.cost[2][0]

    def test_load_above_n_rejected(self):
        game = parallel_links_game([[0, 1], [0, 1]], 1)
        with pytest.raises(LoadOutOfRange):
            strategy_costs(game, {(0,): 2})

    def test_shared_edge_loads_add_up(self):
        game = CongestionGame(
            Network((0, 1, 2), {0: (0, 1), 1: (1, 2), 2: (0, 2)}, 0, 2),
            2,
            {0: [0, 1, 5], 1: [0, 2, 7], 2: [0, 3, 3]},
        )
        costs = strategy_costs(game, {(0, 1): 1, (2,): 1})
        assert costs[(0, 1)] == F(1) + F(2)
        assert costs[(2,)] == F(3)

    def test_equal_costs_share_one_answer(self):
        # 1/2 + 1/2 is summed over denominator 2 and 1 + 0 over 1: one value,
        # in one query and across queries.  A one-edge path answers with the
        # table's own entry.
        net = Network(
            (0, 1, 2), {0: (0, 1), 1: (0, 1), 2: (1, 2), 3: (1, 2), 4: (0, 2)}, 0, 2
        )
        one = F(1)
        game = CongestionGame(
            net, 2, {0: [F(1, 2)] * 3, 1: [one] * 3, 2: [F(1, 2)] * 3, 3: [F(0)] * 3,
                     4: [one] * 3},
        )
        costs = strategy_costs(game, {(0, 2): 1, (1, 3): 1})
        assert costs == {(0, 2): 1, (1, 3): 1}
        assert all(type(c) is F and str(c) == "1" for c in costs.values())
        assert strategy_costs(game, {(1, 3): 2})[(1, 3)] == costs[(0, 2)]
        assert strategy_costs(game, {(4,): 1})[(4,)] is game.cost[4][1]

    def test_agrees_with_direct_player_summation(self):
        # Independent evaluation: walk each player's path and sum by hand.
        game = diamond(players=3, f_a=2, f_b=1, f_c=5, f_d=0)
        profile = {(0, 2): 2, (1, 3): 1}
        validate_profile(game, profile)
        loads = edge_loads(game, profile)
        costs = strategy_costs(game, profile)
        for path, count in profile.items():
            if count:
                direct = sum(game.cost[e][loads[e]] for e in path)
                assert costs[path] == direct


class TestBimatrixPayoffs:
    def test_matching_pennies_diagonal(self):
        game = gen_matching_pennies(2)
        assert game.payoffs((0, 0)) == (1, 0)
        assert game.payoffs((0, 1)) == (0, 1)

    def test_zero_game(self):
        game = bimatrix([[0, 0], [0, 0]], [[0, 0], [0, 0]])
        assert game.payoffs((1, 1)) == (0, 0)

    def test_out_of_range(self):
        game = gen_matching_pennies(2)
        message = r"^pure profile \(2, 0\) out of range$"
        with pytest.raises(InvalidProfile, match=message):
            game.payoffs((2, 0))


class TestExactEntries:
    """A constructor stores the Fraction of any spelling it accepts."""

    def test_bimatrix_strings_are_stored_and_priced_as_fractions(self):
        game = BimatrixGame((("1", "0"), ("0", "1")), (("0", "1"), ("1", "0")))
        assert game == gen_matching_pennies(2)
        assert {type(v) for r in game.row_payoff + game.col_payoff for v in r} == {F}
        assert regret(game, MixedProfile.uniform(2, 2)) == 0

    def test_a_mixed_profile_of_floats_is_stored_as_fractions(self):
        profile = MixedProfile((0.5, 0.5), [0.25, 0.75])
        assert profile == MixedProfile.of((F(1, 2), F(1, 2)), (F(1, 4), F(3, 4)))
        assert type(profile.col_dist) is tuple
        value = regret(gen_matching_pennies(2), MixedProfile((0.5, 0.5), (0.5, 0.5)))
        assert value == 0 and type(value) is F

    def test_tables_of_fractions_are_kept_as_they_are(self):
        row, col = ((F(1), F(0)),), ((F(0), F(1)),)
        game = BimatrixGame(row, col)
        assert game.row_payoff is row and game.col_payoff is col
        tables = ({(0, ()): F(1, 2), (1, ()): F(1)},)
        graphical = GraphicalGame(1, 2, ((),), tables)
        assert graphical.payoff_tables is tables

    def test_graphical_entries_of_other_spellings_become_fractions(self):
        tables = ({(0, ()): True, (1, ()): 0.5, (2, ()): "\t1/3"},)
        game = GraphicalGame(1, 3, ((),), tables)
        assert list(game.payoff_tables[0].items()) == [
            ((0, ()), F(1)), ((1, ()), F(1, 2)), ((2, ()), F(1, 3))
        ]
        assert tables[0][(0, ())] is True
        assert [game.payoff(0, (s,)) for s in range(3)] == [1, F(1, 2), F(1, 3)]
        assert {type(game.payoff(0, (s,))) for s in range(3)} == {F}


class TestRegret:
    def test_pennies_uniform_is_exact_ne(self):
        game = gen_matching_pennies(2)
        assert regret(game, MixedProfile.uniform(2, 2)) == 0

    def test_pennies_pure_profile(self):
        game = gen_matching_pennies(2)
        assert regret(game, MixedProfile.pure(0, 0, 2, 2)) == 1

    def test_gell_uniform_value_pinned(self):
        game = gen_G_ell(8)
        profile = MixedProfile.uniform(game.rows, game.cols)
        assert regret(game, profile) == 0

    def test_nonnegative_and_zero_iff_ne_on_2x2(self):
        for seed in range(40):
            game = gen_random_bimatrix(2, seed)
            eps = regret(game, exact_ne_2x2(game))
            assert eps == 0
            assert regret(game, MixedProfile.uniform(2, 2)) >= 0


class TestInvariants:
    def test_payoffs_outside_unit_interval_rejected(self):
        with pytest.raises(InvalidSpec):
            bimatrix([[2]], [[0]])

    def test_mixed_profile_must_sum_to_one(self):
        with pytest.raises(InvalidSpec):
            MixedProfile.of([F(1, 2), F(1, 3)], [1])

    def test_decreasing_cost_table_rejected(self):
        with pytest.raises(InvalidSpec):
            parallel_links_game([[2, 1, 0]], 2)

    def test_profile_total_must_match_players(self):
        game = diamond(players=2)
        with pytest.raises(InvalidProfile):
            validate_profile(game, {(0, 2): 1})

    def test_validate_profile_returns_edge_loads(self):
        game = diamond(players=3)
        for profile in ({(0, 2): 3}, {(0, 2): 2, (1, 3): 1}, {(0, 3): 1, (1, 2): 2, (1, 3): 0}):
            assert validate_profile(game, profile) == edge_loads(game, profile)
        for bad in ({(0,): 3}, {(0, 2): 4, (1, 3): -1}, {(0, 5): 3}):
            with pytest.raises(InvalidProfile):
                validate_profile(game, bad)


class TestPathsAndOrder:
    def test_diamond_paths(self):
        game = diamond()
        assert enumerate_paths(game) == ((0, 2), (0, 3), (1, 2), (1, 3))

    def test_single_edge(self):
        net = Network((0, 1), {0: (0, 1)}, 0, 1)
        assert enumerate_paths(net) == ((0,),)

    def test_chain_plus_shortcut(self):
        net = Network((0, 1, 2), {0: (0, 1), 1: (1, 2), 2: (0, 2)}, 0, 2)
        assert set(enumerate_paths(net)) == {(0, 1), (2,)}

    def test_parallel_links_means_every_edge_joins_origin_to_destination(self):
        links = parallel_links_game([[0, 1], [1, 1], [2, 2]], 1)
        assert links.network.is_parallel_links
        assert Network((0, 1), {0: (0, 1)}, 0, 1).is_parallel_links
        assert not diamond().network.is_parallel_links
        shortcut = Network((0, 1, 2), {0: (0, 1), 1: (1, 2), 2: (0, 2)}, 0, 2)
        assert not shortcut.is_parallel_links

    def test_paths_unique_and_connected(self):
        from pqlab.instances import gen_random_dag

        for seed in range(25):
            game = gen_random_dag(6, 10, 2, seed)
            paths = enumerate_paths(game)
            assert len(set(paths)) == len(paths)
            for p in paths:
                game.network.validate_path(p)

    def test_topological_order_diamond(self):
        game = diamond()
        assert game.network.topological_order() == (0, 1, 2)

    def test_degenerate_single_vertex_rejected(self):
        with pytest.raises(InvalidSpec):
            Network((0,), {}, 0, 0)

    def test_cycle_rejected(self):
        with pytest.raises((NotADag, InvalidSpec)):
            Network((0, 1, 2), {0: (0, 1), 1: (1, 2), 2: (2, 1)}, 0, 2)

    def test_tiebreak_between_incomparable_middles(self):
        # Two independent middle vertices admit two valid orders; the
        # implementation commits to the lowest-id-first one.
        net = Network(
            (0, 1, 2, 3), {0: (0, 1), 1: (0, 2), 2: (1, 3), 3: (2, 3)}, 0, 3
        )
        order = net.topological_order()
        pos = {v: i for i, v in enumerate(order)}
        for t, h in net.edges.values():
            assert pos[t] < pos[h]
        assert order == (0, 1, 2, 3)

    def test_build_prunes_stranded_vertices(self):
        net = Network.build(
            (0, 1, 2, 3), {0: (0, 1), 1: (1, 2), 2: (3, 2)}, 0, 2
        )
        assert 3 not in net.vertices
        assert 2 not in net.edges

    @pytest.mark.parametrize(
        "vertices, edges, origin, destination",
        [
            ((0, 1, 2), {0: (0, 1), 1: (2, 1)}, 0, 1),
            ((0, 1, 2), {0: (0, 1), 1: (0, 2)}, 0, 1),
            ((0, 1), {0: (0, 1), 1: (0, 5)}, 0, 1),
            ((0, 1), {0: (0, 1)}, 1, 1),
            ((0, 1), {0: (0, 1)}, 0, 7),
        ],
        ids=["unreachable-from-origin", "cannot-reach-destination",
             "endpoint-outside", "origin-is-destination", "destination-outside"],
    )
    def test_constructor_rejects_malformed_networks(
        self, vertices, edges, origin, destination
    ):
        with pytest.raises(InvalidSpec):
            Network(vertices, edges, origin, destination)


def _all_paths(net, frm, to, banned):
    """Every frm -> to path avoiding banned edges, by plain recursion."""
    if frm == to:
        return [()]
    return [
        (e,) + rest
        for e, (t, h) in net.edges.items()
        if t == frm and e not in banned
        for rest in _all_paths(net, h, to, banned)
    ]


@pytest.mark.parametrize("seed", range(12))
def test_least_path_is_the_least_path_avoiding_banned_edges(seed):
    import random

    from pqlab.instances import gen_random_dag

    net = gen_random_dag(7, 13, 1, seed).network
    rng = random.Random(seed)
    for _ in range(8):
        k = rng.randint(0, min(4, len(net.edges)))
        banned = set(rng.sample(sorted(net.edges), k))
        for frm in net.vertices:
            for to in net.vertices:
                paths = _all_paths(net, frm, to, banned)
                want = min(paths) if paths else None
                assert net.least_path(frm, to, banned) == want


@given(st.integers(2, 5), st.integers(0, 10_000))
def test_regret_nonnegative_on_random_games(k, seed):
    game = gen_random_bimatrix(k, seed)
    profile = MixedProfile.uniform(k, k)
    assert regret(game, profile) >= 0


def test_costs_match_direct_summation_exhaustively():
    # For every profile of small random games, pricing through the induced
    # edge loads equals walking each player's path and summing by hand.
    from pqlab.instances import gen_random_dag
    from pqlab.verify import all_profiles

    for seed in range(6):
        game = gen_random_dag(5, 8, 3, seed)
        if len(game.network.edges) > 10:
            continue
        for profile in all_profiles(game):
            loads = edge_loads(game, profile)
            costs = strategy_costs(game, profile)
            for path, count in profile.items():
                if count:
                    assert costs[path] == sum(game.cost[e][loads[e]] for e in path)


_DENOMINATORS = st.sampled_from((1, 2, 3, 4, 5, 6, 7, 9, 12, 35))


@st.composite
def _rising_values(draw, count):
    """count non-decreasing fractions, each step over its own denominator."""
    value = F(draw(st.integers(0, 5)), draw(_DENOMINATORS))
    values = [value]
    for _ in range(count - 1):
        value += F(draw(st.integers(0, 4)), draw(_DENOMINATORS))
        values.append(value)
    return values


@st.composite
def _priced_dags(draw):
    """A small DAG game with no origin-destination edge, so every path has
    at least two edges; some tables are step tables."""
    top = draw(st.integers(2, 5))
    pairs = [(t, h) for t in range(top + 1) for h in range(t + 1, top + 1)]
    pairs.remove((0, top))
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=2, max_size=10))
    edges = {i: pair for i, pair in enumerate(chosen)}
    try:
        net = Network.build(range(top + 1), edges, 0, top)
    except InvalidSpec:
        assume(False)
    n = draw(st.integers(1, 4))
    tables = {}
    for e in net.edges:
        if draw(st.booleans()):
            starts = [0] + sorted(draw(st.sets(st.integers(1, n), max_size=n)))
            tables[e] = StepTable(zip(starts, draw(_rising_values(len(starts)))), n)
        else:
            tables[e] = draw(_rising_values(n + 1))
    return CongestionGame(net, n, tables)


@settings(max_examples=150, deadline=None)
@given(_priced_dags(), st.data())
def test_multi_edge_paths_are_priced_as_the_fraction_sum(game, data):
    # The reference adds the path's entries one Fraction at a time.
    paths = enumerate_paths(game)
    for _ in range(4):
        chosen = data.draw(st.lists(st.sampled_from(paths), min_size=1, unique=True))
        query, left = {}, game.players
        for path in chosen:
            query[path] = data.draw(st.integers(0, left))
            left -= query[path]
        loads = {}
        for path, count in query.items():
            for e in path:
                loads[e] = loads.get(e, 0) + count
        got = strategy_costs(game, query)
        assert set(got) == set(query)
        for path in query:
            want = sum((game.cost[e][loads[e]] for e in path), Fraction(0))
            assert len(path) >= 2
            assert type(got[path]) is Fraction
            assert got[path] == want
            assert str(got[path]) == str(want)


_SUMMANDS = st.one_of(
    st.integers(-(10**6), 10**6).map(Fraction),
    st.fractions(max_denominator=16),
    st.builds(Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**40)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_SUMMANDS, max_size=60))
@example([])
@example([F(-7, 3)])
@example([F(-1, 2), F(1, 2)])
@example([F(3), F(-4), F(10**30)])
@example([F(1, 2**61 - 1), F(1, 10**18 + 9), F(-5, 3**40), F(7, 6)])
def test_pair_sum_equals_the_fraction_sum(xs):
    # The DAG learner's sum of (numerator, denominator) pairs: over the lcm
    # of the denominators read, and one Fraction of it is the exact sum.
    total, den = _pair_sum([(x.numerator, x.denominator) for x in xs])
    assert type(total) is int and type(den) is int
    assert den == math.lcm(*{x.denominator for x in xs})
    got, want = Fraction(total, den), sum(xs, Fraction(0))
    assert got == want
    assert str(got) == str(want)
    if len(xs) == 1:
        assert (total, den) == (xs[0].numerator, xs[0].denominator)


def _dense_step_table(levels, players):
    """The dense expansion the generators used before StepTable, kept as the
    reference: (threshold, value) pairs to a list over loads 0..players."""
    table = []
    for idx, (threshold, value) in enumerate(levels):
        if threshold > players:
            break
        end = levels[idx + 1][0] if idx + 1 < len(levels) else players + 1
        table.extend([Fraction(value)] * (min(end, players + 1) - threshold))
    return table


def _random_levels(rng, players):
    """Breakpoints with runs of equal values and thresholds up to n + 3."""
    thresholds = sorted(rng.sample(range(1, players + 4), rng.randint(0, 4)))
    value = F(rng.randint(0, 3), rng.choice((1, 2)))
    levels = [(0, value)]
    for t in thresholds:
        value += rng.choice((0, 0, F(1, 2), 2))
        levels.append((t, value))
    return levels


class TestStepTable:
    def test_matches_the_dense_expansion(self):
        import random

        rng = random.Random(2024)
        for _ in range(400):
            n = rng.randint(1, 12)
            levels = _random_levels(rng, n)
            want = tuple(_dense_step_table(levels, n))
            steps = [(t, v) for t, v in levels if t <= n]
            table = parallel_links_game([StepTable(steps, n)], n).cost[0]
            assert isinstance(table, StepTable)
            assert table == StepTable(steps, n)
            assert len(table) == n + 1 == len(want)
            assert tuple(table) == want and list(reversed(table)) == list(reversed(want))
            assert all(table[k] == want[k] for k in range(-n - 1, n + 1))
            for bad in (n + 1, -n - 2, 10**15):
                with pytest.raises(IndexError):
                    table[bad]
            for sl in (slice(None), slice(1, None), slice(2, n), slice(None, None, -2),
                       slice(-3, None), slice(n + 5, None)):
                assert table[sl] == want[sl] and type(table[sl]) is tuple
            assert table == want and want == table and table == list(want)
            assert table != want[:-1] and table != want + (want[-1],)
            assert all(a != b for a, b in zip(table.values, table.values[1:]))
            assert len(table.starts) <= len(levels)

    def test_equality_is_by_content(self):
        merged = StepTable([(0, 1), (2, 1), (3, 2)], 4)
        assert merged.starts == (0, 3) and merged.values == (1, 2)
        assert merged == StepTable([(0, F(1)), (3, F(2))], 4)
        assert merged != StepTable([(0, 1), (3, 2)], 5)
        assert merged != StepTable([(0, 1), (2, 2)], 4)
        assert merged == (1, 1, 1, 2, 2) and merged != (1, 1, 2, 2, 2)
        assert merged != "abcde" and merged != 5

    @pytest.mark.parametrize(
        "steps, players",
        [([], 3), ([(1, 0)], 3), ([(0, 0), (0, 1)], 3), ([(0, 0), (2, 1), (1, 2)], 3),
         ([(0, 0), (2, 0), (1, 1)], 3), ([(0, 0), (4, 1)], 3), ([(0, 0), (4, 0)], 3)],
        ids=["empty", "first-not-zero", "repeated", "decreasing-threshold",
             "decreasing-after-merge", "above-n", "above-n-merged"],
    )
    def test_malformed_breakpoints_rejected(self, steps, players):
        with pytest.raises(InvalidSpec):
            StepTable(steps, players)

    @pytest.mark.parametrize(
        "dense, steps, message",
        [
            ([2, 1, 1], [(0, 2), (1, 1)], "edge 0 cost table is decreasing"),
            ([-1, 0, 0], [(0, -1), (1, 0)], "edge 0 cost table has a negative entry"),
            ([1, -1, -1], [(0, 1), (1, -1)], "edge 0 cost table has a negative entry"),
        ],
    )
    def test_game_checks_breakpoints_with_the_dense_messages(self, dense, steps, message):
        for table in (dense, StepTable(steps, 2)):
            with pytest.raises(InvalidSpec, match=message):
                parallel_links_game([table], 2)

    def test_large_n_stores_breakpoints_only(self):
        n = 2**40
        table = StepTable([(0, 1), (n // 3, 2), (n, 5)], n)
        game = parallel_links_game([table, StepTable([(0, 0)], n)], n)
        assert len(game.cost[0]) == n + 1
        assert game.cost[0][n // 3 - 1] == 1 and game.cost[0][-2] == 2
        assert game.cost[0][n] == 5 and game.cost[1][n] == 0
        assert strategy_costs(game, {(0,): n // 3, (1,): n - n // 3}) == {
            (0,): 2, (1,): 0
        }


def _dict_payoff(game, player, profile):
    """The payoff as one (own, ctx) lookup in payoff_tables; KeyError when
    the profile names no entry."""
    ctx = tuple(profile[q] for q in game.in_neighbors[player])
    return game.payoff_tables[player][(profile[player], ctx)]


class TestGraphicalPayoffIndex:
    GAMES = [
        (n, k, degree, seed)
        for n, k in ((1, 2), (2, 1), (3, 2), (4, 3))
        for degree in range(min(n, 3))
        for seed in range(3)
    ]

    @pytest.mark.parametrize("n, k, degree, seed", GAMES)
    def test_lookup_equals_the_table_entry_on_every_profile(self, n, k, degree, seed):
        game = gen_random_graphical(n, k, degree, seed)
        for profile in itertools.product(range(k), repeat=n):
            want = tuple(_dict_payoff(game, p, profile) for p in range(n))
            assert game.payoffs(profile) == want
            assert game.payoffs(list(profile)) == want
            for p in range(n):
                assert game.payoff(p, profile) is want[p]

    def test_mixed_in_degrees_including_none(self):
        # 1 and 2 read nobody; 0 reads both; 3 reads 0 only.
        k = 3
        nbrs = ((1, 2), (), (), (0,))
        tables = tuple(
            {
                (own, ctx): F((own + 2 * sum(ctx) + p) % 17, 16)
                for own in range(k)
                for ctx in itertools.product(range(k), repeat=len(nb))
            }
            for p, nb in enumerate(nbrs)
        )
        game = GraphicalGame(4, k, nbrs, tables)
        for profile in itertools.product(range(k), repeat=4):
            want = tuple(_dict_payoff(game, p, profile) for p in range(4))
            assert game.payoffs(profile) == want

    @pytest.mark.parametrize(
        "value", [1.0, True, False, F(1), F(1, 2), 1.5, -1, 3, -3, "1", None, (1,), [1]]
    )
    def test_other_spellings_as_the_table_lookup(self, value):
        # Direct calls bypass the oracle's int check: whatever the (own, ctx)
        # dict accepted or refused, the index accepts or refuses.
        game = GraphicalGame(
            3,
            3,
            ((1,), (), (0, 1)),
            (
                {(o, (s,)): F(o + 3 * s, 16) for o in range(3) for s in range(3)},
                {(o, ()): F(o, 4) for o in range(3)},
                {
                    (o, (s, t)): F(o + s + t, 8)
                    for o in range(3)
                    for s in range(3)
                    for t in range(3)
                },
            ),
        )
        for p, at in itertools.product(range(3), range(3)):
            profile = [1, 2, 0]
            profile[at] = value
            try:
                want = _dict_payoff(game, p, profile)
            except KeyError:
                with pytest.raises(InvalidProfile):
                    game.payoff(p, profile)
            except TypeError:
                with pytest.raises(TypeError):
                    game.payoff(p, profile)
            else:
                assert game.payoff(p, profile) == want

    def test_construction_builds_no_index(self):
        game = gen_random_graphical(5, 3, 2, seed=4)
        twin = gen_random_graphical(5, 3, 2, seed=4)
        assert "_payoff_index" not in vars(game)
        game.payoff(0, (0,) * 5)
        assert "_payoff_index" in vars(game)
        assert "_payoff_index" not in vars(twin)
        assert game == twin
