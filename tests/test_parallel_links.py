"""Phase refinement and the full parallel-links solver."""

import hashlib
import io
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import pqlab.games
import pqlab.parallel_links
from pqlab import (
    AdversaryLinkOracle,
    AlgorithmInvariantViolated,
    CongestionOracle,
    InvalidSpec,
    Network,
    QueryLedger,
    parallel_links_game,
    solve_parallel_links,
)
from pqlab.cli import EXIT_OK, main
from pqlab.games import StepTable, link_tables
from pqlab.instances import gen_random_dag, gen_random_step_links
from pqlab.oracles import step_link_game
from pqlab.parallel_links import LinkLoads, RefineTrace, default_group_factor
from pqlab.verify import is_delta_equilibrium

F = Fraction


class TestDeltaEquilibrium:
    def test_even_split_on_step_instance(self):
        tables = [[1, 1, 1, 1, 1], [0, 0, 0, 2, 2]]
        assert is_delta_equilibrium(tables, (2, 2), 1, 0)

    def test_all_on_cheapest_is_n_equilibrium(self):
        tables = [[1, 1, 1, 1, 1], [0, 0, 0, 2, 2]]
        assert is_delta_equilibrium(tables, (4, 0), 4, 0)

    def test_profitable_deviation_detected(self):
        tables = [[0, 2, 2, 2, 2], [0, 1, 1, 1, 1]]
        assert not is_delta_equilibrium(tables, (4, 0), 1, 0)

    def test_divisibility_required_off_special(self):
        tables = [[0, 1, 1, 1], [0, 1, 1, 1]]
        assert not is_delta_equilibrium(tables, (1, 2), 2, 1)
        assert is_delta_equilibrium(tables, (1, 2), 2, 0)

    @pytest.mark.parametrize(
        "tables, loads, delta, special",
        [
            ([], [], 1, 0),
            ([[]], [0], 1, 0),
            ([[0, 1, 2, 3], [0, 1]], [0, 3], 1, 1),
            ([[0, 1, 2, 3], [0, 1]], [0, 1], 1, 0),
            ([[0, 1, 2]], [2], 0, 0),
            ([[0, 1, 2]], [2], -1, 0),
            ([[0, 1, 2]], [1], 1, 5),
            ([[0, 1, 2], [0, 1, 2]], [1, 1], 1, 2),
            ([[0, 1, 2], [0, 1, 2]], [1, 1], 1, -1),
        ],
        ids=[
            "no-tables", "empty-table", "ragged", "ragged-short-first", "delta-0",
            "delta-negative", "special-above", "special-at-m", "special-negative",
        ],
    )
    def test_input_it_cannot_judge_is_refused(self, tables, loads, delta, special):
        with pytest.raises(InvalidSpec):
            is_delta_equilibrium(tables, loads, delta, special)


def _reference_delta_equilibrium(tables, loads, delta, special):
    """The double loop is_delta_equilibrium ran before it kept the two
    cheapest join costs: every loaded link against every other link."""
    n = len(tables[0]) - 1
    m = len(tables)
    for i in range(m):
        if i != special and loads[i] % delta:
            return False
    for i in range(m):
        if loads[i] < delta:
            continue
        cost_i = tables[i][loads[i]]
        for j in range(m):
            target = loads[j] + delta
            if j != i and target <= n and tables[j][target] < cost_i:
                return False
    return True


def test_delta_equilibrium_matches_the_double_loop():
    rng = random.Random(7)
    verdicts = set()
    for case in range(400):
        m, n = rng.randint(1, 5), rng.randint(1, 9)
        if case % 2:
            tables = link_tables(gen_random_step_links(m, n, rng.randrange(10**6)))
        else:
            # The check takes any tables; on decreasing ones a link's own
            # join cost can undercut its cost, so the exclusion of i shows.
            tables = [[rng.randint(0, 5) for _ in range(n + 1)] for _ in range(m)]
        for delta in (1, 2, 3):
            for special in range(m):
                # Mostly multiples of delta, so the join comparison runs, and
                # loads up to n, so loads[j] + delta > n comes up.
                loads = [
                    rng.randint(0, n) if i == special or rng.random() < 0.2
                    else delta * rng.randint(0, n // delta)
                    for i in range(m)
                ]
                want = _reference_delta_equilibrium(tables, loads, delta, special)
                assert is_delta_equilibrium(tables, loads, delta, special) == want
                verdicts.add(want)
    assert verdicts == {True, False}


class TestPhasePlan:
    """The phase schedule kf^T, ..., kf, 1, read from the solver's checkpoints."""

    def test_deltas_descend_to_one(self):
        result = solve_parallel_links(CongestionOracle(step_link_game(16, 5)), 2)
        assert [d for d, _ in result.checkpoints] == [16, 8, 4, 2, 1]

    def test_non_power_boundary(self):
        result = solve_parallel_links(CongestionOracle(step_link_game(10, 4)), 3)
        assert [d for d, _ in result.checkpoints] == [9, 3, 1]

    def test_group_factor_below_two_rejected_before_any_query(self):
        oracle = CongestionOracle(step_link_game(16, 5))
        with pytest.raises(InvalidSpec):
            solve_parallel_links(oracle, 1)
        assert oracle.ledger.count == 0

    @pytest.mark.parametrize("group_factor", [1, 0, -3])
    def test_bad_group_factor_rejected_before_any_query(self, group_factor):
        # A group factor below 2 cannot shrink the group size.
        game = parallel_links_game([[1, 1, 1, 1, 1], [0, 0, 0, 2, 2]], 4)
        oracle = CongestionOracle(game)
        with pytest.raises(InvalidSpec):
            solve_parallel_links(oracle, group_factor)
        assert oracle.ledger.count == 0

    def test_dag_rejected_without_enumerating_its_paths(self, monkeypatch):
        # This network has 98,318 o-d paths; telling that it is not parallel
        # links reads each edge once.
        def no_enumeration(game):
            raise AssertionError("enumerate_paths called")

        for module in (pqlab.games, pqlab.parallel_links):
            monkeypatch.setattr(module, "enumerate_paths", no_enumeration, raising=False)
        oracle = CongestionOracle(gen_random_dag(60, 140, 24, 0))
        with pytest.raises(InvalidSpec, match="not a parallel-links game"):
            solve_parallel_links(oracle)
        assert oracle.ledger.count == 0

    def test_default_group_factor(self):
        assert default_group_factor(1) == 2
        assert default_group_factor(8) == 3
        assert default_group_factor(16) == 4


def solve_and_check(game, kf=None):
    oracle = CongestionOracle(game)
    result = solve_parallel_links(oracle, kf)
    tables = link_tables(game)
    assert sum(result.loads.loads) == game.players
    assert is_delta_equilibrium(tables, result.loads.loads, 1, result.loads.special)
    for delta, loads in result.checkpoints:
        assert is_delta_equilibrium(tables, loads, delta, result.loads.special)
    kf_used = result.group_factor
    m = len(tables)
    for trace in result.traces:
        assert trace.moved_groups <= max(kf_used * m, (kf_used - 1) * (m + 1))
        assert max(trace.added) <= 2 * kf_used
    assert result.queries_used <= result.query_bound
    return result


class TestSolveParallelLinks:
    def test_single_link_one_query(self):
        game = parallel_links_game([[0, 3, 3, 3]], 3)
        oracle = CongestionOracle(game)
        result = solve_parallel_links(oracle)
        assert result.loads.loads == (3,)
        assert result.queries_used == 1

    def test_no_moves_when_already_settled(self):
        # Both links cost 1 at every load, so the start on link 0 is settled.
        result = solve_and_check(parallel_links_game([[1] * 5, [1] * 5], 4), 2)
        assert result.loads == LinkLoads((4, 0), 0)
        assert result.traces == [
            RefineTrace(delta, 0, (0, 0), (0, 0)) for delta in (4, 2, 1)
        ]

    def test_moves_one_group_off_the_flat_link(self):
        # All four players start on the constant link; the delta=2 phase moves
        # one group of two to the cheap half of the stepped link.
        game = parallel_links_game([[1, 1, 1, 1, 1], [0, 0, 0, 2, 2]], 4)
        result = solve_and_check(game, 2)
        assert result.loads == LinkLoads((2, 2), 0)
        assert result.checkpoints == [(4, (4, 0)), (2, (2, 2)), (1, (2, 2))]
        assert result.traces[1] == RefineTrace(2, 1, (1, 0), (0, 1))
        assert [t.moved_groups for t in result.traces] == [0, 1, 0]

    def test_two_link_step_game_exact_split(self):
        result = solve_and_check(step_link_game(16, 5))
        assert result.loads.loads == (5, 11)

    def test_matches_a_pure_equilibrium_on_small_instances(self):
        from pqlab.verify import brute_force_pure_ne

        for seed in range(25):
            game = gen_random_step_links(3, 6, seed)
            result = solve_and_check(game)
            ne_loads = {
                tuple(ne.get((i,), 0) for i in range(3))
                for ne in brute_force_pure_ne(game)
            }
            assert result.loads.loads in ne_loads

    def test_random_instances_large_n(self):
        for seed in range(10):
            game = gen_random_step_links(8, 10_000 + seed * 997, seed)
            solve_and_check(game)

    def test_explicit_group_factor(self):
        solve_and_check(step_link_game(64, 21), kf=4)

    def test_query_growth_is_logarithmic_in_n(self):
        small = solve_and_check(gen_random_step_links(8, 2**10, 3))
        large = solve_and_check(gen_random_step_links(8, 2**20, 3))
        assert large.queries_used <= 2.5 * small.queries_used


@st.composite
def rational_step_games(draw):
    """Step games on 2-6 links and 1-200 players; every step adds a
    nonnegative rational with denominator 1..12 to the link's cost."""
    m, n = draw(st.integers(2, 6)), draw(st.integers(1, 200))
    tables = []
    for _ in range(m):
        starts = draw(st.lists(st.integers(1, n), max_size=3, unique=True))
        value, steps = F(0), []
        for start in [0, *sorted(starts)]:
            value += F(draw(st.integers(0, 40)), draw(st.integers(1, 12)))
            steps.append((start, value))
        tables.append(StepTable(steps, n))
    return parallel_links_game(tables, n)


# 200 examples take 0.75-0.9 s (three runs on a shared 2-vCPU VM).
@settings(max_examples=200, deadline=None)
@given(game=rational_step_games())
def test_rational_step_games_solve_within_bound(game):
    # solve_and_check verifies delta = 1, every checkpoint's delta and the
    # query bound against verify.is_delta_equilibrium.
    solve_and_check(game)


class TestAgainstAdversary:
    @pytest.mark.parametrize("exp", [6, 10, 14])
    def test_forced_binary_search(self, exp):
        n = 2**exp
        oracle = AdversaryLinkOracle(n)
        result = solve_parallel_links(oracle)
        # Termination is only sound once a single completion remains, and
        # closing the gap takes at least floor(log2 n) queries.
        completions = list(oracle.completions)
        assert len(completions) == 1
        location = completions[0]
        assert result.loads.loads == (location, n - location)
        threshold = exp  # floor(log2 n) for powers of two
        for queries_seen, size in enumerate(oracle.completion_history, start=1):
            if queries_seen < threshold:
                assert size >= 2
        assert result.queries_used >= threshold

    def test_committed_game_confirms_equilibrium(self):
        oracle = AdversaryLinkOracle(512)
        result = solve_parallel_links(oracle)
        game = oracle.committed_game()
        assert is_delta_equilibrium(
            link_tables(game), result.loads.loads, 1, result.loads.special
        )


class TestLargeN:
    """n = 2^40: the tables are breakpoints, so only the queries cost."""

    @pytest.mark.parametrize("m", [8, 64])
    def test_solve_within_bound(self, m):
        n = 2**40
        game = gen_random_step_links(m, n, seed=m)
        tables = link_tables(game)
        assert all(len(t) == n + 1 and len(t.starts) <= 4 for t in tables)
        result = solve_parallel_links(CongestionOracle(game))
        assert sum(result.loads.loads) == n
        assert result.queries_used <= result.query_bound
        assert is_delta_equilibrium(tables, result.loads.loads, 1, result.loads.special)

    def test_adversary_forces_log_n_queries(self):
        exp = 40
        n = 2**exp
        oracle = AdversaryLinkOracle(n)
        result = solve_parallel_links(oracle)
        assert result.queries_used >= exp
        assert all(size >= 2 for size in oracle.completion_history[: exp - 1])
        (location,) = oracle.completions
        assert result.loads.loads == (location, n - location)
        game = oracle.committed_game()
        assert is_delta_equilibrium(
            link_tables(game), result.loads.loads, 1, result.loads.special
        )


class _NonMonotoneOracle:
    """Breaks the nondecreasing-cost promise to exercise the guard.

    Link 0 costs link0[load] (decreasing by default: an invalid game) and
    link 1 costs 1 at every load.
    """

    def __init__(self, link0=tuple(F(10 - load) for load in range(5))):
        self.players = 4
        self.network = Network((0, 1), {0: (0, 1), 1: (0, 1)}, 0, 1)
        self.ledger = QueryLedger()
        self.link0 = link0

    def query_loads(self, assignment):
        out = {}
        for path, load in assignment.items():
            out[path] = self.link0[load] if path == (0,) else F(1)
        self.ledger.record("q", "r")
        return out


def test_non_monotone_hidden_costs_detected():
    with pytest.raises(AlgorithmInvariantViolated):
        solve_parallel_links(_NonMonotoneOracle())


@pytest.mark.parametrize("lower, higher", [(F(3), F(5, 2)), (F(7, 2), F(3))])
def test_non_monotone_mixed_integral_and_fractional_costs_detected(lower, higher):
    # With kf=3 the solver learns link 0 at loads 4 and 3 first, then at 1
    # and 2 in that order; the cache keeps 3 as an int, so the audit compares
    # an int with a Fraction.
    oracle = _NonMonotoneOracle((F(10), lower, higher, F(10), F(10)))
    with pytest.raises(AlgorithmInvariantViolated, match="load 2 below cost at 1"):
        solve_parallel_links(oracle, 3)


def test_non_monotone_cost_above_a_higher_load_detected():
    # With the default kf=2 the solver learns link 0 at load 4 first and at
    # 3 later; the cost at 3 exceeds the one already known at 4.
    oracle = _NonMonotoneOracle(tuple(F(v) for v in (0, 0, 0, 1, 0)))
    with pytest.raises(
        AlgorithmInvariantViolated, match="^link 0: cost at load 3 above cost at 4$"
    ):
        solve_parallel_links(oracle)


def test_single_player_takes_cheapest_link():
    game = parallel_links_game([[0, 4], [0, 2], [0, 7]], 1)
    result = solve_and_check(game)
    assert result.loads.loads == (0, 1, 0)


# sha256 of the query transcripts (QueryLedger.dump_jsonl) and of
# repr((loads, checkpoints, traces)), each hashed over the eight solves of
# gen_random_step_links(m, n, seed) for seeds 0-3, each with group factor
# None and then 3.  Recorded from the recursive refinement with a separate
# phase schedule; the single bisection loop must reproduce them exactly.
GRID_PINNED = {
    (2, 7): (
        "2f1080234f9cd30339dd570d7b614a1e4331639687a307c5f673bb0a2dc2ab54",
        "2a23efd3ca4b297c1236676bcc5ac5aee99233d0004582a6fbceda11e5290a33",
    ),
    (2, 100): (
        "6a4cda328698a1eecb21f20134507e8b3fb767bfd87204e6028f459c8ba1b6fe",
        "33069f08a3c6b851f6b67573fd6c06d5a7595fbbeeb18256af1ba29ec8b8e28d",
    ),
    (2, 1000): (
        "c871876eb2e7e6be7c497cf7854dbb190cfcca7cf64e55bcc54e1b2ee4342a88",
        "43f15c1ec52924f72800e8f145d5743d25593807fff8497770e3689949a82d6e",
    ),
    (2, 4097): (
        "187c650591401551c675966d5b792be2a02750a78af876e66791e63e569a4f2a",
        "850bc9c951cad4ea35434ef359034c2399a8ef819955454ab5f0a7f667e1e3ab",
    ),
    (3, 7): (
        "b140e76a9b9c32ab827a7e834b3e57a92e3e489e250a2f9f80587a97df561439",
        "4c8d92d2c8dc91f9a3ffcbd0df2c84d9859a62d40b5e2abec08110de030cc68d",
    ),
    (3, 100): (
        "7aebeb7ecb3e0ff43dcbb21c48844ed65136f74e74e5936958cb8afcd1e08af8",
        "99f21e18f5206d1ee70cae8520c68c274d5a1e72c27c27539d6348a889f7db4a",
    ),
    (3, 1000): (
        "972425a2bd46b600ade856b46dc2a1e0bfa61e62b379e29f06df4181334c85ec",
        "1e98b13ae8734863c81dfce5bbe47608368397ffa10c7430d05d260643cdcbb2",
    ),
    (3, 4097): (
        "654eaf26c5de03382c775ef2cae4e769ce24ad32599fe17ecdbb5a177f3ddd9e",
        "633764e1fa69016df2fc1dc978844eda99080f870c102d0a0a26de16818ed588",
    ),
    (8, 7): (
        "442b96ec745db6acb33f9b146d77f3f48c9158b5c4d969b714ae67adadcb4bb2",
        "f502ae77cadec5a78b1cf49a13bc089019f438921f437b88af2a4ef43e4b7c1d",
    ),
    (8, 100): (
        "88e08c36d9820658967b157611511da7c42b070e2c3d3bc452c501285bc7d7f8",
        "14efcd5dc06ae2c6cf79fef50fd0e95811082d4425bfea0a92bceb32a392b421",
    ),
    (8, 1000): (
        "ef592e17f2ee25ad8f4c1661e0374257ec6abcba772d9146328a0f01d75a1cd5",
        "6a606f12a9b4d1a187a8abeafb609888fac3b44e8fcd25cd3b8273e7c0cf5d02",
    ),
    (8, 4097): (
        "e13895cf072daede05c175660dfc46cba351a8fcc01079c7c4816c79e024a43f",
        "b1caf40c090eccdf27ff297435f69e3007e4bffb0c609ee63034f06cbdadfb23",
    ),
    (33, 7): (
        "72c69c7f7a9adbb74f1f762149e02e81b0e6d1356d01450fb90dbf48ae76ace0",
        "956a53012e321c676d6f17c816152194dbd64bc4ba3270bfb3a11ecb13c2f72b",
    ),
    (33, 100): (
        "6bacd20351f09225f60893daedffce63c11c8c0782fd4de6d8345a8ca7ab2d67",
        "45c19ec6b10f16089fcfbc7a3f6e386a83b6b146057f3807d95e05d32b8953e6",
    ),
    (33, 1000): (
        "2be1cbf40c957fb00bb2029bca7816f1c3476aad7a564b776494c725ee64d45a",
        "4c15803e316f43f67183ab1c6b481f67b3286a1ed2109550a8a75812fe3016bc",
    ),
    (33, 4097): (
        "c98d2e8570f1440fb080ecca85bd052a4e10c4b201f1b457d63e616cf7c8a1eb",
        "96dba7870fc07836fe88f9875d65f5895193e702245478f7d32d814705cdc526",
    ),
}

# The same two digests for one solve against AdversaryLinkOracle(n).
ADVERSARY_PINNED = {
    64: (
        "3990ab6e7c6be42dd601b63bcaa59bfa9335fda7a17d523a3deb65ac40d04016",
        "0999ddb4d93b79a9edb8cea2a387f7d2f1a963212c69dcbdca1408951fd0032e",
    ),
    1000: (
        "bf04be4ae1ba1503e7ae2a575f3d194d8a08508d2499485e582b498018c3589f",
        "859aa9da33dabdf445e361283ae6e52ade870aeda7e548edcfd18bd362118365",
    ),
}


def _primes(count):
    found = []
    candidate = 2
    while len(found) < count:
        if all(candidate % p for p in found if p * p <= candidate):
            found.append(candidate)
        candidate += 1
    return found


def rational_step_links(kind, m, n, seed):
    """Seeded step game on m links whose costs are rationals.

    With kind "mixed" every step draws its denominator from 1, 2, 3, 4, 6
    and 12, so integral and non-integral costs mix on one link; with kind
    "primes" every step of link i has the i-th prime as its denominator.
    """
    rng = random.Random(f"{kind}:{m}:{n}:{seed}")
    primes = _primes(m)
    tables = []
    for i in range(m):
        starts = [0, *sorted(rng.sample(range(1, n + 1), rng.randint(0, 3)))]
        value = F(0)
        steps = []
        for start in starts:
            den = rng.choice((1, 2, 3, 4, 6, 12)) if kind == "mixed" else primes[i]
            value += F(rng.randint(0, 5 * den), den)
            steps.append((start, value))
        tables.append(StepTable(steps, n))
    return parallel_links_game(tables, n)


# The same two digests over the eight solves of rational_step_links(kind, m,
# n, seed) for seeds 0-3, each with group factor None and then 3.  Recorded
# while the probe cache still held every cost as a Fraction.
RATIONAL_PINNED = {
    ("mixed", 8, 100): (
        "82886ee4c83b18edde020ac5c751c8ff835337c2dabbfa603b72b0326510087e",
        "77e03fafe5274a206d99ea24c42550d3de69872df341c8c6e7445072d55c4ca7",
    ),
    ("mixed", 8, 4097): (
        "192f5dbc7af6e1399298bb27d2d3b31488cf0b45594f8cef87ad55e257cf2ea6",
        "57fe3057b1956a1c0b64a220b668ddf9a0ee165cdc02d20d6b73c89b8716eb8a",
    ),
    ("mixed", 64, 100): (
        "f6492b9707059236caab9e1c811a91b763c04e70c14374d98f648b2a181898ad",
        "9eb103b48caad1298791483afefc811f129b4ab777fcef991a0e8816a0df15b8",
    ),
    ("mixed", 64, 4097): (
        "d6266b46a8cc0d805598ee0b5126e657a476cbc3f7465e0e4e5fafc3a83a6e83",
        "3996c90a925f76aef84c32dd60adf3aa1aaf1484f1dfa085ae87d56fc5b8b6f2",
    ),
    ("primes", 8, 100): (
        "6bb599f0edc8551e44364c3d7f07527beb4ce882a0aba47f45ef4ec01912ee52",
        "9a080033da426c1e2127058519356c8b3e25e723ae3decc3f8784e230f9cdb43",
    ),
    ("primes", 8, 4097): (
        "bf4716d361fd43f457865bb40a7c6cdc32aefbd42322cfa7a0f1e229fbb6f855",
        "c262d30e63f63e47f7dfb68233a1650f1a012aa871d4005e5e6791c1563d40d1",
    ),
    ("primes", 64, 100): (
        "dafca45bb01b8f18f5b2dabfab64bf1f07d956716d5ca0c88e8d21bf426dc55a",
        "1ae71c8c1fa6d96d5f1a5260195df85fbfe5beb93ced31f4b9285f9b6a3000f4",
    ),
    ("primes", 64, 4097): (
        "ee3be448c266b50a90bdb4a62352e1663536bfa81f980a56d34dadbc71711c17",
        "c601f691b697099e50ad8e19a2994f0607686bd62448afedf1fca32fc0e83ae2",
    ),
}


def _digests(oracle, kf, transcripts, outcomes):
    result = solve_parallel_links(oracle, kf)
    buf = io.StringIO()
    oracle.ledger.dump_jsonl(buf)
    transcripts.update(buf.getvalue().encode())
    outcomes.update(repr((result.loads, result.checkpoints, result.traces)).encode())


class TestPinnedTranscripts:
    @pytest.mark.parametrize("cell", sorted(GRID_PINNED))
    def test_step_grid(self, cell):
        m, n = cell
        transcripts, outcomes = hashlib.sha256(), hashlib.sha256()
        for seed in range(4):
            for kf in (None, 3):
                oracle = CongestionOracle(gen_random_step_links(m, n, seed))
                _digests(oracle, kf, transcripts, outcomes)
        assert (transcripts.hexdigest(), outcomes.hexdigest()) == GRID_PINNED[cell]

    @pytest.mark.parametrize("cell", sorted(RATIONAL_PINNED))
    def test_rational_grid(self, cell):
        transcripts, outcomes = hashlib.sha256(), hashlib.sha256()
        for seed in range(4):
            for kf in (None, 3):
                oracle = CongestionOracle(rational_step_links(*cell, seed))
                _digests(oracle, kf, transcripts, outcomes)
        assert (transcripts.hexdigest(), outcomes.hexdigest()) == RATIONAL_PINNED[cell]

    @pytest.mark.parametrize("n", sorted(ADVERSARY_PINNED))
    def test_adversary(self, n):
        transcripts, outcomes = hashlib.sha256(), hashlib.sha256()
        _digests(AdversaryLinkOracle(n), None, transcripts, outcomes)
        assert (transcripts.hexdigest(), outcomes.hexdigest()) == ADVERSARY_PINNED[n]

    def test_cli_trace(self, tmp_path):
        out = tmp_path / "result.json"
        argv = ["solve", "parallel-links", "--gen", "step:m=8,n=4096,seed=1",
                "--emit-trace", "--out", str(out)]
        assert main(argv) == EXIT_OK
        zeros = [0] * 8
        assert json.loads(out.read_text()) == {
            "loads": [0, 0, 0, 0, 4096, 0, 0, 0],
            "special_link": 4,
            "queries_used": 56,
            "query_bound": 625,
            "verified": True,
            "phases": [
                {"delta": delta, "moved_groups": 0, "removed": zeros, "added": zeros}
                for delta in (2187, 729, 243, 81, 27, 9, 3, 1)
            ],
        }
