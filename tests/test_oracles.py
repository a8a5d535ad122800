"""Oracle behaviour: accounting, hiding, budgets, and the two-link adversary."""

import io
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from pqlab import (
    AdversaryLinkOracle,
    AdversaryState,
    BudgetExhausted,
    CongestionOracle,
    GraphicalGame,
    InvalidProfile,
    LoadOutOfRange,
    PurePayoffOracle,
    adversary_query,
    consistent_completions,
    parallel_links_game,
    step_link_game,
    strategy_costs,
)
from pqlab.instances import gen_matching_pennies, gen_random_graphical

F = Fraction


class TestPurePayoffOracle:
    def test_pennies_query_counts(self):
        oracle = PurePayoffOracle(gen_matching_pennies(2))
        assert oracle.ledger.count == 0
        assert oracle.query_pure((0, 0)) == (1, 0)
        assert oracle.ledger.count == 1
        # Repeats are answered identically and still charged.
        assert oracle.query_pure((0, 0)) == (1, 0)
        assert oracle.ledger.count == 2

    def test_graphical_payoff_vector(self):
        game = gen_random_graphical(3, 2, 1, seed=9)
        oracle = PurePayoffOracle(game)
        assert oracle.query_pure((1, 1, 1)) == game.payoffs((1, 1, 1))

    def test_malformed_profile_not_counted(self):
        oracle = PurePayoffOracle(gen_matching_pennies(2))
        with pytest.raises(InvalidProfile):
            oracle.query_pure((0, 0, 0))
        with pytest.raises(InvalidProfile):
            oracle.query_pure((0, 5))
        assert oracle.ledger.count == 0

    def test_graphical_malformed_profile_not_counted(self):
        # Players 0 and 1 read each other; player 2 reads and affects no one,
        # so only its own payoff looks at position 2.
        k = 3
        tables = (
            {(own, (s,)): F(own + s, 8) for own in range(k) for s in range(k)},
            {(own, (s,)): F(own * s, 8) for own in range(k) for s in range(k)},
            {(own, ()): F(own, 4) for own in range(k)},
        )
        game = GraphicalGame(3, k, ((1,), (0,), ()), tables)
        oracle = PurePayoffOracle(game)
        bad = [(1, 1), (1, 1, 1, 1), ()]
        for i in range(3):
            for value in (-1, k):
                profile = [1, 1, 1]
                profile[i] = value
                bad.append(tuple(profile))
        for profile in bad:
            with pytest.raises(InvalidProfile):
                oracle.query_pure(profile)
            with pytest.raises(InvalidProfile):
                game.payoffs(profile)
        assert oracle.ledger.count == 0
        assert oracle.query_pure((2, 2, 2)) == (F(1, 2), F(1, 2), F(1, 2))

    def test_graphical_payoff_rejects_out_of_range_neighbor(self):
        game = gen_random_graphical(3, 2, 1, seed=9)
        p = next(p for p, nbrs in enumerate(game.in_neighbors) if nbrs)
        for value in (-1, 2):
            profile = [0, 0, 0]
            profile[game.in_neighbors[p][0]] = value
            with pytest.raises(InvalidProfile):
                game.payoff(p, profile)
        with pytest.raises(InvalidProfile):
            game.payoff(p, (0, 0))

    def test_budget_enforced(self):
        oracle = PurePayoffOracle(gen_matching_pennies(2), max_queries=1)
        oracle.query_pure((0, 0))
        with pytest.raises(BudgetExhausted):
            oracle.query_pure((0, 1))
        assert oracle.ledger.count == 1


class TestCongestionOracle:
    def test_two_link_costs(self):
        game = parallel_links_game([[0, 1, 2], [0, 5, 6]], 2)
        oracle = CongestionOracle(game)
        got = oracle.query_loads({(0,): 2, (1,): 1})
        assert got == {(0,): F(2), (1,): F(5)}
        assert oracle.ledger.count == 1

    def test_matches_strategy_costs(self):
        from tests.test_games import diamond

        game = diamond(players=2, f_a=1, f_b=1, f_c=0, f_d=0)
        oracle = CongestionOracle(game)
        q = {(0, 2): 1}
        assert oracle.query_loads(q) == strategy_costs(game, q)

    def test_load_out_of_range_not_counted(self):
        game = parallel_links_game([[0, 1], [0, 1]], 1)
        oracle = CongestionOracle(game)
        with pytest.raises(LoadOutOfRange):
            oracle.query_loads({(0,): 2})
        assert oracle.ledger.count == 0

    def test_transcript_dump(self):
        game = parallel_links_game([[0, 1, 2], [0, 5, 6]], 2)
        oracle = CongestionOracle(game)
        oracle.query_loads({(0,): 1})
        oracle.query_loads({(1,): 2})
        buf = io.StringIO()
        oracle.ledger.dump_jsonl(buf)
        lines = buf.getvalue().strip().splitlines()
        assert len(lines) == 2
        import json

        entry = json.loads(lines[0])
        assert set(entry) == {"query", "response"}


class TestInformationHiding:
    """The solver-facing surface must expose metadata and queries only."""

    ALLOWED = {
        PurePayoffOracle: {"players", "strategy_counts", "ledger", "query_pure"},
        CongestionOracle: {"players", "network", "ledger", "query_loads"},
    }

    @pytest.mark.parametrize(
        "make",
        [
            lambda: PurePayoffOracle(gen_matching_pennies(2)),
            lambda: CongestionOracle(parallel_links_game([[0, 1], [0, 1]], 1)),
        ],
        ids=["pure", "congestion"],
    )
    def test_public_surface(self, make):
        oracle = make()
        public = {
            name
            for name in dir(oracle)
            if not name.startswith("_")
        }
        assert public == self.ALLOWED[type(oracle)]

    def test_hidden_game_not_public(self):
        oracle = CongestionOracle(parallel_links_game([[0, 1], [0, 1]], 1))
        assert not hasattr(oracle, "game")
        assert not hasattr(oracle, "cost")


class TestAdversary:
    def test_trace_from_fresh_state(self):
        state = AdversaryState(8)
        assert adversary_query(state, 4) == (2, 1)
        assert (state.lower, state.upper) == (0, 4)
        assert adversary_query(state, 2) == (2, 1)
        assert (state.lower, state.upper) == (0, 2)

    def test_boundary_query_leaves_state(self):
        state = AdversaryState(8)
        assert adversary_query(state, 0) == (0, 1)
        assert (state.lower, state.upper) == (0, 8)

    def test_completions_fresh_and_closed(self):
        state = AdversaryState(8)
        assert list(consistent_completions(state)) == list(range(8))
        state.lower, state.upper = 3, 4
        assert list(consistent_completions(state)) == [3]

    def test_mid_game_completions_have_distinct_equilibria(self):
        state = AdversaryState(8, lower=2, upper=4)
        locations = list(consistent_completions(state))
        assert locations == [2, 3]
        # Each location commits to a different unique equilibrium split.
        splits = set()
        for i in locations:
            game = step_link_game(8, i)
            from pqlab.verify import greedy_parallel_ne
            from pqlab.games import link_tables

            splits.add(greedy_parallel_ne(link_tables(game), 8))
        assert len(splits) == len(locations)

    def test_replay_consistency_brute_force(self):
        # Every claimed completion reproduces the adversary's transcript.
        n = 32
        oracle = AdversaryLinkOracle(n)
        for x in (20, 9, 13, 30, 1):
            oracle.query_loads({(0,): x, (1,): n - x})
        transcript = [
            ({tuple(p): c for p, c in q["loads"]}, r)
            for q, r in oracle.ledger.log
        ]
        for location in consistent_completions(oracle.state):
            game = step_link_game(n, location)
            for query, response in transcript:
                truth = strategy_costs(game, query)
                for key, value in response.items():
                    path = tuple(int(v) for v in key.strip("[]").split(","))
                    assert truth[path] == F(value)

    def test_gap_halves_at_most(self):
        state = AdversaryState(1024)
        gap = state.gap
        for x in (512, 300, 400, 370, 380, 375):
            adversary_query(state, x)
            assert state.gap * 2 >= gap - 1
            gap = state.gap

    def test_adversary_oracle_counts_and_history(self):
        oracle = AdversaryLinkOracle(16)
        oracle.query_loads({(0,): 8})
        oracle.query_loads({(1,): 3})
        assert oracle.ledger.count == 2
        assert oracle.completion_history[0] == 8


@given(st.integers(2, 2**16), st.lists(st.integers(0, 2**16), max_size=30))
def test_gap_lower_bound_property(n, xs):
    state = AdversaryState(n)
    queries = 0
    for x in xs:
        before = state.gap
        adversary_query(state, min(x, n))
        queries += 1
        assert state.gap >= (before + 1) // 2 or state.gap == before
    assert state.gap * 2**queries >= n
