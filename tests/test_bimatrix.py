"""The 2k-1-query half-equilibrium routine and the uniform fallback."""

from fractions import Fraction

from pqlab import MixedProfile, PurePayoffOracle, half_approx_ne, regret
from pqlab.bimatrix import tiebreak_best_response
from pqlab.instances import (
    gen_matching_pennies,
    gen_R_ell,
    gen_random_bimatrix,
)

from tests.test_games import bimatrix

F = Fraction
HALF = F(1, 2)


class TestTiebreak:
    def test_first_maximizer(self):
        assert tiebreak_best_response([F(0), F(1), F(1)]) == 1

    def test_singleton(self):
        assert tiebreak_best_response([F(5)]) == 0

    def test_all_equal(self):
        assert tiebreak_best_response([F(2), F(2), F(2)]) == 0


class TestHalfApproxNe:
    def test_matching_pennies_trace_and_regret(self):
        game = gen_matching_pennies(2)
        oracle = PurePayoffOracle(game)
        result = half_approx_ne(oracle)
        assert result.trace == (0, 1, 1)
        assert result.queries_used == 3
        assert result.profile.row_dist == (HALF, HALF)
        assert result.profile.col_dist == (F(0), F(1))
        assert regret(game, result.profile) == HALF

    def test_dominant_row_collapses_to_pure(self):
        game = bimatrix(
            [[1, 1], [0, 0]], [["1/2", 0], [0, "1/2"]]
        )
        oracle = PurePayoffOracle(game)
        result = half_approx_ne(oracle)
        s1, s2, s3 = result.trace
        assert s3 == s1 == 0
        assert result.profile == MixedProfile.pure(0, 0, 2, 2)
        assert regret(game, result.profile) == 0

    def test_regret_bound_and_query_count_on_random_games(self):
        for seed in range(300):
            game = gen_random_bimatrix(10, seed)
            oracle = PurePayoffOracle(game)
            result = half_approx_ne(oracle)
            assert result.queries_used == 19
            assert oracle.ledger.count == 19
            assert regret(game, result.profile) <= HALF

    def test_rectangular_game(self):
        row = [[0, 1, "1/2", 1, 0], ["1/2", 0, 1, 0, 1], [1, "1/4", 0, "1/2", 0]]
        col = [[1, 0, "1/2", 0, 1], [0, "3/4", 0, 1, "1/2"], ["1/4", 1, 1, 0, 0]]
        game = bimatrix(row, col)
        oracle = PurePayoffOracle(game)
        result = half_approx_ne(oracle)
        assert result.queries_used == 5 + 3 - 1
        assert regret(game, result.profile) <= HALF

    def test_target_row_identified_on_hard_family(self):
        # Any profile with regret below 1 - 1/k must weight the paying row.
        for target in range(4):
            game = gen_R_ell(4, target)
            oracle = PurePayoffOracle(game)
            result = half_approx_ne(oracle)
            eps = regret(game, result.profile)
            assert eps <= HALF < 1 - F(1, 4)
            assert result.profile.row_dist[target] > F(1, 4)


class TestUniformProfile:
    def test_quarter_masses(self):
        profile = MixedProfile.uniform(4, 4)
        assert profile.row_dist == (F(1, 4),) * 4
        assert profile.col_dist == (F(1, 4),) * 4

    def test_regret_bound_on_random_games(self):
        for seed in range(300):
            game = gen_random_bimatrix(4, seed)
            assert regret(game, MixedProfile.uniform(4, 4)) <= 1 - F(1, 4)

    def test_pennies_uniform_exact(self):
        game = gen_matching_pennies(4)
        assert regret(game, MixedProfile.uniform(4, 4)) == 0
