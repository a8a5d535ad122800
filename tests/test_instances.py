"""Generator families: construction identities and invariants."""

import hashlib
import json
from fractions import Fraction
from math import comb

import pytest

from pqlab import InvalidSpec, MixedProfile, parallel_links_game, regret
from pqlab.cli import make_game
from pqlab.games import StepTable, link_tables
from pqlab.instances import (
    gen_G_ell,
    gen_matching_pennies,
    gen_R_ell,
    gen_random_bimatrix,
    gen_random_dag,
    gen_random_graphical,
    gen_random_step_links,
    rows_winning_in_column,
)
from pqlab.serialize import game_to_dict

F = Fraction


class TestMatchingPennies:
    def test_k2_tables(self):
        game = gen_matching_pennies(2)
        assert game.row_payoff == ((1, 0), (0, 1))
        assert game.col_payoff == ((0, 1), (1, 0))

    def test_uniform_regret_zero_for_k3(self):
        game = gen_matching_pennies(3)
        assert regret(game, MixedProfile.uniform(3, 3)) == 0

    def test_perturbed_variant_moves_the_equilibrium(self):
        from pqlab.verify import exact_ne_2x2

        game = gen_matching_pennies(2)
        perturbed_row = ((F(99, 100), F(0)), (F(0), F(1)))
        perturbed = type(game)(
            perturbed_row, tuple(tuple(1 - v for v in r) for r in perturbed_row)
        )
        ne = exact_ne_2x2(perturbed)
        assert ne != exact_ne_2x2(game)
        assert regret(perturbed, ne) == 0

    def test_k_below_2_rejected(self):
        with pytest.raises(InvalidSpec):
            gen_matching_pennies(1)


class TestGell:
    def test_ell4_shape(self):
        game = gen_G_ell(4)
        assert game.rows == comb(4, 2) == 6
        assert game.cols == 4
        for row in game.row_payoff:
            assert sum(row) == 2
        assert len(set(game.row_payoff)) == game.rows

    def test_constant_sum(self):
        game = gen_G_ell(6)
        for i in range(game.rows):
            for j in range(game.cols):
                assert game.row_payoff[i][j] + game.col_payoff[i][j] == 1

    def test_uniform_row_gets_half_against_any_column(self):
        game = gen_G_ell(6)
        for j in range(game.cols):
            column = [game.row_payoff[i][j] for i in range(game.rows)]
            assert sum(column, F(0)) / game.rows == F(1, 2)

    @pytest.mark.parametrize("ell", [4, 6, 8])
    def test_column_overlap_fractions(self, ell):
        # |R_j| = C(ell-1, ell/2-1); any other column hits R_j in a
        # (ell/2-1)/(ell-1) fraction of its rows.
        game = gen_G_ell(ell)
        for j in range(ell):
            r_j = rows_winning_in_column(game, j)
            assert len(r_j) == comb(ell - 1, ell // 2 - 1)
            for j2 in range(ell):
                if j2 == j:
                    continue
                ones = sum(1 for i in r_j if game.row_payoff[i][j2] == 1)
                assert F(ones, len(r_j)) == F(ell // 2 - 1, ell - 1)

    def test_uniform_over_rj_payoff_with_quarter_mass(self):
        # alpha = 1/4 on column j, rest spread evenly: expected payoff of the
        # uniform-over-R_j row strategy is alpha + (1-alpha)(ell/2-1)/(ell-1);
        # for ell = 8 that is exactly 4/7.
        ell, alpha = 8, F(1, 4)
        game = gen_G_ell(ell)
        j = 2
        r_j = rows_winning_in_column(game, j)
        rest = (1 - alpha) / (ell - 1)
        col_dist = [alpha if c == j else rest for c in range(ell)]
        row_dist = [
            F(1, len(r_j)) if i in set(r_j) else F(0) for i in range(game.rows)
        ]
        expected = sum(
            row_dist[i] * col_dist[c] * game.row_payoff[i][c]
            for i in range(game.rows)
            for c in range(ell)
        )
        assert expected == alpha + (1 - alpha) * F(ell // 2 - 1, ell - 1) == F(4, 7)

    def test_odd_ell_rejected(self):
        for ell in (5, 2, 0, -4):
            with pytest.raises(InvalidSpec, match=f"ell must be even and >= 4, got {ell}"):
                gen_G_ell(ell)


class TestRell:
    def test_shape(self):
        game = gen_R_ell(3, 1)
        assert game.row_payoff == ((0, 0, 0), (1, 1, 1), (0, 0, 0))
        assert all(v == 0 for row in game.col_payoff for v in row)

    def test_low_regret_profiles_put_mass_on_target(self):
        k, target = 4, 2
        game = gen_R_ell(k, target)
        # Regret <= eps < 1 - 1/k forces > 1/k probability on the target row.
        row = [F(1, 2) if i in (0, target) else F(0) for i in range(k)]
        profile = MixedProfile.of(row, [F(1, k)] * k)
        eps = regret(game, profile)
        assert eps < 1 - F(1, k)
        assert profile.row_dist[target] > F(1, k)

    def test_degenerate_rejected(self):
        with pytest.raises(InvalidSpec):
            gen_R_ell(1, 0)
        with pytest.raises(InvalidSpec):
            gen_R_ell(3, 3)


class TestStepLinks:
    def test_explicit_two_link_instance(self):
        game = parallel_links_game(
            [StepTable([(0, F(1))], 4), StepTable([(0, F(0)), (3, F(2))], 4)], 4
        )
        tables = link_tables(game)
        assert tables[0] == (1, 1, 1, 1, 1)
        assert tables[1] == (0, 0, 0, 2, 2)
        # Unique equilibrium splits the players evenly.
        from pqlab.verify import greedy_parallel_ne

        assert greedy_parallel_ne(tables, 4) == (2, 2)

    def test_single_link_forced(self):
        game = parallel_links_game([StepTable([(0, F(5))], 3)], 3)
        from pqlab.verify import greedy_parallel_ne

        assert greedy_parallel_ne(link_tables(game), 3) == (3,)

    def test_random_instances_monotone(self):
        for seed in range(50):
            game = gen_random_step_links(4, 12, seed)
            for table in game.cost.values():
                assert all(a <= b for a, b in zip(table, table[1:]))


class TestRandomGenerators:
    def test_same_seed_same_game(self):
        assert gen_random_dag(6, 10, 3, 11) == gen_random_dag(6, 10, 3, 11)
        assert gen_random_bimatrix(5, 3) == gen_random_bimatrix(5, 3)
        assert gen_random_graphical(5, 2, 2, 7) == gen_random_graphical(5, 2, 2, 7)

    def test_random_dag_valid(self):
        for seed in range(30):
            game = gen_random_dag(6, 10, 3, seed)
            game.network.topological_order()
            assert game.network.origin in game.network.vertices

    def test_negative_subdivide_rejected(self):
        with pytest.raises(InvalidSpec, match="subdivide"):
            gen_random_dag(6, 10, 3, 0, subdivide=-1)

    def test_random_graphical_degree_bound(self):
        game = gen_random_graphical(5, 2, 2, seed=4)
        assert max(len(nbrs) for nbrs in game.in_neighbors) <= 2

    def test_generators_obey_invariants_over_many_seeds(self):
        # Type constructors validate everything; building is the check.
        for seed in range(1000):
            gen_random_bimatrix(3, seed)
        for seed in range(200):
            gen_random_step_links(3, 9, seed)
            gen_random_dag(5, 7, 2, seed)
            gen_random_graphical(4, 2, 1, seed)


# sha256 of the game_to_dict JSON of each spec, captured before the
# generators dropped their spec classes: the draws must stay the same.
GAME_DIGESTS = {
    "step:m=64,n=262144,seed=1": "a5fa408e05c00b6392801a6545d1f9f6814e0f378c5bc27b3221039982ebd960",
    "step:m=1024,n=4096,seed=1": "80774476f4063e6ec4ce54fb88854de81bf141e7b00213a031765820cd1f72de",
    "step:m=8,n=1099511627776,seed=3": "83eec85ab84b2ac3d20f881a0d8aa90cbc13099c5484e892127929f3433b2eb5",
    "gell:ell=8": "b2662be0ce194a3ec7e380fd98e2cf260a0b20b9a8538b7cb9b875af06e783ea",
}


@pytest.mark.parametrize("spec", GAME_DIGESTS)
def test_generated_game_is_pinned(spec):
    text = json.dumps(game_to_dict(make_game(spec)))
    assert hashlib.sha256(text.encode()).hexdigest() == GAME_DIGESTS[spec]
