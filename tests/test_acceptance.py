"""Acceptance suite: one test per criterion, exact tolerances, pass/fail lines.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Every numeric comparison is exact rational arithmetic unless a
criterion states a ratio explicitly.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import comb

import pytest

from pqlab import (
    AdversaryLinkOracle,
    BimatrixGame,
    CongestionOracle,
    MixedProfile,
    PurePayoffOracle,
    half_approx_ne,
    regret,
)
from pqlab.dag_learner import contract_network, solve_dag_game
from pqlab.games import link_tables
from pqlab.graphical import learn_graphical, probe_set_size
from pqlab.instances import (
    gen_G_ell,
    gen_matching_pennies,
    gen_random_bimatrix,
    gen_random_dag,
    gen_random_graphical,
    gen_random_step_links,
    rows_winning_in_column,
)
from pqlab.parallel_links import solve_parallel_links
from pqlab.verify import (
    brute_force_pure_ne,
    check_equivalence,
    deviation_report,
    exact_ne_2x2,
    is_delta_equilibrium,
)
from tests.test_dag_learner import reduced_game

F = Fraction
HALF = F(1, 2)


@contextmanager
def criterion(number: int, title: str):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {number:>2}: FAIL - {title}")
        raise
    print(f"criterion {number:>2}: PASS - {title} ({time.monotonic() - started:.1f}s)")


def test_criterion_01_half_ne_query_bound():
    with criterion(1, "half-NE uses exactly 19 queries with regret <= 1/2 on 1000 games"):
        started = time.monotonic()
        for seed in range(1000):
            game = gen_random_bimatrix(10, seed)
            oracle = PurePayoffOracle(game)
            result = half_approx_ne(oracle)
            assert result.queries_used == 19
            assert oracle.ledger.count == 19
            assert regret(game, result.profile) <= HALF
        assert time.monotonic() - started < 10


def test_criterion_02_uniform_fallback_bound():
    with criterion(2, "uniform profile has regret <= 3/4 on 1000 random k=4 games"):
        bound = 1 - F(1, 4)
        for seed in range(1000):
            game = gen_random_bimatrix(4, seed)
            assert regret(game, MixedProfile.uniform(4, 4)) <= bound


def _uniform_over_winning_rows_payoff(game: BimatrixGame, j: int, alpha: F) -> F:
    """Row player's exact payoff: uniform on the rows paying 1 in column j,
    against a column mix with mass alpha on j and the rest spread evenly."""
    winners = rows_winning_in_column(game, j)
    rest = (1 - alpha) / (game.cols - 1)
    total = F(0)
    for i in winners:
        for c in range(game.cols):
            weight = alpha if c == j else rest
            total += weight * game.row_payoff[i][c]
    return total / len(winners)


def test_criterion_03_gell_payoff_identities():
    with criterion(
        3, "half-one-row family: exact payoff identity and strict bound on the full grid"
    ):
        failures = []
        for ell in (4, 6, 8):
            game = gen_G_ell(ell)
            for alpha in (F(1, ell) + F(1, 8), F(1, 4), F(1, 2)):
                formula = alpha + (1 - alpha) * F(ell // 2 - 1, ell - 1)
                bound = HALF + alpha / 2 - F(1, 2 * ell)
                for j in range(ell):
                    payoff = _uniform_over_winning_rows_payoff(game, j, alpha)
                    assert payoff == formula
                    if not payoff > bound:
                        failures.append((ell, alpha, j, payoff, bound))
        # Strict exceedance holds exactly when alpha > 1/ell; at alpha ==
        # 1/ell the payoff equals the bound, so that grid cell cannot pass.
        assert not failures, (
            "payoff did not strictly exceed 1/2 + alpha/2 - 1/(2*ell) at "
            + "; ".join(
                f"ell={ell}, alpha={alpha}, column {j}: payoff {payoff} == bound {bound}"
                for ell, alpha, j, payoff, bound in failures[:3]
            )
            + (" ..." if len(failures) > 3 else "")
        )


def test_criterion_04_exact_ne_needs_every_entry():
    with criterion(
        4, "two zero-sum 2x2 games, one entry apart, with distinct unique equilibria"
    ):
        base = gen_matching_pennies(2)
        perturbed_row = ((F(99, 100), F(0)), (F(0), F(1)))
        perturbed = BimatrixGame(
            perturbed_row, tuple(tuple(1 - v for v in r) for r in perturbed_row)
        )
        differing = [
            (i, j)
            for i in range(2)
            for j in range(2)
            if base.row_payoff[i][j] != perturbed.row_payoff[i][j]
            or base.col_payoff[i][j] != perturbed.col_payoff[i][j]
        ]
        assert differing == [(0, 0)]
        # Both stay constant-sum (the [0,1] rescaling of zero-sum games).
        for game in (base, perturbed):
            for i in range(2):
                for j in range(2):
                    assert game.row_payoff[i][j] + game.col_payoff[i][j] == 1
        ne_base = exact_ne_2x2(base)
        ne_perturbed = exact_ne_2x2(perturbed)
        assert regret(base, ne_base) == 0
        assert regret(perturbed, ne_perturbed) == 0
        assert ne_base == MixedProfile.uniform(2, 2)
        assert ne_base != ne_perturbed
        # Any algorithm issuing at most k^2 - 1 = 3 queries misses an entry,
        # and the two games prove the missed entry decides the equilibrium.


def test_criterion_05_graphical_learner_exact_recovery():
    with criterion(
        5, "graphical learner: exact payoffs and probe-set query count on 200 games"
    ):
        started = time.monotonic()
        import itertools

        for seed in range(200):
            rng = random.Random(seed)
            n = rng.randint(2, 6)
            k = rng.randint(2, 3)
            d = rng.randint(0, min(2, n - 1))
            game = gen_random_graphical(n, k, d, seed)
            oracle = PurePayoffOracle(game)
            learned = learn_graphical(oracle, n, k, d)
            expected = probe_set_size(n, k, d)
            assert learned.queries_used == oracle.ledger.count == expected
            assert expected == sum(
                comb(n, j) * (k - 1) ** j for j in range(d + 2)
            )
            assert expected < (n * k) ** (d + 1)
            for profile in itertools.product(range(k), repeat=n):
                assert learned.game.payoffs(profile) == game.payoffs(profile)
        assert time.monotonic() - started < 60


def _step_instance(seed: int):
    rng = random.Random(seed)
    m = rng.randint(2, 16)
    n = rng.randint(2, 10 ** rng.randint(1, 5))
    return gen_random_step_links(m, n, seed), m, n


def test_criterion_06_parallel_links_correctness():
    with criterion(
        6, "parallel links: delta=1 equilibrium, phase checkpoints, move bounds (200 runs)"
    ):
        for seed in range(200):
            game, m, n = _step_instance(seed)
            tables = link_tables(game)
            oracle = CongestionOracle(game)
            result = solve_parallel_links(oracle)
            kf = result.group_factor
            special = result.loads.special
            assert sum(result.loads.loads) == n
            assert is_delta_equilibrium(tables, result.loads.loads, 1, special)
            for delta, loads in result.checkpoints:
                assert is_delta_equilibrium(tables, loads, delta, special)
            for trace in result.traces:
                assert max(trace.added, default=0) <= 2 * kf
                assert trace.moved_groups <= kf * m
            assert result.queries_used <= result.query_bound


def test_criterion_07_parallel_links_query_scaling():
    with criterion(
        7, "parallel links: ledger within closed-form bound; doubling exponent scales <= 2.5x"
    ):
        # Bound adherence on the whole random family.
        for seed in range(50):
            game, _, _ = _step_instance(seed)
            result = solve_parallel_links(CongestionOracle(game))
            assert result.queries_used <= result.query_bound
        # Fixed m = 8: growing n from 2^10 to 2^20 at most 2.5x the ledger.
        small = solve_parallel_links(
            CongestionOracle(gen_random_step_links(8, 2**10, seed=42))
        )
        large = solve_parallel_links(
            CongestionOracle(gen_random_step_links(8, 2**20, seed=42))
        )
        assert large.queries_used <= 2.5 * small.queries_used


def test_criterion_08_adversary_lower_bound():
    with criterion(
        8, "two-link adversary: no singleton before floor(log2 n) queries; solver still exact"
    ):
        for exp in range(6, 21):
            n = 2**exp
            oracle = AdversaryLinkOracle(n)
            result = solve_parallel_links(oracle)
            completions = list(oracle.completions)
            assert len(completions) == 1
            location = completions[0]
            assert result.loads.loads == (location, n - location)
            assert result.queries_used >= exp
            # After q < floor(log2 n) queries the adversary still had at
            # least two consistent step locations.
            for after_q, size in enumerate(oracle.completion_history, start=1):
                if after_q < exp:
                    assert size >= 2
            # The solver's answer is the unique equilibrium of the game the
            # adversary ended up committed to.
            game = oracle.committed_game()
            assert is_delta_equilibrium(
                link_tables(game), result.loads.loads, 1, result.loads.special
            )


def _dag_instances(count: int, max_edges: int, subdivide=0, max_players=4, sizes=(4, 8)):
    collected = []
    seed = 0
    while len(collected) < count:
        rng = random.Random(10_000 + seed)
        vertices = rng.randint(*sizes)
        edges = rng.randint(vertices, 3 * vertices - 4)
        players = rng.randint(1, max_players)
        extra = rng.randint(1, 3) if subdivide else 0
        game = gen_random_dag(vertices, edges, players, seed, subdivide=extra)
        reduced_net, _ = contract_network(game.network)
        if len(reduced_net.edges) <= max_edges:
            collected.append(game)
        seed += 1
    return collected


def test_criterion_09_dag_learner_equivalence_and_accounting():
    with criterion(
        9, "DAG learner: exhaustive equivalence, |E|*n ledger, verified equilibrium (100 DAGs)"
    ):
        started = time.monotonic()
        for game in _dag_instances(100, max_edges=14):
            oracle = CongestionOracle(game)
            result = solve_dag_game(oracle)
            edges = len(result.contraction.reduced.edges)
            assert result.queries_used == edges * game.players
            ok, counterexample = check_equivalence(
                result.learned.as_tables(), game, mode="exhaustive"
            )
            assert ok, counterexample
            assert deviation_report(game, result.profile).is_equilibrium
        assert time.monotonic() - started < 120


def test_criterion_10_preprocessing_round_trip():
    with criterion(
        10, "contraction: equilibria map back, zero queries (100 chain-injected DAGs)"
    ):
        for game in _dag_instances(
            100, max_edges=12, subdivide=1, max_players=3, sizes=(3, 6)
        ):
            oracle = CongestionOracle(game)
            reduced_net, cmap = contract_network(oracle.network)
            assert oracle.ledger.count == 0
            reduced, cmap2 = reduced_game(game)
            assert [s.removed for s in cmap.steps] == [
                s.removed for s in cmap2.steps
            ]
            nes = brute_force_pure_ne(reduced)
            assert nes
            mapped = cmap2.map_profile_back(nes[0])
            assert deviation_report(game, mapped).is_equilibrium
