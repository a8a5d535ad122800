"""Structure discovery and payoff reconstruction for graphical games."""

import hashlib
import io
import itertools
import json
from fractions import Fraction

import pytest

from pqlab import DegreeViolation, GraphicalGame, InvalidSpec, PurePayoffOracle
from pqlab.graphical import build_probe_set, learn_graphical, probe_set_size
from pqlab.instances import gen_random_graphical
from pqlab.serialize import game_to_dict

F = Fraction


def cycle_game(n=3, k=2):
    """Player p's payoff depends on p and its predecessor in a directed cycle."""
    in_neighbors = tuple((p - 1) % n for p in range(n))
    tables = []
    for p in range(n):
        table = {}
        for own in range(k):
            for ctx in itertools.product(range(k), repeat=1):
                table[(own, ctx)] = F(own * 2 + ctx[0] + p, 16)
        tables.append(table)
    return GraphicalGame(n, k, tuple((q,) for q in in_neighbors), tuple(tables))


class TestProbeSet:
    def test_size_n3_k2_d1(self):
        probes = build_probe_set(3, 2, 1)
        assert len(probes) == 7 == probe_set_size(3, 2, 1)

    def test_everything_when_promise_covers_all(self):
        assert len(build_probe_set(2, 2, 1)) == 4

    def test_size_n5_k3_d0(self):
        assert len(build_probe_set(5, 3, 0)) == 11 == probe_set_size(5, 3, 0)

    def test_bound_below_nk_power(self):
        for n, k, d in [(6, 3, 2), (5, 2, 1), (4, 4, 2)]:
            assert probe_set_size(n, k, d) < (n * k) ** (d + 1)

    def test_promise_above_players_rejected(self):
        with pytest.raises(InvalidSpec):
            build_probe_set(2, 2, 2)

    def test_no_duplicates(self):
        probes = build_probe_set(4, 3, 2)
        assert len(set(probes)) == len(probes)


class TestLearner:
    def test_independent_player_has_no_incoming_edge(self):
        # Player 1 ignores player 0 entirely.
        tables = (
            {(0, ()): F(1, 4), (1, ()): F(3, 4)},
            {(0, ()): F(1, 2), (1, ()): F(1, 2)},
        )
        game = GraphicalGame(2, 2, ((), ()), tables)
        learned = learn_graphical(PurePayoffOracle(game), 2, 2, 1)
        assert (0, 1) not in learned.affects_edges
        assert (1, 0) not in learned.affects_edges

    def test_cycle_edges_recovered(self):
        game = cycle_game(3, 2)
        learned = learn_graphical(PurePayoffOracle(game), 3, 2, 1)
        assert learned.affects_edges == {(2, 0), (0, 1), (1, 2)}

    def test_edge_seen_only_at_a_later_strategy(self):
        # Player 0 moves player 1's payoff only by playing strategy 2.
        tables = (
            {(own, ()): F(1, 2) for own in range(3)},
            {(own, (s,)): F(int(s == 2), 2) for own in range(3) for s in range(3)},
        )
        game = GraphicalGame(2, 3, ((), (0,)), tables)
        learned = learn_graphical(PurePayoffOracle(game), 2, 3, 1)
        assert learned.affects_edges == {(0, 1)}

    def test_query_count_is_probe_set_size(self):
        game = gen_random_graphical(5, 3, 2, seed=2)
        oracle = PurePayoffOracle(game)
        learned = learn_graphical(oracle, 5, 3, 2)
        assert learned.queries_used == oracle.ledger.count == probe_set_size(5, 3, 2)

    def test_exact_recovery_on_all_profiles(self):
        for seed in range(30):
            game = gen_random_graphical(5, 2, 2, seed=seed)
            learned = learn_graphical(PurePayoffOracle(game), 5, 2, 2)
            for profile in itertools.product(range(2), repeat=5):
                assert learned.game.payoffs(profile) == game.payoffs(profile)

    def test_soundness_edges_are_witnessed(self):
        # Every reported edge really changes some payoff: flipping the
        # source's strategy somewhere must move the target's payoff.
        game = gen_random_graphical(5, 3, 2, seed=8)
        learned = learn_graphical(PurePayoffOracle(game), 5, 3, 2)
        for q, p in learned.affects_edges:
            assert q in game.in_neighbors[p]

    def test_degree_violation_detected(self):
        # A parity game where every player affects everyone has degree n-1.
        n, k = 3, 2
        tables = []
        for p in range(n):
            nbrs = tuple(q for q in range(n) if q != p)
            table = {}
            for own in range(k):
                for ctx in itertools.product(range(k), repeat=n - 1):
                    table[(own, ctx)] = F((own + sum(ctx)) % 2)
            tables.append(table)
        game = GraphicalGame(
            n, k, tuple(tuple(q for q in range(n) if q != p) for p in range(n)), tuple(tables)
        )
        with pytest.raises(DegreeViolation):
            learn_graphical(PurePayoffOracle(game), n, k, 1)


def test_every_edge_has_a_probe_pair_witness():
    # Recompute witnesses directly from the probe set: the learned edges are
    # exactly the pairs (q, p) for which two probes differing only in q's
    # strategy give p different payoffs.
    n, d = 5, 2
    for k, seed in itertools.product((2, 3), (*range(6), 12)):
        game = gen_random_graphical(n, k, d, seed=seed)
        learned = learn_graphical(PurePayoffOracle(game), n, k, d)
        responses = {s: game.payoffs(s) for s in build_probe_set(n, k, d)}
        witnessed = set()
        for s in responses:
            for q, alt in itertools.product(range(n), range(k)):
                s2 = s[:q] + (alt,) + s[q + 1 :]
                if s2 in responses:
                    witnessed.update(
                        (q, p)
                        for p in range(n)
                        if p != q and responses[s2][p] != responses[s][p]
                    )
        assert learned.affects_edges == witnessed, (k, seed)


# sha256 of the query transcript (QueryLedger.dump_jsonl) and of the learned
# game's serialize.game_to_dict JSON (sorted keys), per
# gen_random_graphical(5, 3, 2, seed) learned with d=2.  Recorded from the
# learner that grouped probes by each deviator's context; comparing each
# probe with its parent must reproduce them exactly.
PINNED = {
    0: (
        "59ae2479dcf3dd5c188950a7778a96640559aca8059dbe93ea3b978a00eaf936",
        "d0e86d066fc6aa4896bcdf394878824a5ba4f49075b9aacab127b97dd9b912d9",
    ),
    1: (
        "ae8be2f05472081df06d2f8fc842c018332da0ba3d019aff6b44f48ecb1acf44",
        "b40a3d6a97c9cc34e3bf8e5555823256211d4d32c072b165f4171d458d0c5c1c",
    ),
    2: (
        "746d6a942706497f37cacc8104e8ff94f90bc446346df95ea3b559c12adebb06",
        "31c3f0d51c19a69a668c95e28b4fef8dc995aba7df5446912a84426c6196e308",
    ),
    3: (
        "5505bc2b110569b2c6e9c9d1bf79873fe148bfefed94a197f63b77fff438e33c",
        "427758af6abc3ea6e17b797e0ca45d106936377adb3e56e6b0de7652595a525e",
    ),
    4: (
        "c79e45d4a9456d57a96863aba22bd624268c65b02c96efbfdc8145852450b28e",
        "55912b66e57517466b228ee4181d1940443cd283b5a4e150f930d20f34deaacc",
    ),
    5: (
        "c4548dae1399b03989c28214f24864e80dcdb3ead6fcf6684b7fd8ade66a90a7",
        "6c8b17979ad9675c00f3bd7edcb7fb448f3a7ea865d2011e8f7df108eb98b745",
    ),
}


def transcript_sha256(oracle) -> str:
    buf = io.StringIO()
    oracle.ledger.dump_jsonl(buf)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_transcript_and_learned_game_pinned(seed):
    oracle = PurePayoffOracle(gen_random_graphical(5, 3, 2, seed))
    learned = learn_graphical(oracle, 5, 3, 2)
    game_json = json.dumps(game_to_dict(learned.game), sort_keys=True)
    assert (
        transcript_sha256(oracle),
        hashlib.sha256(game_json.encode()).hexdigest(),
    ) == PINNED[seed]


def test_degree_violation_message_and_transcript_pinned():
    oracle = PurePayoffOracle(gen_random_graphical(5, 3, 4, 0))
    with pytest.raises(DegreeViolation) as err:
        learn_graphical(oracle, 5, 3, 1)
    assert str(err.value) == "player 0 shows 3 influencing players, promise was 1"
    assert oracle.ledger.count == probe_set_size(5, 3, 1)
    assert transcript_sha256(oracle) == (
        "4f283c29b2caf41fc44525ed32d3c8c4e16c6772f0511677d7a183ffbcfbb98e"
    )
