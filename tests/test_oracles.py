"""Oracle behaviour: accounting, hiding, budgets, and the two-link adversary."""

import io
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pqlab import (
    AdversaryLinkOracle,
    BudgetExhausted,
    CongestionOracle,
    GraphicalGame,
    InvalidProfile,
    InvalidSpec,
    LoadOutOfRange,
    PurePayoffOracle,
    parallel_links_game,
)
from pqlab.games import enumerate_paths, strategy_costs
from pqlab.instances import (
    gen_matching_pennies,
    gen_random_dag,
    gen_random_graphical,
    gen_random_step_links,
)
from pqlab.oracles import step_link_game

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

    @pytest.mark.parametrize(
        "make",
        [
            lambda seed: gen_random_dag(8, 16, 6, seed),
            lambda seed: gen_random_dag(10, 24, 4, seed, subdivide=3),
            lambda seed: gen_random_step_links(5, 40, seed),
        ],
        ids=["random-dag", "random-dag-subdivided", "step-links"],
    )
    @pytest.mark.parametrize("seed", range(4))
    def test_prices_every_path_by_its_edges(self, make, seed):
        # Reference pricing written here: count each edge's players, then add
        # the path's table entries one Fraction at a time.
        game = make(seed)
        paths = enumerate_paths(game)
        rng = random.Random(seed)
        for _ in range(25):
            players = game.players
            query = {}
            for path in rng.sample(paths, min(len(paths), rng.randint(1, 4))):
                count = rng.randint(0, players)
                query[path] = count
                players -= count
            loads = {e: 0 for e in game.edges}
            for path, count in query.items():
                for e in path:
                    loads[e] += count
            want = {}
            for path in query:
                total = Fraction(0)
                for e in path:
                    total = total + game.cost[e][loads[e]]
                want[path] = total
            got = strategy_costs(game, query)
            assert got == want
            assert {p: str(v) for p, v in got.items()} == {
                p: str(v) for p, v in want.items()
            }
            assert CongestionOracle(game).query_loads(query) == want

    def test_load_out_of_range_not_counted(self):
        game = parallel_links_game([[0, 1], [0, 1]], 1)
        oracle = CongestionOracle(game)
        with pytest.raises(LoadOutOfRange):
            oracle.query_loads({(0,): 2})
        assert oracle.ledger.count == 0

    def test_invalid_path_not_counted(self):
        from tests.test_games import diamond

        oracle = CongestionOracle(diamond(players=2))
        for bad in ((0,), (0, 2, 3), (2,), (0, 9), ()):
            with pytest.raises(InvalidProfile):
                oracle.query_loads({(0, 2): 1, bad: 1})
        assert oracle.ledger.count == 0

    def test_loads_over_n_name_the_lowest_edge(self):
        # Edges 3 and 0 both carry 4 players; edge 3 is loaded first.
        game = diamond_game()
        query = {(1, 3): 2, (0, 3): 2, (0, 2): 2}
        message = "edge 0 carries 4 players, above n=3"
        with pytest.raises(LoadOutOfRange, match=f"^{message}$"):
            strategy_costs(game, query)
        oracle = CongestionOracle(game)
        with pytest.raises(LoadOutOfRange, match=f"^{message}$"):
            oracle.query_loads(query)
        assert oracle.ledger.count == 0

    @pytest.mark.parametrize(
        "query, message, oracle_error, oracle_message",
        [
            # The oracle refuses a negative count before the game sees it.
            ({(0, 2): -1}, "negative count -1 for path (0, 2)",
             LoadOutOfRange, "load -1 on (0, 2) is not an integer in 0..3"),
            ({(0, 2): 1, (0, 9): 1}, "unknown edge id 9", InvalidProfile, None),
            ({(2,): 1}, "edge 2 does not continue the path at 0", InvalidProfile, None),
            ({(0, 2): 1, (0,): 1}, "path ends at 1, not the destination 2",
             InvalidProfile, None),
        ],
    )
    def test_refusals_keep_their_messages(self, query, message, oracle_error, oracle_message):
        # (0, 2) is accepted first, so a remembered path is in every query.
        game = diamond_game()
        strategy_costs(game, {(0, 2): 1})
        with pytest.raises(InvalidProfile) as refused:
            strategy_costs(game, query)
        assert str(refused.value) == message
        oracle = CongestionOracle(game)
        with pytest.raises(oracle_error) as refused:
            oracle.query_loads(query)
        assert str(refused.value) == (oracle_message or message)
        assert oracle.ledger.count == 0

    @pytest.mark.parametrize("spelling", [(False, 2), (0.0, 2)])
    def test_an_accepted_path_does_not_admit_equal_spellings(self, spelling):
        game = diamond_game()
        oracle = CongestionOracle(game)
        oracle.query_loads({(0, 2): 1})
        for _ in range(2):
            with pytest.raises(InvalidProfile) as refused:
                oracle.query_loads({spelling: 1})
            assert str(refused.value) == f"unknown edge id {spelling[0]!r}"
            with pytest.raises(InvalidProfile):
                game.network.validate_path(spelling)
        assert oracle.ledger.count == 1

    def test_validate_path_takes_lists_and_unhashable_ids(self):
        net = diamond_game().network
        for _ in range(2):
            assert net.validate_path([0, 2]) is None
            assert net.validate_path((0, 2)) is None
        with pytest.raises(InvalidProfile, match=r"^unknown edge id \[0\]$"):
            net.validate_path(([0], 2))
        with pytest.raises(InvalidProfile, match="^unknown edge id 9$"):
            net.validate_path([0, 9])

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


def ask(oracle, x):
    """Step-link cost of one two-link query with x of n players on link 0."""
    return oracle.query_loads({(0,): x, (1,): oracle.players - x})[(0,)]


class TestAdversary:
    def test_trace_from_fresh_state(self):
        oracle = AdversaryLinkOracle(8)
        assert oracle.query_loads({(0,): 4, (1,): 4}) == {(0,): 2, (1,): 1}
        assert (oracle.lower, oracle.upper) == (0, 4)
        assert ask(oracle, 2) == 2
        assert (oracle.lower, oracle.upper) == (0, 2)

    def test_boundary_query_leaves_state(self):
        oracle = AdversaryLinkOracle(8)
        assert ask(oracle, 0) == 0
        assert ask(oracle, 8) == 2
        assert (oracle.lower, oracle.upper) == (0, 8)
        assert oracle.completion_history == [8, 8]

    def test_completions_fresh_and_closed(self):
        oracle = AdversaryLinkOracle(8)
        assert list(oracle.completions) == list(range(8))
        for x in (4, 1, 2, 3):
            ask(oracle, x)
        assert list(oracle.completions) == [2]
        assert oracle.completion_history == [4, 3, 2, 1]

    def test_mid_game_completions_have_distinct_equilibria(self):
        oracle = AdversaryLinkOracle(8)
        for x in (4, 1, 2):
            ask(oracle, x)
        locations = list(oracle.completions)
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
            for q, r in oracle.ledger.entries()
        ]
        for location in oracle.completions:
            game = step_link_game(n, location)
            for query, response in transcript:
                truth = strategy_costs(game, query)
                for key, value in response.items():
                    path = tuple(int(v) for v in key.strip("[]").split(","))
                    assert truth[path] == F(value)

    def test_gap_halves_at_most(self):
        oracle = AdversaryLinkOracle(1024)
        gap = len(oracle.completions)
        for x in (512, 300, 400, 370, 380, 375):
            ask(oracle, x)
            assert len(oracle.completions) * 2 >= gap - 1
            gap = len(oracle.completions)
        assert oracle.completion_history[-1] == gap

    def test_adversary_oracle_counts_and_history(self):
        oracle = AdversaryLinkOracle(16)
        oracle.query_loads({(0,): 8})
        oracle.query_loads({(1,): 3})
        assert oracle.ledger.count == 2
        assert oracle.completion_history[0] == 8


@pytest.mark.parametrize(
    "make",
    [lambda: CongestionOracle(parallel_links_game([[0, 1, 2], [0, 5, 6]], 2)),
     lambda: AdversaryLinkOracle(2)],
    ids=["congestion", "adversary"],
)
@pytest.mark.parametrize("count", [1.5, 1.0, True, "1", None])
def test_count_that_is_not_an_int_is_rejected_and_not_counted(make, count):
    # A count that is not an int must not be rounded into a charged query.
    oracle = make()
    with pytest.raises(LoadOutOfRange):
        oracle.query_loads({(0,): 1, (1,): count})
    with pytest.raises(LoadOutOfRange):
        oracle.query_loads({(0,): count})
    assert oracle.ledger.count == 0


def test_adversary_rejects_a_non_int_count_before_answering():
    oracle = AdversaryLinkOracle(16)
    with pytest.raises(LoadOutOfRange):
        oracle.query_loads({(0,): 8.0})
    assert (oracle.lower, oracle.upper) == (0, 16)
    assert oracle.completion_history == []


def test_adversary_query_refused_for_budget_moves_no_mark():
    oracle = AdversaryLinkOracle(100, max_queries=1)
    ask(oracle, 50)
    with pytest.raises(BudgetExhausted):
        ask(oracle, 30)
    assert (oracle.lower, oracle.upper) == (0, 50)
    assert oracle.completion_history == [50]
    assert oracle.ledger.count == 1


@pytest.mark.parametrize("n", [0, -3])
def test_adversary_needs_a_player(n):
    with pytest.raises(InvalidSpec, match=f"n={n}"):
        AdversaryLinkOracle(n)


@given(st.integers(2, 2**16), st.lists(st.integers(0, 2**16), max_size=30))
def test_gap_lower_bound_property(n, xs):
    oracle = AdversaryLinkOracle(n)
    for x in xs:
        before = len(oracle.completions)
        ask(oracle, min(x, n))
        gap = len(oracle.completions)
        assert gap >= (before + 1) // 2 or gap == before
    assert len(oracle.completion_history) == len(xs)
    assert len(oracle.completions) * 2 ** len(xs) >= n


ORACLES = {
    "bimatrix": lambda: PurePayoffOracle(gen_matching_pennies(2)),
    "graphical": lambda: PurePayoffOracle(gen_random_graphical(3, 2, 1, seed=9)),
    "congestion": lambda: CongestionOracle(gen_random_dag(4, 5, 2, seed=0)),
    "adversary": lambda: AdversaryLinkOracle(3),
}

# One slot of a query: a small int, another spelling of one, or no int.
SLOT = st.one_of(
    st.integers(-1, 3),
    st.booleans(),
    st.sampled_from([0.0, 1.0, 1.5, F(1), "0", "a", None]),
)
PATH = st.one_of(
    st.lists(SLOT, max_size=3).map(tuple), SLOT, st.frozensets(st.integers(0, 2))
)
LOAD_QUERIES = st.one_of(
    st.dictionaries(PATH, SLOT, max_size=3), st.lists(st.tuples(PATH, SLOT)), SLOT
)
PURE_QUERIES = st.one_of(
    st.lists(SLOT, max_size=4),
    st.lists(SLOT, max_size=4).map(tuple),
    st.dictionaries(st.integers(0, 2), SLOT),
    SLOT,
)


def _scalars(obj):
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _scalars(item)
    else:
        yield obj


def _marks(oracle):
    return getattr(oracle, "lower", None), getattr(oracle, "upper", None)


@pytest.mark.parametrize("kind", sorted(ORACLES))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_query_is_answered_in_plain_ints_or_refused_uncharged(kind, data):
    oracle = ORACLES[kind]()
    pure = isinstance(oracle, PurePayoffOracle)
    query = data.draw(PURE_QUERIES if pure else LOAD_QUERIES)
    marks = _marks(oracle)
    try:
        (oracle.query_pure if pure else oracle.query_loads)(query)
    except (InvalidProfile, LoadOutOfRange):
        assert oracle.ledger.count == 0
        assert _marks(oracle) == marks
        return
    # An accepted query has one spelling: every id, strategy and count an int.
    ((recorded, _),) = oracle.ledger.entries()
    assert all(type(x) is int for x in _scalars(recorded))


@pytest.mark.parametrize(
    "kind, query, error",
    [
        ("congestion", {(0.0, 1.0): 1}, InvalidProfile),
        ("adversary", {(True,): 1}, InvalidProfile),
        ("congestion", {5: 1}, InvalidProfile),
        ("congestion", [((0,), 1)], InvalidProfile),
        ("adversary", {(0.0,): 1}, InvalidProfile),
        ("adversary", {(0,): True}, LoadOutOfRange),
        ("bimatrix", (True, 0), InvalidProfile),
        ("bimatrix", (0.5, 0), InvalidProfile),
        ("bimatrix", ("a", 0), InvalidProfile),
        ("bimatrix", 7, InvalidProfile),
        ("graphical", (1.0, 0, 0), InvalidProfile),
    ],
)
def test_second_spellings_and_junk_are_refused_uncharged(kind, query, error):
    oracle = ORACLES[kind]()
    pure = isinstance(oracle, PurePayoffOracle)
    with pytest.raises(error):
        (oracle.query_pure if pure else oracle.query_loads)(query)
    assert oracle.ledger.count == 0


def dump(oracle) -> str:
    buf = io.StringIO()
    oracle.ledger.dump_jsonl(buf)
    return buf.getvalue()


def json_of_entries(ledger) -> str:
    import json

    return "".join(
        json.dumps({"query": q, "response": r}, default=str) + "\n"
        for q, r in ledger.entries()
    )


def diamond_game():
    """Costs with fractions; the paths are [0, 2], [0, 3], [1, 2] and [1, 3]."""
    from pqlab import CongestionGame, Network

    net = Network((0, 1, 2), {0: (0, 1), 1: (0, 1), 2: (1, 2), 3: (1, 2)}, 0, 2)
    return CongestionGame(net, 3, {
        0: [F(0), F(1, 3), F(1, 2), F(5, 4)],
        1: [F(0), F(2), F(2), F(2)],
        2: [F(0), F(1, 6), F(1, 6), F(1, 6)],
        3: [F(0)] * 4,
    })


class TestLedgerDump:
    # Lines as the ledger wrote them when it formatted every entry on record:
    # the dump of the raw ledger must keep these bytes.
    def test_bimatrix_line_pinned(self):
        from pqlab.instances import gen_random_bimatrix

        oracle = PurePayoffOracle(gen_random_bimatrix(3, seed=0))
        oracle.query_pure((1, 2))
        assert dump(oracle) == (
            '{"query": {"profile": [1, 2]}, "response": ["15/16", "1/4"]}\n'
        )

    def test_graphical_line_pinned(self):
        oracle = PurePayoffOracle(gen_random_graphical(3, 2, 1, seed=9))
        oracle.query_pure([1, 0, 1])
        assert dump(oracle) == (
            '{"query": {"profile": [1, 0, 1]}, "response": ["0", "5/8", "13/16"]}\n'
        )

    def test_adversary_lines_pinned(self):
        oracle = AdversaryLinkOracle(8)
        oracle.query_loads({(1,): 5, (0,): 3})
        oracle.query_loads({(1,): 8})
        assert dump(oracle) == (
            '{"query": {"loads": [[[0], 3], [[1], 5]]}, '
            '"response": {"[0]": "0", "[1]": "1"}}\n'
            '{"query": {"loads": [[[1], 8]]}, "response": {"[1]": "1"}}\n'
        )

    def test_congestion_lines_pinned(self):
        oracle = CongestionOracle(diamond_game())
        oracle.query_loads({(1, 3): 1, (0, 2): 2})
        oracle.query_loads({})
        assert dump(oracle) == (
            '{"query": {"loads": [[[0, 2], 2], [[1, 3], 1]]}, '
            '"response": {"[0, 2]": "2/3", "[1, 3]": "2"}}\n'
            '{"query": {"loads": []}, "response": {}}\n'
        )

    def test_contracted_dag_line_pinned(self):
        from pqlab import CongestionGame, Network
        from pqlab.dag_learner import ContractedOracle, contract_network

        # Edge 1 only ever follows edge 0, so it contracts into it; the
        # transcript names the original paths.
        net = Network((0, 1, 2, 3), {0: (0, 1), 1: (1, 2), 2: (2, 3), 3: (2, 3)}, 0, 3)
        game = CongestionGame(net, 2, {
            0: [F(0), F(1, 2), F(1)],
            1: [F(0), F(1, 4), F(3, 4)],
            2: [F(0), F(1), F(2)],
            3: [F(0), F(3, 2), F(3, 2)],
        })
        inner = CongestionOracle(game)
        oracle = ContractedOracle(inner, contract_network(net)[1])
        assert oracle.query_loads({(0, 2): 1, (0, 3): 1}) == {
            (0, 2): F(11, 4), (0, 3): F(13, 4)
        }
        assert dump(inner) == (
            '{"query": {"loads": [[[0, 1, 2], 1], [[0, 1, 3], 1]]}, '
            '"response": {"[0, 1, 2]": "11/4", "[0, 1, 3]": "13/4"}}\n'
        )

    def test_a_load_query_is_recorded_as_it_was_asked_and_answered(self):
        oracle = CongestionOracle(diamond_game())
        assignment = {(0, 2): 2, (1, 3): 1}
        response = oracle.query_loads(assignment)
        before = dump(oracle)
        assignment[(0, 2)] = 0
        assignment[(1, 2)] = 3
        response[(0, 2)] = F(7)
        del response[(1, 3)]
        assert dump(oracle) == before
        assert list(oracle.ledger.entries()) == [
            ({"loads": [[[0, 2], 2], [[1, 3], 1]]}, {"[0, 2]": "2/3", "[1, 3]": "2"})
        ]

    def test_a_profile_list_is_recorded_as_it_was_asked(self):
        oracle = PurePayoffOracle(gen_matching_pennies(2))
        profile = [0, 1]
        oracle.query_pure(profile)
        profile[0] = 1
        assert list(oracle.ledger.entries()) == [({"profile": [0, 1]}, ["0", "1"])]

    @pytest.mark.parametrize("kind", sorted(ORACLES))
    def test_dump_is_the_json_of_the_entries(self, kind):
        rng = random.Random(kind)
        oracle = ORACLES[kind]()
        for _ in range(40):
            if isinstance(oracle, PurePayoffOracle):
                oracle.query_pure([rng.randrange(k) for k in oracle.strategy_counts])
            else:
                paths = enumerate_paths(oracle.network)
                chosen = rng.sample(paths, rng.randint(0, len(paths)))
                oracle.query_loads({p: rng.randint(0, oracle.players) for p in chosen})
        assert oracle.ledger.count == 40
        assert dump(oracle) == json_of_entries(oracle.ledger)

    def test_payoffs_of_other_types_dump_as_their_str(self):
        # A table may hold any value _unit accepts; the game stores the
        # Fraction it checked, and the transcript writes str(value).
        tables = ({(0, ()): 1, (1, ()): F(1, 2), (2, ()): "\t1/3"},)
        oracle = PurePayoffOracle(GraphicalGame(1, 3, ((),), tables))
        for s in (0, 1, 2, 2):
            oracle.query_pure((s,))
        assert dump(oracle) == json_of_entries(oracle.ledger)
        assert dump(oracle).splitlines()[2] == (
            '{"query": {"profile": [2]}, "response": ["1/3"]}'
        )

    def test_a_bool_a_float_and_a_string_are_answered_as_fractions(self):
        tables = ({(0, ()): True, (1, ()): 0.5, (2, ()): "3/4"},)
        oracle = PurePayoffOracle(GraphicalGame(1, 3, ((),), tables))
        answers = [oracle.query_pure((s,)) for s in range(3)]
        assert answers == [(F(1),), (F(1, 2),), (F(3, 4),)]
        assert {type(v) for (v,) in answers} == {F}
        assert dump(oracle) == (
            '{"query": {"profile": [0]}, "response": ["1"]}\n'
            '{"query": {"profile": [1]}, "response": ["1/2"]}\n'
            '{"query": {"profile": [2]}, "response": ["3/4"]}\n'
        )

    def test_an_entry_of_another_shape_dumps_through_json(self):
        from pqlab import QueryLedger

        ledger = QueryLedger()
        ledger.record("q", {"r": F(1, 2)})
        ledger.record([1, 2], None)
        assert list(ledger.entries()) == ledger.log
        buf = io.StringIO()
        ledger.dump_jsonl(buf)
        assert buf.getvalue() == json_of_entries(ledger) == (
            '{"query": "q", "response": {"r": "1/2"}}\n'
            '{"query": [1, 2], "response": null}\n'
        )
