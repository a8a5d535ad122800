"""Command-line behaviour: exit codes, artifacts, determinism."""

import contextlib
import copy
import csv
import dataclasses
import functools
import hashlib
import io
import itertools
import json
import operator
import os
import re
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pqlab import (
    CongestionGame,
    GraphicalGame,
    InvalidSpec,
    MixedProfile,
    Network,
    PqlabError,
    parallel_links,
    serialize,
)
from pqlab.cli import (
    EXIT_BUDGET,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    build_parser,
    main,
    make_game,
)
from pqlab.games import StepTable
from pqlab.instances import gen_matching_pennies, gen_random_dag, gen_random_step_links
from pqlab.parallel_links import LinkLoads
from pqlab.verify import deviation_report


def run(tmp_path, *argv):
    out = tmp_path / "result.json"
    code = main([*argv, "--out", str(out)])
    payload = json.loads(out.read_text()) if out.exists() else None
    return code, payload


class TestGen:
    def test_emits_game_json(self, tmp_path):
        code, payload = run(tmp_path, "gen", "pennies:k=3")
        assert code == EXIT_OK
        assert payload["type"] == "bimatrix"
        assert payload["rows"] == 3

    def test_deterministic_output(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["gen", "random-dag:v=6,e=9,n=3,seed=5", "--out", str(a)]) == EXIT_OK
        assert main(["gen", "random-dag:v=6,e=9,n=3,seed=5", "--out", str(b)]) == EXIT_OK
        assert a.read_text() == b.read_text()

    def test_unknown_family_is_invalid_input(self, tmp_path):
        code, _ = run(tmp_path, "gen", "nonsense:k=2")
        assert code == EXIT_INVALID

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("nonsense:k=2", "unknown generator family 'nonsense'"),
            ("random-dag:v=5", "random-dag needs the parameter 'n'"),
            ("random-graphical:n=3,k=2,seed=0", "needs the parameter 'd'"),
            ("step:m=2,n=4,sead=5", "step has no parameter 'sead'"),
            ("pennies:k=2,seed=9", "pennies has no parameter 'seed'"),
            ("gell:ell=4,seed=1", "gell has no parameter 'seed'"),
            ("step:m=two,n=4", "parameter 'm' must be an integer, got 'two'"),
            ("step:n=4.5", "parameter 'n' must be an integer"),
            ("step:n=4,n=5", "parameter 'n' is given twice"),
            ("step:n=4,", "malformed generator parameter ''"),
            ("random-dag:n=3,seed=1,subdivide=-1", "subdivide must be >= 0, got -1"),
            ("gell:ell=5", "ell must be even and >= 4, got 5"),
            ("step:m=0,n=4", "need at least one link and one player"),
        ],
    )
    def test_bad_spec_is_invalid_spec_naming_the_parameter(
        self, tmp_path, capsys, spec, message
    ):
        with pytest.raises(InvalidSpec, match=re.escape(message)):
            make_game(spec)
        code, _ = run(tmp_path, "gen", spec)
        assert code == EXIT_INVALID
        assert message in capsys.readouterr().err


# Every generator family with the parameters it takes.
SPEC_PARAMS = {
    "pennies": ("k",),
    "gell": ("ell",),
    "rell": ("k", "target"),
    "random-bimatrix": ("k", "seed"),
    "random": ("k", "seed"),
    "random-graphical": ("n", "k", "d", "seed"),
    "step": ("m", "n", "seed"),
    "random-dag": ("v", "e", "n", "seed", "subdivide"),
}
NAMES = sorted({name for names in SPEC_PARAMS.values() for name in names} | {"sead"})


@st.composite
def gen_specs(draw):
    """A family, some of its parameters and maybe one it does not take, with
    values in -3..6.  A graphical game has n*k^(d+1) payoffs, so its k and d
    stay below 4 to keep every game tiny."""
    family = draw(st.sampled_from(sorted(SPEC_PARAMS)))
    takes = SPEC_PARAMS[family]
    names = draw(st.lists(st.sampled_from(takes), unique=True))
    if draw(st.booleans()):
        names.append(draw(st.sampled_from([n for n in NAMES if n not in takes])))
    small = ("k", "d") if family == "random-graphical" else ()
    values = [draw(st.integers(-3, 3 if name in small else 6)) for name in names]
    return family + ":" + ",".join(f"{k}={v}" for k, v in zip(names, values))


@settings(max_examples=200, deadline=None)
@given(spec=gen_specs())
def test_any_spec_builds_a_game_or_is_invalid_spec(spec):
    try:
        make_game(spec)
    except InvalidSpec:
        want = EXIT_INVALID
    else:
        want = EXIT_OK
    # Any other exception escapes main as a traceback and fails the test.
    assert main(["gen", spec, "--out", os.devnull]) == want



def _graphical_game():
    """Player 0 reads players 1 and 2, player 1 reads player 0."""
    nbrs = ((1, 2), (0,), ())
    tables = tuple(
        {
            (own, ctx): Fraction(own + sum(ctx), 4)
            for own in range(2)
            for ctx in itertools.product(range(2), repeat=len(ns))
        }
        for ns in nbrs
    )
    return GraphicalGame(3, 2, nbrs, tables)


# A valid (game, profile) document pair of each kind `pqlab verify` reads.
_pennies = serialize.game_to_dict(gen_matching_pennies(2))
DOCUMENTS = {
    "bimatrix": (_pennies, serialize.profile_to_dict((0, 1))),
    "mixed": (_pennies, serialize.profile_to_dict(MixedProfile.uniform(2, 2))),
    "graphical": (
        serialize.game_to_dict(_graphical_game()),
        serialize.profile_to_dict((0, 1, 0)),
    ),
    "dag": (
        serialize.game_to_dict(gen_random_dag(4, 5, 2, seed=0)),
        serialize.profile_to_dict({(0, 1): 1, (3,): 1}),
    ),
    "step": (
        serialize.game_to_dict(gen_random_step_links(2, 3, seed=0)),
        serialize.profile_to_dict({(0,): 1, (1,): 2}),
    ),
}
DELETE = object()
LEAF_VALUES = (None, -1, 10**30, 1.5, True, "x", [], {}, 0, 2**63 - 1, "1/0", DELETE)


def _nodes(doc, at=()):
    """The path of every value inside a JSON document, containers included."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, child in items:
        yield at + (key,)
        yield from _nodes(child, at + (key,))


# (kind, 0 for the game or 1 for the profile, node path, new value or DELETE)
MUTANTS = [
    (kind, side, where, value)
    for kind, docs in DOCUMENTS.items()
    for side in (0, 1)
    for where in _nodes(docs[side])
    for value in LEAF_VALUES
]


def _mutant_documents(mutant):
    kind, side, where, value = mutant
    docs = copy.deepcopy(list(DOCUMENTS[kind]))
    *path, last = where
    parent = functools.reduce(operator.getitem, path, docs[side])
    if value is DELETE:
        del parent[last]
    else:
        parent[last] = copy.deepcopy(value)
    return docs


# A mutant reaching each BimatrixGame and GraphicalGame constructor guard.
GUARDS = [
    (("bimatrix", 0, ("row_payoff",), []), "payoff tables must be non-empty"),
    (("bimatrix", 0, ("row_payoff", 1, 1), DELETE), "row payoff table is ragged"),
    (("bimatrix", 0, ("col_payoff", 0, 0), DELETE), "must have identical dimensions"),
    (("graphical", 0, ("strategies",), 0), "needs n >= 1 players, k >= 1"),
    (("graphical", 0, ("players",), 10**30), "per-player fields must have length n"),
    (("graphical", 0, ("payoff_tables", 0, "neighbors", 1), 0), "sorted and unique"),
    (("graphical", 0, ("payoff_tables", 0, "neighbors", 0), -1), "out of range"),
    (("graphical", 0, ("payoff_tables", 0, "entries", 0), DELETE), "expected 8"),
    (("graphical", 0, ("payoff_tables", 0, "entries", 0, 0), -1), "(-1, (0, 0))"),
    (("graphical", 0, ("payoff_tables", 0, "entries", 0, 1), []), "(0, ()) malformed"),
    (("graphical", 0, ("payoff_tables", 0, "entries", 0, 1, 0), -1), "(0, (-1, 0))"),
    (("graphical", 0, ("payoff_tables", 0, "entries", 0, 2), 10**30), "in [0, 1]"),
]


def _verify_exit(mutant):
    """`pqlab verify`'s exit on the mutant's documents; any error but a
    PqlabError escapes the library and fails the calling test."""
    with tempfile.TemporaryDirectory() as tmp:
        game, profile = (os.path.join(tmp, f"{name}.json") for name in "gp")
        for name, doc in zip((game, profile), _mutant_documents(mutant)):
            with open(name, "w") as fp:
                json.dump(doc, fp)
        argv = ["verify", "--game", game, "--profile", profile, "--out", os.devnull]
        args = build_parser().parse_args(argv)
        try:
            code = args.func(args)
        except PqlabError:
            code = EXIT_INVALID
        else:
            assert code in (EXIT_OK, EXIT_VERIFY_FAILED)
        assert main(argv) == code
    return code


@settings(max_examples=200, deadline=None)
@given(mutant=st.sampled_from(MUTANTS))
def test_mutated_document_verifies_or_is_invalid(mutant):
    _verify_exit(mutant)


@pytest.mark.parametrize("mutant, message", GUARDS)
def test_mutants_reach_the_game_constructor_guards(mutant, message):
    assert mutant in MUTANTS
    game_doc, _ = _mutant_documents(mutant)
    with pytest.raises(InvalidSpec, match=re.escape(message)):
        serialize.game_from_dict(game_doc)
    assert _verify_exit(mutant) == EXIT_INVALID

class TestUsageErrors:
    """argparse's own exit code 2 would read as "verification failed"."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["solve", "bimatrix", "--gen", "pennies:k=2", "--budget", "x"],
             "argument --budget: invalid int value: 'x'"),
            (["solve"], "the following arguments are required: target"),
            (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
            (["bench", "nope"], "argument family: invalid choice: 'nope'"),
            (["solve", "dag", "--game", "game.json", "--gen", "random-dag:n=2,seed=0"],
             "argument --gen: not allowed with argument --game"),
            (["solve", "dag", "--game", "game.json", "--seed", "3"],
             "argument --seed: not allowed with argument --game"),
            (["solve", "parallel-links", "--adversary", "--players", "8",
              "--seed", "3"],
             "argument --seed: not allowed without argument --gen"),
            (["solve", "parallel-links", "--gen", "step:m=2,n=16,seed=1",
              "--players", "8"],
             "argument --players: not allowed without argument --adversary"),
            (["bench", "graphical", "--players-max", "4", "--k", "2", "--d", "1",
              "--m", "99", "--v", "3", "--players-min", "9", "--kf", "7",
              "--n-min-exp", "30"],
             "unrecognized arguments: --m 99 --v 3 --players-min 9 --kf 7"
             " --n-min-exp 30"),
            (["bench", "parallel-links", "--m", "4", "--players-max", "3"],
             "unrecognized arguments: --players-max 3"),
            (["bench", "dag", "--v", "5", "--e", "7", "--d", "2"],
             "unrecognized arguments: --d 2"),
        ],
        ids=["budget", "no-target", "command", "bench-family", "game-and-gen",
             "seed-with-game", "seed-without-gen", "players-without-adversary",
             "bench-graphical-foreign-flags", "bench-links-foreign-flag",
             "bench-dag-foreign-flag"],
    )
    def test_usage_error_exits_4_with_argparse_message(
        self, monkeypatch, capsys, argv, message
    ):
        from pqlab import cli

        def no_oracle(*args, **kwargs):
            raise AssertionError("a usage error must be refused before any query")

        for name in ("CongestionOracle", "PurePayoffOracle", "AdversaryLinkOracle"):
            monkeypatch.setattr(cli, name, no_oracle)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("usage: pqlab")
        assert message in err

    @pytest.mark.parametrize("argv", [["--help"], ["solve", "dag", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_OK
        assert capsys.readouterr().out.startswith("usage: pqlab")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "dag"], "provide --game FILE or --gen SPEC"),
        (["solve", "bimatrix", "--gen", "step:n=4"], "needs a bimatrix game"),
        (["solve", "parallel-links", "--gen", "random-dag:n=2,seed=0"],
         "needs a parallel-links game"),
        (["solve", "parallel-links", "--adversary"], "--adversary needs --players"),
        (["solve", "dag", "--gen", "pennies"], "needs a congestion game"),
        (["learn", "graphical", "--degree", "1", "--gen", "pennies"],
         "needs a graphical game"),
        (["learn", "dag", "--gen", "pennies"], "needs a congestion game"),
        (["solve", "parallel-links", "--adversary", "--gen", "nonsense:n=8,sead=1"],
         "unknown generator family 'nonsense'"),
        (["solve", "parallel-links", "--adversary", "--gen", "step:n=8,sead=1"],
         "step has no parameter 'sead'"),
        (["solve", "parallel-links", "--adversary", "--gen", "random-dag:n=2,seed=0"],
         "needs a parallel-links game"),
        (["solve", "parallel-links", "--adversary", "--players", "0"], "n=0"),
        (["solve", "parallel-links", "--adversary", "--players", "-3"], "n=-3"),
        (["solve", "parallel-links", "--adversary", "--players", "8",
          "--gen", "nonsense:x=1"], "unknown generator family 'nonsense'"),
    ],
)
def test_wrong_input_for_the_command_is_invalid_spec(argv, message):
    args = build_parser().parse_args(argv)
    with pytest.raises(InvalidSpec, match=re.escape(message)):
        args.func(args)


@pytest.mark.parametrize(
    "argv",
    [
        ["learn", "dag", "--gen", "step:m=2,n=4,seed=0"],
        ["solve", "dag", "--gen", "random-dag:v=6,e=9,n=2,seed=4"],
        ["solve", "parallel-links", "--adversary", "--players", "8"],
        ["solve", "bimatrix", "--gen", "pennies:k=2"],
        ["learn", "graphical", "--degree", "1", "--gen",
         "random-graphical:n=3,k=2,d=1,seed=0"],
    ],
    ids=["learn-dag", "solve-dag", "adversary", "bimatrix", "graphical"],
)
def test_a_negative_budget_is_invalid_input(capsys, argv):
    assert main([*argv, "--budget", "-1"]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert "query budget must be an integer >= 0, got -1" in err
    assert "exhausted" not in err


class TestSolveBimatrix:
    def test_half_ne_on_random_game(self, tmp_path):
        code, payload = run(
            tmp_path, "solve", "bimatrix", "--algo", "half-ne",
            "--gen", "random:k=10,seed=7",
        )
        assert code == EXIT_OK
        assert payload["queries_used"] == 19
        num, _, den = payload["regret"].partition("/")
        assert int(num) * 2 <= int(den or 1) * 1  # regret <= 1/2
        assert payload["verified"] is True

    def test_budget_exhaustion_exit_code(self, tmp_path):
        code, _ = run(
            tmp_path, "solve", "bimatrix",
            "--gen", "random:k=10,seed=7", "--budget", "5",
        )
        assert code == EXIT_BUDGET

    def test_uniform_algo(self, tmp_path):
        code, payload = run(
            tmp_path, "solve", "bimatrix", "--algo", "uniform",
            "--gen", "random:k=4,seed=1",
        )
        assert code == EXIT_OK
        assert payload["queries_used"] == 0


class TestSolveParallelLinks:
    def test_on_generated_instance(self, tmp_path):
        code, payload = run(
            tmp_path, "solve", "parallel-links",
            "--gen", "step:m=4,n=50,seed=2", "--emit-trace",
        )
        assert code == EXIT_OK
        assert payload["verified"] is True
        assert sum(payload["loads"]) == 50
        assert payload["queries_used"] <= payload["query_bound"]
        assert payload["phases"]

    def test_adversary_mode_reports_lower_bound(self, tmp_path):
        code, payload = run(
            tmp_path, "solve", "parallel-links",
            "--adversary", "--players", "1024",
        )
        assert code == EXIT_OK
        assert payload["queries_used"] >= 10  # floor(log2 1024)
        assert len(payload["consistent_step_locations"]) == 1

    @pytest.mark.parametrize(
        "source",
        [["--gen", "step:m=4,n=50,seed=2"], ["--adversary", "--players", "64"]],
        ids=["gen", "adversary"],
    )
    def test_a_solve_that_drops_a_player_is_not_verified(
        self, monkeypatch, capsys, source
    ):
        solve = parallel_links.solve_parallel_links

        def dropping(oracle, group_factor=None):
            result = solve(oracle, group_factor)
            loads = list(result.loads.loads)
            loads[loads.index(max(loads))] -= 1
            return dataclasses.replace(
                result, loads=LinkLoads(tuple(loads), result.loads.special)
            )

        monkeypatch.setattr(parallel_links, "solve_parallel_links", dropping)
        # The input was fine and the result failed its check: exit 2, not 4.
        assert main(["solve", "parallel-links", *source]) == EXIT_VERIFY_FAILED
        out = capsys.readouterr().out
        assert '"verified": false' in out and '"verified": true' not in out

    @pytest.mark.parametrize("n, code", [(2**63 - 2, EXIT_OK), (2**63 - 1, EXIT_INVALID)])
    def test_n_up_to_maxsize_minus_one(self, tmp_path, n, code):
        # A step table has n + 1 entries, and len() stops at sys.maxsize.
        got, payload = run(
            tmp_path, "solve", "parallel-links", "--gen", f"step:m=2,n={n},seed=0"
        )
        assert got == code
        assert (payload is not None and payload["verified"]) == (code == EXIT_OK)


class TestSolveAndLearnDag:
    def test_solve_dag_verifies(self, tmp_path):
        code, payload = run(
            tmp_path, "solve", "dag", "--gen", "random-dag:v=6,e=9,n=2,seed=4",
        )
        assert code == EXIT_OK
        assert payload["verified"] is True

    def test_a_solve_that_drops_a_player_is_not_verified(self, tmp_path, monkeypatch):
        from pqlab import dag_learner

        solve = dag_learner.solve_dag_game

        def dropping(oracle):
            result = solve(oracle)
            path = max(result.profile, key=result.profile.get)
            result.profile[path] -= 1
            return result

        monkeypatch.setattr(dag_learner, "solve_dag_game", dropping)
        code, payload = run(
            tmp_path, "solve", "dag", "--gen", "random-dag:v=6,e=9,n=3,seed=4",
        )
        assert code == EXIT_VERIFY_FAILED
        assert payload["verified"] is False
        assert payload["worst_improvement"] is None

    def test_learn_dag_reports_ledger(self, tmp_path):
        game_file = tmp_path / "game.json"
        assert main(["gen", "random-dag:v=5,e=7,n=2,seed=9", "--out", str(game_file)]) == EXIT_OK
        code, payload = run(tmp_path, "learn", "dag", "--game", str(game_file))
        assert code == EXIT_OK
        assert payload["verified"] is True
        edges = len(payload["cost_tables"])
        assert payload["queries_used"] == edges * 2

    def test_learn_dag_that_learns_a_wrong_value_is_not_verified(
        self, tmp_path, monkeypatch
    ):
        from types import SimpleNamespace

        from pqlab import dag_learner

        learn = dag_learner.learn_costs

        def shifting(oracle):
            tables = learn(oracle).as_tables()
            e = min(tables)
            tables[e] = (*tables[e][:-1], tables[e][-1] + 1)
            return SimpleNamespace(as_tables=lambda: tables)

        monkeypatch.setattr(dag_learner, "learn_costs", shifting)
        code, payload = run(
            tmp_path, "learn", "dag", "--gen", "random-dag:v=5,e=7,n=2,seed=9"
        )
        assert code == EXIT_VERIFY_FAILED
        assert payload["verified"] is False
        counterexample = payload["counterexample"]
        assert set(counterexample) == {"path", "got", "want"}
        assert isinstance(counterexample["path"], list)
        assert isinstance(counterexample["got"], str)
        assert isinstance(counterexample["want"], str)
        got, want = Fraction(counterexample["got"]), Fraction(counterexample["want"])
        assert got == want + 1

    @pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
    def test_learn_dag_too_large_to_check_exits_4(self, capsys, mode):
        argv = ["learn", "dag", "--gen", "random-dag:v=120,e=400,n=2,seed=0",
                "--verify-mode", mode]
        assert main(argv) == EXIT_INVALID
        assert "exceed the cap" in capsys.readouterr().err

    @pytest.mark.parametrize("budget", [[], ["--budget", "800"]])
    @pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
    def test_learn_dag_too_large_to_check_queries_nothing(
        self, monkeypatch, capsys, mode, budget
    ):
        # The pruned network keeps 387 edges: learning would spend 2 * 387
        # queries, which a budget of 800 covers.
        from pqlab import cli, oracles

        built = []

        class Recorded(oracles.CongestionOracle):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(cli, "CongestionOracle", Recorded)
        argv = ["learn", "dag", "--gen", "random-dag:v=120,e=400,n=2,seed=0",
                "--verify-mode", mode, *budget]
        assert main(argv) == EXIT_INVALID
        assert "exceed the cap" in capsys.readouterr().err
        assert [oracle.ledger.count for oracle in built] == [0]

    @pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
    def test_contracted_dag_too_large_to_check_queries_nothing(
        self, monkeypatch, capsys, mode
    ):
        # Two split edges contract back: learning spends n * |E'| queries,
        # fewer than n * |E|, and a budget of exactly n * |E'| covers it.
        from pqlab import cli, dag_learner, oracles

        spec = "random-dag:v=120,e=400,n=2,seed=0,subdivide=2"
        game = cli.make_game(spec)
        reduced, _ = dag_learner.contract_network(game.network)
        learning = game.players * len(reduced.edges)
        assert learning < game.players * len(game.network.edges)
        built = []

        class Recorded(oracles.CongestionOracle):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(cli, "CongestionOracle", Recorded)
        argv = ["learn", "dag", "--gen", spec, "--verify-mode", mode]
        assert main([*argv, "--budget", str(learning)]) == EXIT_INVALID
        assert "exceed the cap" in capsys.readouterr().err
        assert [oracle.ledger.count for oracle in built] == [0]
        assert main([*argv, "--budget", str(learning - 1)]) == EXIT_BUDGET
        assert f"query budget of {learning - 1} exhausted" in capsys.readouterr().err
        assert [oracle.ledger.count for oracle in built] == [0, learning - 1]

    @pytest.mark.parametrize("budget", [[], ["--budget", "14"]])
    @pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
    def test_learn_dag_counts_the_paths_once(self, tmp_path, monkeypatch, mode, budget):
        # The cap is checked before learning and again by the check; both
        # read one count of the network's paths.  A budget of n * |E'| = 14
        # covers learning, so the early check runs too.
        from pqlab import verify

        calls = []
        real = verify.path_count
        monkeypatch.setattr(
            verify, "path_count", lambda game: calls.append(game) or real(game)
        )
        code, payload = run(
            tmp_path, "learn", "dag", "--gen", "random-dag:v=6,e=9,n=2,seed=0",
            "--verify-mode", mode, *budget,
        )
        assert code == EXIT_OK and payload["verified"] is True
        assert payload["queries_used"] == 14
        assert len(calls) == 1

    @pytest.mark.parametrize("command", ["learn", "solve"])
    @pytest.mark.parametrize(
        "spec, queries",
        [
            ("random-dag:v=7,e=12,n=2,seed=144", 18),
            ("random-dag:v=10,e=20,n=2,seed=191", 40),
            ("random-dag:v=12,e=24,n=2,seed=142", 48),
            ("random-dag:v=12,e=24,n=2,seed=253", 42),
        ],
    )
    def test_path_planner_splices_across_both_connectors(
        self, tmp_path, monkeypatch, command, spec, queries
    ):
        from pqlab import dag_learner

        reroute = dag_learner._reroute_along
        splices = []

        def spy(p1, q, qq):
            p1_out, connector = reroute(p1, q, qq)
            if set(p1) & set(q) and set(p1) & set(qq):
                splices.append((p1_out, connector))
            return p1_out, connector

        monkeypatch.setattr(dag_learner, "_reroute_along", spy)
        code, payload = run(tmp_path, command, "dag", "--gen", spec)
        assert code == EXIT_OK
        assert payload["verified"] is True
        assert payload["queries_used"] == queries
        assert splices
        assert all(not set(p1) & set(connector) for p1, connector in splices)

    def test_learn_dag_contracts_once(self, tmp_path, monkeypatch):
        from pqlab import dag_learner

        calls = []
        real = dag_learner.contract_network
        monkeypatch.setattr(
            dag_learner, "contract_network", lambda net: calls.append(net) or real(net)
        )
        code, payload = run(
            tmp_path, "learn", "dag", "--gen", "random-dag:v=6,e=9,n=2,seed=0,subdivide=2",
        )
        assert code == EXIT_OK
        assert payload["contracted_edges"]
        assert len(calls) == 1


    def test_learn_dag_at_n_2_pow_40_stops_at_its_budget(self, capsys):
        # Nothing contracts, so no step table is listed entry by entry.
        argv = ["learn", "dag", "--gen", "step:m=2,n=1099511627776,seed=0",
                "--budget", "3"]
        assert main(argv) == EXIT_BUDGET
        assert "query budget of 3 exhausted" in capsys.readouterr().err

    def test_contracted_step_dag_never_lists_a_table(
        self, tmp_path, monkeypatch, capsys
    ):
        # A two-edge chain before two parallel links: the chain contracts,
        # and learning and checking read the step tables by breakpoints.
        n = 2**20
        net = Network((0, 1, 2, 3), {0: (0, 1), 1: (1, 2), 2: (2, 3), 3: (2, 3)}, 0, 3)
        game = CongestionGame(
            net, n, {e: StepTable([(0, e), (n // 2, e + 1)], n) for e in net.edges}
        )
        game_file = tmp_path / "game.json"
        game_file.write_text(json.dumps(serialize.game_to_dict(game)))

        def listed(table):
            raise AssertionError("a step table was listed entry by entry")

        monkeypatch.setattr(StepTable, "__iter__", listed)
        argv = ["learn", "dag", "--game", str(game_file), "--budget", "3"]
        assert main(argv) == EXIT_BUDGET
        assert "query budget of 3 exhausted" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec",
        [
            f"random-dag:v={v},e={e},n={n},seed={seed},subdivide={subdivide}"
            for (v, e, n), seed, subdivide in itertools.product(
                [(6, 9, 2), (7, 12, 3)], range(3), range(3)
            )
        ],
    )
    def test_learn_and_solve_share_one_learning_entry(
        self, tmp_path, monkeypatch, spec
    ):
        from pqlab import dag_learner

        entry = dag_learner.learn_dag_game
        seen = []

        def spy(oracle):
            learned, cmap = entry(oracle)
            seen.append((oracle, learned))
            return learned, cmap

        monkeypatch.setattr(dag_learner, "learn_dag_game", spy)
        runs = {}
        for command in ("learn", "solve"):
            code, payload = run(tmp_path, command, "dag", "--gen", spec)
            assert code == EXIT_OK
            (oracle, learned), = seen
            seen.clear()
            buf = io.StringIO()
            oracle.ledger.dump_jsonl(buf)
            runs[command] = (
                oracle.ledger.count,
                oracle.ledger.log,
                buf.getvalue().encode(),
                learned.as_tables(),
                payload["queries_used"],
                payload["contracted_edges"],
            )
            if command == "learn":
                tables = payload["cost_tables"]
        assert runs["learn"] == runs["solve"]
        assert tables == {
            str(e): [str(v) for v in table]
            for e, table in sorted(runs["solve"][3].items())
        }

class TestLearnGraphical:
    def test_learned_game_matches(self, tmp_path):
        code, payload = run(
            tmp_path, "learn", "graphical",
            "--gen", "random-graphical:n=4,k=2,d=1,seed=3", "--degree", "1",
        )
        assert code == EXIT_OK
        assert payload["verified"] is True
        assert payload["queries_used"] == 1 + 4 + 6  # sum_{j<=2} C(4,j)

    def test_an_ignored_in_neighbor_still_verifies(self, tmp_path):
        # Player 0 lists player 1 but ignores it: the learner sees no edge,
        # and every payoff it learns is right.
        tables = (
            {(own, (s,)): Fraction(own, 2) for own in range(2) for s in range(2)},
            {(own, ()): Fraction(1, 1 + own) for own in range(2)},
        )
        game = GraphicalGame(2, 2, ((1,), ()), tables)
        path = tmp_path / "game.json"
        path.write_text(json.dumps(serialize.game_to_dict(game)))
        code, payload = run(
            tmp_path, "learn", "graphical", "--game", str(path), "--degree", "1"
        )
        assert code == EXIT_OK
        assert payload["verified"] is True
        assert payload["queries_used"] == 4
        assert payload["affects_edges"] == []
        assert "counterexample" not in payload

    def test_a_wrong_learned_payoff_is_not_verified(self, tmp_path, monkeypatch):
        from pqlab import graphical

        learn = graphical.learn_graphical

        def changing(oracle, n, k, d):
            learned = learn(oracle, n, k, d)
            tables = list(learned.game.payoff_tables)
            tables[2] = dict(tables[2])
            key = max(tables[2])
            tables[2][key] = 1 - tables[2][key]
            game = dataclasses.replace(learned.game, payoff_tables=tuple(tables))
            return dataclasses.replace(learned, game=game)

        monkeypatch.setattr(graphical, "learn_graphical", changing)
        spec = "random-graphical:n=4,k=2,d=1,seed=3"
        code, payload = run(tmp_path, "learn", "graphical", "--gen", spec, "--degree", "1")
        assert code == EXIT_VERIFY_FAILED
        assert payload["verified"] is False
        counterexample = payload["counterexample"]
        assert set(counterexample) == {"player", "profile", "got", "want"}
        assert counterexample["player"] == 2
        profile = counterexample["profile"]
        hidden = make_game(spec)
        own, ctx = max(hidden.payoff_tables[2])
        assert profile[2] == own
        assert [profile[q] for q in hidden.in_neighbors[2]] == list(ctx)
        want = hidden.payoff(2, profile)
        assert counterexample["want"] == str(want)
        assert Fraction(counterexample["got"]) == 1 - want


class TestVerifyCommand:
    def test_congestion_profile_round_trip(self, tmp_path):
        game_file = tmp_path / "game.json"
        profile_file = tmp_path / "profile.json"
        main(["gen", "step:m=2,n=4,seed=0", "--out", str(game_file)])
        # Solve it, then feed the solution back through `verify`.
        code, solved = run(
            tmp_path, "solve", "parallel-links", "--game", str(game_file)
        )
        assert code == EXIT_OK
        loads = solved["loads"]
        profile = {
            "type": "profile",
            "kind": "congestion",
            "assignment": [
                {"path": [i], "count": loads[i]} for i in range(len(loads))
            ],
        }
        profile_file.write_text(json.dumps(profile))
        code = main(
            ["verify", "--game", str(game_file), "--profile", str(profile_file)]
        )
        assert code == EXIT_OK

    @pytest.mark.parametrize("counts", [(1, 2), (3, 2), (0, 0)])
    def test_a_profile_with_a_wrong_player_total_is_invalid_input(
        self, tmp_path, capsys, counts
    ):
        profile = {
            "type": "profile",
            "kind": "congestion",
            "assignment": [{"path": [e], "count": c} for e, c in enumerate(counts)],
        }
        assert self._verify(tmp_path, "step:m=2,n=4,seed=0", profile) == EXIT_INVALID
        assert f"places {sum(counts)} players" in capsys.readouterr().err

    def test_non_equilibrium_exits_2(self, tmp_path):
        from pqlab.cli import EXIT_VERIFY_FAILED

        game_file = tmp_path / "game.json"
        profile_file = tmp_path / "profile.json"
        main(["gen", "pennies:k=2", "--out", str(game_file)])
        profile_file.write_text(
            json.dumps({"type": "profile", "kind": "pure", "strategies": [0, 0]})
        )
        code = main(
            ["verify", "--game", str(game_file), "--profile", str(profile_file)]
        )
        assert code == EXIT_VERIFY_FAILED


    def _verify(self, tmp_path, game, profile):
        game_file = tmp_path / "game.json"
        profile_file = tmp_path / "profile.json"
        if isinstance(game, str):
            main(["gen", game, "--out", str(game_file)])
        else:
            game_file.write_text(json.dumps(game))
        profile_file.write_text(json.dumps(profile))
        return main(["verify", "--game", str(game_file), "--profile", str(profile_file)])

    @pytest.mark.parametrize(
        "strategies, code, improvement",
        [
            ([1, 0, 1, 1], EXIT_OK, "0"),
            ([0, 0, 0, 0], EXIT_VERIFY_FAILED, "3/8"),
            ([0, 0, 0], EXIT_INVALID, None),
            ([0, 0, 0, 2], EXIT_INVALID, None),
        ],
        ids=["equilibrium", "improvable", "short", "strategy-out-of-range"],
    )
    def test_graphical_pure_profile(self, tmp_path, capsys, strategies, code, improvement):
        profile = {"type": "profile", "kind": "pure", "strategies": strategies}
        spec = "random-graphical:n=4,k=2,d=1,seed=1"
        assert self._verify(tmp_path, spec, profile) == code
        out, err = capsys.readouterr()
        if improvement is None:
            assert "malformed for this game" in err
        else:
            payload = json.loads(out)
            assert payload == {"improvement": improvement, "is_equilibrium": code == EXIT_OK}

    def test_graphical_game_with_a_mixed_profile_is_invalid_input(self, tmp_path, capsys):
        mixed = {"type": "profile", "kind": "mixed", "row": ["1", "0"], "col": ["0", "1"]}
        spec = "random-graphical:n=4,k=2,d=1,seed=1"
        assert self._verify(tmp_path, spec, mixed) == EXIT_INVALID
        assert "a graphical game needs a pure profile" in capsys.readouterr().err

    def test_game_file_that_is_a_list_is_invalid_input(self, tmp_path, capsys):
        pure = {"type": "profile", "kind": "pure", "strategies": [0, 0]}
        assert self._verify(tmp_path, [1, 2], pure) == EXIT_INVALID
        assert "JSON object" in capsys.readouterr().err

    def test_path_that_is_not_a_list_is_invalid_input(self, tmp_path, capsys):
        profile = {
            "type": "profile",
            "kind": "congestion",
            "assignment": [{"path": 5, "count": 4}],
        }
        assert self._verify(tmp_path, "step:m=2,n=4,seed=0", profile) == EXIT_INVALID
        assert "path 5" in capsys.readouterr().err

    def test_pure_profile_for_congestion_game_is_invalid_input(self, tmp_path, capsys):
        pure = {"type": "profile", "kind": "pure", "strategies": [0, 1]}
        assert self._verify(tmp_path, "step:m=2,n=4,seed=0", pure) == EXIT_INVALID
        assert "congestion profile" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec, nulled, profile, message",
        [
            ("step:m=2,n=4,seed=0", (), [1, 2], "profile document is a JSON object"),
            (
                "step:m=2,n=4,seed=0",
                (),
                {"type": "profile", "kind": "congestion",
                 "assignment": [{"path": [0], "count": None}]},
                "malformed profile document",
            ),
            (
                "pennies:k=2",
                (),
                {"type": "profile", "kind": "pure", "strategies": None},
                "malformed profile document",
            ),
            ("pennies:k=2", ("row_payoff",), None, "malformed game document"),
            ("step:m=2,n=4,seed=0", ("cost_tables", "0"), None, "malformed game document"),
            ("step:m=2,n=4,seed=0", ("players",), None, "malformed game document"),
            ("random-graphical:n=3,k=2,d=1,seed=0", ("players",), None,
             "malformed game document"),
            (
                "step:m=2,n=2,seed=0",
                (),
                {"type": "profile", "kind": "congestion",
                 "assignment": [{"path": [0], "count": 1.9},
                                {"path": [1], "count": 1.2}]},
                "malformed profile document",
            ),
            (
                "step:m=2,n=2,seed=0",
                (),
                {"type": "profile", "kind": "congestion",
                 "assignment": [{"path": [0.0], "count": 1},
                                {"path": [1], "count": 1}]},
                "malformed profile document",
            ),
            (
                "pennies:k=2",
                (),
                {"type": "profile", "kind": "pure", "strategies": [True, 0]},
                "malformed profile document",
            ),
            (
                "step:m=2,n=2,seed=0",
                (),
                {"type": "profile", "kind": "congestion",
                 "assignment": [{"path": [0], "count": 1},
                                {"path": [0], "count": 1},
                                {"path": [1], "count": 1}]},
                "path [0] is listed twice",
            ),
            (
                "pennies:k=2",
                (),
                {"type": "profile", "kind": "pure", "strategies": [0]},
                "bimatrix pure profile has 2 strategies",
            ),
            (
                "pennies:k=2",
                (),
                {"type": "profile", "kind": "pure", "strategies": [0, 0, 7]},
                "bimatrix pure profile has 2 strategies",
            ),
        ],
        ids=["profile-list", "null-count", "null-strategies", "null-row-payoff",
             "null-cost-table", "null-congestion-players", "null-graphical-players",
             "float-counts", "float-edge-id", "bool-strategy", "repeated-path",
             "short-bimatrix-profile", "long-bimatrix-profile"],
    )
    def test_wrong_json_types_are_invalid_input(
        self, tmp_path, capsys, spec, nulled, profile, message
    ):
        game = spec
        if nulled:
            game = serialize.game_to_dict(make_game(spec))
            *outer, last = nulled
            field = game
            for key in outer:
                field = field[key]
            field[last] = None
        if profile is None:
            profile = {"type": "profile", "kind": "pure", "strategies": [0, 0]}
        assert self._verify(tmp_path, game, profile) == EXIT_INVALID
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec, edit",
        [
            ("step:m=2,n=4,seed=0", lambda game: game.pop("players")),
            ("step:m=2,n=4,seed=0", lambda game: game.update(edges="x")),
            ("random-graphical:n=3,k=2,d=1,seed=0", lambda game: game.pop("strategies")),
        ],
        ids=["missing-players", "edges-not-triples", "missing-graphical-strategies"],
    )
    def test_missing_or_misshapen_fields_are_invalid_input(
        self, tmp_path, capsys, spec, edit
    ):
        game = serialize.game_to_dict(make_game(spec))
        edit(game)
        profile = {"type": "profile", "kind": "pure", "strategies": [0, 0]}
        assert self._verify(tmp_path, game, profile) == EXIT_INVALID
        assert "malformed game document" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec, field, value",
        [
            ("step:m=2,n=2,seed=0", ("players",), 2.9),
            ("step:m=2,n=2,seed=0", ("players",), True),
            ("step:m=2,n=2,seed=0", ("vertices", 1), "1"),
            ("step:m=2,n=2,seed=0", ("origin",), 0.0),
            ("step:m=2,n=2,seed=0", ("destination",), 1.0),
            ("step:m=2,n=2,seed=0", ("edges", 1, 0), 1.0),
            ("random-graphical:n=3,k=2,d=1,seed=0", ("players",), 3.0),
            ("random-graphical:n=3,k=2,d=1,seed=0", ("strategies",), "2"),
            ("random-graphical:n=3,k=2,d=1,seed=0",
             ("payoff_tables", 0, "neighbors", 0), 2.0),
            ("random-graphical:n=3,k=2,d=1,seed=0",
             ("payoff_tables", 0, "entries", 0, 0), False),
            ("random-graphical:n=3,k=2,d=1,seed=0",
             ("payoff_tables", 0, "entries", 0, 1, 0), 0.0),
        ],
        ids=["float-players", "bool-players", "string-vertex", "float-origin",
             "float-destination", "float-edge-tail", "float-graphical-players",
             "string-strategies", "float-neighbor", "bool-own-strategy",
             "float-neighbor-strategy"],
    )
    def test_integers_must_be_json_integers(
        self, tmp_path, capsys, spec, field, value
    ):
        # Converting with int() would read 2.9 players as 2; only a JSON
        # integer is an integer field.
        game = serialize.game_to_dict(make_game(spec))
        *outer, last = field
        at = game
        for key in outer:
            at = at[key]
        at[last] = value
        profile = {
            "type": "profile",
            "kind": "congestion" if game["type"] == "congestion" else "pure",
            "strategies": [0, 0, 0],
            "assignment": [{"path": [0], "count": 1}, {"path": [1], "count": 1}],
        }
        assert self._verify(tmp_path, game, profile) == EXIT_INVALID
        assert "expected a JSON integer" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["01", "+1", " 1", "1_0"])
    def test_cost_table_key_must_be_a_decimal_edge_id(self, tmp_path, capsys, key):
        # "01" would otherwise be a second table for edge 1, and the last
        # one read would win.
        game = serialize.game_to_dict(make_game("step:m=2,n=2,seed=0"))
        game["cost_tables"][key] = ["0", "0", "0"]
        profile = {
            "type": "profile",
            "kind": "congestion",
            "assignment": [{"path": [0], "count": 1}, {"path": [1], "count": 1}],
        }
        assert self._verify(tmp_path, game, profile) == EXIT_INVALID
        assert "expected a decimal edge id" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "steps, message",
        [
            ([[1, "0"]], "start at 0"),
            ([[0, "0"], [2, "1"], [2, "2"]], "strictly increase"),
            ([[0, "0"], [2, "1"], [1, "2"]], "strictly increase"),
            ([[0, "0"], [3, "1"]], "above n=2"),
            ([[0, "2"], [1, "1"]], "cost table is decreasing"),
            ([[0, "-1"]], "negative entry"),
            ([[0, "0"], [1.0, "1"]], "expected a JSON integer"),
            ([[0, "0"], ["1", "1"]], "expected a JSON integer"),
            ([[0, "0", "1"]], "a step is [threshold, value]"),
            ([], "at least one step"),
            ({"0": "0"}, "malformed game document"),
        ],
        ids=["first-not-zero", "repeated", "decreasing-threshold", "above-n",
             "decreasing-value", "negative-value", "float-threshold",
             "string-threshold", "long-step", "no-steps", "steps-not-a-list"],
    )
    def test_malformed_step_table_is_invalid_input(self, tmp_path, capsys, steps, message):
        game = serialize.game_to_dict(make_game("step:m=2,n=2,seed=0"))
        game["cost_tables"]["1"] = {"steps": steps}
        profile = {
            "type": "profile",
            "kind": "congestion",
            "assignment": [{"path": [0], "count": 1}, {"path": [1], "count": 1}],
        }
        assert self._verify(tmp_path, game, profile) == EXIT_INVALID
        assert message in capsys.readouterr().err


class TestBench:
    def test_parallel_links_grid(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = main(
            ["bench", "parallel-links", "--m", "4", "--n-min-exp", "4",
             "--n-max-exp", "6", "--seed", "1", "--out", str(out)]
        )
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 4  # header + three grid cells
        header = lines[0].split(",")
        assert "queries_used" in header and "bound" in header
        import csv

        with open(out) as fp:
            for row in csv.DictReader(fp):
                assert int(row["queries_used"]) <= int(row["bound"])
                assert float(row["fraction"]) == int(row["queries_used"]) / int(
                    row["total_values"]
                )

    def test_a_row_that_fails_verification_exits_2(self, tmp_path, monkeypatch):
        # The n = 32 row reports every player on a link they would leave.
        game = make_game("step:m=4,n=32,seed=1")
        stacked = next(
            tuple(32 if j == i else 0 for j in range(4))
            for i in range(4)
            if not deviation_report(game, {(i,): 32}).is_equilibrium
        )
        solve = parallel_links.solve_parallel_links

        def stacking(oracle, group_factor=None):
            result = solve(oracle, group_factor)
            if oracle.players != 32:
                return result
            return dataclasses.replace(result, loads=LinkLoads(stacked, 0))

        monkeypatch.setattr(parallel_links, "solve_parallel_links", stacking)
        out = tmp_path / "bench.csv"
        code = main(
            ["bench", "parallel-links", "--m", "4", "--n-min-exp", "4",
             "--n-max-exp", "6", "--seed", "1", "--out", str(out)]
        )
        assert code == EXIT_VERIFY_FAILED
        assert len(out.read_text().strip().splitlines()) == 4  # every row written

    @pytest.mark.parametrize(
        "argv",
        [
            ["parallel-links", "--n-min-exp", "5", "--n-max-exp", "4"],
            ["dag", "--players-min", "3", "--players-max", "2"],
        ],
        ids=["parallel-links", "dag"],
    )
    def test_an_empty_grid_is_invalid_input(self, tmp_path, monkeypatch, capsys, argv):
        from pqlab import dag_learner

        def no_solve(*args, **kwargs):
            raise AssertionError("an empty grid must be rejected before any solve")

        monkeypatch.setattr(parallel_links, "solve_parallel_links", no_solve)
        monkeypatch.setattr(dag_learner, "solve_dag_game", no_solve)
        out = tmp_path / "bench.csv"
        assert main(["bench", *argv, "--out", str(out)]) == EXIT_INVALID
        assert "empty grid" in capsys.readouterr().err
        assert not out.exists()

    def test_a_row_that_drops_a_player_exits_2(self, tmp_path, monkeypatch):
        from pqlab import dag_learner

        solve = dag_learner.solve_dag_game

        def dropping(oracle):
            result = solve(oracle)
            if oracle.players == 2:
                path = max(result.profile, key=result.profile.get)
                result.profile[path] -= 1
            return result

        monkeypatch.setattr(dag_learner, "solve_dag_game", dropping)
        out = tmp_path / "bench.csv"
        code = main(
            ["bench", "dag", "--v", "5", "--e", "7", "--players-min", "1",
             "--players-max", "3", "--seed", "2", "--out", str(out)]
        )
        assert code == EXIT_VERIFY_FAILED
        assert len(out.read_text().strip().splitlines()) == 4  # every row written

    def test_dag_grid_counts(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = main(
            ["bench", "dag", "--v", "5", "--e", "7", "--players-min", "1",
             "--players-max", "3", "--seed", "2", "--out", str(out)]
        )
        assert code == EXIT_OK
        import csv

        with open(out) as fp:
            for row in csv.DictReader(fp):
                assert int(row["queries_used"]) == int(row["bound"])

    def test_graphical_row(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = main(
            ["bench", "graphical", "--players-max", "6", "--k", "2",
             "--d", "1", "--seed", "0", "--out", str(out)]
        )
        assert code == EXIT_OK
        import csv

        with open(out) as fp:
            rows = list(csv.DictReader(fp))
        assert rows[0]["queries_used"] == "22"  # 1 + 6 + 15
        assert rows[0]["total_profiles"] == "64"

    # Each bench grid and the command line of the matching command, per row.
    AGREEMENT = [
        ("dag --v 5 --e 7 --players-min 1 --players-max 3 --seed 2",
         "solve dag --gen random-dag:v=5,e=7,n={n},seed=2"),
        ("parallel-links --m 4 --n-min-exp 4 --n-max-exp 6 --seed 1",
         "solve parallel-links --gen step:m=4,n={n},seed=1"),
        ("graphical --players-max 6 --k 2 --d 1 --seed 0",
         "learn graphical --degree 1 --gen random-graphical:n={n},k=2,d=1,seed=0"),
    ]

    @pytest.mark.parametrize("drop", [False, True], ids=["solved", "dropping"])
    @pytest.mark.parametrize(
        "grid, command", AGREEMENT, ids=["dag", "parallel-links", "graphical"]
    )
    def test_rows_agree_with_the_commands(
        self, tmp_path, monkeypatch, grid, command, drop
    ):
        from pqlab import dag_learner

        if drop:
            # Drop a player from the 2-player DAG and the 32-player links.
            solve_dag, solve_links = (
                dag_learner.solve_dag_game, parallel_links.solve_parallel_links
            )

            def dropping_dag(oracle):
                result = solve_dag(oracle)
                if oracle.players == 2:
                    result.profile[max(result.profile, key=result.profile.get)] -= 1
                return result

            def dropping_links(oracle, group_factor=None):
                result = solve_links(oracle, group_factor)
                if oracle.players != 32:
                    return result
                loads = list(result.loads.loads)
                loads[loads.index(max(loads))] -= 1
                return dataclasses.replace(
                    result, loads=LinkLoads(tuple(loads), result.loads.special)
                )

            monkeypatch.setattr(dag_learner, "solve_dag_game", dropping_dag)
            monkeypatch.setattr(parallel_links, "solve_parallel_links", dropping_links)
        out = tmp_path / "bench.csv"
        code = main(["bench", *grid.split(), "--out", str(out)])
        with open(out) as fp:
            rows = list(csv.DictReader(fp))
        assert len(rows) == (1 if grid.startswith("graphical") else 3)
        verdicts = []
        for row in rows:
            _, payload = run(tmp_path, *command.format(n=row["n"]).split())
            assert int(row["queries_used"]) == payload["queries_used"]
            verdicts.append(payload["verified"])
        assert code == (EXIT_OK if all(verdicts) else EXIT_VERIFY_FAILED)
        assert all(verdicts) == (not drop or grid.startswith("graphical"))


class TestSeedFlag:
    def test_standalone_seed_equivalent_to_inline(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        main(["gen", "random-dag:v=6,e=9,n=3,seed=5", "--out", str(a)])
        code, payload_inline = run(
            tmp_path, "solve", "dag", "--gen", "random-dag:v=6,e=9,n=3,seed=5"
        )
        code2, payload_flag = run(
            tmp_path, "solve", "dag", "--gen", "random-dag:v=6,e=9,n=3", "--seed", "5"
        )
        assert code == code2 == EXIT_OK
        assert payload_inline == payload_flag

    def test_adversary_takes_n_from_gen_spec(self, tmp_path):
        code, payload = run(
            tmp_path, "solve", "parallel-links", "--adversary",
            "--gen", "step:m=2,n=1024",
        )
        assert code == EXIT_OK
        assert payload["queries_used"] >= 10

    def test_adversary_takes_n_from_game_file(self, tmp_path):
        game_file = tmp_path / "game.json"
        assert main(["gen", "step:m=3,n=40,seed=1", "--out", str(game_file)]) == EXIT_OK
        code, payload = run(
            tmp_path, "solve", "parallel-links", "--adversary", "--game", str(game_file)
        )
        assert code == EXIT_OK
        assert sum(payload["loads"]) == 40

    def test_adversary_with_an_invalid_spec_exits_4(self, capsys):
        argv = ["solve", "parallel-links", "--adversary", "--gen", "nonsense:n=8,sead=1"]
        assert main(argv) == EXIT_INVALID
        assert '"verified"' not in capsys.readouterr().out


# A seeded grid of every command: each command line, its exit code and the
# sha256 of its stdout and stderr, with bench rows read without `seconds`.
# {links}, {dag}, {pennies}, {pure} and {congestion} name files the test
# writes first.
CLI_GRID = [
    ("gen pennies:k=3", EXIT_OK,
     "0268e6f6bcb479ae1057a6a81a55c94079d5c50c3dacfdcbadb84c9596b5ec26"),
    ("gen gell:ell=4", EXIT_OK,
     "25c881a0943e94d657d35d00cb6008af28fe1714bc3fef4b49f0fe4f6603f07d"),
    ("gen rell:k=3", EXIT_OK,
     "710f64889b15f9a50788486c260db73096f4a4fea6913fa0c50df22d5268a4ab"),
    ("gen random:k=3,seed=2", EXIT_OK,
     "3cb93b9ee243d746a466323e21951ca80392805c71c745b43bebd11c87798bea"),
    ("gen random-graphical:n=3,k=2,d=1,seed=0", EXIT_OK,
     "137b3ea9ab6219a2ae543b0d9ed7bdb4459c04cf1104fd0720307365d3e76d0f"),
    ("gen step:m=2,n=16,seed=1", EXIT_OK,
     "078a00a0bdae964cc1ee3c35efc20c1182120a2debf9fcd0757dd8261c371499"),
    ("gen random-dag:v=6,e=9,n=3,seed=5,subdivide=1", EXIT_OK,
     "0e845f1b28a9d7354fef83ddef3746f857006c31697465f47c59fb43b286da14"),
    ("gen nonsense:k=2", EXIT_INVALID,
     "14801f6ae67162ef5f49cfc567790b899752dd1723dee6bfe92a9ffc23e25c18"),
    ("gen step:m=2,n=4,sead=5", EXIT_INVALID,
     "c0c6a935bdabf3d8b16a4e43f35da74a47446e532cc49f01dbab6c6e5963756b"),
    ("solve bimatrix --gen random:k=10,seed=7", EXIT_OK,
     "e9e7a3b24a3b491d093681300f1fe10901141c485bce780094d03e3dd3b99d1b"),
    ("solve bimatrix --algo half-ne --gen gell:ell=6", EXIT_OK,
     "12b96a99966cc8d5285bf7ad5a5e2c3a77c1df6c0904a63e550c24abbcd5b8eb"),
    ("solve bimatrix --algo uniform --gen random:k=4,seed=1", EXIT_OK,
     "593b47550ef2c9fa56e7591dfb6c7aa1f8a020da3b79d3c93ba8b60d60893770"),
    ("solve bimatrix --algo uniform --gen rell:k=3", EXIT_OK,
     "5886a58a7435d2c3a78134560ed00252f4af804d709474f0a40377b203f58404"),
    ("solve bimatrix --gen random:k=4 --seed 3", EXIT_OK,
     "97699ff6b7d7f52b9607a21d3285d44bc2d8657dfd016e57757337c5278d233b"),
    ("solve bimatrix --game {pennies}", EXIT_OK,
     "725ccd722e5bf16fa66472bbf10799233d6ffeaac7a752fa54361b2a54253314"),
    ("solve bimatrix --gen random:k=10,seed=7 --budget 5", EXIT_BUDGET,
     "f3881bf6091c4c33550d9f19af5aef910f387dde7d26aca5447ac88bfd7f99a2"),
    ("solve bimatrix --gen step:n=4", EXIT_INVALID,
     "f62d5cde57e2f79e4330bfff27cf2f9cdf62bc8161922a052084106018656c74"),
    ("solve bimatrix --gen pennies:k=2 --budget -1", EXIT_INVALID,
     "6743f4af83758e824f052af4044c3d358c4d77ae8fc8b9603fdca3cc1378540c"),
    ("solve parallel-links --gen step:m=4,n=50,seed=2", EXIT_OK,
     "cde41ae1cec2f7f7d1dd252903eb8a6302175ecac2c10fa3aca261dad6f7c174"),
    ("solve parallel-links --gen step:m=4,n=50,seed=2 --emit-trace", EXIT_OK,
     "2f0dc0f2bdaa7f444563913288783ef94e8664969da10836ffec1dd7f9955810"),
    ("solve parallel-links --gen step:m=8,n=1000,seed=3 --kf 2", EXIT_OK,
     "e4c420907f8fe6d93d526cbce354df6d9919d58c971f173fb155318e13538256"),
    ("solve parallel-links --gen step:m=3,n=40 --seed 1", EXIT_OK,
     "21edb04539640bb2385a74670ec14be96591c3d6a3cc354dd706d5ad856be133"),
    ("solve parallel-links --game {links} --emit-trace", EXIT_OK,
     "887531f897513ec82b43614ba3cd7594a4b2e42c08f561d45d6ffc562e9f3bde"),
    ("solve parallel-links --gen step:m=8,n=1000,seed=3 --budget 5", EXIT_BUDGET,
     "f3881bf6091c4c33550d9f19af5aef910f387dde7d26aca5447ac88bfd7f99a2"),
    ("solve parallel-links --adversary --players 1024", EXIT_OK,
     "c4eaa9f747c353a12d63a38c85579d72a972b2e0fa7e14a30b1e7cba2f870898"),
    ("solve parallel-links --adversary --players 64 --emit-trace", EXIT_OK,
     "19110faa122b54f32b41aaa1ce754865ac508ec049bd3df7dee368341c714dbe"),
    ("solve parallel-links --adversary --gen step:m=2,n=1024", EXIT_OK,
     "c4eaa9f747c353a12d63a38c85579d72a972b2e0fa7e14a30b1e7cba2f870898"),
    ("solve parallel-links --adversary --game {links}", EXIT_OK,
     "16c3af673c0d777758c0986d24ccb12b64bf9dff1e902ede68a9c1cbbeb66b25"),
    ("solve parallel-links --adversary --players 64 --gen step:m=2,n=16,seed=1",
     EXIT_OK, "87167a7c1f1a1678fdbc9bc46de7702485f99f28268f4102d4ea6a5c686defd9"),
    ("solve parallel-links --adversary --players 1024 --budget 3", EXIT_BUDGET,
     "ee8937109b28390ba65a8d32ec3bcf8c481c19696ce5d7658ecbe15182a17b8d"),
    ("solve parallel-links --adversary", EXIT_INVALID,
     "e2d9e0b88f8bb77937761e9ba19ce57cf045a4b2945e28a054776ca02de9c20c"),
    ("solve parallel-links --adversary --players 0", EXIT_INVALID,
     "1cce033d91ce326fa076ac9fc4669f38cbd789df795af19c04bb4afe4b594b0e"),
    ("solve parallel-links --gen random-dag:n=2,seed=0", EXIT_INVALID,
     "9a5c7256978f582151f291b72f7e0bf0a1dfebfb955f5aa79d0da659746cda2c"),
    ("solve parallel-links --gen step:m=2,n=9223372036854775807,seed=0", EXIT_INVALID,
     "572d9609571297e7a750d20afb60979d8b7cfa53e8306037411b05f176c840d4"),
    ("solve dag --gen random-dag:v=6,e=9,n=2,seed=4", EXIT_OK,
     "ba2c17d42ee204117343dd11670a3b6874740274d3d3dbeb5c7cabb592112b9a"),
    ("solve dag --gen random-dag:v=6,e=9,n=2,seed=0,subdivide=2", EXIT_OK,
     "9e616dd1655b09c3d4cbbff927093d13c9f7131f7c3d014678b2f588f8c31ab2"),
    ("solve dag --gen random-dag:v=6,e=9,n=3 --seed 5", EXIT_OK,
     "df86a9119d726dba876e690aaf0100f68d29d323c7f2d5d8195f8bd0c25fb5ea"),
    ("solve dag --gen random-dag:v=10,e=20,n=3,seed=191", EXIT_OK,
     "f2b4864e17b03f9670bc4fbfd11255c0386da7db9860b16ea515ad13cb29e309"),
    ("solve dag --gen step:m=3,n=5,seed=1", EXIT_OK,
     "864a73f03ce8e2fce3353cb58c7d99a44fc05cc4d4f2afd62e5c7fceb70c7c00"),
    ("solve dag --game {dag}", EXIT_OK,
     "96945061762dd6f6497c32812374ce8f3f13665b0b3ee89916b41372be6f544a"),
    ("solve dag --gen random-dag:v=7,e=12,n=3,seed=1 --budget 3", EXIT_BUDGET,
     "ee8937109b28390ba65a8d32ec3bcf8c481c19696ce5d7658ecbe15182a17b8d"),
    ("solve dag", EXIT_INVALID,
     "4a788861b53eaca10a9a04a3207f740c2208d0d30323bebe1401debf8e54fc3d"),
    ("solve dag --gen pennies", EXIT_INVALID,
     "e4276f5508c1d8a958eb51875d5698355b88b2cb1a1f3ec63aae5fced2165f4e"),
    ("learn graphical --gen random-graphical:n=4,k=2,d=1,seed=3 --degree 1", EXIT_OK,
     "ac86a7133793def1f26e964fbaab99d391fad77b41f56ddb70df0278276a13c4"),
    ("learn graphical --gen random-graphical:n=5,k=3,d=2,seed=1 --degree 2", EXIT_OK,
     "7f12af4c313bd77d50f8d555c4c4d0d24e055ad7d40c2d71c6387bdc8b117b46"),
    ("learn graphical --gen random-graphical:n=4,k=2,d=1 --seed 2 --degree 1", EXIT_OK,
     "7fbb203efb41922fd46d4c45396b956c2437340fd962d6817d65893fc323faec"),
    ("learn graphical --gen random-graphical:n=5,k=2,d=3,seed=0 --degree 1",
     EXIT_INVALID, "6a6f3fe041f2b869394d5cb9c4611450194f7dde093098b0bdbdb51e8ea73173"),
    ("learn graphical --gen random-graphical:n=4,k=2,d=1,seed=3 --degree 1 "
     "--budget 4", EXIT_BUDGET,
     "caf47e9fe0dec2781550c9fba471ca551bf50f1b58402bccf24add45d78bd195"),
    ("learn graphical --gen pennies --degree 1", EXIT_INVALID,
     "249a10ca5e8022aa6a215e061199de81bc99b011d31912151eb7d61d8f89b692"),
    ("learn dag --gen random-dag:v=5,e=7,n=2,seed=9", EXIT_OK,
     "50542912fb8a2acfbb972d282014fc923e079feb3925b4da486d5bfc75d2b292"),
    ("learn dag --gen random-dag:v=6,e=9,n=2,seed=0,subdivide=2", EXIT_OK,
     "cc4600c306b30674c4a3b8d922d4c4b0c20cc02826c74a7820cbb4037fc9772c"),
    ("learn dag --gen random-dag:v=6,e=9,n=2,seed=0,subdivide=2 --verify-mode sampled",
     EXIT_OK, "cc4600c306b30674c4a3b8d922d4c4b0c20cc02826c74a7820cbb4037fc9772c"),
    ("learn dag --game {dag} --verify-mode sampled", EXIT_OK,
     "50542912fb8a2acfbb972d282014fc923e079feb3925b4da486d5bfc75d2b292"),
    ("learn dag --gen step:m=2,n=4,seed=0", EXIT_OK,
     "56dccc96d99ab5f51746ed272174634d98c6cf6741507c5b0d2993254890d1c7"),
    ("learn dag --gen random-dag:v=7,e=12,n=3,seed=1 --budget 5", EXIT_BUDGET,
     "f3881bf6091c4c33550d9f19af5aef910f387dde7d26aca5447ac88bfd7f99a2"),
    ("learn dag --gen random-dag:v=120,e=400,n=2,seed=0", EXIT_INVALID,
     "600254005403749f1430dedf5aedfb1fd1a57f71de2d5b3664d96d35e04f97bf"),
    ("learn dag --gen random-dag:v=120,e=400,n=2,seed=0 --verify-mode sampled",
     EXIT_INVALID, "16c304369df350ed2b9abf98d46129235018dc7f82ad85063ef21edc9449f5a6"),
    ("learn dag --gen pennies", EXIT_INVALID,
     "f53e3cc2235a6c1cbd2867253de9fd2d1ee3bdf66a9f32f053d886a6614e44fe"),
    ("verify --game {pennies} --profile {pure}", EXIT_VERIFY_FAILED,
     "e2aa772d089580cf1b64f881906ca8c300fe31edab08d41b836d4c5acedb6369"),
    ("verify --game {links} --profile {congestion}", EXIT_VERIFY_FAILED,
     "f7e0c5263bb8c0e8565d02b08bcd128987091cdd325c1092155ca44c95d36d80"),
    ("bench parallel-links --m 4 --n-min-exp 4 --n-max-exp 6 --seed 1", EXIT_OK,
     "9a7d8b906bcc559215d505a5d115674fc78eeab9c667959e880b9e098b61693f"),
    ("bench parallel-links --m 3 --kf 2 --n-min-exp 2 --n-max-exp 5", EXIT_OK,
     "6de4b5cb89a7347ddb6af9decd796adfc0b37cd69a25e6b859395066e03c0965"),
    ("bench dag --v 5 --e 7 --players-min 1 --players-max 3 --seed 2", EXIT_OK,
     "30ce94e64a0111b435a9e1086a29801debd0135455df7c6d521e80081d34c464"),
    ("bench dag --v 6 --e 9 --players-min 2 --players-max 3 --seed 4", EXIT_OK,
     "4a11dc7b64d502b821d05581258ca6e052e6522f2c748101706f709bce29488a"),
    ("bench graphical --players-max 6 --k 2 --d 1 --seed 0", EXIT_OK,
     "01f729a4fc6146a8727cd951ab95d830dd72e17a2c2e0234d6d52e72662263f3"),
    ("bench graphical --players-max 4 --k 3 --d 2 --seed 5", EXIT_OK,
     "865e6821610089e40afe39c26ec66f6dcbaa15f3dce40685fd7b04103444c0e2"),
    ("bench parallel-links --n-min-exp 5 --n-max-exp 4", EXIT_INVALID,
     "ba50e3d54bb710478286c8a3663485e9f8ce7983bc7818d0509701f6cdabd8ab"),
    ("bench dag --players-min 3 --players-max 2", EXIT_INVALID,
     "79c7a4ef9ec14bd809e349b3a9de79c3686f6797a98ff1a23ddc5195032cb78c"),
]


def cli_output(argv) -> tuple[int, str]:
    """Exit code and sha256 of stdout and stderr of one in-process run.  A
    bench row loses its last column, `seconds`, which is wall time."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    text = out.getvalue()
    if argv[0] == "bench":
        text = "".join(row.rpartition(",")[0] + "\n" for row in text.splitlines())
    return code, hashlib.sha256((text + err.getvalue()).encode()).hexdigest()


def write_grid_files(folder) -> dict[str, str]:
    """The game and profile files CLI_GRID names."""
    files = {name: os.path.join(folder, f"{name}.json")
             for name in ("links", "dag", "pennies", "pure", "congestion")}
    for name, spec in [("links", "step:m=3,n=40,seed=1"), ("pennies", "pennies:k=2"),
                       ("dag", "random-dag:v=5,e=7,n=2,seed=9")]:
        assert main(["gen", spec, "--out", files[name]]) == EXIT_OK
    for name, profile in [("pure", (0, 0)), ("congestion", {(0,): 40})]:
        with open(files[name], "w") as fp:
            json.dump(serialize.profile_to_dict(profile), fp)
    return files


@pytest.fixture(scope="module")
def grid_files(tmp_path_factory):
    return write_grid_files(tmp_path_factory.mktemp("grid"))


@pytest.mark.parametrize("line, code, digest", CLI_GRID, ids=[c[0] for c in CLI_GRID])
def test_cli_output_is_pinned(grid_files, line, code, digest):
    argv = [word.format(**grid_files) for word in line.split()]
    assert cli_output(argv) == (code, digest)
