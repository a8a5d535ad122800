"""Round-trip guarantees for the JSON wire formats."""

import io
import json
from fractions import Fraction

import pytest

from pqlab import InvalidSpec, MixedProfile
from pqlab.instances import (
    gen_G_ell,
    gen_matching_pennies,
    gen_random_dag,
    gen_random_graphical,
    gen_random_step_links,
)
from pqlab.serialize import (
    format_rational,
    game_from_dict,
    game_to_dict,
    load_game,
    parse_rational,
    profile_from_dict,
    profile_to_dict,
)


@pytest.mark.parametrize("value", ["3/4", "0", "-2", "17", "22/7"])
def test_rational_round_trip(value):
    assert format_rational(parse_rational(value)) == value


def test_rational_rejects_garbage():
    for bad in ("1/0", "abc", 1.5, None, True):
        with pytest.raises(InvalidSpec):
            parse_rational(bad)


@pytest.mark.parametrize(
    "game",
    [
        gen_matching_pennies(3),
        gen_G_ell(4),
        gen_random_graphical(4, 2, 2, seed=5),
        gen_random_dag(6, 9, 3, seed=7),
        gen_random_step_links(3, 5, seed=1),
    ],
    ids=["pennies", "gell", "graphical", "dag", "steps"],
)
def test_game_round_trip(game):
    assert game_from_dict(game_to_dict(game)) == game


def test_game_json_is_stable_text(tmp_path):
    game = gen_random_dag(5, 8, 2, seed=3)
    buf1, buf2 = io.StringIO(), io.StringIO()
    for buf in (buf1, buf2):
        json.dump(game_to_dict(game), buf, indent=2)
        buf.write("\n")
    assert buf1.getvalue() == buf2.getvalue()
    path = tmp_path / "game.json"
    path.write_text(buf1.getvalue())
    with open(path) as fp:
        assert load_game(fp) == game


def test_pure_and_mixed_profile_round_trip():
    pure = (1, 2, 0)
    assert profile_from_dict(profile_to_dict(pure)) == pure
    mixed = MixedProfile.of([Fraction(1, 3), Fraction(2, 3)], [1])
    assert profile_from_dict(profile_to_dict(mixed)) == mixed


def test_congestion_profile_notation_round_trips():
    # The "1 player on p, 3 players on q" shorthand survives serialization.
    profile = {(0, 2): 1, (1, 3): 3}
    data = json.loads(json.dumps(profile_to_dict(profile)))
    assert profile_from_dict(data) == profile


@pytest.mark.parametrize(
    "game, edit",
    [
        (gen_random_step_links(2, 4, seed=0), lambda data: data.pop("players")),
        (gen_random_step_links(2, 4, seed=0), lambda data: data.update(edges="x")),
        (gen_random_dag(5, 8, 2, seed=3), lambda data: data.update(cost_tables={"x": []})),
        (gen_random_graphical(3, 2, 1, seed=0), lambda data: data.pop("payoff_tables")),
        (gen_matching_pennies(2), lambda data: data.pop("col_payoff")),
    ],
    ids=["missing-players", "edges-not-triples", "edge-key-not-a-number",
         "missing-payoff-tables", "missing-col-payoff"],
)
def test_malformed_game_document_is_invalid_spec(game, edit):
    data = game_to_dict(game)
    edit(data)
    with pytest.raises(InvalidSpec, match="malformed game document"):
        game_from_dict(data)


def test_step_tables_are_written_as_breakpoints():
    game = gen_random_step_links(3, 5, seed=1)
    data = json.loads(json.dumps(game_to_dict(game)))
    for e, table in game.cost.items():
        steps = data["cost_tables"][str(e)]["steps"]
        assert steps == [[t, format_rational(v)] for t, v in zip(table.starts, table.values)]
    # The dense list of the same entries reads as the same game.
    data["cost_tables"] = {str(e): [format_rational(v) for v in t]
                           for e, t in game.cost.items()}
    assert game_from_dict(data) == game


def test_gen_at_n_2_pow_40_writes_breakpoints(tmp_path):
    from pqlab.cli import EXIT_OK, main

    out = tmp_path / "game.json"
    assert main(["gen", "step:m=4,n=1099511627776,seed=0", "--out", str(out)]) == EXIT_OK
    assert out.stat().st_size < 4096
    with open(out) as fp:
        game = load_game(fp)
    assert game.players == 2**40
    assert game == gen_random_step_links(4, 2**40, seed=0)
