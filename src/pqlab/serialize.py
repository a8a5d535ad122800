"""JSON encodings for games and profiles.

The wire formats are documented in docs/formats.md.  Rationals are encoded
as strings ("3/4", "2"); parse(emit(x)) == x is a hard requirement and is
enforced by tests.
"""

from __future__ import annotations

import functools
import json
from collections.abc import Mapping
from fractions import Fraction
from typing import Any

from .errors import InvalidProfile, InvalidSpec, PqlabError
from .games import (
    BimatrixGame,
    CongestionGame,
    GraphicalGame,
    MixedProfile,
    Network,
    Path,
    StepTable,
)


def format_rational(value: Fraction) -> str:
    return str(Fraction(value))


def parse_rational(text: object) -> Fraction:
    if isinstance(text, bool):
        raise InvalidSpec(f"not a rational: {text!r}")
    if isinstance(text, (int, str)):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidSpec(f"not a rational: {text!r}") from exc
    raise InvalidSpec(f"not a rational: {text!r}")


def _int(value: object) -> int:
    """A JSON integer as is; a bool, a float or a string raises TypeError."""
    if type(value) is not int:
        raise TypeError(f"expected a JSON integer, got {value!r}")
    return value


def _edge_key(key: str) -> int:
    """A cost-table key: an edge id as JSON writes it, so "01" and "+1" are
    not second spellings of edge 1."""
    e = int(key)
    if str(e) != key:
        raise TypeError(f"expected a decimal edge id, got {key!r}")
    return e


def _document(error: type[PqlabError], what: str):
    """Parse a JSON object, reporting any other shape, a missing field or a
    field of the wrong JSON type or value as ``error``, not a Python error."""

    def wrap(parse):
        @functools.wraps(parse)
        def checked(data):
            if not isinstance(data, Mapping):
                got = type(data).__name__
                raise error(f"a {what} document is a JSON object, got {got}")
            try:
                return parse(data)
            except (TypeError, AttributeError, KeyError, ValueError) as exc:
                raise error(f"malformed {what} document: {exc}") from exc

        return checked

    return wrap


def _table_out(table) -> list[list[str]]:
    return [[format_rational(v) for v in row] for row in table]


def _cost_table_out(table) -> list[str] | dict[str, list]:
    if isinstance(table, StepTable):
        return {
            "steps": [
                [t, format_rational(v)] for t, v in zip(table.starts, table.values)
            ]
        }
    return [format_rational(v) for v in table]


def _cost_table_in(edge: str, table, players: int):
    """A dense list of entries, or ``{"steps": [[threshold, value], ...]}``."""
    if isinstance(table, list):
        return [parse_rational(v) for v in table]
    if not isinstance(table, Mapping) or list(table) != ["steps"]:
        raise TypeError(f"edge {edge}: a cost table is a list or a steps object")
    steps = []
    for step in table["steps"]:
        if not isinstance(step, list) or len(step) != 2:
            raise TypeError(f"edge {edge}: a step is [threshold, value], got {step!r}")
        steps.append((_int(step[0]), parse_rational(step[1])))
    try:
        return StepTable(steps, players)
    except InvalidSpec as exc:
        raise InvalidSpec(f"edge {edge}: {exc}") from exc


def game_to_dict(game: BimatrixGame | GraphicalGame | CongestionGame) -> dict[str, Any]:
    if isinstance(game, BimatrixGame):
        return {
            "type": "bimatrix",
            "rows": game.rows,
            "cols": game.cols,
            "row_payoff": _table_out(game.row_payoff),
            "col_payoff": _table_out(game.col_payoff),
        }
    if isinstance(game, GraphicalGame):
        tables = []
        for p in range(game.players):
            nbrs = game.in_neighbors[p]
            entries = [
                [own, list(ctx), format_rational(v)]
                for (own, ctx), v in sorted(game.payoff_tables[p].items())
            ]
            tables.append({"neighbors": list(nbrs), "entries": entries})
        return {
            "type": "graphical",
            "players": game.players,
            "strategies": game.strategies,
            "payoff_tables": tables,
        }
    if isinstance(game, CongestionGame):
        return {
            "type": "congestion",
            "players": game.players,
            "vertices": list(game.vertices),
            "origin": game.origin,
            "destination": game.destination,
            "edges": [[e, t, h] for e, (t, h) in sorted(game.edges.items())],
            "cost_tables": {
                str(e): _cost_table_out(game.cost[e]) for e in sorted(game.edges)
            },
        }
    raise InvalidSpec(f"unknown game object {game!r}")


@_document(InvalidSpec, "game")
def game_from_dict(data: Mapping[str, Any]) -> BimatrixGame | GraphicalGame | CongestionGame:
    kind = data.get("type")
    if kind == "bimatrix":
        return BimatrixGame(
            tuple(tuple(parse_rational(v) for v in row) for row in data["row_payoff"]),
            tuple(tuple(parse_rational(v) for v in row) for row in data["col_payoff"]),
        )
    if kind == "graphical":
        in_neighbors = []
        tables = []
        for spec in data["payoff_tables"]:
            in_neighbors.append(tuple(_int(q) for q in spec["neighbors"]))
            tables.append(
                {
                    (_int(own), tuple(_int(s) for s in ctx)): parse_rational(v)
                    for own, ctx, v in spec["entries"]
                }
            )
        return GraphicalGame(
            players=_int(data["players"]),
            strategies=_int(data["strategies"]),
            in_neighbors=tuple(in_neighbors),
            payoff_tables=tuple(tables),
        )
    if kind == "congestion":
        net = Network(
            [_int(v) for v in data["vertices"]],
            {_int(e): (_int(t), _int(h)) for e, t, h in data["edges"]},
            _int(data["origin"]),
            _int(data["destination"]),
        )
        players = _int(data["players"])
        cost = {
            _edge_key(e): _cost_table_in(e, table, players)
            for e, table in data["cost_tables"].items()
        }
        return CongestionGame(net, players, cost)
    raise InvalidSpec(f"unknown game type {kind!r}")


def profile_to_dict(profile: object) -> dict[str, Any]:
    """Serialize a pure pair, pure tuple, mixed profile, or path multiset."""
    if isinstance(profile, MixedProfile):
        return {
            "type": "profile",
            "kind": "mixed",
            "row": [format_rational(p) for p in profile.row_dist],
            "col": [format_rational(p) for p in profile.col_dist],
        }
    if isinstance(profile, Mapping):
        return {
            "type": "profile",
            "kind": "congestion",
            "assignment": [
                {"path": list(path), "count": count}
                for path, count in sorted(profile.items())
            ],
        }
    if isinstance(profile, (tuple, list)):
        return {"type": "profile", "kind": "pure", "strategies": list(profile)}
    raise InvalidSpec(f"cannot serialize profile {profile!r}")


@_document(InvalidProfile, "profile")
def profile_from_dict(data: Mapping[str, Any]) -> object:
    kind = data.get("kind")
    if kind == "mixed":
        return MixedProfile.of(
            [parse_rational(p) for p in data["row"]],
            [parse_rational(p) for p in data["col"]],
        )
    if kind == "congestion":
        # A path listed twice would hide a count, so it is rejected.
        assignment: dict[Path, int] = {}
        for entry in data["assignment"]:
            if not isinstance(entry["path"], list):
                raise InvalidProfile(
                    f"path {entry['path']!r} is not a list of edge ids"
                )
            path = tuple(_int(e) for e in entry["path"])
            if path in assignment:
                raise InvalidProfile(f"path {list(path)} is listed twice")
            assignment[path] = _int(entry["count"])
        return assignment
    if kind == "pure":
        return tuple(_int(s) for s in data["strategies"])
    raise InvalidSpec(f"unknown profile kind {kind!r}")


def load_game(fp):
    return game_from_dict(json.load(fp))
