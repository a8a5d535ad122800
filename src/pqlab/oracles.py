"""Hidden-game query oracles with strict information hiding and accounting.

A solver is only ever handed an oracle.  The oracle reveals public metadata
(player/strategy counts, and for congestion games the network structure) and
answers queries, charging each accepted query to a ledger.  Malformed queries
are rejected without being counted.
"""

from __future__ import annotations

import json
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode
from typing import Any

from .errors import BudgetExhausted, InvalidProfile, InvalidSpec, LoadOutOfRange
from .games import (
    BimatrixGame,
    CongestionGame,
    GraphicalGame,
    Network,
    Path,
    StepTable,
    parallel_links_game,
    strategy_costs,
)


class _Profile(tuple):
    """A pure-profile query as recorded: the validated strategies, in order."""

    __slots__ = ()


class _Loads(tuple):
    """A load query as recorded: its (path, count) pairs, sorted by path."""

    __slots__ = ()


@dataclass
class QueryLedger:
    """Ordered transcript of accepted (query, response) pairs.

    The log keeps raw, immutable values: a pure-profile query is its
    strategy tuple and its response the payoffs as returned; a load query is
    its sorted (path, count) pairs and its response the sorted (path, cost)
    pairs.  Nothing is formatted until ``dump_jsonl`` or ``entries`` reads
    the log, so a run that never writes a transcript never formats a value.
    """

    log: list[tuple[Any, Any]] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.log)

    def record(self, query: Any, response: Any) -> None:
        self.log.append((query, response))

    def entries(self) -> Iterator[tuple[Any, Any]]:
        """Each entry in its JSON shape, as ``dump_jsonl`` writes it: a
        ``{"profile": [...]}`` query answered by a list of payoff strings, or
        a ``{"loads": [[path, count], ...]}`` query answered by a dict from
        ``str(list(path))`` to cost strings.  Other entries pass as recorded.
        """
        for query, response in self.log:
            kind = type(query)
            if kind is _Profile:
                yield {"profile": list(query)}, [str(v) for v in response]
            elif kind is _Loads:
                yield (
                    {"loads": [[list(p), c] for p, c in query]},
                    {str(list(p)): str(v) for p, v in response},
                )
            else:
                yield query, response

    def dump_jsonl(self, fp) -> None:
        """One JSON object per accepted query, for replay and audit.

        Each line equals ``json.dumps({"query": q, "response": r},
        default=str)`` of the matching ``entries()`` item.  Known entries are
        written by hand: a value's quoted string is worked out once per
        object (the log keeps every value alive, so an id names one object
        for the whole dump) and a path's ``[e1, e2]`` once per path.  Objects
        repeat where the games hand out stored values: a table entry, which
        answers every one-edge path and every graphical payoff.  A multi-edge
        cost is a new object per answer, so its string is made per answer.
        """
        quoted: dict[int, str] = {}
        paths: dict[Path, str] = {}

        def quote(values) -> list[str]:
            try:
                return [quoted[id(v)] for v in values]
            except KeyError:
                for v in values:
                    if id(v) not in quoted:
                        quoted[id(v)] = _encode(str(v))
                return [quoted[id(v)] for v in values]

        def path_text(path: Path) -> str:
            text = paths.get(path)
            if text is None:
                text = paths[path] = str(list(path))
            return text

        write = fp.write
        for query, response in self.log:
            kind = type(query)
            if kind is _Profile:
                write(
                    f'{{"query": {{"profile": {list(query)}}}, '
                    f'"response": [{", ".join(quote(response))}]}}\n'
                )
            elif kind is _Loads:
                loads = ", ".join([f"[{path_text(p)}, {c}]" for p, c in query])
                costs = quote([v for _, v in response])
                pairs = ", ".join(
                    [f'"{path_text(p)}": {s}' for (p, _), s in zip(response, costs)]
                )
                write(f'{{"query": {{"loads": [{loads}]}}, "response": {{{pairs}}}}}\n')
            else:
                write(json.dumps({"query": query, "response": response}, default=str))
                write("\n")


class _Budgeted:
    players: int

    def __init__(self, max_queries: int | None) -> None:
        if max_queries is not None and (type(max_queries) is not int or max_queries < 0):
            raise InvalidSpec(f"query budget must be an integer >= 0, got {max_queries!r}")
        self.ledger = QueryLedger()
        self._max_queries = max_queries

    def _charge(self, query: Any, response: Any) -> None:
        if self._max_queries is not None and self.ledger.count >= self._max_queries:
            raise BudgetExhausted(f"query budget of {self._max_queries} exhausted")
        self.ledger.record(query, response)

    def _check_loads(self, assignment: Mapping[Path, int]) -> None:
        """Refuse any assignment but a mapping of tuple paths to int counts
        in 0..n; the network check reads each edge id as an int."""
        if not isinstance(assignment, Mapping):
            got = type(assignment).__name__
            raise InvalidProfile(f"a load query maps paths to counts, got {got}")
        for path, count in assignment.items():
            if type(path) is not tuple:
                raise InvalidProfile(f"path {path!r} is not a tuple of edge ids")
            if type(count) is not int or not 0 <= count <= self.players:
                raise LoadOutOfRange(
                    f"load {count!r} on {path} is not an integer in 0..{self.players}"
                )

    def _charge_loads(
        self, assignment: Mapping[Path, int], response: Mapping[Path, Fraction]
    ) -> None:
        # Snapshots: the caller may mutate either dict after the query.
        self._charge(
            _Loads(sorted(assignment.items())), tuple(sorted(response.items()))
        )


class PurePayoffOracle(_Budgeted):
    """Pure-profile payoff oracle for a hidden bimatrix or graphical game.

    Public metadata is the player count and per-player strategy count only;
    payoffs must be learned through queries.
    """

    def __init__(
        self,
        game: BimatrixGame | GraphicalGame,
        max_queries: int | None = None,
    ) -> None:
        super().__init__(max_queries)
        self._game = game
        if isinstance(game, BimatrixGame):
            self.players = 2
            self.strategy_counts: tuple[int, ...] = (game.rows, game.cols)
        else:
            self.players = game.players
            self.strategy_counts = (game.strategies,) * game.players

    def query_pure(self, profile: Sequence[int]) -> tuple[Fraction, ...]:
        """All players' payoffs at the pure profile; ledger count +1.

        The profile is a tuple or list of one int per player; a bool, a
        float or any other spelling is refused uncharged.
        """
        if (
            not isinstance(profile, (tuple, list))
            or len(profile) != self.players
            or not {int}.issuperset(map(type, profile))
        ):
            raise InvalidProfile(
                f"profile {profile!r} is not {self.players} integer strategies"
            )
        profile = _Profile(profile)
        response = self._game.payoffs(profile)
        self._charge(profile, response)
        return response


class CongestionOracle(_Budgeted):
    """Load-assignment oracle for a hidden symmetric network congestion game.

    The network structure and player count are public; the per-edge cost
    tables are readable only through query responses.
    """

    def __init__(self, game: CongestionGame, max_queries: int | None = None) -> None:
        super().__init__(max_queries)
        self._game = game
        self.players = game.players
        self.network: Network = game.network

    def query_loads(self, assignment: Mapping[Path, int]) -> dict[Path, Fraction]:
        """Cost of every assigned strategy under the induced loads; ledger +1.

        Loads on distinct strategies apply simultaneously, so a single query
        prices every assigned path at once.
        """
        self._check_loads(assignment)
        response = strategy_costs(self._game, assignment)
        self._charge_loads(assignment, response)
        return response


def step_link_game(n: int, step_at: int) -> CongestionGame:
    """The committed two-link game: step link (id 0) plus constant link (id 1).

    Both tables are breakpoints, so committing costs O(1) whatever n is.
    """
    rise = [(step_at + 1, Fraction(2))] if step_at < n else []
    step = StepTable([(0, Fraction(0)), *rise], n)
    return parallel_links_game([step, StepTable([(0, Fraction(1))], n)], n)


class AdversaryLinkOracle(_Budgeted):
    """Congestion-oracle interface backed by the adaptive two-link adversary.

    Link 0 is the hidden step link, link 1 the constant link.  The step link
    is pinned to cost 0 at loads <= lower and 2 at loads >= upper; a query in
    between moves whichever mark is nearer, so each answer at most halves the
    consistent step locations.  The oracle records their number after every
    accepted query and commits to a concrete game once one is left.
    """

    def __init__(self, n: int, max_queries: int | None = None) -> None:
        if type(n) is not int or n < 1:
            raise InvalidSpec(f"the adversary needs n >= 1 players, got n={n!r}")
        super().__init__(max_queries)
        self.players = n
        self.network = Network((0, 1), {0: (0, 1), 1: (0, 1)}, 0, 1)
        self.lower, self.upper = 0, n
        self.completion_history: list[int] = []

    @property
    def completions(self) -> range:
        """Every step location consistent with the transcript so far.

        A step at location i costs 0 at loads <= i and 2 above; the querier
        cannot name the equilibrium until one location is left.
        """
        return range(self.lower, self.upper)

    def query_loads(self, assignment: Mapping[Path, int]) -> dict[Path, Fraction]:
        """Costs of the assigned links with x players on link 0; ledger +1.

        A refused query (bad counts or paths, or no budget left) moves no mark.
        """
        self._check_loads(assignment)
        for path in assignment:
            self.network.validate_path(path)
        x = assignment.get((0,), 0)
        lower, upper = self.lower, self.upper
        if lower < x < upper:
            if 2 * x < lower + upper:
                lower = x
            else:
                upper = x
        costs = {(0,): Fraction(0 if x <= lower else 2), (1,): Fraction(1)}
        response = {path: c for path, c in costs.items() if path in assignment}
        self._charge_loads(assignment, response)
        self.lower, self.upper = lower, upper
        self.completion_history.append(upper - lower)
        return response

    def committed_game(self) -> CongestionGame:
        """The unique consistent game; only meaningful once one location is left."""
        return step_link_game(self.players, self.lower)
