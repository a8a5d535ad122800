"""Hidden-game query oracles with strict information hiding and accounting.

A solver is only ever handed an oracle.  The oracle reveals public metadata
(player/strategy counts, and for congestion games the network structure) and
answers queries, charging each accepted query to a ledger.  Malformed queries
are rejected without being counted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Mapping, Sequence

from .errors import BudgetExhausted, InvalidProfile, LoadOutOfRange
from .games import (
    BimatrixGame,
    CongestionGame,
    GraphicalGame,
    Network,
    Path,
    StepTable,
    bimatrix_payoffs,
    parallel_links_game,
    strategy_costs,
)


@dataclass
class QueryLedger:
    """Ordered transcript of accepted (query, response) pairs."""

    log: list[tuple[Any, Any]] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.log)

    def record(self, query: Any, response: Any) -> None:
        self.log.append((query, response))

    def dump_jsonl(self, fp) -> None:
        """One JSON object per accepted query, for replay and audit."""
        for query, response in self.log:
            fp.write(json.dumps({"query": query, "response": response}, default=str))
            fp.write("\n")


class _Budgeted:
    players: int

    def __init__(self, max_queries: int | None) -> None:
        self.ledger = QueryLedger()
        self._max_queries = max_queries

    def _charge(self, query: Any, response: Any) -> None:
        if self._max_queries is not None and self.ledger.count >= self._max_queries:
            raise BudgetExhausted(f"query budget of {self._max_queries} exhausted")
        self.ledger.record(query, response)

    def _checked_loads(self, assignment: Mapping[Path, int]) -> dict[Path, int]:
        """The assignment with tuple paths; each count must be an int in 0..n."""
        checked: dict[Path, int] = {}
        for path, count in assignment.items():
            path = tuple(path)
            if type(count) is not int or not 0 <= count <= self.players:
                raise LoadOutOfRange(
                    f"load {count!r} on {path} is not an integer in 0..{self.players}"
                )
            checked[path] = count
        return checked

    def _charge_loads(
        self, assignment: Mapping[Path, int], response: Mapping[Path, Fraction]
    ) -> None:
        self._charge(
            {"loads": [[list(p), c] for p, c in sorted(assignment.items())]},
            {str(list(p)): str(v) for p, v in sorted(response.items())},
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
        """All players' payoffs at the pure profile; ledger count +1."""
        profile = tuple(profile)
        if len(profile) != self.players:
            raise InvalidProfile(
                f"profile has {len(profile)} entries, expected {self.players}"
            )
        if isinstance(self._game, BimatrixGame):
            response = bimatrix_payoffs(self._game, (profile[0], profile[1]))
        else:
            response = self._game.payoffs(profile)
        self._charge({"profile": list(profile)}, [str(v) for v in response])
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
        assignment = self._checked_loads(assignment)
        response = strategy_costs(self._game, assignment)
        self._charge_loads(assignment, response)
        return response


@dataclass
class AdversaryState:
    """Marks of the adaptive two-link lower-bound adversary.

    The step link's cost function is pinned to 0 at loads <= lower and to 2
    at loads >= upper; every location in between is still a consistent step.
    """

    n: int
    lower: int = 0
    upper: int = -1  # filled in __post_init__

    def __post_init__(self) -> None:
        if self.upper == -1:
            self.upper = self.n
        if not 0 <= self.lower < self.upper <= self.n:
            raise InvalidProfile(
                f"adversary marks must satisfy 0 <= l < u <= n, got "
                f"l={self.lower}, u={self.upper}, n={self.n}"
            )

    @property
    def gap(self) -> int:
        return self.upper - self.lower


def adversary_query(state: AdversaryState, x: int) -> tuple[Fraction, Fraction]:
    """Answer a two-link query with x players on the step link.

    Implements the four-case adaptive strategy: answers below the lower mark
    are 0, answers above the upper mark are 2, and queries inside the open
    interval move whichever mark is nearer (comparison against the exact
    rational midpoint).  The constant link always costs 1.
    """
    one = Fraction(1)
    if x <= state.lower:
        return Fraction(0), one
    if x >= state.upper:
        return Fraction(2), one
    if Fraction(x) < Fraction(state.lower + state.upper, 2):
        state.lower = x
        return Fraction(0), one
    state.upper = x
    return Fraction(2), one


def consistent_completions(state: AdversaryState) -> range:
    """All step locations consistent with the transcript: lower..upper-1.

    A step at location i means the step link costs 0 at loads <= i and 2
    above; the querier cannot name the equilibrium until this is a singleton.
    """
    return range(state.lower, state.upper)


def step_link_game(n: int, step_at: int) -> CongestionGame:
    """The committed two-link game: step link (id 0) plus constant link (id 1).

    Both tables are breakpoints, so committing costs O(1) whatever n is.
    """
    rise = [(step_at + 1, Fraction(2))] if step_at < n else []
    step = StepTable([(0, Fraction(0)), *rise], n)
    return parallel_links_game([step, StepTable([(0, Fraction(1))], n)], n)


class AdversaryLinkOracle(_Budgeted):
    """Congestion-oracle interface backed by the adaptive adversary.

    Link 0 is the hidden step link, link 1 the constant link.  The oracle
    answers any parallel-links load assignment, snapshots the consistent-set
    size after every accepted query, and can commit to a concrete game once
    (or before) the gap closes.
    """

    def __init__(self, n: int, max_queries: int | None = None) -> None:
        super().__init__(max_queries)
        self.players = n
        self.network = Network((0, 1), {0: (0, 1), 1: (0, 1)}, 0, 1)
        self.state = AdversaryState(n)
        self.completion_history: list[int] = []

    def query_loads(self, assignment: Mapping[Path, int]) -> dict[Path, Fraction]:
        assignment = self._checked_loads(assignment)
        for path in assignment:
            self.network.validate_path(path)
        x = assignment.get((0,), 0)
        c_step, c_const = adversary_query(self.state, x)
        response = {}
        if (0,) in assignment:
            response[(0,)] = c_step
        if (1,) in assignment:
            response[(1,)] = c_const
        self._charge_loads(assignment, response)
        self.completion_history.append(len(consistent_completions(self.state)))
        return response

    def committed_game(self) -> CongestionGame:
        """The unique consistent game; only meaningful once the gap is 1."""
        return step_link_game(self.players, self.state.lower)
