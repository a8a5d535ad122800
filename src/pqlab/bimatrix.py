"""Query algorithms for bimatrix games.

Two routes to an approximate equilibrium: a 2k-1-query algorithm with regret
at most 1/2, and the zero-query uniform profile (``MixedProfile.uniform``)
with regret at most 1 - 1/k.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .games import MixedProfile
from .oracles import PurePayoffOracle

_HALF = Fraction(1, 2)


def tiebreak_best_response(payoffs: Sequence[Fraction]) -> int:
    """Lowest index among the maximisers of a non-empty payoff vector."""
    best = max(payoffs)
    return next(i for i, v in enumerate(payoffs) if v == best)


@dataclass(frozen=True)
class HalfNeResult:
    """Profile, query count, and the (s1, s2, s3) trace of the 1/2-NE routine."""

    profile: MixedProfile
    queries_used: int
    trace: tuple[int, int, int]


def half_approx_ne(oracle: PurePayoffOracle) -> HalfNeResult:
    """Half-approximate Nash equilibrium in at most k_col + k_row - 1 queries.

    Fixes s1 = row 0, queries its full row to find the column's best response
    s2, queries the rest of column s2 to find the row's best response s3, and
    returns (row mixes 1/2 on s1 and s3, column plays s2).  The mixture's
    regret is at most 1/2: the column player already best-responds to s1 with
    probability 1/2, and the row player puts 1/2 on a best response.
    """
    k_row, k_col = oracle.strategy_counts
    before = oracle.ledger.count
    s1 = 0
    row_of_s1 = [oracle.query_pure((s1, j)) for j in range(k_col)]
    s2 = tiebreak_best_response([col for (_, col) in row_of_s1])
    col_payoffs = [row_of_s1[s2][0]]
    col_payoffs += [oracle.query_pure((i, s2))[0] for i in range(1, k_row)]
    s3 = tiebreak_best_response(col_payoffs)
    if s3 == s1:
        profile = MixedProfile.pure(s1, s2, k_row, k_col)
    else:
        row_dist = [Fraction(0)] * k_row
        row_dist[s1] = _HALF
        row_dist[s3] = _HALF
        profile = MixedProfile.of(
            row_dist, [Fraction(1 if j == s2 else 0) for j in range(k_col)]
        )
    return HalfNeResult(
        profile=profile,
        queries_used=oracle.ledger.count - before,
        trace=(s1, s2, s3),
    )
