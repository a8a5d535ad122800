"""pqlab: payoff-query algorithms for learning and solving games.

Equilibrium computation where the game is hidden behind a query oracle:
bimatrix approximation, graphical-game reconstruction, and congestion games
on parallel links and DAGs, with exact rational arithmetic, strict query
accounting, adversarial lower-bound oracles, and brute-force verification.

The top level exports the paper's entry points: games, oracles and their
ledger, generators, solvers and learners, and the ground-truth checks.  The
steps inside them stay reachable as ``pqlab.<module>.<name>``.
"""

from .bimatrix import half_approx_ne
from .dag_learner import learn_costs, solve_dag_game
from .errors import (
    AlgorithmInvariantViolated,
    BudgetExhausted,
    DegreeViolation,
    InvalidProfile,
    InvalidSpec,
    LoadOutOfRange,
    NotADag,
    PathSelectionFailed,
    PotentialNotDecreasing,
    PqlabError,
    TooLarge,
)
from .games import (
    BimatrixGame,
    CongestionGame,
    GraphicalGame,
    MixedProfile,
    Network,
    parallel_links_game,
    regret,
)
from .graphical import learn_graphical
from .instances import (
    gen_G_ell,
    gen_matching_pennies,
    gen_R_ell,
    gen_random_bimatrix,
    gen_random_dag,
    gen_random_graphical,
    gen_random_step_links,
)
from .oracles import AdversaryLinkOracle, CongestionOracle, PurePayoffOracle, QueryLedger
from .parallel_links import solve_parallel_links
from .verify import (
    brute_force_pure_ne,
    check_equivalence,
    deviation_report,
    exact_ne_2x2,
    greedy_parallel_ne,
    is_delta_equilibrium,
)

__version__ = "0.1.0"
