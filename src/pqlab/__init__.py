"""pqlab: payoff-query algorithms for learning and solving games.

Equilibrium computation where the game is hidden behind a query oracle:
bimatrix approximation, graphical-game reconstruction, and congestion games
on parallel links and DAGs, with exact rational arithmetic, strict query
accounting, adversarial lower-bound oracles, and brute-force verification.
"""

from .bimatrix import HalfNeResult, half_approx_ne, tiebreak_best_response, uniform_profile
from .dag_learner import (
    ContractedOracle,
    ContractionMap,
    DagSolveResult,
    PartialCostFunction,
    contract_network,
    choose_p1_p3,
    choose_p4_p5,
    find_bridges,
    learn_costs,
    learn_level,
    learn_one_player,
    preprocess_contract,
    solve_dag_game,
    solve_learned_game,
    two_edge_disjoint_paths,
)
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
    bimatrix_payoffs,
    edge_loads,
    enumerate_paths,
    link_tables,
    parallel_links_game,
    regret,
    strategy_costs,
    validate_profile,
)
from .graphical import LearnedGraphicalGame, build_probe_set, learn_graphical, probe_set_size
from .instances import (
    GellSpec,
    StepLinkSpec,
    gen_G_ell,
    gen_matching_pennies,
    gen_R_ell,
    gen_random_bimatrix,
    gen_random_dag,
    gen_random_graphical,
    gen_random_step_links,
    gen_step_links,
)
from .oracles import (
    AdversaryLinkOracle,
    AdversaryState,
    CongestionOracle,
    PurePayoffOracle,
    QueryLedger,
    adversary_query,
    consistent_completions,
    step_link_game,
)
from .parallel_links import (
    LinkLoads,
    ParallelLinksResult,
    default_group_factor,
    refine_profile,
    solve_parallel_links,
)
from .verify import (
    DeviationReport,
    brute_force_pure_ne,
    check_equivalence,
    deviation_report,
    exact_ne_2x2,
    greedy_parallel_ne,
    is_delta_equilibrium,
)

__version__ = "0.1.0"
