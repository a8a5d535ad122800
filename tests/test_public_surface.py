"""The package's public surface may shrink, but never grows unnoticed."""

import inspect

import pqlab

# Every public name of `pqlab/__init__.py`.  A name may be dropped from the
# package without touching this set; adding one fails until it is listed.
ALLOWED = {
    "AdversaryLinkOracle", "AdversaryState", "AlgorithmInvariantViolated",
    "BimatrixGame", "BudgetExhausted", "CongestionGame", "CongestionOracle",
    "ContractedOracle", "ContractionMap", "DagSolveResult", "DegreeViolation",
    "DeviationReport", "GellSpec", "GraphicalGame", "HalfNeResult",
    "InvalidProfile", "InvalidSpec", "LearnedGraphicalGame", "LinkLoads",
    "LoadOutOfRange", "MixedProfile", "Network", "NotADag", "ParallelLinksResult",
    "PartialCostFunction", "PathSelectionFailed",
    "PotentialNotDecreasing", "PqlabError", "PurePayoffOracle", "QueryLedger",
    "StepLinkSpec", "TooLarge", "adversary_query", "bimatrix_payoffs",
    "brute_force_pure_ne", "build_probe_set", "check_equivalence", "choose_p1_p3",
    "choose_p4_p5", "consistent_completions", "contract_network",
    "default_group_factor", "deviation_report", "edge_loads", "enumerate_paths",
    "exact_ne_2x2", "find_bridges", "gen_G_ell", "gen_R_ell",
    "gen_matching_pennies", "gen_random_bimatrix", "gen_random_dag",
    "gen_random_graphical", "gen_random_step_links", "gen_step_links",
    "greedy_parallel_ne", "half_approx_ne", "is_delta_equilibrium", "learn_costs",
    "learn_graphical", "learn_level", "learn_one_player", "link_tables",
    "parallel_links_game", "preprocess_contract", "probe_set_size",
    "refine_profile", "regret", "solve_dag_game", "solve_learned_game",
    "solve_parallel_links", "step_link_game", "strategy_costs",
    "tiebreak_best_response", "two_edge_disjoint_paths",
    "uniform_profile", "validate_profile",
}


def public_names():
    # Submodules turn into attributes of the package once imported; they
    # are not part of the surface that __init__.py exports.
    return {
        name
        for name, value in vars(pqlab).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }


def test_public_surface_does_not_grow():
    assert public_names() - ALLOWED == set()

