"""The package's public surface may shrink, but never grows unnoticed."""

import inspect

import pqlab

# Every public name of `pqlab/__init__.py`.  A name may be dropped from the
# package without touching this set; adding one fails until it is listed.
ALLOWED = {
    # Errors
    "AlgorithmInvariantViolated", "BudgetExhausted", "DegreeViolation",
    "InvalidProfile", "InvalidSpec", "LoadOutOfRange", "NotADag",
    "PathSelectionFailed", "PotentialNotDecreasing", "PqlabError", "TooLarge",
    # Games
    "BimatrixGame", "CongestionGame", "GraphicalGame", "MixedProfile", "Network",
    "parallel_links_game", "regret",
    # Oracles and their ledger
    "AdversaryLinkOracle", "CongestionOracle", "PurePayoffOracle", "QueryLedger",
    # Generators
    "gen_G_ell", "gen_R_ell", "gen_matching_pennies", "gen_random_bimatrix",
    "gen_random_dag", "gen_random_graphical", "gen_random_step_links",
    # Solvers and learners
    "half_approx_ne", "learn_costs", "learn_graphical", "solve_dag_game",
    "solve_parallel_links",
    # Ground truth
    "brute_force_pure_ne", "check_equivalence", "deviation_report",
    "exact_ne_2x2", "greedy_parallel_ne", "is_delta_equilibrium",
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

