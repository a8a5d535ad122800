"""Command-line front end: gen, solve, learn, verify, bench.

Exit codes: 0 success, 2 verification failed, 3 query budget exhausted,
4 invalid input (a usage error included).  All randomized generators
require an explicit seed so identical invocations produce byte-identical
artifacts.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from fractions import Fraction
from typing import Callable, NoReturn

from . import bimatrix as bm
from . import dag_learner as dag
from . import graphical as gg
from . import instances, parallel_links, serialize, verify
from .errors import BudgetExhausted, InvalidProfile, InvalidSpec, PqlabError
from .games import (
    BimatrixGame,
    CongestionGame,
    GraphicalGame,
    MixedProfile,
    regret,
)
from .oracles import AdversaryLinkOracle, CongestionOracle, PurePayoffOracle

EXIT_OK = 0
EXIT_VERIFY_FAILED = 2
EXIT_BUDGET = 3
EXIT_INVALID = 4


# Each generator family: its builder, and its parameters in the builder's
# argument order, each with its default (None: the parameter is required).
_FAMILIES: dict[str, tuple[Callable[..., object], dict[str, int | None]]] = {
    "pennies": (instances.gen_matching_pennies, {"k": 2}),
    "gell": (lambda ell: instances.gen_G_ell(instances.GellSpec(ell)), {"ell": None}),
    "rell": (instances.gen_R_ell, {"k": None, "target": 0}),
    "random-bimatrix": (instances.gen_random_bimatrix, {"k": None, "seed": None}),
    "random-graphical": (
        instances.gen_random_graphical, {"n": None, "k": None, "d": None, "seed": None}
    ),
    "step": (instances.gen_random_step_links, {"m": 2, "n": None, "seed": 0}),
    "random-dag": (
        instances.gen_random_dag,
        {"v": 6, "e": 10, "n": None, "seed": None, "subdivide": 0},
    ),
}
_FAMILIES["random"] = _FAMILIES["random-bimatrix"]


def _parse_gen_spec(spec: str) -> tuple[str, dict[str, int]]:
    """Parse 'family:key=value,...' generator specs; every value is an integer."""
    family, _, rest = spec.partition(":")
    params: dict[str, int] = {}
    if rest:
        for item in rest.split(","):
            key, _, value = item.partition("=")
            key = key.strip()
            if not value:
                raise InvalidSpec(f"malformed generator parameter {item!r}")
            if key in params:
                raise InvalidSpec(f"generator parameter {key!r} is given twice")
            try:
                params[key] = int(value)
            except ValueError:
                raise InvalidSpec(
                    f"generator parameter {key!r} must be an integer, got {value!r}"
                ) from None
    return family.strip(), params


def make_game(spec: str):
    """Build the game a generator spec names, or raise InvalidSpec."""
    family, given = _parse_gen_spec(spec)
    if family not in _FAMILIES:
        raise InvalidSpec(
            f"unknown generator family {family!r}; known: {', '.join(_FAMILIES)}"
        )
    build, params = _FAMILIES[family]
    unknown = [key for key in given if key not in params]
    if unknown:
        raise InvalidSpec(
            f"{family} has no parameter {unknown[0]!r}; it takes {', '.join(params)}"
        )
    missing = [key for key in params if params[key] is None and key not in given]
    if missing:
        raise InvalidSpec(f"{family} needs the parameter {missing[0]!r}")
    return build(*(given.get(key, default) for key, default in params.items()))


def _load_or_gen(args):
    if getattr(args, "game", None):
        with open(args.game) as fp:
            return serialize.load_game(fp)
    if getattr(args, "gen", None):
        return make_game(_with_seed(args))
    raise InvalidSpec("provide --game FILE or --gen SPEC")


def _with_seed(args) -> str:
    """Fold a standalone --seed flag into the generator spec."""
    spec = args.gen
    if getattr(args, "seed", None) is not None:
        family, params = _parse_gen_spec(spec)
        params["seed"] = args.seed
        spec = family + ":" + ",".join(f"{k}={v}" for k, v in params.items())
    return spec


def _emit(args, payload: dict) -> None:
    text = json.dumps(payload, indent=2, default=str) + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w") as fp:
            fp.write(text)
    else:
        sys.stdout.write(text)


def _cmd_gen(args) -> int:
    game = make_game(args.spec)
    _emit(args, serialize.game_to_dict(game))
    return EXIT_OK


def _cmd_solve_bimatrix(args) -> int:
    game = _load_or_gen(args)
    if not isinstance(game, BimatrixGame):
        raise InvalidSpec("solve bimatrix needs a bimatrix game")
    if args.algo == "half-ne":
        oracle = PurePayoffOracle(game, max_queries=args.budget)
        result = bm.half_approx_ne(oracle)
        profile = result.profile
        payload = {
            "algorithm": "half-ne",
            "profile": serialize.profile_to_dict(profile),
            "trace": list(result.trace),
            "queries_used": result.queries_used,
        }
    else:
        profile = MixedProfile.uniform(game.rows, game.cols)
        payload = {
            "algorithm": "uniform",
            "profile": serialize.profile_to_dict(profile),
            "queries_used": 0,
        }
    eps = regret(game, profile)
    payload["regret"] = str(eps)
    if args.algo == "half-ne":
        bound = Fraction(1, 2)
    else:
        bound = 1 - Fraction(1, max(game.rows, game.cols))
    payload["verified"] = eps <= bound
    _emit(args, payload)
    return EXIT_OK if payload["verified"] else EXIT_VERIFY_FAILED


def _cmd_solve_parallel_links(args) -> int:
    extra = {}
    if args.adversary:
        # A game given beside --players is still checked, never ignored.
        players = args.players
        if args.game or args.gen:
            game = _links_game(args)
            players = game.players if players is None else players
        elif players is None:
            raise InvalidSpec("--adversary needs --players or a --gen spec with n=")
        oracle = AdversaryLinkOracle(players, max_queries=args.budget)
        result = parallel_links.solve_parallel_links(oracle, args.kf)
        completions = list(oracle.completions)
        extra["consistent_step_locations"] = completions
        # One consistent step location c leaves one equilibrium, (c, n - c).
        verified = len(completions) == 1 and _links_verified(
            oracle.committed_game(), result.loads.loads
        )
    else:
        game = _links_game(args)
        oracle = CongestionOracle(game, max_queries=args.budget)
        result = parallel_links.solve_parallel_links(oracle, args.kf)
        verified = _links_verified(game, result.loads.loads)
    payload = {
        "loads": list(result.loads.loads),
        "special_link": result.loads.special,
        "queries_used": result.queries_used,
        "query_bound": result.query_bound,
        **extra,
        "verified": verified,
    }
    if args.emit_trace:
        payload["phases"] = [
            {"delta": t.delta, "moved_groups": t.moved_groups,
             "removed": list(t.removed), "added": list(t.added)}
            for t in result.traces
        ]
    _emit(args, payload)
    return EXIT_OK if payload["verified"] else EXIT_VERIFY_FAILED


def _links_game(args) -> CongestionGame:
    game = _load_or_gen(args)
    if not (isinstance(game, CongestionGame) and game.network.is_parallel_links):
        raise InvalidSpec("solve parallel-links needs a parallel-links game")
    return game


def _links_verified(game: CongestionGame, loads) -> bool:
    """Ground truth for per-link loads, listed in edge-id order."""
    profile = {(e,): load for e, load in zip(sorted(game.edges), loads, strict=True)}
    report = _solver_report(game, profile)
    return report is not None and report.is_equilibrium


def _solver_report(game: CongestionGame, profile) -> verify.DeviationReport | None:
    """Ground truth for a solver's profile, or None if it is no profile of
    the game (say, it places the wrong number of players).  The game was
    valid input, so such a result fails its check rather than the input."""
    try:
        return verify.deviation_report(game, profile)
    except InvalidProfile:
        return None


def _cmd_solve_dag(args) -> int:
    game = _load_or_gen(args)
    if not isinstance(game, CongestionGame):
        raise InvalidSpec("solve dag needs a congestion game")
    oracle = CongestionOracle(game, max_queries=args.budget)
    result = dag.solve_dag_game(oracle)
    report = _solver_report(game, result.profile)
    payload = {
        "profile": serialize.profile_to_dict(result.profile),
        "queries_used": result.queries_used,
        "contracted_edges": {
            str(e): list(ids) for e, ids in result.contraction.absorbed.items()
        },
        "verified": report is not None and report.is_equilibrium,
        "worst_improvement": None if report is None else str(report.improvement),
    }
    _emit(args, payload)
    return EXIT_OK if payload["verified"] else EXIT_VERIFY_FAILED


def _cmd_learn_graphical(args) -> int:
    game = _load_or_gen(args)
    if not isinstance(game, GraphicalGame):
        raise InvalidSpec("learn graphical needs a graphical game")
    oracle = PurePayoffOracle(game, max_queries=args.budget)
    learned = gg.learn_graphical(
        oracle, game.players, game.strategies, args.degree
    )
    payload = {
        "learned_game": serialize.game_to_dict(learned.game),
        "affects_edges": sorted(map(list, learned.affects_edges)),
        "queries_used": learned.queries_used,
        "verified": learned.game == game,
    }
    _emit(args, payload)
    return EXIT_OK if payload["verified"] else EXIT_VERIFY_FAILED


def _cmd_learn_dag(args) -> int:
    game = _load_or_gen(args)
    if not isinstance(game, CongestionGame):
        raise InvalidSpec("learn dag needs a congestion game")
    oracle = CongestionOracle(game, max_queries=args.budget)
    # Learning spends exactly n * |E'| queries, E' the edges left after
    # contraction.  When the budget covers them, learning reaches the check,
    # so find out before the first query whether the check can run; a run
    # its budget stops first still stops there.
    reduced, _ = dag.contracted(game.network)
    if args.budget is None or args.budget >= game.players * len(reduced.edges):
        verify.check_equivalence_cap(game, args.verify_mode)
    learned, cmap = dag.learn_dag_game(oracle)
    tables = learned.as_tables()
    equivalent, counterexample = verify.check_equivalence(
        tables, game, mode=args.verify_mode
    )
    payload = {
        "cost_tables": {
            str(e): [str(v) for v in table] for e, table in sorted(tables.items())
        },
        "contracted_edges": {str(e): list(ids) for e, ids in cmap.absorbed.items()},
        "queries_used": oracle.ledger.count,
        "verified": equivalent,
    }
    if counterexample is not None:
        payload["counterexample"] = {
            "path": list(counterexample["path"]),
            "got": str(counterexample["got"]),
            "want": str(counterexample["want"]),
        }
    _emit(args, payload)
    return EXIT_OK if equivalent else EXIT_VERIFY_FAILED


def _cmd_verify(args) -> int:
    with open(args.game) as fp:
        game = serialize.load_game(fp)
    with open(args.profile) as fp:
        profile = serialize.profile_from_dict(json.load(fp))
    if isinstance(game, CongestionGame):
        if not isinstance(profile, dict):
            raise InvalidProfile("a congestion game needs a congestion profile")
        report = verify.deviation_report(game, profile)
        payload = {
            "is_equilibrium": report.is_equilibrium,
            "improvement": str(report.improvement),
            "worst_path": list(report.worst_path) if report.worst_path else None,
            "worst_alternative": (
                list(report.worst_alternative) if report.worst_alternative else None
            ),
        }
        ok = report.is_equilibrium
    elif isinstance(game, BimatrixGame):
        if isinstance(profile, tuple):
            if len(profile) != 2:
                raise InvalidProfile(
                    f"a bimatrix pure profile has 2 strategies, got {len(profile)}"
                )
            profile = MixedProfile.pure(profile[0], profile[1], game.rows, game.cols)
        if not isinstance(profile, MixedProfile):
            raise InvalidProfile("a bimatrix game needs a pure or mixed profile")
        eps = regret(game, profile)
        payload = {"regret": str(eps), "is_equilibrium": eps == 0}
        ok = eps == 0
    else:
        if not isinstance(profile, tuple):
            raise InvalidProfile("a graphical game needs a pure profile")
        worst = verify.graphical_improvement(game, profile)
        payload = {"improvement": str(worst), "is_equilibrium": worst == 0}
        ok = worst == 0
    _emit(args, payload)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def _cmd_bench(args) -> int:
    low, high = {
        "parallel-links": (args.n_min_exp, args.n_max_exp),
        "dag": (args.players_min, args.players_max),
    }.get(args.family, (0, 0))
    if low > high:
        raise InvalidSpec(f"empty grid: the minimum {low} is above the maximum {high}")
    rows, verdicts = [], []
    if args.family == "parallel-links":
        for exp in range(args.n_min_exp, args.n_max_exp + 1):
            n = 2**exp
            game = instances.gen_random_step_links(args.m, n, args.seed)
            oracle = CongestionOracle(game)
            t0 = time.monotonic()
            result = parallel_links.solve_parallel_links(oracle, args.kf)
            rows.append(
                {
                    "m": args.m,
                    "n": n,
                    "queries_used": result.queries_used,
                    "bound": result.query_bound,
                    "total_values": args.m * n,
                    "fraction": result.queries_used / (args.m * n),
                    "seconds": round(time.monotonic() - t0, 4),
                }
            )
            verdicts.append(_links_verified(game, result.loads.loads))
    elif args.family == "dag":
        for n in range(args.players_min, args.players_max + 1):
            game = instances.gen_random_dag(args.v, args.e, n, args.seed)
            oracle = CongestionOracle(game)
            t0 = time.monotonic()
            result = dag.solve_dag_game(oracle)
            edges = len(result.contraction.reduced.edges)
            total = verify.path_count(game) ** n
            rows.append(
                {
                    "edges": edges,
                    "n": n,
                    "queries_used": result.queries_used,
                    "bound": edges * n,
                    "total_profiles": total,
                    "fraction": result.queries_used / total if total else 0,
                    "seconds": round(time.monotonic() - t0, 4),
                }
            )
            report = _solver_report(game, result.profile)
            verdicts.append(report is not None and report.is_equilibrium)
    else:
        n, k, d = args.players_max, args.k, args.d
        game = instances.gen_random_graphical(n, k, d, args.seed)
        oracle = PurePayoffOracle(game)
        t0 = time.monotonic()
        learned = gg.learn_graphical(oracle, n, k, d)
        rows.append(
            {
                "n": n,
                "k": k,
                "d": d,
                "queries_used": learned.queries_used,
                "bound": gg.probe_set_size(n, k, d),
                "total_profiles": k**n,
                "fraction": learned.queries_used / k**n,
                "seconds": round(time.monotonic() - t0, 4),
            }
        )
        verdicts.append(learned.game == game)
    out = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.DictWriter(out, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if args.out:
            out.close()
    return EXIT_OK if all(verdicts) else EXIT_VERIFY_FAILED


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 4, invalid input; argparse's 2 means a failed check."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pqlab", description="payoff-query equilibrium laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="emit a game as JSON")
    p_gen.add_argument("spec", help="e.g. pennies:k=4 | gell:ell=6 | step:m=2,n=16,seed=1")
    p_gen.add_argument("--out")
    p_gen.set_defaults(func=_cmd_gen)

    p_solve = sub.add_parser("solve", help="run a solver against an oracle")
    solve_sub = p_solve.add_subparsers(dest="target", required=True)

    s_bim = solve_sub.add_parser("bimatrix")
    s_bim.add_argument("--algo", default="half-ne", choices=("half-ne", "uniform"))
    _common_io(s_bim)
    s_bim.set_defaults(func=_cmd_solve_bimatrix)

    s_pl = solve_sub.add_parser("parallel-links")
    s_pl.add_argument("--kf", type=int, default=None, help="group factor")
    s_pl.add_argument("--adversary", action="store_true")
    s_pl.add_argument("--players", type=int, default=None)
    s_pl.add_argument("--emit-trace", action="store_true")
    _common_io(s_pl)
    s_pl.set_defaults(func=_cmd_solve_parallel_links)

    s_dag = solve_sub.add_parser("dag")
    _common_io(s_dag)
    s_dag.set_defaults(func=_cmd_solve_dag)

    p_learn = sub.add_parser("learn", help="reconstruct a hidden game")
    learn_sub = p_learn.add_subparsers(dest="target", required=True)

    l_gg = learn_sub.add_parser("graphical")
    l_gg.add_argument("--degree", type=int, required=True)
    _common_io(l_gg)
    l_gg.set_defaults(func=_cmd_learn_graphical)

    l_dag = learn_sub.add_parser("dag")
    l_dag.add_argument(
        "--verify-mode", default="exhaustive", choices=("exhaustive", "sampled")
    )
    _common_io(l_dag)
    l_dag.set_defaults(func=_cmd_learn_dag)

    p_verify = sub.add_parser("verify", help="deviation-check a profile")
    p_verify.add_argument("--game", required=True)
    p_verify.add_argument("--profile", required=True)
    p_verify.add_argument("--out")
    p_verify.set_defaults(func=_cmd_verify)

    p_bench = sub.add_parser("bench", help="query-count sweeps as CSV")
    p_bench.add_argument("family", choices=("parallel-links", "dag", "graphical"))
    p_bench.add_argument("--m", type=int, default=8)
    p_bench.add_argument("--kf", type=int, default=None)
    p_bench.add_argument("--n-min-exp", type=int, default=8)
    p_bench.add_argument("--n-max-exp", type=int, default=12)
    p_bench.add_argument("--v", type=int, default=6)
    p_bench.add_argument("--e", type=int, default=10)
    p_bench.add_argument("--players-min", type=int, default=1)
    p_bench.add_argument("--players-max", type=int, default=4)
    p_bench.add_argument("--k", type=int, default=2)
    p_bench.add_argument("--d", type=int, default=1)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out")
    p_bench.set_defaults(func=_cmd_bench)

    return parser


def _common_io(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--game", help="game JSON file")
    sub.add_argument("--gen", help="generator spec, e.g. random:k=10,seed=7")
    sub.add_argument("--seed", type=int, default=None, help="seed for --gen")
    sub.add_argument("--budget", type=int, default=None, help="max oracle queries")
    sub.add_argument("--out", help="write result JSON here instead of stdout")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (PqlabError, ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
