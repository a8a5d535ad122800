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
    "gell": (instances.gen_G_ell, {"ell": None}),
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


# What each command target takes, and how a refusal names it.
_TAKES: dict[str, tuple[Callable[[object], bool], str]] = {
    "bimatrix": (lambda g: isinstance(g, BimatrixGame), "a bimatrix game"),
    "parallel-links": (
        lambda g: isinstance(g, CongestionGame) and g.network.is_parallel_links,
        "a parallel-links game",
    ),
    "dag": (lambda g: isinstance(g, CongestionGame), "a congestion game"),
    "graphical": (lambda g: isinstance(g, GraphicalGame), "a graphical game"),
}


def _load_game(args):
    """The --game or --gen game, refused unless the command takes its kind."""
    if args.game:
        with open(args.game) as fp:
            game = serialize.load_game(fp)
    elif args.gen:
        spec = args.gen
        if args.seed is not None:  # fold a standalone --seed into the spec
            family, params = _parse_gen_spec(spec)
            params["seed"] = args.seed
            spec = family + ":" + ",".join(f"{k}={v}" for k, v in params.items())
        game = make_game(spec)
    else:
        raise InvalidSpec("provide --game FILE or --gen SPEC")
    fits, kind = _TAKES[args.target]
    if not fits(game):
        raise InvalidSpec(f"{args.command} {args.target} needs {kind}")
    return game


def _emit(args, payload: dict) -> None:
    text = json.dumps(payload, indent=2, default=str) + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w") as fp:
            fp.write(text)
    else:
        sys.stdout.write(text)


def _finish(args, payload: dict, passed: str = "verified") -> int:
    """Emit the payload; exit 0 if its check passed, else 2."""
    _emit(args, payload)
    return EXIT_OK if payload[passed] else EXIT_VERIFY_FAILED


def _cmd_gen(args) -> int:
    game = make_game(args.spec)
    _emit(args, serialize.game_to_dict(game))
    return EXIT_OK


def _cmd_solve_bimatrix(args) -> int:
    game = _load_game(args)
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
        bound = Fraction(1, 2)
    else:
        profile = MixedProfile.uniform(game.rows, game.cols)
        payload = {
            "algorithm": "uniform",
            "profile": serialize.profile_to_dict(profile),
            "queries_used": 0,
        }
        bound = 1 - Fraction(1, max(game.rows, game.cols))
    eps = regret(game, profile)
    payload["regret"] = str(eps)
    payload["verified"] = eps <= bound
    return _finish(args, payload)


def _cmd_solve_parallel_links(args) -> int:
    game = _load_game(args) if args.game or args.gen or not args.adversary else None
    if not args.adversary:
        oracle = CongestionOracle(game, max_queries=args.budget)
    elif args.players is None and game is None:
        raise InvalidSpec("--adversary needs --players or a --gen spec with n=")
    else:
        # A game given beside --players is still checked, never ignored.
        players = game.players if args.players is None else args.players
        oracle = AdversaryLinkOracle(players, max_queries=args.budget)
    payload = run_solve_parallel_links(game, oracle, args.kf, args.emit_trace)
    return _finish(args, payload)


def run_solve_parallel_links(
    game: CongestionGame | None, oracle, kf: int | None = None, emit_trace: bool = False
) -> dict:
    """`solve parallel-links` on an oracle of game: solve, check, payload.
    An adversary is checked against the game it commits to, not against game."""
    result = parallel_links.solve_parallel_links(oracle, kf)
    loads = result.loads.loads
    payload = {
        "loads": list(loads),
        "special_link": result.loads.special,
        "queries_used": result.queries_used,
        "query_bound": result.query_bound,
    }
    if isinstance(oracle, AdversaryLinkOracle):
        completions = payload["consistent_step_locations"] = list(oracle.completions)
        # One consistent step location c leaves one equilibrium, (c, n - c).
        payload["verified"] = len(completions) == 1 and _links_verified(
            oracle.committed_game(), loads
        )
    else:
        payload["verified"] = _links_verified(game, loads)
    if emit_trace:
        payload["phases"] = [
            {"delta": t.delta, "moved_groups": t.moved_groups,
             "removed": list(t.removed), "added": list(t.added)}
            for t in result.traces
        ]
    return payload


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
    game = _load_game(args)
    oracle = CongestionOracle(game, max_queries=args.budget)
    return _finish(args, run_solve_dag(game, oracle))


def run_solve_dag(game: CongestionGame, oracle) -> dict:
    """`solve dag` on an oracle of game: solve, check, payload."""
    result = dag.solve_dag_game(oracle)
    report = _solver_report(game, result.profile)
    return {
        "profile": serialize.profile_to_dict(result.profile),
        "queries_used": result.queries_used,
        "contracted_edges": {
            str(e): list(ids) for e, ids in result.contraction.absorbed.items()
        },
        "verified": report is not None and report.is_equilibrium,
        "worst_improvement": None if report is None else str(report.improvement),
    }


def _cmd_learn_graphical(args) -> int:
    game = _load_game(args)
    oracle = PurePayoffOracle(game, max_queries=args.budget)
    return _finish(args, run_learn_graphical(game, oracle, args.degree))


def run_learn_graphical(game: GraphicalGame, oracle, degree: int) -> dict:
    """`learn graphical` on an oracle of game: learn, compare payoffs, payload."""
    learned = gg.learn_graphical(oracle, game.players, game.strategies, degree)
    differs = verify.graphical_equivalence(learned.game, game)
    payload = {
        "learned_game": serialize.game_to_dict(learned.game),
        "affects_edges": sorted(map(list, learned.affects_edges)),
        "queries_used": learned.queries_used,
        "verified": differs is None,
    }
    if differs is not None:
        player, profile = differs
        payload["counterexample"] = {
            "player": player,
            "profile": list(profile),
            "got": str(learned.game.payoff(player, profile)),
            "want": str(game.payoff(player, profile)),
        }
    return payload


def _cmd_learn_dag(args) -> int:
    game = _load_game(args)
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
    return _finish(args, payload)


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
    else:
        if not isinstance(profile, tuple):
            raise InvalidProfile("a graphical game needs a pure profile")
        worst = verify.graphical_improvement(game, profile)
        payload = {"improvement": str(worst), "is_equilibrium": worst == 0}
    return _finish(args, payload, "is_equilibrium")


def _cmd_bench(args) -> int:
    """One CSV row per grid cell, from the payload of the matching command."""
    if args.family == "parallel-links":
        low, high = args.n_min_exp, args.n_max_exp
    elif args.family == "dag":
        low, high = args.players_min, args.players_max
    else:
        low = high = 0
    if low > high:
        raise InvalidSpec(f"empty grid: the minimum {low} is above the maximum {high}")
    rows, verdicts = [], []
    for size in range(low, high + 1):
        if args.family == "parallel-links":
            n = 2**size
            game = instances.gen_random_step_links(args.m, n, args.seed)
            t0 = time.monotonic()
            payload = run_solve_parallel_links(game, CongestionOracle(game), args.kf)
            head, bound = {"m": args.m, "n": n}, payload["query_bound"]
            total_key, total = "total_values", args.m * n
        elif args.family == "dag":
            game = instances.gen_random_dag(args.v, args.e, size, args.seed)
            t0 = time.monotonic()
            payload = run_solve_dag(game, CongestionOracle(game))
            edges = len(dag.contracted(game.network)[0].edges)
            head, bound = {"edges": edges, "n": size}, edges * size
            total_key, total = "total_profiles", verify.path_count(game) ** size
        else:
            n, k, d = args.players_max, args.k, args.d
            game = instances.gen_random_graphical(n, k, d, args.seed)
            t0 = time.monotonic()
            payload = run_learn_graphical(game, PurePayoffOracle(game), d)
            head, bound = {"n": n, "k": k, "d": d}, gg.probe_set_size(n, k, d)
            total_key, total = "total_profiles", k**n
        used = payload["queries_used"]
        rows.append({**head, "queries_used": used, "bound": bound, total_key: total,
                     "fraction": used / total if total else 0,
                     "seconds": round(time.monotonic() - t0, 4)})
        verdicts.append(payload["verified"])
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
    bench_sub = p_bench.add_subparsers(dest="family", required=True)
    # Each family declares only the flags it reads, so any other is refused.
    for family, flags in (
        ("parallel-links", (("--m", 8), ("--kf", None), ("--n-min-exp", 8),
                            ("--n-max-exp", 12))),
        ("dag", (("--v", 6), ("--e", 10), ("--players-min", 1), ("--players-max", 4))),
        ("graphical", (("--players-max", 4), ("--k", 2), ("--d", 1))),
    ):
        b = bench_sub.add_parser(family)
        for flag, default in (*flags, ("--seed", 0)):
            b.add_argument(flag, type=int, default=default)
        b.add_argument("--out")
        b.set_defaults(func=_cmd_bench)

    return parser


def _common_io(sub: argparse.ArgumentParser) -> None:
    source = sub.add_mutually_exclusive_group()
    source.add_argument("--game", help="game JSON file")
    source.add_argument("--gen", help="generator spec, e.g. random:k=10,seed=7")
    sub.add_argument("--seed", type=int, default=None, help="seed for --gen")
    sub.add_argument("--budget", type=int, default=None, help="max oracle queries")
    sub.add_argument("--out", help="write result JSON here instead of stdout")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Refuse flags the command would ignore, before anything is queried.
    if "gen" in args and args.seed is not None and not args.gen:
        other = "with argument --game" if args.game else "without argument --gen"
        parser.error(f"argument --seed: not allowed {other}")
    if getattr(args, "players", None) is not None and not args.adversary:
        parser.error("argument --players: not allowed without argument --adversary")
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
