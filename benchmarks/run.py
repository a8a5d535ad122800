"""Seeded end-to-end benchmark of pqlab: one workload per process.

    python3 benchmarks/run.py --workload links --seed 1 --seconds 40 --trace 0

Draws the workload's generator specs from --seed, then repeats whole
rounds (every instance once) for about --seconds seconds.  Each operation
follows the CLI's order: the hidden game built from its spec, a fresh
oracle, the solver, the ground-truth check the CLI runs, the result JSON
and the query transcript (QueryLedger.dump_jsonl).  Independent checks
(checks.py) and a transcript digest compared across rounds decide whether
an operation failed.  The last line of stdout is one JSON object with the
metrics; --trace 1 reports per-layer metrics from spans instead (spans.py).
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import random
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402


@dataclass(frozen=True)
class Cell:
    """A family of generated games; each run draws ``instances`` of them."""

    name: str
    family: str
    params: dict
    instances: int = 1
    # DAG cells keep only draws whose network keeps at least this many of
    # its e sampled edges through pruning and contraction, so that a run's
    # size (n*|E'| queries) does not depend on how many edges the generator
    # happened to strand or chain.
    min_edges: int = 0
    # The CLI's ground-truth check of `solve dag`, verify.deviation_report,
    # enumerates every o-d path.  On the wide cell that is 10^5 paths or
    # more and one check takes minutes (CHANGES.md, FOUND), so the check is
    # timed on the many-players cell only.
    cli_check: bool = True

    def spec(self, seed: int) -> str:
        args = ",".join(f"{k}={v}" for k, v in self.params.items())
        return f"{self.family}:{args},seed={seed}"


WORKLOADS = {
    "links": (
        Cell("many-players", "step", {"m": 64, "n": 2**18}),
        Cell("many-links", "step", {"m": 1024, "n": 2**12}),
    ),
    "dag": (
        Cell("many-players", "random-dag", {"v": 10, "e": 20, "n": 300},
             instances=3, min_edges=19),
        Cell("wide", "random-dag", {"v": 60, "e": 140, "n": 24},
             instances=3, min_edges=133, cli_check=False),
    ),
    "graphical": (
        Cell("n14", "random-graphical", {"n": 14, "k": 3, "d": 3}, instances=4),
    ),
}

# Small cells with the same make-up, for the self-test.
TINY = {
    "links": (
        Cell("many-players", "step", {"m": 4, "n": 2**9}),
        Cell("many-links", "step", {"m": 32, "n": 2**5}),
    ),
    "dag": (
        Cell("many-players", "random-dag", {"v": 5, "e": 8, "n": 6}, min_edges=7),
        Cell("wide", "random-dag", {"v": 9, "e": 16, "n": 3}, min_edges=14,
             cli_check=False),
    ),
    "graphical": (
        Cell("n5", "random-graphical", {"n": 5, "k": 3, "d": 2}, instances=2),
    ),
}

END_TO_END = (
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("result_s", "s"),
    ("queries", "count"),
    ("peak_rss_mb", "MB"),
)

BUILD_SAMPLE_S = 0.25

BUILD = "instances.gen"
SOLVE = "solve"  # stands for the solver's span of the instance's family

# Per-layer metrics: (name, unit, how, stage, span or counter name).  "self"
# and "incl" read span seconds, "calls" counts calls; both only within the
# stage, the operation's outermost span of that name.  "entries" and "size"
# read numbers kept on the instance.
PER_LAYER = (
    ("instances.gen_s", "s", "self", BUILD, "instances.gen"),
    ("games.construct_s", "s", "incl", BUILD, "games.construct"),
    ("instances.table_entries", "count", "entries", None, None),
    ("oracles.query_s", "s", "incl", SOLVE, "oracles.query"),
    ("games.eval_s", "s", "incl", SOLVE, "games.eval"),
    ("oracles.ledger_s", "s", "incl", SOLVE, "oracles.ledger"),
    ("oracles.self_s", "s", "self", SOLVE, "oracles.query"),
    ("games.payoff_calls", "count", "calls", SOLVE, "games.payoff"),
    ("games.validate_path_calls", "count", "calls", SOLVE, "games.validate_path"),
    ("games.edge_loads_calls", "count", "calls", SOLVE, "games.edge_loads"),
    ("oracles.dump_s", "s", "incl", "oracles.dump", "oracles.dump"),
    ("oracles.transcript_bytes", "bytes", "size", None, "transcript_bytes"),
    ("parallel_links.self_s", "s", "self", SOLVE, "parallel_links.solve"),
    ("dag_learner.contract_s", "s", "incl", SOLVE, "dag_learner.contract"),
    ("dag_learner.dependent_pair_calls", "count", "calls", SOLVE,
     "dag_learner.dependent_pair"),
    ("dag_learner.bridges_s", "s", "incl", SOLVE, "dag_learner.bridges"),
    ("dag_learner.bridges_calls", "count", "calls", SOLVE, "dag_learner.bridges"),
    ("dag_learner.learn_self_s", "s", "self", SOLVE, "dag_learner.learn"),
    ("dag_learner.map_back_s", "s", "incl", SOLVE, "dag_learner.map_back"),
    ("dag_learner.descent_s", "s", "incl", SOLVE, "dag_learner.descent"),
    ("graphical.probe_s", "s", "incl", SOLVE, "graphical.probe"),
    ("graphical.learn_self_s", "s", "self", SOLVE, "graphical.learn"),
    ("verify.check_s", "s", "incl", "verify.check", "verify.check"),
    ("serialize.emit_s", "s", "incl", "serialize.emit", "serialize.emit"),
    ("serialize.result_bytes", "bytes", "size", None, "result_bytes"),
)

SOLVE_SPAN = {
    "step": "parallel_links.solve",
    "random-dag": "dag_learner.solve",
    "random-graphical": "graphical.learn",
}


def import_pqlab():
    """Import pqlab from the checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "pqlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no pqlab sources under {src}")
    sys.path.insert(0, str(src))
    import pqlab
    from pqlab import (
        cli, dag_learner, errors, games, graphical, oracles, parallel_links, serialize,
        verify,
    )

    if Path(pqlab.__file__).resolve().parent != (src / "pqlab").resolve():
        raise SystemExit(f"error: imported pqlab from {pqlab.__file__}, not {src}")
    return argparse.Namespace(
        cli=cli, dag_learner=dag_learner, errors=errors, games=games,
        graphical=graphical, oracles=oracles, parallel_links=parallel_links,
        serialize=serialize, verify=verify,
    )


@dataclass
class Instance:
    cell: Cell
    index: int
    gen_seed: int
    facts: object = None
    table_entries: int = 0
    build_s: list = field(default_factory=list)
    solve_s: list = field(default_factory=list)
    result_s: list = field(default_factory=list)
    ops: list = field(default_factory=list)
    queries: int = 0
    digest: str = ""
    result_bytes: int = 0
    transcript_bytes: int = 0

    @property
    def label(self) -> str:
        return f"{self.cell.name}#{self.index}"

    @property
    def spec(self) -> str:
        return self.cell.spec(self.gen_seed)


def draw_seeds(workload: str, cell: Cell, seed: int):
    """Generator seeds of a cell, a deterministic stream per --seed."""
    rng = random.Random(f"{workload}/{cell.name}/{seed}")
    while True:
        yield rng.randrange(2**31)


def select_seeds(pq, workload: str, cells, seed: int) -> list[tuple[Cell, int, int]]:
    """(cell, index, generator seed) of every instance of the run.

    Draws that lose too many edges are discarded here, before the timed build; they
    are not part of the workload.
    """
    chosen = []
    for cell in cells:
        stream = draw_seeds(workload, cell, seed)
        for index in range(cell.instances):
            gen_seed = next(stream)
            while cell.min_edges and _learned_edges(pq, cell, gen_seed) < cell.min_edges:
                gen_seed = next(stream)
            chosen.append((cell, index, gen_seed))
    return chosen


def _learned_edges(pq, cell: Cell, gen_seed: int) -> int:
    game = pq.cli.make_game(cell.spec(gen_seed))
    if len(game.edges) < cell.min_edges:
        return len(game.edges)
    return checks.DagFacts(game).contracted_edges


def prepare(pq, cell: Cell, index: int, gen_seed: int) -> Instance:
    """Time the game's build; keep what the checks need, not the game.

    A game that builds in milliseconds is built again until its builds add
    up to BUILD_SAMPLE_S, so that its set-up time is a median of many
    samples; every round then adds one more.  Only one hidden game is alive
    at a time, as in one CLI process.
    """
    inst = Instance(cell, index, gen_seed)
    while True:
        t0 = perf_counter()
        game = pq.cli.make_game(inst.spec)
        inst.build_s.append(perf_counter() - t0)
        if sum(inst.build_s) >= BUILD_SAMPLE_S:
            break
        del game
    p = cell.params
    if cell.family == "step":
        inst.facts = checks.step_levels(p["m"], p["n"], gen_seed)
    elif cell.family == "random-dag":
        inst.facts = checks.DagFacts(game)
    inst.table_entries = table_entries(game)
    return inst


def table_entries(game) -> int:
    if hasattr(game, "cost"):
        return sum(len(t) for t in game.cost.values())
    return sum(len(t) for t in game.payoff_tables)


def emit(pq, payload: dict) -> str:
    """The text cli._emit writes to stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        pq.cli._emit(argparse.Namespace(out=None), payload)
    return buf.getvalue()


def run_operation(pq, inst: Instance, tracer):
    """One CLI-ordered operation; returns (build_s, solve_s, result_s, outputs)."""
    cell, p = inst.cell, inst.cell.params
    t0 = perf_counter()
    with tracer.span(BUILD):
        game = pq.cli.make_game(inst.spec)
    t1 = perf_counter()
    with tracer.span(SOLVE_SPAN[cell.family]):
        if cell.family == "step":
            oracle = pq.oracles.CongestionOracle(game)
            result = pq.parallel_links.solve_parallel_links(oracle)
        elif cell.family == "random-dag":
            oracle = pq.oracles.CongestionOracle(game)
            result = pq.dag_learner.solve_dag_game(oracle)
        else:
            oracle = pq.oracles.PurePayoffOracle(game)
            result = pq.graphical.learn_graphical(oracle, p["n"], p["k"], p["d"])
    t2 = perf_counter()
    with tracer.span("verify.check"):
        if cell.family == "step":
            verified = pq.parallel_links.is_delta_equilibrium(
                pq.games.link_tables(game), result.loads.loads, 1, result.loads.special
            )
        elif cell.family == "random-dag":
            report = (
                pq.verify.deviation_report(game, result.profile) if cell.cli_check else None
            )
            verified = report.is_equilibrium if report is not None else None
        else:
            verified = result.game == game
    with tracer.span("serialize.emit"):
        if cell.family == "step":
            payload = {
                "loads": list(result.loads.loads),
                "special_link": result.loads.special,
                "queries_used": result.queries_used,
                "query_bound": result.query_bound,
                "verified": verified,
            }
        elif cell.family == "random-dag":
            payload = {
                "profile": pq.serialize.profile_to_dict(result.profile),
                "queries_used": result.queries_used,
                "contracted_edges": {
                    str(e): list(ids) for e, ids in result.contraction.absorbed.items()
                },
                "verified": verified,
                "worst_improvement": str(report.improvement) if report is not None else None,
            }
        else:
            payload = {
                "learned_game": pq.serialize.game_to_dict(result.game),
                "affects_edges": sorted(map(list, result.affects_edges)),
                "queries_used": result.queries_used,
                "verified": verified,
            }
        text = emit(pq, payload)
    with tracer.span("oracles.dump"):
        buf = io.StringIO()
        oracle.ledger.dump_jsonl(buf)
        transcript = buf.getvalue()
    t3 = perf_counter()
    return t1 - t0, t2 - t1, t3 - t1, (game, oracle, result, verified, text, transcript)


def check_operation(inst: Instance, outputs) -> list[str]:
    game, oracle, result, verified, text, transcript = outputs
    problems = [] if verified in (True, None) else ["the CLI's ground-truth check failed"]
    queries = oracle.ledger.count
    if inst.cell.family == "step":
        problems += checks.check_links(game, inst.facts, result.loads.loads, queries)
    elif inst.cell.family == "random-dag":
        problems += checks.check_dag(game, inst.facts, result.profile, queries)
    else:
        problems += checks.check_graphical(game, result, inst.cell.params["d"], queries)
    digest = hashlib.sha256(transcript.encode()).hexdigest()
    if not inst.digest:
        inst.digest, inst.queries = digest, queries
        inst.result_bytes, inst.transcript_bytes = len(text), len(transcript)
    elif digest != inst.digest or queries != inst.queries:
        problems.append("query transcript differs from the first round's")
    return problems


def run(workload: str, seed: int, seconds: float, traced: bool,
        cells=None, log=sys.stdout) -> dict:
    """Run one workload and return the result object the command prints."""
    t_start = perf_counter()
    cells = cells if cells is not None else WORKLOADS[workload]
    pq = import_pqlab()
    tracer = spans.Tracer() if traced else spans.NullTracer()

    instances = [prepare(pq, *c) for c in select_seeds(pq, workload, cells, seed)]
    for inst in instances:
        print(f"instance {workload} {inst.label} spec={inst.spec}", file=log)

    attempted = 0
    failures = []
    start = perf_counter()
    rounds = 0
    with _traced_layers(traced, tracer, pq):
        while True:
            for inst in instances:
                tracer.current_op = op = attempted
                attempted += 1
                gc.collect()
                try:
                    build_s, solve_s, result_s, outputs = run_operation(pq, inst, tracer)
                except pq.errors.PqlabError as exc:
                    failures.append(f"{inst.label} round {rounds}: {exc!r}")
                    continue
                problems = check_operation(inst, outputs)
                del outputs
                if problems:
                    failures.append(f"{inst.label} round {rounds}: {problems}")
                    continue
                inst.build_s.append(build_s)
                inst.solve_s.append(solve_s)
                inst.result_s.append(result_s)
                inst.ops.append(op)
            rounds += 1
            elapsed = perf_counter() - start
            if elapsed + elapsed / rounds > seconds:
                break

    for line in failures:
        print(f"failed {line}", file=log)
    for inst in instances:
        print(f"transcript {workload} {inst.label} queries={inst.queries} "
              f"sha256={inst.digest}", file=log)
    print(f"set-up {start - t_start:.2f} s, rounds {rounds} in "
          f"{perf_counter() - start:.2f} s", file=log)

    # A failed operation makes the run incorrect, so that timings that leave
    # it out can never read as a gain.
    timed = [inst for inst in instances if inst.ops]
    e2e = {
        "setup_s": sum(statistics.median(i.build_s) for i in timed),
        "solve_s": sum(statistics.median(i.solve_s) for i in timed),
        "result_s": sum(statistics.median(i.result_s) for i in timed),
        "queries": sum(i.queries for i in timed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if traced:
        print("traced end-to-end " + " ".join(f"{k}={v:.6g}" for k, v in e2e.items()),
              file=log)
        metrics = layer_metrics(tracer, timed)
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }


def _traced_layers(traced: bool, tracer, pq):
    if not traced:
        return contextlib.nullcontext()
    return spans.patched(spans.targets(tracer, pq.games, pq.oracles, pq.dag_learner,
                                       pq.graphical))


def layer_metrics(tracer, instances) -> dict:
    """Per-layer values: median over an instance's rounds, summed over instances."""
    incl, own = tracer.times()
    out = {}
    for name, unit, how, stage, key in PER_LAYER:
        value = 0
        for inst in instances:
            where = SOLVE_SPAN[inst.cell.family] if stage == SOLVE else stage
            if how == "entries":
                value += inst.table_entries
            elif how == "size":
                value += getattr(inst, key)
            elif how == "calls":
                value += tracer.calls_in(inst.ops[0], where, key)
            else:
                table = own if how == "self" else incl
                value += statistics.median(
                    table.get((op, where, key), 0.0) for op in inst.ops
                )
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
