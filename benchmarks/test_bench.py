"""Fast self-test of the benchmark: tiny cells, both modes, the checks.

    python3 -m pytest -q benchmarks/test_bench.py
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import checks
import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _run(workload, traced, seed=5):
    log = io.StringIO()
    result = run.run(workload, seed, 0, traced, cells=run.TINY[workload], log=log)
    return result, log.getvalue()


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("traced", [False, True])
def test_workload_runs_clean_in_both_modes(workload, traced):
    result, log = _run(workload, traced)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], log
    assert result["failed"] == 0, log
    assert result["attempted"] == sum(c.instances for c in run.TINY[workload])
    wanted = BENCHMARK["per_layer" if traced else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if not traced:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_the_layers_that_ran():
    values = {w: _run(w, True)[0]["metrics"] for w in run.TINY}
    for name in ("instances.gen_s", "games.construct_s", "oracles.query_s",
                 "games.eval_s", "oracles.ledger_s", "oracles.dump_s", "verify.check_s",
                 "serialize.emit_s"):
        assert all(values[w][name]["value"] > 0 for w in values), name
    assert values["links"]["parallel_links.self_s"]["value"] > 0
    assert values["graphical"]["games.payoff_calls"]["value"] > 0
    assert values["graphical"]["graphical.probe_s"]["value"] > 0
    for name in ("dag_learner.contract_s", "dag_learner.bridges_calls",
                 "dag_learner.descent_s", "games.edge_loads_calls"):
        assert values["dag"][name]["value"] > 0, name
    assert values["links"]["dag_learner.learn_self_s"]["value"] == 0


def test_transcript_digests_repeat_for_a_seed():
    def digests(seed):
        log = _run("dag", False, seed)[1]
        return [line for line in log.splitlines() if line.startswith("transcript")]

    assert digests(7) == digests(7)
    assert digests(7) != digests(8)


def test_tracing_leaves_pqlab_unpatched():
    pq = run.import_pqlab()
    before = pq.games.GraphicalGame.payoffs, pq.dag_learner.find_bridges
    _run("graphical", True)
    assert (pq.games.GraphicalGame.payoffs, pq.dag_learner.find_bridges) == before


def test_a_failing_solver_makes_the_run_incorrect(monkeypatch):
    pq = run.import_pqlab()

    def fail(oracle, *args):
        raise pq.errors.PqlabError("solver failed")

    monkeypatch.setattr(pq.parallel_links, "solve_parallel_links", fail)
    result, log = _run("links", False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 2
    assert "solver failed" in log


def test_links_check_rejects_a_profitable_move():
    pq = run.import_pqlab()
    levels = checks.step_levels(3, 40, seed=2)
    game = pq.cli.make_game("step:m=3,n=40,seed=2")
    loads = pq.parallel_links.solve_parallel_links(
        pq.oracles.CongestionOracle(game)
    ).loads.loads
    assert checks.check_links(game, levels, loads, 10) == []
    verdicts = []
    for i in range(3):
        stacked = tuple(40 if j == i else 0 for j in range(3))
        ours = checks.check_links(game, levels, stacked, 10) == []
        assert ours == pq.parallel_links.is_delta_equilibrium(
            pq.games.link_tables(game), stacked, 1, i
        )
        verdicts.append(ours)
    assert not all(verdicts)
    assert checks.check_links(game, levels, loads, 10**6) != []


def test_dag_check_counts_contracted_edges_and_rejects_deviations():
    pq = run.import_pqlab()
    for seed in range(12):
        game = pq.cli.make_game(f"random-dag:v=7,e=12,n=3,seed={seed},subdivide=2")
        reduced, _ = pq.dag_learner.contract_network(game.network)
        assert checks.DagFacts(game).contracted_edges == len(reduced.edges)
    game = pq.cli.make_game("random-dag:v=6,e=10,n=4,seed=3")
    facts = checks.DagFacts(game)
    result = pq.dag_learner.solve_dag_game(pq.oracles.CongestionOracle(game))
    assert checks.check_dag(game, facts, result.profile, result.queries_used) == []
    verdicts = []
    for path in pq.games.enumerate_paths(game):
        stacked = {path: game.players}
        ours = checks.check_dag(game, facts, stacked, result.queries_used) == []
        assert ours == pq.verify.deviation_report(game, stacked).is_equilibrium
        verdicts.append(ours)
    assert not all(verdicts)


def test_graphical_check_rejects_a_wrong_table():
    pq = run.import_pqlab()
    game = pq.cli.make_game("random-graphical:n=4,k=2,d=1,seed=1")
    learned = pq.graphical.learn_graphical(pq.oracles.PurePayoffOracle(game), 4, 2, 1)
    queries = checks.graphical_queries(4, 2, 1)
    assert checks.check_graphical(game, learned, 1, queries) == []
    tables = list(learned.game.payoff_tables)
    key = next(iter(tables[0]))
    tables[0] = {**tables[0], key: Fraction(1) - tables[0][key]}
    wrong = pq.graphical.LearnedGraphicalGame(
        pq.games.GraphicalGame(4, 2, learned.game.in_neighbors, tuple(tables)), queries
    )
    assert checks.check_graphical(game, wrong, 1, queries) != []
    assert checks.check_graphical(game, learned, 1, queries + 1) != []


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "links",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
