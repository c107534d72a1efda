"""Tests of the benchmark itself, on tiny ladders; together they take about a
second."""
import io
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import ladder
import oracle
import run
import spans

CLI = run.load_cli()


@pytest.fixture(autouse=True)
def no_collection_between_cases(monkeypatch):
    # the benchmark collects garbage before every case to steady its timings;
    # in a test process full of objects that costs more than the tiny cases
    monkeypatch.setattr(run.gc, "collect", lambda: 0)


def tiny_cases(workload, directory, seed=7):
    return ladder.build(workload, seed, directory, tiny=True)


def output_of(case):
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert CLI.main(list(case.argv)) == 0
    return buf.getvalue()


def find(cases, kind, **params):
    return next(c for c in cases if c.kind == kind
                and all(c.params.get(k) == v for k, v in params.items()))


@pytest.mark.parametrize("workload", ladder.WORKLOADS)
def test_tiny_workload_passes_every_check(workload, tmp_path):
    runner = run.Runner(CLI, tiny_cases(workload, tmp_path))
    runner.round()
    runner.round()
    assert runner.attempted == 2 * len(runner.cases)
    assert runner.failed == 0 and runner.wrong == []
    metrics = runner.end_to_end(setup_s=0.1)
    assert all(value > 0 for value, _ in metrics.values())


def test_closed_forms():
    assert oracle.hook_content_count(2, 2, 3) == 6
    assert oracle.hook_content_count(1, 3, 2) == 4
    edges, sink, _ = ladder.complete_digraph(4)
    order = ["1", "2", "3"]
    assert oracle.determinant(oracle.reduced_laplacian(edges, sink, order)) == 16


def test_seeded_graph_is_fixed_by_its_seed(tmp_path):
    first = tiny_cases("gallery-maps", tmp_path / "a", seed=5)
    again = tiny_cases("gallery-maps", tmp_path / "b", seed=5)
    other = tiny_cases("gallery-maps", tmp_path / "c", seed=6)
    graph = [c.params for c in first if c.kind == "sandpile"]
    assert graph == [c.params for c in again if c.kind == "sandpile"]
    assert graph != [c.params for c in other if c.kind == "sandpile"]


def test_checker_rejects_a_wrong_constant_or_count(tmp_path):
    cases = tiny_cases("grid-sweep", tmp_path)
    case = find(cases, "grid", system="grid-rowmotion-ideals")  # [3]x[3], c = 9/2
    text = output_of(case)
    states = oracle.state_count(case)
    assert oracle.check(case, text, states) == []
    assert oracle.check(case, text.replace("9/2", "5"), states)  # consistent, wrong c
    assert oracle.check(case, text, states + 1)
    assert oracle.check(case, text.replace('"states": 20', '"states": 21'), states)

    json_case = find(cases, "grid", system="grid-promotion-antichains")
    text = output_of(json_case)
    states = oracle.state_count(json_case)
    assert oracle.check(json_case, text, states) == []
    assert oracle.check(json_case, text.replace('"period": 4', '"period": 3', 1), states)


def test_checker_rejects_a_wrong_sandpile_constant(tmp_path):
    case = find(tiny_cases("gallery-maps", tmp_path), "sandpile", sink="4")  # K4
    text = output_of(case)
    states = oracle.state_count(case)
    assert states == 16 and oracle.check(case, text, states) == []
    assert oracle.check(case, text.replace("1/4", "1/5"), states)


def test_checker_rejects_a_missing_generator(tmp_path):
    case = find(tiny_cases("exact-algebra", tmp_path), "subspace",
                system="grid-rowmotion-ideals")
    text = output_of(case)
    states = oracle.state_count(case)
    assert oracle.check(case, text, states) == []
    assert oracle.check(case, text.replace("present  file-sum[0]", "ABSENT   file-sum[0]"),
                        states)
    assert oracle.check(case, text.replace("dimension: ", "dimension: 1"), states)


def counts(metrics):
    return {key: value for key, (value, _) in metrics.items() if not key.endswith("_s")}


@pytest.mark.parametrize("workload", ladder.WORKLOADS)
def test_two_traced_runs_give_identical_counts(workload, tmp_path):
    cases = tiny_cases(workload, tmp_path)
    first, repeat_a = run.run_traced(run.Runner(CLI, cases), 0, tmp_path / "a.jsonl")
    second, repeat_b = run.run_traced(run.Runner(CLI, cases), 0, tmp_path / "b.jsonl")
    assert repeat_a and repeat_b
    assert counts(first) == counts(second)
    assert len(first) == 26 and "trace.overhead_s" in first
    assert (tmp_path / "a.jsonl").read_text().count("\n") > 1


def test_tracing_leaves_the_program_unwrapped(tmp_path):
    from homomesy import dynamics, engine

    run.run_traced(run.Runner(CLI, tiny_cases("grid-sweep", tmp_path)), 0,
                   tmp_path / "spans.jsonl")
    assert CLI.rowmotion_ideal is dynamics.rowmotion_ideal
    assert not hasattr(dynamics.rowmotion_ideal, "__wrapped__")
    assert not hasattr(engine.Statistic.__call__, "__wrapped__")


def test_a_layer_without_calls_is_missing_not_zero(tmp_path, monkeypatch):
    monkeypatch.setattr(spans, "TARGETS",
                        tuple(t for t in spans.TARGETS if t[2] != "dynamics.tau"))
    metrics, _ = run.run_traced(run.Runner(CLI, tiny_cases("grid-sweep", tmp_path)), 0,
                                tmp_path / "spans.jsonl")
    assert not any(key.startswith("dynamics.") for key in metrics)
    assert "posets.states" in metrics


def test_without_the_program_there_is_no_result(tmp_path):
    shutil.copytree(Path(run.HERE), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "grid-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
