"""Tests of the benchmark itself: its checks catch wrong outputs, its self-time
arithmetic is right and its output matches BENCHMARK.json."""
import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402
from spans import Span, self_times  # noqa: E402
from uwmac import bruteforce, engine  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _golden(ops):
    digests = []
    for op in ops:
        op.load()
        digests.append(op.digest(op.finish(op.execute())))
    return digests


def _flip_inconsistently(report):
    # one success booked as idle without touching the per-node counts
    return dataclasses.replace(report, successes=report.successes - 1, idle=report.idle + 1)


def _flip_consistently(report):
    # one success turned into a collision everywhere: only the digest can tell
    node = next(n for n, c in report.per_node_successes.items() if c > 0)
    per_node = dict(report.per_node_successes, **{node: report.per_node_successes[node] - 1})
    empirical = (report.successes - 1) / report.measured_slots
    return dataclasses.replace(
        report, successes=report.successes - 1, collisions=report.collisions + 1,
        per_node_successes=per_node, empirical_throughput=empirical,
        deviation=abs(empirical - report.oracle.optimal_throughput))


@pytest.mark.parametrize("flip", [_flip_inconsistently, _flip_consistently])
def test_perturbed_engine_gives_failed_ops(tmp_path, monkeypatch, flip):
    ops = workloads.build("tdma_gateway", 3, tmp_path, horizon=2000)
    golden = _golden(ops)
    assert run.measure(ops, 0.0, golden).failed == 0

    real_run = engine.run
    monkeypatch.setattr(engine, "run", lambda scenario: flip(real_run(scenario)))
    perturbed = run.measure(ops, 0.0, golden)
    assert perturbed.attempted == len(ops)
    assert perturbed.failed / perturbed.attempted > 0


def test_wrong_certificate_gives_failed_ops(tmp_path, monkeypatch):
    ops = workloads.build("certify_grid", 3, tmp_path)[:3]
    for op in ops:
        op.load()
    assert run.measure(ops, 0.0, None).failed == 0

    real_certify = bruteforce.certify_policy
    monkeypatch.setattr(bruteforce, "certify_policy", lambda scenario: dataclasses.replace(
        real_certify(scenario), oracle_value=0.0))
    assert run.measure(ops, 0.0, None).failed == len(ops)


def test_self_time_of_nested_and_overlapping_spans():
    spans = [Span(0, None, 0, "parent", 0.0, 10.0, 0),
             Span(1, 0, 0, "a", 1.0, 3.0, 0),
             Span(2, 1, 0, "a.child", 1.5, 2.0, 0),
             Span(3, 0, 0, "b", 2.0, 5.0, 0),   # overlaps a: [1, 5] is covered once
             Span(4, 0, 0, "c", 9.0, 12.0, 0)]  # runs past its parent: clipped at 10
    assert self_times(spans) == pytest.approx({0: 10.0 - 4.0 - 1.0, 1: 1.5, 2: 0.5,
                                               3: 3.0, 4: 3.0})


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    m = run.Measurement(wall=[i / 1000 for i in range(1, 41)], speed=[1.0] * 40)
    ms, percentile, beyond = m.tail()
    assert (ms, percentile, beyond) == (pytest.approx(30.0), 75.0, 10)
    few = run.Measurement(wall=[0.003, 0.001, 0.002], speed=[1.0] * 3)
    assert few.tail() == (pytest.approx(3.0), 100.0, 0)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_inputs_depend_only_on_the_seed(tmp_path, name):
    def inputs(seed, sub):
        (tmp_path / sub).mkdir()
        return [(op.path.read_bytes(), getattr(op, "grid", None))
                for op in workloads.build(name, seed, tmp_path / sub)]

    first = inputs(5, "a")
    assert inputs(5, "b") == first
    assert inputs(6, "c") != first


def test_workload_names_agree():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert names == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


def test_output_lists_every_benchmark_metric(capsys):
    assert run.main(["--workload", "certify_grid", "--seconds", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())

    layers = run.layer_metrics([], {}, 1, [], 1.0, 1.0)
    assert list(layers) == [m["name"] for m in BENCHMARK["per_layer"]]
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    assert all(units[name] == unit for name, (_, unit) in layers.items())
    assert all(units[name] == m["unit"] for name, m in result["metrics"].items())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, *BENCHMARK["command"][1:], "--workload",
                          "certify_grid", "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_all_runs_each_workload_in_a_child_and_merges_results(monkeypatch, capsys):
    def child(argv, **kwargs):
        name = argv[argv.index("--workload") + 1]
        result = {"correct": True, "attempted": 2, "failed": 0,
                  "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}
        return subprocess.CompletedProcess(argv, 0, f"table of {name}\n{json.dumps(result)}\n")

    monkeypatch.setattr(run.subprocess, "run", child)
    assert run.main(["--workload", "all", "--seconds", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[:-1] == [f"table of {name}" for name in run.WORKLOAD_NAMES]
    result = json.loads(lines[-1])
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 8, 0)
    assert list(result["metrics"]) == [f"{name}.setup_s" for name in run.WORKLOAD_NAMES]

    monkeypatch.setattr(run.subprocess, "run",
                        lambda argv, **kwargs: subprocess.CompletedProcess(argv, 2, ""))
    assert run.main(["--workload", "all", "--seconds", "0"]) == 2
    assert '"metrics"' not in capsys.readouterr().out
