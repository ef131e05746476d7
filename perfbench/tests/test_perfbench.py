"""The benchmark's own tests, at tiny shapes.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench import run as bench
from perfbench import workloads
from repro.datasets import DatasetSpec

ROOT = pathlib.Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Every workload at a shape that runs in seconds.
TINY = {
    "relax_cifar10": dict(scale=0.05, rounds=2, relax_iterations=2),
    "round_bigbatch": dict(
        dataset=DatasetSpec("tiny", 10, 8, 1, 100, 2, 10, 200), budget=10, rounds=2, relax_iterations=2
    ),
    "serve_tenants8": dict(scale=0.05, rounds=2, relax_iterations=2, tenants=2, think_mean_s=0.01),
    "ranks2_shm": dict(scale=0.05, rounds=2, relax_iterations=2),
}


@pytest.fixture
def tiny(monkeypatch):
    for name, changes in TINY.items():
        monkeypatch.setitem(workloads.WORKLOADS, name, dataclasses.replace(workloads.WORKLOADS[name], **changes))
    return workloads.WORKLOADS


def run_main(capsys, workload: str, trace: int, seed: int = 3):
    code = bench.main(["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


def test_benchmark_json_gates_runnable_workloads_once():
    names = [w["name"] for w in SPEC["workloads"]]
    assert len(set(names)) == len(names) and set(names) <= set(workloads.WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_workload_runs_and_emits_every_metric_with_its_unit(tiny, capsys, name, trace):
    code, lines, result = run_main(capsys, name, trace)
    assert code == 0, lines
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m: result["metrics"][m]["unit"] for m in result["metrics"]} == {
        m["name"]: m["unit"] for m in expected
    }
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
    table = {line.split()[0] for line in lines if not line.startswith(("#", "{"))}
    assert set(result["metrics"]) <= table
    if not trace:
        assert "error_rate" in table
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in expected)


def test_traced_propose_wall_is_accounted_for(tiny, capsys):
    _, _, result = run_main(capsys, "relax_cifar10", trace=1)
    m = {name: v["value"] for name, v in result["metrics"].items()}
    named = m["engine.propose_setup_s"] + m["relax.s"] + m["eta_search.s"] + m["parallel.launch_overhead_s"]
    assert m["propose_wall_s"] == pytest.approx(named - m["serve.prefetch_hidden_s"] + m["unattributed_s"])
    assert 0.0 <= m["unattributed_s"] < 0.5 * m["propose_wall_s"]
    assert m["eta_search.trials"] > 0 and m["relax.cg_iterations"] > 0


def corrupt_first_proposal(kind, value):
    if kind == "proposal":
        value = value.copy()
        value[0] = 0  # an initial (already labeled) point
    return value


@pytest.mark.parametrize("name", ["relax_cifar10", "serve_tenants8"])
def test_a_corrupted_proposal_is_flagged(tiny, name):
    run = workloads.run_pass(tiny[name], 3, 0.0, tamper=corrupt_first_proposal)
    assert any("not unlabeled pool ids" in p for p in run.problems)


def test_a_flagged_run_exits_non_zero(tiny, capsys, monkeypatch):
    monkeypatch.setattr(workloads, "run_pass", functools.partial(workloads.run_pass, tamper=corrupt_first_proposal))
    code, lines, result = run_main(capsys, "relax_cifar10", trace=0)
    assert code != 0 and result["correct"] is False
    assert any(line.startswith("# output check failed") for line in lines)


def drop_one_label_once():
    dropped = []

    def tamper(kind, value):
        if kind == "labels" and not dropped:
            dropped.append(True)
            return value[:-1]
        return value

    return tamper


@pytest.mark.parametrize("name", ["relax_cifar10", "serve_tenants8"])
def test_an_injected_failure_is_counted_not_raised(tiny, name):
    run = workloads.run_pass(tiny[name], 3, 0.0, tamper=drop_one_label_once())
    assert run.failed == 1
    assert run.errors and ("ValueError" in run.errors[0] or "ProtocolError" in run.errors[0])
    if tiny[name].serve:
        assert run.rounds > 0  # the other labeler kept going


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = list(range(30))
    value, percentile = bench.tail_latency(samples)
    assert value == 19 and sum(s > value for s in samples) == 10
    assert percentile == pytest.approx(100 * 20 / 30)
    assert bench.tail_latency([3.0, 1.0, 2.0]) == (2.0, 50.0)


def test_without_the_program_it_exits_non_zero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "relax_cifar10", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_no_process_outlives_a_multiprocess_run(tiny, capsys):
    code, _, _ = run_main(capsys, "ranks2_shm", trace=0)
    assert code == 0
    bench.stop_helper_processes()
    assert bench.child_pids() == []
