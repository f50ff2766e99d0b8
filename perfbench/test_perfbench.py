"""Tests of the benchmark itself, mostly on the smoke workloads.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
import tracer
import workloads

sys.path.insert(0, str(run.ROOT / "src"))


def _op(key: str) -> workloads.Op:
    for smoke in (False, True):
        for group in run.GROUPS:
            for op in workloads.cli_ops(group, smoke):
                if op.key == key:
                    return op
    raise KeyError(key)


def _traced_stats(op: workloads.Op) -> dict:
    run.OUT.mkdir(parents=True, exist_ok=True)
    with run.Launcher(run.child_env()) as launcher:
        result = run.run_op(op, 7, True, launcher, workloads.load_digests())
    assert result["error"] is None
    return result["trace"]["stats"]


def test_benchmark_json_names_every_metric_and_workload():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    per_layer = {tracer.metric_name(n, s): tracer.UNITS[s] for n, s in tracer.PER_LAYER}
    per_layer[run.OVERHEAD] = "s"
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer


def test_closed_forms():
    assert [workloads.fuss_catalan(t) for t in ("A2", "A5", "D4", "D5", "E6")] == [
        5, 132, 50, 182, 833]
    assert workloads.fuss_catalan("A4", 3) == 969
    assert workloads.fuss_catalan("A2", 2) == 12


def test_oracles_reject_wrong_output():
    assert workloads.check_count(182)("181\n")
    assert workloads.check_count(182)("182\n") is None
    assert workloads.check_koszul(2, True)(json.dumps(
        {"payload": {"homology": [[0, 1], [1, 2], [2, 0]]}}))


def test_digest_mismatch_counts_as_a_failure():
    run.OUT.mkdir(parents=True, exist_ok=True)
    op = _op("nc --type A2 --format dot")
    with run.Launcher(run.child_env()) as launcher:
        result = run.run_op(op, 8, False, launcher, {op.key: "0" * 64})
    assert result["error"] == "stdout differs from the recorded digest"


def test_decompose_inputs_follow_the_seed():
    run.OUT.mkdir(parents=True, exist_ok=True)
    paths = [run.OUT / f"test-decompose-{k}.json" for k in range(3)]
    ops = [workloads.decompose_op(seed, True, path)
           for seed, path in zip((5, 5, 6), paths)]
    texts = [p.read_text() for p in paths]
    for p in paths:
        p.unlink()
    assert texts[0] == texts[1] != texts[2]
    assert ops[0].properties == [
        {"summands": k, "total_dim": d, "dim_end": ops[0].properties[i]["dim_end"]}
        for i, (k, d) in enumerate(workloads.DECOMPOSE_SIZES_SMOKE)
    ]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_workload_is_correct(workload):
    record = run.run_workload(workload, 3, 1, False, True)
    assert record["correct"] and record["failed"] == 0
    assert set(record["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in record["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat_across_runs(workload):
    first, second = (run.run_workload(workload, 3, 1, True, True) for _ in range(2))
    assert first["correct"] and second["correct"]
    names = [tracer.metric_name(n, s) for n, s in tracer.PER_LAYER] + [run.OVERHEAD]
    assert list(first["metrics"]) == names
    for name in names:
        if first["metrics"][name]["unit"] == "count":
            assert first["metrics"][name] == second["metrics"][name], name


def test_nc_order_work_is_attributed_to_the_masks():
    stats = _traced_stats(_op("nc --type D5 --count"))
    assert stats["root_system.nc_leq"]["calls"] == 182 ** 2
    assert stats["root_system.NcLattice._masks"]["s"] > 0.5 * stats["cli.cmd_nc"]["s"]


def test_koszul_module_evaluates_the_complex_twice():
    # koszul_tensor_module evaluates a complex the CLI has already
    # evaluated; this records that known double evaluation.
    stats = _traced_stats(_op(workloads.KOSZUL_MODULE))
    assert stats["koszul.evaluate"]["calls"] == 2


def test_exits_nonzero_without_the_program():
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in run.HERE.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lattice", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
