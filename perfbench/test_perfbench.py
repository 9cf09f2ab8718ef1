"""Smoke test of the benchmark at reduced size: one operation (one untraced
and traced pair with --trace 1) per workload instead of a full run."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(workload: str, trace: int):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().split("\n")
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0, done.stdout
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return lines, result


def _printed(lines, name, unit) -> bool:
    return any(line.startswith(f"# {name} [{unit}] ") for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_and_checks_pass(workload):
    lines, result = _bench(workload, 0)
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0
        assert _printed(lines, metric["name"], metric["unit"])
    for name in [*wl.METRICS[workload], "fail_frac"]:
        assert _printed(lines, name, "frac" if name == "fail_frac" else "s")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_metrics_printed_and_self_times_add_up(workload):
    lines, result = _bench(workload, 1)
    metrics = result["metrics"]
    for metric in SPEC["per_layer"]:
        assert metrics[metric["name"]]["unit"] == metric["unit"]
        assert _printed(lines, metric["name"], metric["unit"])
    path = os.path.join(ROOT, ".bench_out", f"{workload}-seed3-trace1", "result.json")
    with open(path, encoding="utf-8") as fh:
        rows = json.load(fh)["self_time_rows"]
    for row in rows:
        # self times partition the root span, which the op's own timer encloses
        assert 0.99 * row["wall"] <= row["self_sum"] <= row["wall"]
    value = {name: m["value"] for name, m in metrics.items()}
    if workload == "lit-m5":
        fit = value["estimators.fit_sgm_s"] + value["estimators.fit_mixm_s"]
        assert value["maxdet.objective_eval_s"] + value["maxdet.solve.self_s"] > 0.5 * fit
        assert value["model.self_s"] < 0.05 * fit
    if workload == "density":
        assert all(r["maxdet_spans"] == 0 for r in rows)


def _input_digest(workload, seed, directory) -> list[str]:
    os.makedirs(directory, exist_ok=True)
    digests = []
    for case in wl.setup_inputs(workload, seed, str(directory)):
        with open(case["input"], "rb") as fh:
            digests.append(hashlib.sha256(fh.read()).hexdigest())
    return digests


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_fixes_inputs(workload, tmp_path):
    first = _input_digest(workload, 11, tmp_path / "a")
    assert first == _input_digest(workload, 11, tmp_path / "b")
    assert first != _input_digest(workload, 12, tmp_path / "c")
    with open(os.path.join(HERE, "references.json"), encoding="utf-8") as fh:
        refs = json.load(fh)[workload]
    order = wl.case_order(workload, 11)
    assert first == [refs[str(c)]["input_sha256"] for c in order]
