"""Tiny-scale self-test of the benchmark.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import corpus  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

WORKLOADS = list(run.WORKLOADS)
TINY = 400


def _operation(workload: str, root: Path, expected: dict):
    if "audits" in expected:
        return worker.audit_operation(root, expected["audits"])
    return worker.reconstruct_operation(root, expected["reconstruct"])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("seed", range(8))
def test_generators_force_the_truth(workload, seed, tmp_path):
    expected = corpus.write_workload(workload, seed, tmp_path, n_features=TINY)
    op, gate = _operation(workload, tmp_path, expected)
    assert gate(op(), None) is None


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_operations_count_the_layers(workload, tmp_path):
    expected = corpus.write_workload(workload, 1, tmp_path, n_features=TINY)
    op, gate = _operation(workload, tmp_path, expected)
    tracer = tracing.Tracer()
    run_ = worker.measure(op, gate, 0.0, tracer)
    assert run_["failures"] == [] and len(run_["traced"]) == 1
    m = tracing.layer_metrics(tracer)
    if workload == "reconstruct":
        assert m["ingest.parse_matrix.s"] == 0.0 and m["cli.run_audit.s"] == 0.0
        assert (m["groupsearch.steps"], m["groupsearch.neighbors"], m["transform.candidates"]) == (3, 144, 12)
        assert m["groupsearch.score_assignment.calls"] == m["signature.pooled_t_statistics.calls"] == 145
        assert m["groupsearch.steepest_ascent.s"] == max(m[k] for k in ("groupsearch.steepest_ascent.s", "matchscan.match_rows.s", "transform.infer_pipeline.s"))
    else:
        n_manifests = len(expected["audits"])
        assert m["ingest.parse_matrix.calls"] == 2 * n_manifests
        assert m["cli.findings"] == sum(len(a["findings"]) for a in expected["audits"])
        assert m["cli.report_bytes"] > 0 and m["groupsearch.steepest_ascent.s"] == 0.0
        assert m["cli.run_audit.self_s"] < m["cli.run_audit.s"]
        raw = workload == "audit-raw-missing"
        assert m["kernels.pairwise_complete.calls"] == (2 if raw else 0)
        assert m["kernels.pairwise_complete.pairs"] == (2 * 60 * 59 // 2 if raw else 0)


def test_every_untraced_operation_gets_a_reference_ratio(tmp_path):
    expected = corpus.write_workload("audit-small", 1, tmp_path)
    op, gate = _operation("audit-small", tmp_path, expected)
    run_ = worker.measure(op, gate, 0.0, tracing.Tracer())
    assert run_["attempted"] == 2 and len(run_["untraced"]) == len(run_["ratios"]) == 1
    assert len(run_["reference"]) == 3 and min(run_["reference"]) > 0
    assert run_["ratios"][0] == pytest.approx(run_["untraced"][0] / ((run_["reference"][0] + run_["reference"][1]) / 2))


def test_setup_times_every_import_and_rescales_it_by_the_reference():
    wall, scaled = run.setup_seconds(("json",))
    assert len(wall) == len(scaled) == run.SETUP_REPEATS
    assert all(w > 0 for w in wall) and all(s > 0 for s in scaled)


@pytest.mark.parametrize("workload", ["audit-paper", "audit-small"])
def test_report_bytes_do_not_depend_on_the_seed(workload, tmp_path):
    sizes = set()
    for seed in (3, 4):
        expected = corpus.write_workload(workload, seed, tmp_path / str(seed), n_features=TINY)
        op, gate = _operation(workload, tmp_path / str(seed), expected)
        assert gate(op(), None) is None
        sizes.add(tuple((tmp_path / str(seed) / a["manifest"]).with_name("report.json").stat().st_size for a in expected["audits"]))
    assert len(sizes) == 1


@pytest.mark.parametrize("corrupt", ["shift", "exit_code"])
def test_a_corrupted_expectation_counts_as_a_failed_operation(corrupt, tmp_path):
    expected = corpus.write_workload("audit-paper", 2, tmp_path, n_features=TINY)
    audit = expected["audits"][0]
    if corrupt == "shift":
        offset = next(f for f in audit["findings"] if f["code"] == "OFFSET_DETECTED")
        offset["metrics"]["best_shift"] = 0
    else:
        audit["exit_code"] = 0
    op, gate = worker.audit_operation(tmp_path, expected["audits"])
    run_ = worker.measure(op, gate, 0.0, None)
    assert run_["attempted"] == 1 and len(run_["failures"]) == 1


def test_reconstruct_gate_rejects_a_wrong_pipeline(tmp_path):
    expected = corpus.write_workload("reconstruct", 2, tmp_path, n_features=TINY)
    expected["reconstruct"]["pipeline"] = "log:e|zscore:n|exp:e|round:2"
    op, gate = worker.reconstruct_operation(tmp_path, expected["reconstruct"])
    assert "inferred" in gate(op(), None)


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.PER_LAYER


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_the_result_last(trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", "audit-small", "--seed", "5", "--seconds", "0.5"]
    done = subprocess.run(cmd + ["--trace", str(trace)], capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = _last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = [m[0] for m in (tracing.PER_LAYER if trace else run.END_TO_END)]
    assert list(result["metrics"]) == names
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", ".results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, "perfbench/run.py", "--workload", "audit-paper", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0 and done.stdout.strip() == ""
