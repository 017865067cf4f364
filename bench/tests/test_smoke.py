"""Smoke test of the benchmark: a short run on the (6,6,4) instance.

    python -m pytest bench/tests -q

Checks that one command runs every workload, that every named metric is
printed, that a single-workload run's last line carries exactly the
metrics BENCHMARK.json lists, and that the benchmark refuses to run
without the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    result = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--small", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return result.returncode, result.stdout.splitlines()


def test_all_workloads_report_every_end_to_end_metric():
    code, lines = run("--workload", "all", "--seed", "5", "--trace", "0")
    assert code == 0, lines
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    printed = {(line.split()[0], line.split()[-1]) for line in lines if line.startswith("  ")}
    for name, workload in workloads.WORKLOADS.items():
        for metric in SPEC["end_to_end"]:
            assert f"{name}.{metric['name']}" in result["metrics"]
            assert (metric["name"], metric["unit"]) in printed
        for metric in [*workload.command_metrics.values(), "failed_share"]:
            assert result["metrics"][f"{name}.{metric}"]["value"] >= 0
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    assert any(line.startswith("context {") for line in lines)


def test_traced_run_reports_every_per_layer_metric():
    code, lines = run("--workload", "all", "--seed", "5", "--trace", "1")
    assert code == 0, lines
    metrics = json.loads(lines[-1])["metrics"]
    assert [m["name"] for m in SPEC["per_layer"]] == [name for name, _ in tracer.PER_LAYER]
    for name in workloads.WORKLOADS:
        for metric in SPEC["per_layer"]:
            assert metrics[f"{name}.{metric['name']}"]["unit"] == metric["unit"]
    assert metrics["family_k1.modular.solve_linear_mod.calls"]["value"] > 0
    assert metrics["spectral_k1.modular.solve_linear_mod.calls"]["value"] == 0
    assert metrics["spectral_k1.spectral.apply_adjacency.calls"]["value"] > 0


def test_single_workload_last_line_matches_benchmark_json():
    code, lines = run("--workload", "spectral_k1", "--seed", "2", "--trace", "0")
    assert code == 0, lines
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tracer_lists_missing_functions_as_absent(monkeypatch):
    sys.path.insert(0, str(ROOT / "src"))
    import hypersym.hypergraph

    monkeypatch.delattr(hypersym.hypergraph, "incidence_matrix")
    trace = tracer.Tracer()
    trace.install()
    trace.uninstall()
    assert "hypergraph.incidence_matrix" in trace.absent
    summary = trace.summary()
    assert summary["hypergraph.incidence_matrix.calls"] == 0
    assert summary["trace.absent_functions"] == len(trace.absent) >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work"))
    code, lines = run("--workload", "family_k1", "--seed", "1", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
