"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: pathlib.Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    detail = json.loads(lines[-2])
    assert set(detail["host"]) == {"nproc", "cpu", "python", "numpy", "scipy", "numba"}


def test_without_program_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout


def test_tracer_wraps_and_restores():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import spans
    from repro.core.query import QueryEngine
    from repro.core.reweight import ReweightPlan

    original = QueryEngine.submit
    capture = ReweightPlan.__dict__["capture"]
    tr = spans.Tracer()
    tr.install()
    try:
        assert QueryEngine.submit is not original
        assert isinstance(ReweightPlan.__dict__["capture"], classmethod)
    finally:
        tr.uninstall()
    assert QueryEngine.submit is original
    assert ReweightPlan.__dict__["capture"] is capture


def test_coverage_counts_only_layer_spans():
    sys.path.insert(0, str(HERE))
    import spans

    tr = spans.Tracer()
    # A query phase [0, 100) holding a client-side span [0, 90) and a
    # layer span [10, 60) with a child [20, 30); a verify phase is ignored.
    tr.spans = [
        (1, 0, "phase", 0, 100, None, "query", 0, None),
        (2, 0, "client.distances", 0, 90, None, "query", 0, None),
        (3, 2, "engine.submit", 10, 60, None, "query", 0, None),
        (4, 3, "kernels.relax", 20, 30, None, "query", 0, None),
        (5, 0, "phase", 100, 200, None, "verify", 0, None),
    ]
    assert tr.coverage() == pytest.approx(0.5)
    assert [s[0] for s in tr.within("kernels.relax", "engine.submit", "query")] == [4]
    assert tr.within("engine.submit", "kernels.relax", "query") == []


def test_layer_map_documents_every_per_layer_metric():
    readme = (HERE / "README.md").read_text()
    for m in SPEC["per_layer"]:
        assert f"`{m['name']}`" in readme, m["name"]
