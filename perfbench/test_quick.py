"""
Test of the benchmark itself on tiny inputs.

    python3 -m pytest -q perfbench/test_quick.py

Run from the root of a source checkout.  Each workload runs in quick
mode with tracing off and on; the result line must follow the schema
and carry exactly the metrics and units that BENCHMARK.json declares.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads(Path("BENCHMARK.json").read_text())
RUN = str(HERE / "run.py")
DECLARED = [m for kind in ("end_to_end", "per_layer") for m in SPEC[kind]]


def test_spec_names_are_unique():
    names = [m["name"] for m in DECLARED]
    assert len(names) == len(set(names))
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])


def test_metric_catalogue_matches_spec():
    catalogue = json.loads((HERE / "metrics.json").read_text())["metrics"]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in catalogue] == [
        (m["name"], m["unit"], m["better"], m.get("bound"))
        for m in DECLARED]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_run(workload, trace):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--quick"],
        capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"],
                    "unit": m["unit"]} for m in declared}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_missing_sources_fail(tmp_path):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", "enum", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
