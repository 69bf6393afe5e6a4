"""Tiny-size smoke run of the benchmark harness.

    python3 -m pytest benchmarks/test_smoke.py -q

Each workload runs with ``--smoke`` (tiny sizes) untraced and traced.  The
test asserts that every end-to-end and per-layer metric named in
BENCHMARK.json is emitted with its unit, that the workload's own metric names
are printed, that the span file parses, and that the harness refuses to run
in a directory that holds only the benchmark.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH))
from spans import SPAN_NAMES, read_spans  # noqa: E402

PRINTED = {
    "mc-heavy": {"traj_stages_per_s": "1/s"},
    "mc-light": {"traj_stages_per_s": "1/s"},
    "certify": {"certify_cases_per_s": "1/s"},
    "exact-dp": {"dp_solve_s": "s", "scalar_stages_per_s": "1/s"},
}


def _run(workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    return lines, res


def _check_units(metrics: dict, spec: list[dict]):
    assert set(metrics) == {m["name"] for m in spec}
    for m in spec:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert isinstance(metrics[m["name"]]["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    lines, res = _result(_run(workload, 0))
    _check_units(res["metrics"], SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in res["metrics"].values())
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, _, unit, _, _ = line.split()
            printed[name] = unit
    expected = {"setup_s": "s", "peak_rss_mb": "MB", "failed_frac": "ratio",
                **PRINTED[workload]}
    assert printed == expected


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_span_file(workload):
    _, res = _result(_run(workload, 1))
    _check_units(res["metrics"], SPEC["per_layer"])
    doc = json.loads((BENCH / "out" / f"{workload}-seed3-trace1.json").read_text())
    spans = read_spans(ROOT / doc["span_file"])
    assert len(spans) == doc["spans"] > 0
    allowed = set(SPAN_NAMES) | {"benchmark.round", "benchmark.pace"}
    for k, (name, start, end, parent, _run_id) in enumerate(spans):
        assert name in allowed
        assert end >= start
        assert -1 <= parent < k


def test_refuses_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("mc-light", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
