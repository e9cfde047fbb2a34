"""Tests of the benchmark itself: smoke runs, metric names, failure paths.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_tiny_run_is_correct_and_reports_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def test_wrong_reference_value_fails_the_op(tmp_path):
    reference = json.loads(worker.REFERENCE.read_text())["workloads"]["certify"]
    key = "certify-s1-i0"
    wrong = {key: dict(reference[key], d2_star=reference[key]["d2_star"] + 1)}
    report = worker.run_workload("certify", 1, 0.1, False, wrong, str(tmp_path))
    assert report["attempted"] >= 1
    assert [f["key"] for f in report["failures"]] == [key]
    assert report["failures"][0]["error"].startswith("reference: d2_star")


def test_checkout_without_the_program_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "certify", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
