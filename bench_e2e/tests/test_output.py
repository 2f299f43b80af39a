"""The contract with the driver: manifest limits and the result line."""

import json
import os
import re
import subprocess
import sys

import pytest

import run
from conftest import BENCH, ROOT

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def test_manifest_on_disk_is_the_generated_one():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        assert json.load(fh) == run.manifest()


def test_manifest_meets_the_contract_limits():
    doc = run.manifest()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["paths"] == ["bench_e2e"]
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOAD_NAMES)
    for workload in doc["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    names += [w["name"] for w in doc["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in doc["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    assert 1 <= len(doc["per_layer"]) <= 128
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    assert len(json.dumps(doc)) < 64 * 1024


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_shape(trace):
    """One smoke run end to end: spawns the real 2-daemon cluster."""
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         "write_sharing", "--seed", "3", "--seconds", "0.5", "--trace",
         str(trace), "--smoke"],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in run.manifest()[section]}
    assert set(result["metrics"]) == set(expected)
    for name, body in result["metrics"].items():
        assert set(body) == {"value", "unit"} and body["unit"] == expected[name]
        assert isinstance(body["value"], (int, float)), name
    assert "ops sha256" in done.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and bench_e2e/ there is
    nothing to measure: non-zero exit, no result line."""
    import shutil

    shutil.copytree(BENCH, tmp_path / "bench_e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "bench_e2e/run.py", "--workload", "read_cached",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
