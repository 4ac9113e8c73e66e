"""Smoke test of the benchmark: every workload with tiny inputs, untraced and
traced, plus the refusal to run without the sources.

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _results(stdout: str) -> list:
    lines = [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]
    return [line for line in lines if set(line) == {"correct", "attempted", "failed",
                                                    "metrics"}]


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_workload_smoke(trace, key):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "all", "--smoke",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    ran = [json.loads(line)["workload"] for line in proc.stdout.splitlines()
           if line.startswith('{"') and '"workload"' in line]
    assert set(WORKLOADS) <= set(ran)
    results = _results(proc.stdout)
    assert len(results) == len(ran)
    expected = {m["name"]: m["unit"] for m in SPEC[key]}
    for result in results:
        assert result["correct"] and result["failed"] == 0, result
        assert result["attempted"] >= 1
        got = {name: metric["unit"] for name, metric in result["metrics"].items()}
        assert got == expected
        assert all(isinstance(m["value"], (int, float))
                   for m in result["metrics"].values())


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, check=False,
    )
    assert proc.returncode != 0
    assert not _results(proc.stdout)
