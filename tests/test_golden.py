"""The benchmark's seed-0 outputs, checked in the suite: every operation of
each benchmarked workload gives the digest that ``bench/golden.json`` pins,
and the checks spanning several outputs pass. The CLI workload runs its
in-process twins (``cli.main``), so no interpreter is started."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
GOLDEN = json.loads((ROOT / "bench" / "golden.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def workloads():
    # loaded by path under a private name (its dataclasses look their module
    # up in sys.modules), and without writing bytecode under bench/
    name = "_cayleyiso_bench_workloads"
    spec = importlib.util.spec_from_file_location(name, ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    yield module
    del sys.modules[name]


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_seed_zero_outputs_match_the_golden_digests(name, workloads, tmp_path):
    assert GOLDEN["seed"] == workloads.DEFAULT_SEED == 0
    plan = workloads.WORKLOADS[name](0, False, tmp_path, 1)
    ops = plan.reference or plan.rounds[0]
    records = [op.run() for op in ops]
    digests = [workloads.digest(record) for record in records]
    mismatched = [op.name for op, d, g in zip(ops, digests, GOLDEN["full"][name]) if d != g]
    assert (len(digests), mismatched) == (len(GOLDEN["full"][name]), [])
    assert plan.check_round(records) == []
