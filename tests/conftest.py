"""Shared test configuration: imports the package from ``src``, loads one
hypothesis profile for the whole suite, prints one PASS/FAIL line per
acceptance criterion in the terminal summary, regardless of capture
settings, and provides the ``run_capped`` fixture."""

from __future__ import annotations

import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

# The suite tests the checkout, not an installed copy, so `python -m pytest`
# needs no install and no PYTHONPATH: src goes first on this process's path
# and on the PYTHONPATH that subprocesses (run_capped, the CLI runs) inherit.
SRC = str(Path(__file__).resolve().parent.parent / "src")
sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p
)

# every property test draws the same examples on every run, and none writes
# an example database into the checkout; each test keeps its own max_examples
settings.register_profile("cayleyiso", derandomize=True, database=None)
settings.load_profile("cayleyiso")

# pytester runs a test session of its own (test_settings.py)
pytest_plugins = ["pytester"]

CHILD_MEMORY_CAP = 1 << 30

_CRITERIA: dict = {}
_PATTERN = re.compile(r"test_acceptance\.py::(test_criterion_\d+\w*)")


def pytest_runtest_logreport(report):
    m = _PATTERN.search(report.nodeid)
    if not m:
        return
    name = m.group(1)
    if report.failed:
        _CRITERIA[name] = "FAIL"
    elif report.when == "call" and _CRITERIA.get(name) != "FAIL":
        _CRITERIA[name] = "PASS" if report.passed else report.outcome.upper()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(_CRITERIA):
        terminalreporter.write_line(f"{name}: {_CRITERIA[name]}")


@pytest.fixture
def run_capped():
    """Run ``python ARGS`` in a child whose data segment is capped at 1 GiB.

    For inputs that stay small only because a search stops early: if that
    regresses to unbounded work, the child fails with MemoryError instead of
    taking the memory of the whole machine. ``timeout`` (seconds, 300 by
    default) bounds the child's run time the same way.
    """

    def limit():
        resource.setrlimit(resource.RLIMIT_DATA, (CHILD_MEMORY_CAP, CHILD_MEMORY_CAP))

    def run(*args, timeout=300):
        return subprocess.run([sys.executable, *args], capture_output=True,
                              text=True, preexec_fn=limit, timeout=timeout)

    return run
