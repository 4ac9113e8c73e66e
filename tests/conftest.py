"""Shared test configuration: prints one PASS/FAIL line per acceptance
criterion in the terminal summary, regardless of capture settings, and
provides the ``run_capped`` fixture."""

from __future__ import annotations

import re
import resource
import subprocess
import sys

import pytest

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
    taking the memory of the whole machine.
    """

    def limit():
        resource.setrlimit(resource.RLIMIT_DATA, (CHILD_MEMORY_CAP, CHILD_MEMORY_CAP))

    def run(*args):
        return subprocess.run([sys.executable, *args], capture_output=True,
                              text=True, preexec_fn=limit, timeout=300)

    return run
