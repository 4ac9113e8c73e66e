"""Mutation probe for the checked inequalities and growth order, kept out of Tier-1.

Each mutant M1-M8 changes one token of a checked relation in
``src/cayleyiso``; M9 and M10 swap two steps of growth's in-line degree-4
step, which changes the order of the candidates, not their set. The probe
copies the checkout to a temporary directory, applies one mutant there,
runs Tier-1 on the copy and prints ``caught`` when Tier-1 fails or
``survived`` when it passes. The checkout is never written. Tier-1 stops
at its first failure, so a caught mutant costs less than a full run.

Run it from any directory, on a checkout whose Tier-1 passes:

    python tests/mutants.py          # all ten
    python tests/mutants.py M4 M8    # some of them

Pytest does not collect this file: its name lacks the ``test_`` prefix.
Tier-1 checks that each mutant's text occurs exactly once in its module
(``tests/test_package.py``), so a refactor that moves one fails there.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: each mutant: the module, the text it changes, which occurs there exactly
#: once, and the changed text
MUTANTS = {
    "M1": ("isoperimetry.py", "VaropoulosReport(m, lhs <= rhs,", "VaropoulosReport(m, lhs < rhs,"),
    "M2": ("isoperimetry.py", "small = size <= 16 * k * k", "small = size < 16 * k * k"),
    "M3": ("isoperimetry.py", "d * d < 32 * k * k,", "d * d <= 32 * k * k,"),
    "M4": ("ringlike.py", "slack <= bound)", "slack < bound)"),
    "M5": ("ringlike.py", "window, q <= 2 * s * t)", "window, q < 2 * s * t)"),
    "M6": ("isoperimetry.py", "minimal_ball_radius(A.host, 2 * len(A),",
           "minimal_ball_radius(A.host, 2 * len(A) - 1,"),
    "M7": ("ringlike.py", "bound = 2 * s * s * t * t * k + 2 * s * t * k",
           "bound = 2 * s * s * t * t * k + 2 * s * t * k + 1"),
    "M8": ("counterexample.py", "bd * q < p * enumerated_size(member)",
           "bd * q <= p * enumerated_size(member)"),
    "M9": ("_free.py", "extend((base + x, base + y, base + z))",
           "extend((base + y, base + x, base + z))"),
    "M10": ("_lattice.py", "a, b, c, d = rows[v % period]", "b, a, c, d = rows[v % period]"),
}

TIER_1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
          "--continue-on-collection-errors"]

#: what the copy leaves out: version control, caches and benchmark output
IGNORED = shutil.ignore_patterns(".git", "__pycache__", "*.pyc", ".hypothesis",
                                 ".pytest_cache", ".bench_out", ".benchmarks", "*.egg-info")


def misplaced(names) -> list:
    """The mutants among ``names`` whose text does not occur exactly once in
    their module of this checkout."""
    return [name for name in names
            if (ROOT / "src" / "cayleyiso" / MUTANTS[name][0]).read_text(encoding="utf-8")
            .count(MUTANTS[name][1]) != 1]


def apply(copy: Path, name: str) -> None:
    """Apply mutant ``name`` to the checkout at ``copy``."""
    module, text, mutated = MUTANTS[name]
    path = copy / "src" / "cayleyiso" / module
    path.write_text(path.read_text(encoding="utf-8").replace(text, mutated), encoding="utf-8")


def probe(name: str) -> bool:
    """Whether Tier-1 fails on a copy of the checkout with mutant ``name``."""
    with tempfile.TemporaryDirectory(prefix="cayleyiso-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORED)
        apply(copy, name)
        # the copy's conftest puts the copy's src first on the import path
        run = subprocess.run(TIER_1, cwd=copy, capture_output=True)
    return run.returncode != 0


def main(names) -> int:
    names = names or list(MUTANTS)
    unknown = [name for name in names if name not in MUTANTS]
    if unknown:
        raise SystemExit(f"unknown mutants {unknown}; choose from {list(MUTANTS)}")
    for name in misplaced(names):  # every text is checked before the first run
        module, text, _ = MUTANTS[name]
        raise SystemExit(f"{name}: {text!r} does not occur exactly once in {module}")
    for name in names:
        print(f"{name} {'caught' if probe(name) else 'survived'}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
