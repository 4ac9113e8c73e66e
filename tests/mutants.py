"""Mutation probe for the checked inequalities, growth order and the
connectivity search, kept out of Tier-1.

Each mutant M1-M8 changes one token of a checked relation in
``src/cayleyiso``; M9 and M10 swap two steps of growth's in-line degree-4
step, which changes the order of the candidates, not their set; M11 leaves
the start vertex in the connectivity search's ``remaining``; M12 and M14
loosen the fill test of a standard cylinder's depth, to ``>=`` (equivalent,
as A and the boundary keys it counts lie in the rows it fills) and to
``<=``; M13 moves the interval cover's lowest block one block inwards from
the boundary's instead of t. The probe
copies the checkout to a temporary directory, applies one mutant there,
runs Tier-1 on the copy, ``tests/test_golden.py`` first as it kills
fastest, and prints ``caught`` and the first failing test when Tier-1
fails, or ``survived`` when it passes. It first runs Tier-1 on an
unmutated copy and stops if that fails. The checkout is never written.
Tier-1 stops at its first failure, so a caught mutant costs less than a
full run.

Run it from any directory, on a checkout whose Tier-1 passes:

    python tests/mutants.py          # all fourteen
    python tests/mutants.py M4 M8    # some of them

Pytest does not collect this file: its name lacks the ``test_`` prefix.
Tier-1 checks that each mutant's text occurs exactly once in its module
(``tests/test_package.py``), so a refactor that moves one fails there; the
copies leave that check out, as a mutated copy fails it by design.
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
    "M11": ("isoperimetry.py", "start = rest.pop()", "start = next(iter(rest))"),
    "M12": ("_cylinder.py", "len(keys) + len(holes) == top", "len(keys) + len(holes) >= top"),
    "M13": ("ringlike.py", "_block(min(A._boundary)) + t,", "_block(min(A._boundary)) + 1,"),
    "M14": ("_cylinder.py", "len(keys) + len(holes) == top", "len(keys) + len(holes) <= top"),
}

#: Tier-1 on a copy less the guard that a mutated copy fails by design;
#: ``-rfE`` lists the failing test. The probe appends the test files, the
#: golden digests first
GUARD = "tests/test_package.py::test_every_mutant_text_occurs_once_in_its_module"
TIER_1 = [sys.executable, "-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider",
          "--continue-on-collection-errors", "--deselect", GUARD]
GOLDEN = "tests/test_golden.py"

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


def probe(name=None):
    """The first test that fails on a copy of the checkout with mutant
    ``name`` applied (with none, on the copy as it is), or None when Tier-1
    passes there."""
    with tempfile.TemporaryDirectory(prefix="cayleyiso-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORED)
        if name is not None:
            apply(copy, name)
        # a directory argument would collect the golden file in name order
        files = sorted(path.relative_to(copy).as_posix() for path in copy.glob("tests/test_*.py"))
        files.remove(GOLDEN)
        # the copy's conftest puts the copy's src first on the import path
        run = subprocess.run([*TIER_1, GOLDEN, *files], cwd=copy, capture_output=True, text=True)
    if run.returncode == 0:
        return None
    # "FAILED <test id> - <message>"; a parametrized id may hold spaces
    failed = [line.split(" ", 1)[1].split(" - ", 1)[0] for line in run.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return failed[0] if failed else f"pytest exit status {run.returncode}"


def main(names) -> int:
    names = names or list(MUTANTS)
    unknown = [name for name in names if name not in MUTANTS]
    if unknown:
        raise SystemExit(f"unknown mutants {unknown}; choose from {list(MUTANTS)}")
    for name in misplaced(names):  # every text is checked before the first run
        module, text, _ = MUTANTS[name]
        raise SystemExit(f"{name}: {text!r} does not occur exactly once in {module}")
    failed = probe()
    if failed is not None:
        raise SystemExit(f"Tier-1 fails on the unmutated copy ({failed}): no mutant can be judged")
    for name in names:
        failed = probe(name)
        print(f"{name} survived" if failed is None else f"{name} caught {failed}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
