"""The benchmark's workloads: inputs made from a seed, a fixed list of
operations, and the checks every output must pass.

Library calls go through module attributes (``iso.boundary(A)``), never
through names bound when this module loads, so that the traced run's
wrappers see every call. An operation returns a JSON-able record (bytes for
CLI output) that is digested and compared against the golden digests, and
raises ``CheckFailed`` when an output breaks an invariant that holds for
every seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import re
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, List, Optional, Tuple

import cayleyiso.cli as cli
import cayleyiso.counterexample as cx
import cayleyiso.groups as groups
import cayleyiso.isoperimetry as iso

DEFAULT_SEED = 0
ROOT = Path(__file__).resolve().parent.parent


class CheckFailed(Exception):
    """An output broke an invariant the library guarantees for every input."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    name: str
    run: Callable[[], object]


@dataclass
class Plan:
    """``rounds`` holds the timed list once per round: the same operations
    on the same inputs, each round on freshly parsed hosts, so that state a
    host object keeps starts cold in every round. ``reference`` holds
    in-process twins whose records must equal those of a round one for one;
    the traced run times them in place of a round, because spans cannot
    reach a subprocess. ``check_round`` returns the indices of operations
    that fail a check spanning several outputs. ``kernel`` names the
    calibration kernel of ``speed.py`` that does this workload's kind of
    work."""

    rounds: List[List[Op]]
    kernel: str
    reference: Optional[List[Op]] = None
    check_round: Callable[[list], List[int]] = field(default=lambda records: [])


def digest(record) -> str:
    if not isinstance(record, bytes):
        record = json.dumps(record, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(record).hexdigest()


def _log_steps(count: int, top: int) -> List[int]:
    """``count`` distinct integers from 1 to ``top``, spaced geometrically."""
    steps: List[int] = []
    for i in range(count):
        target = round(top ** (i / (count - 1)))
        steps.append(max(target, steps[-1] + 1) if steps else target)
    return steps


# --- varopoulos_sweep -------------------------------------------------------
# Many small sets on a few shared hosts: every set pays its own
# minimal_ball_radius BFS (and, on cyl:3, its own cyclic_system), so host
# work repeated per set dominates and the bitmap kernels never run.

SWEEP_HOSTS = ("z^2", "z^1", "free:2", "cyl:3")
SMALL_COPIES = 3


def _sweep_op(host, size: int, set_seed: int) -> Op:
    def run():
        A = iso.random_connected_set(host, size, seed=set_seed)
        require(len(A) == size, f"grew {len(A)} vertices, asked for {size}")
        var = iso.varopoulos_check(A)
        require(var.holds and var.lhs == size, f"Varopoulos {var}")
        sep = iso.classify_separation(A)
        require(not sep.violations(), f"separation violations {sep.violations()}")
        return [host.family, size, set_seed, var.to_dict(), sep.to_dict()]

    return Op(f"sweep {host.family} n={size} seed={set_seed}", run)


def varopoulos_sweep(seed: int, smoke: bool, workdir: Path, rounds: int) -> Plan:
    # fourteen sizes per host from 100 to 10^4, a subset of acceptance
    # criterion 05; with the default seed the first set of each size is the
    # one criterion 05 grows for it. Sizes up to 10^3 get SMALL_COPIES sets
    # each, so that most operations are small, as in a sweep over many
    # small sets, and the median latency falls among many similar ones.
    steps = _log_steps(4, 5) if smoke else _log_steps(14, 100)
    plan = Plan([], "python")
    for _ in range(rounds):
        hosts = {family: groups.parse_group(family) for family in SWEEP_HOSTS}
        plan.rounds.append([
            _sweep_op(hosts[family], 100 * step, step - 1 + 1000 * seed + 100 * copy)
            for step in steps
            for copy in range(SMALL_COPIES if step <= 10 else 1)
            for family in SWEEP_HOSTS
        ])
    return plan


# --- large_sets -------------------------------------------------------------
# The same set calculus as the sweep, but one call per host, on sets larger
# than the per-core caches, grown during set-up.

LARGE_SETS = (("z^2", 30_000), ("cyl:3", 30_000), ("free:2", 10_000),
              ("torus:300x300", 30_000))
SMOKE_LARGE_SETS = (("z^2", 300), ("cyl:3", 300), ("free:2", 200),
                    ("torus:20x20", 150))
# every choice has ki = 120, so the square has 121^2 points and the torus
# side n = 3ki + 1 is the same
EMBED_PARAMS = ((4, 30), (6, 20), (8, 15), (10, 12), (12, 10), (15, 8), (20, 6))


def _set_ops(A) -> List[Op]:
    family, size = A.host.family, len(A)

    def boundary():
        return [family, "boundary", len(iso.boundary(A))]

    def depth():
        d = iso.depth(A)
        require(d >= 1, f"depth {d}")
        return [family, "depth", d]

    def connected():
        require(iso.is_connected_with_boundary(A), "closure not connected")
        return [family, "connected", True]

    def varopoulos():
        var = iso.varopoulos_check(A)
        require(var.holds and var.lhs == size, f"Varopoulos {var}")
        return [family, "varopoulos", var.to_dict()]

    def separation():
        sep = iso.classify_separation(A)
        require(not sep.violations(), f"separation violations {sep.violations()}")
        return [family, "separation", sep.to_dict()]

    runs = [boundary, depth, connected]
    if not A.host.is_finite:
        runs += [varopoulos, separation]
    return [Op(f"{run.__name__} {family} n={size}", run) for run in runs]


def _embed_op(i: int, k: int) -> Op:
    def run():
        report = cx.embed_torus(cx.GridParams(i, k)).report
        require(report.preserved and report.halfVolumeHolds, f"embedding {report}")
        return report.to_dict()

    return Op(f"embed_torus i={i} k={k}", run)


def large_sets(seed: int, smoke: bool, workdir: Path, rounds: int) -> Plan:
    rng = random.Random(seed)
    grown = [
        iso.random_connected_set(groups.parse_group(family), size,
                                 seed=rng.randrange(2**31))
        for family, size in (SMOKE_LARGE_SETS if smoke else LARGE_SETS)
    ]
    i, k = (2, 3) if smoke else rng.choice(EMBED_PARAMS)
    plan = Plan([], "python")
    for _ in range(rounds):
        ops = []
        for A in grown:
            ops += _set_ops(iso.VertexSet(groups.parse_group(A.host.family), A))
        plan.rounds.append(ops + [_embed_op(i, k)])
    return plan


# --- perforated_family ------------------------------------------------------
# The numpy bitmap path (_grid) and nothing else: memory-bound, with the
# peak set by the largest member.

LADDER = (4, 8, 16, 32, 64)
FIND_EXPECTED = ((Fraction(1, 2), 9, Fraction(784, 1665)), (Fraction(1, 10), 49, None))
PERFORATED_BUDGET = 30_000_000


def _grid_params(rng: random.Random, side: int) -> Tuple[int, int]:
    """(i, k) with ki = ``side``, both >= 2 and at most twice sqrt(side):
    the seed picks the member, the bitmap size stays fixed, so the seed does
    not change the cost."""
    pairs = [(i, side // i) for i in range(2, side // 2 + 1)
             if side % i == 0 and max(i, side // i) <= 2 * math.isqrt(side)]
    return rng.choice(pairs)


def _stats_op(i: int, k: int) -> Op:
    def run():
        st = cx.stats(cx.GridParams(i, k), budget=PERFORATED_BUDGET)
        require(st.closedFormsMatch, f"closed forms at i={i}, k={k}")
        return ["stats", st.to_dict()]

    return Op(f"stats i={i} k={k}", run)


def _find_op(target: Fraction, j: int, ratio: Optional[Fraction]) -> Op:
    def run():
        params, st = cx.find_params(target)
        require(params == cx.GridParams(j, j), f"find {target} gave {params}")
        require(ratio is None or st.ratio == ratio, f"find {target} ratio {st.ratio}")
        require(st.ratio < target and st.closedFormsMatch, f"find {target} {st}")
        return ["find", str(target), st.to_dict()]

    return Op(f"find_params {target}", run)


def _diagonal_check(records: list) -> List[int]:
    """Diagonal ratios fall strictly with j within each parity of j (odd
    members sit below their even successors, so the whole diagonal is not
    monotone)."""
    rows = sorted(
        (rec[1]["i"], Fraction(rec[1]["ratio"]), index)
        for index, rec in enumerate(records)
        if rec is not None and rec[0] == "stats" and rec[1]["i"] == rec[1]["k"]
    )
    bad = []
    for parity in (0, 1):
        chain = [row for row in rows if row[0] % 2 == parity]
        for (j0, r0, _), (j1, r1, index) in zip(chain, chain[1:]):
            if j1 > j0 and not r1 < r0:
                bad.append(index)
    return bad


def perforated_family(seed: int, smoke: bool, workdir: Path, rounds: int) -> Plan:
    rng = random.Random(seed)
    ladder = (4, 8) if smoke else LADDER
    # the criterion 03 diagonal ladder, plus one member A(i, k) with
    # ki = 4t^2 for each t, the size of the diagonal member j = 2t; for
    # t <= 10 SMALL_COPIES members each, so that the median latency falls
    # among many similar operations
    sides = [4 * t * t for t in range(1, 4 if smoke else 21)]
    params = [(j, j) for j in ladder] + [
        _grid_params(rng, side)
        for side in sides for _ in range(SMALL_COPIES if side <= 400 else 1)
    ]
    ops = [_stats_op(i, k) for i, k in sorted(params, key=lambda ik: (ik[0] * ik[1], ik))]
    ops += [_find_op(*expected) for expected in FIND_EXPECTED[:1 if smoke else 2]]
    return Plan([ops] * rounds, "numpy", check_round=_diagonal_check)


# --- cli_batch --------------------------------------------------------------
# Fresh interpreters running short commands: start-up (mostly importing
# numpy), argparse and JSON/CSV emission dominate, which no in-process
# workload sees.


def _console_entry() -> str:
    """Python source that runs the [project.scripts] target of pyproject.toml,
    as the installed ``cayleyiso`` script would."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    match = re.search(r'^cayleyiso\s*=\s*"([\w.]+):(\w+)"', text, re.MULTILINE)
    if match is None:
        raise RuntimeError("no cayleyiso entry in [project.scripts]")
    module, attr = match.groups()
    return f"import sys; from {module} import {attr}; sys.exit({attr}())"


def _cli_argvs(rng: random.Random, smoke: bool, workdir: Path) -> List[List[str]]:
    """The command lines of one round. Sizes are fixed; the seed picks the
    random sets' seeds and which perforated member of a fixed size to use,
    so it changes the outputs but not the cost."""

    def size(full, tiny):
        return str(tiny if smoke else full)

    def seed():
        return str(rng.randrange(1000))

    def grid(side):
        i, k = _grid_params(rng, side)
        return ["--i", str(i), "--k", str(k)]

    ball_z2, ball_free, ball_cyl = (str(workdir / f"ball_{name}.json")
                                    for name in ("z2", "free", "cyl"))
    argvs = [
        ["growth", "--group", "z^2", "--max-radius", size(20, 5)],
        ["growth", "--group", "free:2", "--format", "json", "--max-radius", size(20, 5)],
        ["ball", "--group", "z^2", "--radius", size(12, 4), "--emit-set", ball_z2],
        ["boundary", "--set", ball_z2],
        ["depth", "--set", ball_z2],
        ["varopoulos", "--group", "cyl:3", "--random", size(500, 30), "--seed", seed()],
        ["counterexample", "stats", *grid(36 if not smoke else 4)],
        ["ringlike", "check", "--group", "cyl:2", "--window", size(40, 10)],
    ]
    if smoke:
        return argvs
    return argvs + [
        ["growth", "--group", "z^1", "--max-radius", "20"],
        ["growth", "--group", "cyl:3", "--format", "json", "--max-radius", "20"],
        ["growth", "--group", "z^3", "--format", "json", "--max-radius", "8"],
        ["separation", "--set", ball_z2],
        ["ball", "--group", "free:2", "--radius", "4", "--emit-set", ball_free],
        ["boundary", "--set", ball_free],
        ["depth", "--set", ball_free],
        ["separation", "--set", ball_free],
        ["ball", "--group", "cyl:3", "--radius", "30", "--emit-set", ball_cyl],
        ["boundary", "--set", ball_cyl],
        ["depth", "--set", ball_cyl],
        ["separation", "--set", ball_cyl],
        ["varopoulos", "--group", "z^2", "--random", "500", "--seed", seed()],
        ["varopoulos", "--group", "z^1", "--random", "500", "--seed", seed()],
        ["varopoulos", "--group", "free:2", "--random", "500", "--seed", seed()],
        ["depth", "--group", "cyl:3", "--random", "500", "--seed", seed()],
        ["boundary", "--group", "torus:31x31", "--random", "300", "--seed", seed()],
        ["separation", "--group", "z^2", "--random", "500", "--seed", seed()],
        ["counterexample", "stats", *grid(64)],
        ["counterexample", "torus", *grid(8)],
        ["counterexample", "find", "--c", "0.5"],
        ["ringlike", "check", "--group", "cyl:3", "--window", "50"],
        ["ringlike", "cover", "--group", "cyl:3", "--random", "400", "--seed", seed()],
        ["ringlike", "cover", "--group", "cyl:2", "--random", "400", "--seed", seed()],
        ["sweep", "ratio", "--diag", "4,8,16"],
        ["sweep", "ratio", "--imax", "4", "--kmax", "5", "--format", "json"],
    ]


def _cli_subprocess_op(entry: str, argv: List[str]) -> Op:
    def run():
        proc = subprocess.run([sys.executable, "-c", entry, *argv],
                              capture_output=True, cwd=ROOT, check=False)
        require(proc.returncode == 0,
                f"exit {proc.returncode}: {proc.stderr.decode(errors='replace')[-300:]}")
        return proc.stdout

    return Op("cayleyiso " + " ".join(argv), run)


def _cli_inprocess_op(argv: List[str]) -> Op:
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        require(code == 0, f"in-process exit {code}")
        return buf.getvalue().encode()

    return Op("cli.main " + " ".join(argv), run)


def cli_batch(seed: int, smoke: bool, workdir: Path, rounds: int) -> Plan:
    argvs = _cli_argvs(random.Random(seed), smoke, workdir)
    entry = _console_entry()
    ops = [_cli_subprocess_op(entry, argv) for argv in argvs]
    return Plan([ops] * rounds, "spawn",
                reference=[_cli_inprocess_op(argv) for argv in argvs])


WORKLOADS = {
    "varopoulos_sweep": varopoulos_sweep,
    "large_sets": large_sets,
    "perforated_family": perforated_family,
    "cli_batch": cli_batch,
}
