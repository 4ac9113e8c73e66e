"""End-to-end CLI behavior: payload shapes, exit codes, determinism, and the
no-floats-in-JSON guarantee."""

import argparse
import ast
import contextlib
import glob
import io
import json
import os
import shutil
import stat
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cayleyiso import (
    Cylinder, FreeGroup, IntegerLattice, VertexSet, _cli_parser, cli, groups, parse_group,
    save_set,
)
from cayleyiso.cli import main
from cayleyiso._zd import LATTICE_COORDINATE_BOUND
import oracles
from test_isoperimetry import DIFFERENTIAL_FAMILIES

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def run(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(argv, capsys):
    rc, out, err = run(argv, capsys)
    # floats must never appear in emitted JSON
    payload = json.loads(out, parse_float=_reject_float)
    return rc, payload, err


def _reject_float(text):
    raise AssertionError(f"float literal in JSON output: {text}")


def build_parser():
    """The argparse parser that ``main`` builds for help and usage errors."""
    return _cli_parser.build_parser(cli._COMMANDS, cli._COMMON, cli._ONE_OF)


def save_block_set(tmp_path, name="blocks.json", n_blocks=1000, g=Cylinder(3)):
    A = VertexSet(g, ((z, r) for z in range(n_blocks) for r in range(3)))
    path = tmp_path / name
    save_set(A, str(path))
    return str(path)


# --- growth ------------------------------------------------------------------


def test_growth_csv_default(capsys):
    rc, out, err = run(["growth", "--group", "z^2", "--max-radius", "4"], capsys)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "r,ballSize"
    assert lines[1] == "0,1"
    assert lines[3] == "2,13"
    assert len(lines) == 6


def test_growth_json(capsys):
    rc, payload, err = run_json(
        ["growth", "--group", "cyl:3", "--max-radius", "9", "--format", "json"],
        capsys,
    )
    assert rc == 0
    assert payload["group"] == "cyl:3"
    assert payload["branch"] == 1
    assert (payload["alpha"], payload["beta"]) == (6, 1)
    assert payload["ballSizes"][:3] == [1, 5, 11]


def test_growth_on_cylinder_with_a_huge_shift(run_capped):
    # generation is decided by integer arithmetic, not by a search whose box
    # grows with the shift
    proc = run_capped("-m", "cayleyiso.cli", "growth", "--group",
                      "cyl:3:[(1,0),(0,1),(1000000,0)]", "--max-radius", "2")
    assert proc.returncode == 0, proc.stderr
    # radius 2: 11 standard vertices, 5 around each of (+-10^6, 0), and
    # (+-2*10^6, 0)
    assert proc.stdout.splitlines() == ["r,ballSize", "0,1", "1,7", "2,23"]


def test_growth_branch2_json(capsys):
    rc, payload, _ = run_json(
        ["growth", "--group", "free:2", "--max-radius", "20", "--format", "json"],
        capsys,
    )
    assert rc == 0
    assert payload["branch"] == 2
    assert payload["alpha"] is None and payload["beta"] is None
    assert payload["ballSizes"][20] == 2 * 3 ** 20 - 1


# --- ball / boundary / depth -------------------------------------------------


def test_ball_and_emit_set(tmp_path, capsys):
    path = tmp_path / "ball.json"
    rc, payload, _ = run_json(
        ["ball", "--group", "z^2", "--radius", "2", "--emit-set", str(path)],
        capsys,
    )
    assert rc == 0
    assert payload == {"group": "z^2", "radius": 2, "size": 13}
    stored = json.loads(path.read_text())
    assert stored["group"] == "z^2"
    assert len(stored["vertices"]) == 13


def test_a_counted_ball_past_the_budget_is_refused_before_the_search(run_capped):
    # free:26 has b(4) = 7,035,809 and b(5) = 358,826,261: a BFS would hold
    # about 1.3 GB before it tripped the budget at radius 5, more than the
    # cap allows; the count refuses the ball first, with the BFS's error
    proc = run_capped("-m", "cayleyiso.cli", "ball", "--group", "free:26", "--radius", "6",
                      timeout=20)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == ("error: vertex budget 10000000 exceeded: "
                           "needs 10000001 vertices (complete up to radius 4)\n")


@pytest.mark.parametrize("command, needed", [
    (["boundary", "--random", "300000"], 15300002),
    (["depth", "--random", "1000000"], 51000002),
])
def test_free_group_growth_is_charged_before_it_runs(run_capped, command, needed):
    # a connected n-set in the 52-regular tree has 50n + 2 boundary vertices,
    # so growing it holds 51n + 2 keys: more than the cap allows
    proc = run_capped("-m", "cayleyiso.cli", *command, "--group", "free:26", timeout=20)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"error: vertex budget 10000000 exceeded: needs {needed} vertices\n"


def test_a_wide_standard_cylinder_counts_its_cohesiveness(run_capped):
    # a search would take about 5 * 10^9 vertices out to radius 50001
    proc = run_capped("-m", "cayleyiso.cli", "ringlike", "check", "--group", "cyl:100000",
                      timeout=20)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["q"] == 50001


def test_boundary_from_set_file(tmp_path, capsys):
    g = IntegerLattice(2)
    A = VertexSet(g, [(0, 0), (1, 0)])
    src = tmp_path / "a.json"
    save_set(A, str(src))
    out_set = tmp_path / "b.json"
    rc, payload, _ = run_json(
        ["boundary", "--set", str(src), "--emit-set", str(out_set)], capsys
    )
    assert rc == 0
    assert payload == {"group": "z^2", "sizeA": 2, "boundarySize": 6}
    stored = json.loads(out_set.read_text())
    assert len(stored["vertices"]) == 6


def test_depth_from_random_set(capsys):
    rc, payload, _ = run_json(
        ["depth", "--group", "z^2", "--random", "40", "--seed", "3"], capsys
    )
    assert rc == 0
    assert payload["group"] == "z^2"
    assert payload["sizeA"] == 40
    assert payload["depth"] >= 1


# --- varopoulos / separation -------------------------------------------------


def test_varopoulos_ok(capsys):
    rc, payload, err = run_json(
        ["varopoulos", "--group", "z^2", "--random", "60"], capsys
    )
    assert rc == 0
    assert payload["holds"] is True
    assert payload["lhs"] == 60
    assert err == ""


def test_varopoulos_on_free_group_counts_growth_outside_the_budget(capsys):
    # the free group's ball sizes are counted, not enumerated, so a budget of
    # 152 binds only the set, as it does for `growth`: growing 50 words
    # holds them and their 3 * 50 + 2 - 50 candidates
    command = ["varopoulos", "--group", "free:2", "--random", "50", "--budget"]
    rc, payload, err = run_json([*command, "152"], capsys)
    assert rc == 0, err
    assert payload["m"] == 4  # b(3) = 53 < 100 <= b(4) = 161
    assert payload["holds"] is True
    rc, out, err = run([*command, "151"], capsys)
    assert (rc, out) == (1, "")
    assert err == "error: vertex budget 151 exceeded: needs 152 vertices\n"


def test_counted_growth_on_lattices_and_cylinders_is_outside_the_budget(capsys):
    rc, payload, err = run_json(
        ["varopoulos", "--group", "z^2", "--random", "50", "--budget", "100"],
        capsys,
    )
    assert rc == 0, err
    assert payload["m"] == 7  # b(6) = 85 < 100 <= b(7) = 113
    assert payload["holds"] is True
    rc, payload, err = run_json(
        ["growth", "--group", "cyl:3", "--max-radius", "200", "--budget", "10",
         "--format", "json"],
        capsys,
    )
    assert rc == 0, err
    # all 3 residues at each |z| < 200, only residue 0 at z = +-200
    assert payload["ballSizes"][200] == 3 * 399 + 2
    # a non-standard cylinder still enumerates, so the budget binds there
    rc, _, err = run(
        ["growth", "--group", "cyl:4:[(2,1),(1,0)]", "--max-radius", "200",
         "--budget", "10"],
        capsys,
    )
    assert rc == 1 and "budget" in err


def test_growth_radius_has_a_cap_of_its_own(capsys):
    # counted sizes are outside the vertex budget, so the radius is capped
    cap = groups.MAX_PROFILE_RADIUS
    rc, out, err = run(["growth", "--group", "z^1", "--max-radius", str(cap + 1)], capsys)
    assert (rc, out) == (1, "")
    assert err == f"error: radius {cap + 1} exceeds the growth profile cap {cap}\n"
    rc, payload, _ = run_json(["growth", "--group", "z^1", "--max-radius", str(cap),
                               "--format", "json"], capsys)
    assert rc == 0 and payload["ballSizes"][-1] == 2 * cap + 1


def test_lattice_coordinates_past_the_bound_exit_one(tmp_path, capsys):
    # z^d keys hold every coordinate but the first as a digit below 2^38
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"group": "z^2", "vertices": [[0, 0], [0, 2**38]]}))
    rc, out, err = run(["depth", "--set", str(path)], capsys)
    assert (rc, out) == (1, "")
    assert err == f"error: (0, {2**38}) has a coordinate after the first of magnitude >= 2^38\n"
    path.write_text(json.dumps({"group": "z^2", "vertices": [[2**40, 0], [2**40, 2**38 - 1]]}))
    rc, payload, _ = run_json(["depth", "--set", str(path)], capsys)
    assert rc == 0 and payload["depth"] == 1


def test_emit_set_refuses_a_set_that_cannot_be_loaded(tmp_path, capsys):
    # the boundary of a member at the z^2 coordinate bound reaches 2^38
    edge = tmp_path / "edge.json"
    edge.write_text(json.dumps({"group": "z^2", "vertices": [[0, 2**38 - 1]]}))
    emitted = tmp_path / "b.json"
    rc, out, err = run(["boundary", "--set", str(edge), "--emit-set", str(emitted)], capsys)
    assert (rc, out) == (1, "")
    assert err == f"error: (0, {2**38}) has a coordinate after the first of magnitude >= 2^38\n"
    assert not emitted.exists()
    # the set it would have written does not load
    boundary_set = [[-1, 2**38 - 1], [0, 2**38 - 2], [0, 2**38], [1, 2**38 - 1]]
    emitted.write_text(json.dumps({"group": "z^2", "vertices": boundary_set}))
    rc, out, err = run(["depth", "--set", str(emitted)], capsys)
    assert (rc, out) == (1, "")
    assert err == f"error: (0, {2**38}) has a coordinate after the first of magnitude >= 2^38\n"


def test_separation_small_set(capsys):
    rc, payload, _ = run_json(
        ["separation", "--group", "z^2", "--random", "50"], capsys
    )
    assert rc == 0
    assert payload["branch"] == "SmallSet"
    assert [q["name"] for q in payload["inequalities"]][0] == "|A| <= 16k^2"


def test_separation_ring_like_set(tmp_path, capsys):
    rc, payload, err = run_json(
        ["separation", "--set", save_block_set(tmp_path)], capsys
    )
    assert rc == 0
    assert payload["branch"] == "RingLike"
    assert err == ""


# --- counterexample ----------------------------------------------------------


def test_counterexample_stats(capsys):
    rc, payload, err = run_json(
        ["counterexample", "stats", "--i", "2", "--k", "5"], capsys
    )
    assert rc == 0
    assert payload["sizeA"] == 105
    assert payload["ratio"] == "8/7"
    assert payload["closedFormsMatch"] is True
    assert payload["claimedSize"] == 84
    assert payload["claimedSizeMatches"] is False
    assert payload["depthMeetsHalfIBound"] is False
    assert err == ""


def test_counterexample_find(capsys):
    rc, payload, _ = run_json(["counterexample", "find", "--c", "1/2"], capsys)
    assert rc == 0
    assert payload["target"] == "1/2"
    assert (payload["i"], payload["k"]) == (9, 9)
    assert payload["ratio"] == "784/1665"
    # a target equal to A(9, 9)'s ratio passes it: the ratio must be below c
    rc, payload, _ = run_json(["counterexample", "find", "--c", "784/1665"], capsys)
    assert rc == 0
    assert (payload["i"], payload["k"], payload["ratio"]) == (11, 11, "35/88")


def test_counterexample_find_decimal_target(capsys):
    rc, payload, _ = run_json(["counterexample", "find", "--c", "0.5"], capsys)
    assert rc == 0
    assert (payload["i"], payload["k"]) == (9, 9)


def test_counterexample_torus(capsys):
    rc, payload, _ = run_json(
        ["counterexample", "torus", "--i", "2", "--k", "5"], capsys
    )
    assert rc == 0
    assert payload["n"] == 31
    assert payload["preserved"] is True
    assert payload["halfVolumeHolds"] is True


def test_counterexample_find_cap_exceeded(capsys):
    rc, out, err = run(
        ["counterexample", "find", "--c", "1/10", "--budget", "660"], capsys
    )
    assert rc == 1
    assert out == ""
    assert err.startswith("error:")
    # the budget counts the patch A(j, 3): 660 admits j = 8, not j = 9
    assert "budget" in err and "needs 780 vertices" in err


def test_counterexample_find_budget_exceeded(capsys):
    rc, out, err = run(
        ["counterexample", "find", "--c", "1/100", "--budget", "3000"], capsys
    )
    assert rc == 1
    assert out == ""
    assert err.startswith("error:")
    # the first patch past 3000 vertices is A(18, 3)
    assert "budget" in err and "needs 3021 vertices" in err


def test_counterexample_runs_past_the_full_member_budget(capsys):
    # A(200, 200) has 1.6 * 10^9 vertices, but stats builds its patch
    # A(200, 3); find --c 0.05 reaches j = 99, whose patch has 88,800
    rc, payload, err = run_json(["counterexample", "stats", "--i", "200", "--k", "200"], capsys)
    assert (rc, err) == (0, "")
    assert (payload["sizeA"], payload["depthOracle"]) == (40001**2 - 199**2, 200)
    assert payload["closedFormsMatch"] is True
    rc, payload, err = run_json(["counterexample", "find", "--c", "0.05"], capsys)
    assert (rc, err) == (0, "")
    assert (payload["i"], payload["k"], payload["closedFormsMatch"]) == (99, 99, True)


# --- ringlike ----------------------------------------------------------------


def test_ringlike_check(capsys):
    rc, payload, err = run_json(
        ["ringlike", "check", "--group", "cyl:3", "--window", "50"], capsys
    )
    assert rc == 0
    assert payload == {
        "group": "cyl:3",
        "s": 3,
        "t": 1,
        "q": 2,
        "qBound": 6,
        "window": 50,
        "partitionOk": True,
        "ringLikeOk": True,
        "cohesiveOk": True,
    }
    assert err == ""


def test_ringlike_cover(tmp_path, capsys):
    rc, payload, _ = run_json(
        ["ringlike", "cover", "--set", save_block_set(tmp_path)], capsys
    )
    assert rc == 0
    assert (payload["jLo"], payload["jHi"]) == (0, 999)
    assert (payload["slack"], payload["bound"]) == (0, 144)
    assert payload["holds"] is True


def test_ringlike_honours_budget(tmp_path, monkeypatch, capsys):
    # the cohesiveness BFS of cyl:3 with sheared generators visits 11
    # vertices, so 5 stops it
    sheared = Cylinder(3, [(1, 1), (0, 1)])
    rc, out, err = run(["ringlike", "check", "--group", sheared.family, "--budget", "5"],
                       capsys)
    assert (rc, out) == (1, "")
    assert err.startswith("error: vertex budget 5 exceeded")
    monkeypatch.setenv("ISO_BUDGET", "5")
    blocks = save_block_set(tmp_path, g=sheared)
    for command in (["ringlike", "cover"], ["separation"]):
        rc, out, err = run([*command, "--set", blocks], capsys)
        assert (rc, out) == (1, ""), command
        assert err.startswith("error: vertex budget 5 exceeded"), command


def test_ringlike_cover_rejects_lattice_set(capsys):
    rc, out, err = run(["ringlike", "cover", "--group", "z^2", "--random", "20"],
                       capsys)
    assert rc == 1
    assert "cylinder" in err


# --- sweep -------------------------------------------------------------------


def test_sweep_ratio_diag_csv(capsys):
    rc, out, _ = run(["sweep", "ratio", "--diag", "4,8"], capsys)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "i,k,sizeA,boundarySize,depthOracle,ratio"
    assert lines[1] == "4,4,280,77,4,11/10"
    assert lines[2].startswith("8,8,")


def test_sweep_ratio_rejects_a_diag_that_is_not_integers(capsys):
    rc, out, err = run(["sweep", "ratio", "--diag", "4,x"], capsys)
    assert (rc, out) == (1, "")
    assert err == "error: --diag expects comma-separated integers, got '4,x'\n"


def test_sweep_ratio_grid_json(capsys):
    rc, payload, _ = run_json(
        ["sweep", "ratio", "--imax", "3", "--kmax", "3", "--format", "json"],
        capsys,
    )
    assert rc == 0
    assert [(row["i"], row["k"]) for row in payload["rows"]] == [
        (2, 2), (2, 3), (3, 2), (3, 3),
    ]
    assert payload["rows"][0]["ratio"] == "7/4"


def test_sweep_ratio_requires_a_range(capsys):
    rc, out, err = run(["sweep", "ratio"], capsys)
    assert rc == 1
    assert "provide" in err


def test_sweep_ratio_refuses_a_range_past_the_budget_before_running_it(capsys, monkeypatch):
    # the largest member's patch, A(10^5, 3), is over the budget, so the
    # range is refused before its first member runs or its pairs are listed
    monkeypatch.delenv("ISO_BUDGET", raising=False)
    started = time.perf_counter()
    rc, out, err = run(["sweep", "ratio", "--imax", "100000", "--kmax", "100000"], capsys)
    assert time.perf_counter() - started < 0.5
    assert (rc, out) == (1, "")
    assert err == "error: vertex budget 10000000 exceeded: needs 90000599997 vertices\n"


# --- error paths -------------------------------------------------------------


def test_missing_set_file(capsys):
    rc, out, err = run(["depth", "--set", "/nonexistent/path.json"], capsys)
    assert rc == 1
    assert err.startswith("error:")


def test_bad_group_grammar(capsys):
    for argv in (["growth", "--group", "zzz^2"],
                 ["ringlike", "check", "--group", "cyl:3:[(1.9,0),(0,1)]"],
                 ["ringlike", "check", "--group", "cyl:3:[(True,0),(0,1)]"]):
        rc, out, err = run(argv, capsys)
        assert rc == 1
        assert err.startswith("error:")


def test_group_set_mismatch(tmp_path, capsys):
    path = save_block_set(tmp_path)
    rc, out, err = run(["depth", "--group", "z^2", "--set", path], capsys)
    assert rc == 1
    assert "does not match" in err


def test_set_and_random_are_mutually_exclusive(tmp_path, capsys):
    path = save_block_set(tmp_path)
    with pytest.raises(SystemExit) as exc_info:
        main(["depth", "--set", path, "--random", "10"])
    assert exc_info.value.code == 1


def test_usage_error_exits_one(capsys):
    for argv in (["no-such-command"],
                 ["separation", "--group", "cyl:3", "--random", "300",
                  "--window", "0"],
                 ["counterexample", "find", "--c", "0.5", "--cap", "5"]):
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == 1


def test_set_source_required(capsys):
    rc, out, err = run(["depth", "--group", "z^2"], capsys)
    assert rc == 1
    assert "--set" in err and "--random" in err


def test_random_requires_group(capsys):
    rc, out, err = run(["depth", "--random", "10"], capsys)
    assert rc == 1
    assert "--group" in err


def test_malformed_set_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    rc, out, err = run(["depth", "--set", str(path)], capsys)
    assert rc == 1
    assert err.startswith("error:")
    path.write_text('{"group": "z^2", "vertices": [[1.9, 0]]}')
    rc, out, err = run(["boundary", "--set", str(path)], capsys)
    assert (rc, out) == (1, "")
    assert err.startswith("error:")


def test_malformed_set_file_exits_one_with_one_error_line(tmp_path, capsys):
    # a non-string "group" and a nesting too deep for the JSON decoder
    for name, text in [("int.json", '{"group": 5, "vertices": []}'),
                       ("list.json", '{"group": ["z^2"], "vertices": []}'),
                       ("deep.json", '{"group": "z^2", "vertices": ' + "[" * 200_000)]:
        path = tmp_path / name
        path.write_text(text)
        rc, out, err = run(["depth", "--set", str(path)], capsys)
        assert (rc, out) == (1, ""), name
        assert err.startswith("error:") and err.count("\n") == 1, err
    assert str(path) in err


# JSON values of every type, nested a few levels
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=6),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=10,
)
# coordinates near 0, and at and past the bounds of z^d, tori and cylinders
COORDINATES = st.integers(-6, 6) | st.sampled_from([
    LATTICE_COORDINATE_BOUND - 1, LATTICE_COORDINATE_BOUND, 1 - LATTICE_COORDINATE_BOUND,
    -LATTICE_COORDINATE_BOUND, 10**15, -10**15, 2**64, -10**40])
# a vertex of the wrong type or length
MALFORMED_VERTICES = (st.lists(COORDINATES, max_size=4) | st.text(alphabet="abcAB?", max_size=5)
                      | JSON_VALUES)


def _set_files_on(family):
    """Set files of ``family`` whose vertices are well formed, out of bounds
    or unreduced ("aA") included, or also malformed; each file repeats its
    first two vertices."""
    g = parse_group(family)
    if isinstance(g, FreeGroup):
        vertex = st.text(alphabet="abAB", max_size=5)
    else:
        # 0 and 1 are valid coordinates on every host
        d = len(g.identity())
        vertex = st.lists(st.integers(0, 1) | COORDINATES, min_size=d, max_size=d)
    vertices = (st.lists(vertex, min_size=1, max_size=6)
                | st.lists(vertex | MALFORMED_VERTICES, max_size=6))
    return st.fixed_dictionaries(
        {"group": st.just(family), "vertices": vertices.map(lambda vs: vs + vs[:2])})


SET_FILES = st.sampled_from(DIFFERENTIAL_FAMILIES).flatmap(_set_files_on) | JSON_VALUES
SET_COMMANDS = [["boundary"], ["depth"], ["varopoulos"], ["separation"], ["ringlike", "cover"]]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(text=SET_FILES.map(json.dumps))
@example(text="[" * 10**5 + "]" * 10**5)
@example(text=json.dumps({"group": "free:2", "vertices": [[1, 2]]}))
def test_every_set_file_exits_with_a_code_and_at_most_one_error_line(text):
    # in process, twice per command: no exception leaves main, the exit
    # code is 0, 1 or 2, and stdout repeats
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "set.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        for command in SET_COMMANDS:
            outputs = []
            for _ in range(2):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = main([*command, "--set", path])
                assert rc in (0, 1, 2), command
                errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
                assert len(errors) <= 1, (command, errors)
                outputs.append(out.getvalue())
            assert outputs[0] == outputs[1], command


# a spec of each family with small numbers and a few at the grammar's edges,
# then up to three edits, each replacing a span of at most two characters
# with nothing or one character the grammar uses, or does not ("٣" and "²"
# are non-ASCII digits, "+" and "_" are read by int())
SPEC_NUMBERS = st.integers(0, 9).map(str) | st.sampled_from(["003", "26", "27", "2237", "9" * 5000])
VALID_SPECS = st.one_of(
    st.builds("z^{}".format, SPEC_NUMBERS),
    st.builds(lambda n, k: "torus:" + "x".join([n] * k), SPEC_NUMBERS, st.integers(1, 3)),
    st.builds("free:{}".format, SPEC_NUMBERS),
    st.builds("cyl:{}".format, SPEC_NUMBERS),
    st.builds("cyl:{}:{!r}".format, SPEC_NUMBERS,
              st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), max_size=4)),
)


@st.composite
def _mutated_specs(draw):
    text = draw(VALID_SPECS)
    for _ in range(draw(st.integers(0, 3))):
        i, cut = draw(st.integers(0, len(text))), draw(st.integers(0, 2))
        edit = draw(st.sampled_from(["", *"z^torusfreecyl:x0123456789[](),- \n٣²+_"]))
        text = text[:i] + edit + text[i + cut:]
    return text


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(text=_mutated_specs())
@example(text=" cyl:3:[(1,0),\n(0,1)]\n")  # a generator list over two lines
@example(text="free:2x2")  # only a torus takes sides
def test_every_group_string_names_its_family_or_exits_one(text):
    # parse_group dispatches on the family and loads its module: a string
    # either raises ValueError or gives a host that its own family string
    # gives again. It refuses as unknown grammar exactly the strings that
    # the grammar's pattern (oracles.GROUP_GRAMMAR) refuses, and reads the
    # numbers and generators that the pattern reads. ``growth`` then exits 0
    # on that host or 1 with one error line, never with a traceback. Radius
    # 1 would exit 1 on every string (the profile needs 2); --group=...
    # keeps a spec that starts with "-" from reading as a flag
    parts = oracles.group_spec_parts(text)
    try:
        g = parse_group(text)
    except ValueError as exc:
        g = None
        assert str(exc).startswith("unknown group grammar") == (parts is None), text
    else:
        assert parse_group(g.family) == g
        assert parts is not None, text
        family, numbers, gens = parts
        head = "z^" if family == "z" else f"{family}:"
        assert f"{g.family}:".startswith(f"{head}{'x'.join(str(int(n)) for n in numbers)}:")
        if family == "cyl":
            assert g == Cylinder(int(numbers[0]), None if gens is None else ast.literal_eval(gens))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["growth", f"--group={text}", "--max-radius", "2"])
    assert rc == (0 if g else 1), text
    assert "Traceback" not in err.getvalue()
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    assert len(errors) == rc and bool(out.getvalue()) == (rc == 0)


def test_error_lines_clip_echoed_values(tmp_path, capsys):
    # a malformed value of 2*10^5 items is echoed as a short prefix
    huge = list(range(200_000))
    for name, obj in [("group.json", {"group": huge, "vertices": []}),
                      ("lattice.json", {"group": "z^2", "vertices": [huge]}),
                      ("free.json", {"group": "free:2", "vertices": [huge]}),
                      ("word.json", {"group": "free:2", "vertices": ["ab" * 10**5 + "?"]})]:
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        rc, out, err = run(["depth", "--set", str(path)], capsys)
        assert (rc, out) == (1, ""), name
        assert err.startswith("error:") and err.count("\n") == 1, name
        assert len(err.encode()) < 300 and "..." in err, name
    rc, out, err = run(["growth", "--group", "z^" + "9" * 5000], capsys)
    assert (rc, out) == (1, "")
    assert err.startswith("error: number too long in group spec 'z^999")
    assert len(err.encode()) < 300 and "int_max_str_digits" not in err


def test_nested_cylinder_generators_exit_one(tmp_path, capsys):
    for name, gens in [("minus.json", "-" * 10**5 + "1"), ("plus.json", "1+" * 10**5 + "1")]:
        path = tmp_path / name
        path.write_text(json.dumps({"group": "cyl:3:" + gens, "vertices": []}))
        rc, out, err = run(["depth", "--set", str(path)], capsys)
        assert (rc, out) == (1, ""), name
        assert err.startswith("error: bad cylinder generators in 'cyl:3:"), name
        assert err.count("\n") == 1 and len(err.encode()) < 300, name


def test_find_refuses_a_target_with_too_many_digits(run_capped):
    # Fraction would build 10**e; a huge e is refused from the text
    limit = sys.get_int_max_str_digits()
    for c in ("1e999999999", "1e-999999999", "1e5000", f"1e{limit}", "0.5e-4300",
              "1e" + "9" * 5000):
        proc = run_capped("-m", "cayleyiso.cli", "counterexample", "find", "--c", c,
                          timeout=20)
        assert (proc.returncode, proc.stdout) == (1, ""), c
        assert proc.stderr.startswith(f"error: --c {c[:20]!r}"[:-1]), proc.stderr
        assert f"needs more than {limit} digits as p/q" in proc.stderr
        assert proc.stderr.count("\n") == 1 and "int_max_str_digits" not in proc.stderr
    # a zero mantissa is zero whatever its exponent
    proc = run_capped("-m", "cayleyiso.cli", "counterexample", "find", "--c", "0e999999999",
                      timeout=20)
    assert (proc.returncode, proc.stderr) == (1, "error: target ratio must be positive, got 0\n")


def test_a_patch_past_the_largest_object_is_refused_before_it_is_built(run_capped):
    # under a budget of 10^30, A(10^10, 3) fits the vertex count, but its
    # bitmap would take 1.1 * 10^20 bytes, more than sys.maxsize; find
    # reaches j = 5 * 10^12 in O(log j) steps, and the sweep the same stats
    huge = str(10**30)
    for command in (["counterexample", "stats", "--i", str(10**10), "--k", "3"],
                    ["counterexample", "find", "--c", "1e-12"],
                    ["sweep", "ratio", "--diag", str(10**10)]):
        proc = run_capped("-m", "cayleyiso.cli", *command, "--budget", huge, timeout=20)
        assert (proc.returncode, proc.stdout) == (1, ""), command
        assert proc.stderr.startswith("error: A("), proc.stderr
        assert proc.stderr.count("\n") == 1 and "more than one object can hold" in proc.stderr


def test_a_patch_past_the_memory_exits_with_one_error_line(run_capped, tmp_path):
    # under a budget of 10^30, A(10^9, 3) and the patch A(49999999, 3) that
    # find reaches for c = 10^-7 fit both the vertex count and sys.maxsize,
    # but their bitmaps (about 1.1 * 10^18 and 2.8 * 10^15 bytes) not the
    # child's cap
    out = tmp_path / "stats.json"
    for command in (["counterexample", "stats", "--i", str(10**9), "--k", "3", "--out", str(out)],
                    ["counterexample", "find", "--c", "1e-7"]):
        proc = run_capped("-m", "cayleyiso.cli", *command, "--budget", str(10**30), timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", "error: MemoryError\n")
    assert not out.exists() and list(tmp_path.iterdir()) == []


def test_find_targets_within_the_digit_limit_behave_as_before(capsys):
    rc, out, err = run(["counterexample", "find", "--c", "1e-3"], capsys)
    assert (rc, out) == (1, "")
    # the search stops at j = 1054, whose patch A(1054, 3) has 3163^2 - 4 vertices
    assert err == "error: vertex budget 10000000 exceeded: needs 10004565 vertices\n"
    for c in ("x", "1/0"):
        rc, out, err = run(["counterexample", "find", "--c", c], capsys)
        assert (rc, err) == (1, f"error: expected a rational number like 1/2 or 0.5, got {c!r}\n")
    limit = sys.get_int_max_str_digits()
    rc, payload, _ = run_json(["counterexample", "find", "--c", f"1e{limit - 1}"], capsys)
    assert rc == 0 and payload["target"] == f"{10 ** (limit - 1)}/1"
    assert (payload["i"], payload["k"]) == (2, 2)


def test_find_reports_a_long_target_without_an_exponent_by_its_digits(capsys):
    # a 1 followed by 5000 zeros is a rational; only its length is refused
    limit = sys.get_int_max_str_digits()
    c = "1" + "0" * 5000
    rc, out, err = run(["counterexample", "find", "--c", c], capsys)
    assert (rc, out) == (1, "")
    assert err == f"error: --c {repr(c)[:97]}... needs more than {limit} digits as p/q\n"


def test_dimension_guard(tmp_path, capsys, run_capped):
    rc, out, err = run(["growth", "--group", "z^2237"], capsys)
    assert (rc, out) == (1, "")
    assert err == "error: lattice dimension 2237 too large: needs 2d^2 <= 10000000\n"
    rc, payload, _ = run_json(["growth", "--group", "z^2236", "--format", "json",
                               "--max-radius", "2"], capsys)
    assert rc == 0 and payload["ballSizes"] == [1, 4473, 2 * 2236**2 + 2 * 2236 + 1]
    proc = run_capped("-m", "cayleyiso.cli", "ball", "--group", "z^2236", "--radius", "1",
                      timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["size"] == 4473
    # a set file of about 80 KB that names a 20000-dimensional torus
    path = tmp_path / "torus.json"
    path.write_text(json.dumps({"group": "torus:" + "x".join(["3"] * 20000),
                                "vertices": [[0] * 20000]}))
    proc = run_capped("-m", "cayleyiso.cli", "depth", "--set", str(path), timeout=60)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: torus dimension 20000 too large: needs 2d^2 <= 10000000\n"


def test_long_words_stay_linear(tmp_path, run_capped):
    # one word of 2*10^5 letters: reading, stepping and writing it are
    # linear in its length, so both commands finish well inside the timeout
    word = "ab" * 10**5
    path, emitted = tmp_path / "long.json", tmp_path / "boundary.json"
    path.write_text(json.dumps({"group": "free:2", "vertices": [word]}))
    proc = run_capped("-m", "cayleyiso.cli", "boundary", "--set", str(path),
                      "--emit-set", str(emitted), timeout=20)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["boundarySize"] == 4
    words = json.loads(emitted.read_text())["vertices"]
    assert words == [word[:-1], word + "A", word + "a", word + "b"]
    proc = run_capped("-m", "cayleyiso.cli", "separation", "--set", str(path), timeout=20)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert (report["sizeA"], report["boundarySize"], report["depth"]) == (1, 4, 1)


def _leaves(parser, path=()):
    """(command path, parser) of every leaf under ``parser``."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from _leaves(child, (*path, name))
            return
    yield " ".join(path), parser


def test_parser_shape():
    parser = build_parser()
    leaves = dict(_leaves(parser))
    assert len(leaves) == 12

    def accepting(flag):
        return {name for name, p in leaves.items() if flag in p._option_string_actions}

    assert accepting("--out") == accepting("--budget") == set(leaves)
    assert accepting("--emit-set") == {"ball", "boundary", "counterexample stats",
                                       "counterexample find", "counterexample torus"}
    assert accepting("--window") == {"ringlike check", "ringlike cover"}
    # every subparser is of the top parser's class, whose usage errors exit 1
    assert issubclass(type(parser), argparse.ArgumentParser)
    assert type(parser) is not argparse.ArgumentParser
    assert all(type(p) is type(parser) for p in leaves.values())


#: (words, flags) of every leaf in ``cli._COMMANDS``, its flags as the
#: ``(name, options)`` that the parser and the reader both read
LEAVES = [((name, *filter(None, [sub])), [*leaf[2:], *cli._COMMON])
          for name, spec in cli._COMMANDS.items()
          for sub, leaf in (spec[1].items() if isinstance(spec[1], dict) else [(None, spec)])]


def _well_formed(flags):
    """A value for each flag of ``flags`` that argparse accepts, flag first."""
    return [word for name, options in flags
            for word in (name, options.get("choices", ["3" if "type" in options else "x"])[-1])]


def test_a_well_formed_command_is_read_without_argparse():
    parser = build_parser()
    assert sorted(" ".join(words) for words, _ in LEAVES) == sorted(dict(_leaves(parser)))
    for words, flags in LEAVES:
        # every flag but --random (which --set excludes), in either order, or
        # the required ones alone
        chosen = [f for f in flags if f[0] != "--random"]
        every, backwards = _well_formed(chosen), _well_formed(chosen[::-1])
        required = _well_formed(f for f in flags if f[1].get("required"))
        for argv in ([*words, *every], (*words, *backwards), [*words, *required]):
            fast = cli._fast_args(argv)
            assert fast is not None, argv
            assert vars(fast) == vars(parser.parse_args(argv)), argv
        for tail in (["-h"], ["--"], every[:2], [every[0]], ["extra"]):
            assert cli._fast_args([*words, *every, *tail]) is None, (words, tail)
    # no argv, an option first or a word that names no leaf
    for argv in ([], ["--help"], ["bogus"], ["counterexample"],
                 ["counterexample", "statz"], ["counterexample", "-h", "stats"]):
        assert cli._fast_args(argv) is None, argv


# flags drawn from one leaf: mostly spelled whole with a value argparse may
# accept, else abbreviated, as --flag=value, without a value, or next to a
# stray word, "-h", "--help" or "--"; values at the edges of int() and of
# the --format choices. Repeats, missing required flags and --set with
# --random come from drawing flags with replacement
_ACCEPTED = st.integers(0, 10**30).map(str) | st.sampled_from(
    ["+5", "5_0", " 7", "7 ", " -2", "csv", "json", "z^2", "cyl:3", "", "x.json", "1/2"])
_VALUES = st.one_of(_ACCEPTED, _ACCEPTED, _ACCEPTED,
                    st.sampled_from(["-3", "9" * 5000, "٣", "3.0", "xml", "-", "-x"]))


@st.composite
def _command_lines(draw):
    words, flags = draw(st.sampled_from(LEAVES))
    argv, drawn = list(words), flags
    if draw(st.integers(0, 3)):
        argv += _well_formed(f for f in flags if f[1].get("required"))
        drawn = [f for f in flags if not f[1].get("required")]
    drawn = draw(st.permutations(drawn))[:draw(st.integers(0, 3))]
    if not draw(st.integers(0, 4)):
        drawn.append(draw(st.sampled_from(flags)))
    for name, _ in drawn:
        value = draw(_VALUES)
        form = draw(st.sampled_from(["whole"] * 6 + ["abbreviated", "=", "bare", "word"]))
        if form == "abbreviated":
            name = name[:draw(st.integers(3, len(name)))]
        argv += {"=": [f"{name}={value}"], "bare": [name],
                 "word": [draw(st.sampled_from([value, "-h", "--help", "--"]))]}.get(
            form, [name, value])
    return argv


_PARSER = build_parser()


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(argv=_command_lines())
def test_the_reader_gives_argparse_namespace_wherever_it_reads(argv):
    fast = cli._fast_args(argv)
    if fast is not None:
        assert vars(fast) == vars(_PARSER.parse_args(argv))


#: argv, exit code and a line of the help or usage error it writes
USAGE_CASES = [
    (["--help"], 0, "Isoperimetry on implicit Cayley graphs."),
    (["bogus"], 1, "cayleyiso: error: argument command: invalid choice: 'bogus' "),
    (["counterexample"], 1, "cayleyiso counterexample: error: the following arguments "
                            "are required: subcommand"),
    (["counterexample", "statz"], 1, "cayleyiso counterexample: error: argument "
                                     "subcommand: invalid choice: 'statz' "),
    (["counterexample", "stats", "--i", "2"], 1, "cayleyiso counterexample stats: error: "
                                                 "the following arguments are required: --k"),
    (["growth", "--group", "z^2", "extra"], 1, "cayleyiso: error: unrecognized arguments: extra"),
    (["sweep", "ratio", "-h"], 0, "usage: cayleyiso sweep ratio [-h] [--imax IMAX]"),
]


@pytest.mark.parametrize("argv, code, line", USAGE_CASES)
def test_help_and_usage_errors_read_as_from_the_whole_tree(argv, code, line, capsys):
    with pytest.raises(SystemExit) as whole:
        build_parser().parse_args(argv)
    expected = capsys.readouterr()
    with pytest.raises(SystemExit) as ran:
        main(argv)
    assert capsys.readouterr() == expected
    assert ran.value.code == whole.value.code == code
    assert any(out.startswith(line) for out in (expected.out + expected.err).splitlines())


# --- budgets -----------------------------------------------------------------


def test_iso_budget_env(monkeypatch, capsys):
    monkeypatch.setenv("ISO_BUDGET", "100")
    rc, out, err = run(["ball", "--group", "z^2", "--radius", "50"], capsys)
    assert rc == 1
    assert "budget" in err


def test_budget_flag_overrides_env(monkeypatch, capsys):
    monkeypatch.setenv("ISO_BUDGET", "100")
    rc, payload, _ = run_json(
        ["ball", "--group", "z^2", "--radius", "50", "--budget", "100000"],
        capsys,
    )
    assert rc == 0
    assert payload["size"] == 5101


def test_bad_iso_budget_env(monkeypatch, capsys):
    monkeypatch.setenv("ISO_BUDGET", "lots")
    rc, out, err = run(["ball", "--group", "z^2", "--radius", "2"], capsys)
    assert rc == 1
    assert "ISO_BUDGET" in err
    # a budget from the flag is held to the same rule, on counted hosts too,
    # and the message names where the budget came from
    monkeypatch.delenv("ISO_BUDGET")
    for argv, value in ((["ball", "--group", "z^2", "--radius", "1"], "0"),
                        (["growth", "--group", "z^2", "--max-radius", "5"], "-5")):
        rc, out, err = run([*argv, "--budget", value], capsys)
        assert (rc, out) == (1, "")
        assert err == f"error: --budget must be a positive integer, got {value}\n"


def test_random_size_checked_against_budget(capsys):
    rc, out, err = run(
        ["depth", "--group", "z^2", "--random", "1000", "--budget", "100"],
        capsys,
    )
    assert rc == 1
    assert "budget" in err


# --- claim violations exit 2 -------------------------------------------------


def test_violation_exit_on_broken_closed_form(monkeypatch, capsys):
    monkeypatch.setattr(
        "cayleyiso.counterexample.boundary_closed_form", lambda params: 1
    )
    rc, out, err = run(["counterexample", "stats", "--i", "2", "--k", "5"], capsys)
    assert rc == 2
    payload = json.loads(out)
    assert payload["closedFormsMatch"] is False
    assert "claim violated: closed forms match enumeration" in err
    rc, out, err = run(["counterexample", "find", "--c", "0.5"], capsys)
    assert rc == 2
    assert json.loads(out)["closedFormsMatch"] is False
    assert err == "claim violated: closed forms match enumeration\n"
    # the sweep names the member that broke the claim; stats reports the
    # member's size and boundary from the closed forms, so the row shows
    # the broken boundary
    rc, out, err = run(["sweep", "ratio", "--diag", "4"], capsys)
    assert rc == 2
    assert out.splitlines()[1] == "4,4,280,1,4,1/70"
    assert err == "claim violated: closed forms match enumeration at i=4, k=4\n"


def test_violation_exit_on_broken_torus_embedding(monkeypatch, capsys):
    # a depth that differs between the lattice and the torus host;
    # embed_torus imports it from isoperimetry when it runs
    monkeypatch.setattr("cayleyiso.isoperimetry.depth",
                        lambda A: 1 if A.host.is_finite else 2)
    rc, out, err = run(["counterexample", "torus", "--i", "2", "--k", "2"], capsys)
    assert rc == 2
    payload = json.loads(out)
    assert payload["preserved"] is False and payload["halfVolumeHolds"] is True
    assert err == "claim violated: embedding preserves (|A|, |boundary|, depth)\n"


def test_violation_exit_on_broken_varopoulos(monkeypatch, capsys):
    monkeypatch.setattr(
        "cayleyiso.isoperimetry.minimal_ball_radius",
        lambda host, threshold, budget=None: 0,
    )
    rc, out, err = run(["varopoulos", "--group", "z^2", "--random", "30"], capsys)
    assert rc == 2
    payload = json.loads(out)
    assert payload["holds"] is False
    assert "claim violated: |A| <= 2m|boundary(A)|" in err


def test_violation_exit_on_broken_cohesiveness(monkeypatch, capsys):
    # a BFS that reaches nothing past its source leaves every target at the cap
    monkeypatch.setattr(
        "cayleyiso.ringlike._bfs_levels",
        lambda host, sources, budget: iter([set(sources)]),
    )
    rc, out, err = run(["ringlike", "check", "--group", "cyl:3:[(1,1),(0,1)]"], capsys)
    assert rc == 2
    payload = json.loads(out)
    assert payload["cohesiveOk"] is False
    assert "claim violated: q <= 2st" in err


# --- output handling ---------------------------------------------------------


def test_out_flag_writes_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    rc, out, _ = run(
        ["counterexample", "stats", "--i", "2", "--k", "2", "--out", str(path)],
        capsys,
    )
    assert rc == 0
    assert out == ""
    payload = json.loads(path.read_text(), parse_float=_reject_float)
    assert payload["ratio"] == "7/4"


def test_output_errors_exit_one_and_write_nothing(tmp_path, capsys):
    rc, out, err = run(["ball", "--group", "z^2", "--radius", "1",
                        "--out", "/nonexistent/x.json"], capsys)
    assert (rc, out) == (1, "")
    assert err.startswith("error:") and err.count("\n") == 1
    # b(9100) of free:2 has more decimal digits than Python converts to text;
    # the text is rendered whole before anything is written
    path = tmp_path / "growth.json"
    for dest in (["--format", "csv"], ["--format", "json", "--out", str(path)]):
        rc, out, err = run(["growth", "--group", "free:2", "--max-radius", "9100",
                            *dest], capsys)
        assert (rc, out) == (1, "")
        assert err.startswith("error:") and err.count("\n") == 1
    assert not path.exists()


def test_failed_output_leaves_no_set_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc, out, err = run(["ball", "--group", "z^2", "--radius", "2", "--emit-set",
                        "s.json", "--out", "/nonexistent/x.json"], capsys)
    assert (rc, out) == (1, "")
    assert err == "error: [Errno 2] No such file or directory: '/nonexistent/x.json'\n"
    assert list(tmp_path.iterdir()) == []
    # both files land when both writes succeed, and no temporary is left
    rc, _, _ = run(["ball", "--group", "z^2", "--radius", "2", "--emit-set",
                    "s.json", "--out", "o.json"], capsys)
    assert rc == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["o.json", "s.json"]
    assert json.loads((tmp_path / "o.json").read_text())["size"] == 13


def test_a_failed_replace_names_the_target_and_leaves_no_temporary(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    Path("o.json").write_text("old\n")

    def refuse(src, dst):
        raise PermissionError(13, "Permission denied", src)

    monkeypatch.setattr(cli.os, "replace", refuse)
    rc, out, err = run(["ball", "--group", "z^2", "--radius", "2", "--emit-set",
                        "s.json", "--out", "o.json"], capsys)
    assert (rc, out) == (1, "")
    assert err == "error: [Errno 13] Permission denied: 's.json'\n"
    assert sorted(os.listdir()) == ["o.json"]
    assert Path("o.json").read_text() == "old\n"


def test_output_to_a_device_writes_through_it(capsys, run_capped):
    rc, out, err = run(["ball", "--group", "z^2", "--radius", "2", "--emit-set",
                        os.devnull, "--out", os.devnull], capsys)
    assert (rc, out, err) == (0, "", "")
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
    assert glob.glob(os.devnull + ".*.tmp") == []
    # /dev/stdout is a symlink to a pipe here; the text goes through it
    proc = run_capped("-m", "cayleyiso.cli", "ball", "--group", "z^2",
                      "--radius", "2", "--out", "/dev/stdout")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["size"] == 13


def test_output_replaces_the_file_a_symlink_names(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("real.json").write_text("old\n")
    os.chmod("real.json", 0o640)
    os.symlink("real.json", "link.json")
    rc, _, _ = run(["ball", "--group", "z^2", "--radius", "2",
                    "--out", "link.json"], capsys)
    assert rc == 0
    assert os.path.islink("link.json")
    assert json.loads(Path("real.json").read_text())["size"] == 13
    assert stat.S_IMODE(os.stat("real.json").st_mode) == 0o640
    # the same path for both files: the output is written last, as before
    rc, _, _ = run(["ball", "--group", "z^2", "--radius", "2", "--emit-set",
                    "same.json", "--out", "same.json"], capsys)
    assert rc == 0
    assert json.loads(Path("same.json").read_text())["size"] == 13
    assert sorted(os.listdir()) == ["link.json", "real.json", "same.json"]


def test_output_is_deterministic(tmp_path, capsys):
    argv = ["separation", "--group", "cyl:3", "--random", "120", "--seed", "9"]
    rc1, out1, _ = run(argv, capsys)
    rc2, out2, _ = run(argv, capsys)
    assert (rc1, rc2) == (0, 0)
    assert out1 == out2

    argv = ["sweep", "ratio", "--diag", "4,8,16"]
    rc1, out1, _ = run(argv, capsys)
    rc2, out2, _ = run(argv, capsys)
    assert out1 == out2


def test_no_floats_anywhere_in_json_payloads(capsys):
    # parse_float raising inside run_json is the guard; exercise the payloads
    # with rationals in them
    run_json(["counterexample", "stats", "--i", "3", "--k", "3"], capsys)
    run_json(["sweep", "ratio", "--diag", "4,8", "--format", "json"], capsys)


def test_json_text_rejects_floats_directly():
    with pytest.raises(TypeError, match="refusing to serialize a float"):
        cli._json_text({"x": 1.5})


def test_json_text_refuses_a_value_that_json_has_no_form_for():
    # a set has no order to write it in, and no handler returns one
    with pytest.raises(TypeError, match=r"^cannot serialize set value \{7\}$"):
        cli._json_text({"x": [{7}]})


def test_json_text_writes_rationals_as_p_over_q():
    assert cli._json_text(Fraction(1, 3)) == '"1/3"'
    assert cli._json_text({"r": [Fraction(-2, 4), Fraction(6, 3)]}) == json.dumps(
        {"r": ["-1/2", "2/1"]}, indent=2)
    with pytest.raises(TypeError):
        cli._json_text([Fraction(1, 3), 1 / 3])


def _p_over_q(payload):
    """``payload`` with every Fraction written "p/q", as ``json.dumps`` reads it."""
    if isinstance(payload, Fraction):
        return f"{payload.numerator}/{payload.denominator}"
    if isinstance(payload, dict):
        return {k: _p_over_q(v) for k, v in payload.items()}
    if isinstance(payload, (list, tuple)):
        return [_p_over_q(x) for x in payload]
    return payload


# strings drawn whole, and from the characters json escapes or passes through
_TEXT = st.text() | st.text(st.sampled_from('ab "\\/\n\t\x00\x1f\x7f\x80é€\U0001f600'))
_PAYLOADS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-10**1000, 10**1000)
    | _TEXT | st.fractions(),
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=20)


@settings(derandomize=True, database=None, max_examples=400)
@given(_PAYLOADS)
def test_json_text_is_json_dumps_with_rationals_as_strings(payload):
    # the CLI writes JSON without loading json: its text must be that of
    # json.dumps(indent=2) byte for byte, and a float anywhere is refused
    assert cli._json_text(payload) == json.dumps(_p_over_q(payload), indent=2)
    with pytest.raises(TypeError, match="refusing to serialize a float"):
        cli._json_text({"payload": payload, "x": [0.5]})


def _declared_console_script():
    """The ``(module, attr)`` target of the ``cayleyiso`` entry in
    ``[project.scripts]``; fails the test if it is missing or malformed."""
    import tomllib

    with open(PYPROJECT, "rb") as f:
        scripts = tomllib.load(f).get("project", {}).get("scripts", {})
    if "cayleyiso" not in scripts:
        pytest.fail("pyproject.toml [project.scripts] declares no `cayleyiso`")
    target = scripts["cayleyiso"]
    module, _, attr = target.partition(":")
    if not (all(part.isidentifier() for part in module.split("."))
            and attr.isidentifier()):
        pytest.fail(f"`cayleyiso` target {target!r} is not of the form module:attr")
    return module, attr


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "cayleyiso.cli", "growth", "--group", "z^1",
         "--max-radius", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "r,ballSize"

    # Run the declared entry point the way pip's generated wrapper does, so a
    # checkout without the installed script still checks the declaration.
    module, attr = _declared_console_script()
    argv = ["ball", "--group", "free:2", "--radius", "2"]
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys; from {module} import {attr}; sys.exit({attr}())", *argv],
        capture_output=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["size"] == 17

    # Where the package is installed, its generated script must agree byte
    # for byte.
    script = shutil.which("cayleyiso")
    if script is not None:
        installed = subprocess.run([script, *argv], capture_output=True)
        assert installed.returncode == 0
        assert installed.stdout == proc.stdout


def _modules_loaded_by(*argv, code=0, line=None):
    """The modules loaded by a fresh interpreter, where importing numpy fails,
    once ``cli.main(argv)`` has returned ``code`` or exited with it, having
    written a line that starts with ``line`` where one is given; the
    PYTHONPATH set by conftest points it at the checkout. The probe itself
    loads no module that a command might, json included."""
    probe = ("import sys\n"
             "sys.modules['numpy'] = None\n"
             "from cayleyiso import cli\n"
             "try:\n"
             f"    code = cli.main({list(argv)!r})\n"
             "except SystemExit as stop:\n"
             "    code = stop.code\n"
             "print(repr([code, sorted(sys.modules)]), file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    *written, last = (proc.stdout + proc.stderr).splitlines()
    returned, modules = ast.literal_eval(last)
    assert returned == code, proc.stderr
    assert line is None or any(out.startswith(line) for out in written), proc.stdout
    return set(modules)


def test_no_subcommand_loads_numpy():
    def loaded(*argv):
        return {m.removeprefix("cayleyiso.") for m in _modules_loaded_by(*argv)}

    # the probe sees the bitmap kernels load
    assert "_grid" in loaded("counterexample", "stats", "--i", "3", "--k", "3")
    loaded("counterexample", "find", "--c", "1/2")
    loaded("counterexample", "torus", "--i", "2", "--k", "2")
    loaded("sweep", "ratio", "--diag", "4,8")
    growth = loaded("growth", "--group", "z^2", "--max-radius", "5")
    assert growth.isdisjoint({"isoperimetry", "counterexample", "ringlike"})
    for command in ("boundary", "depth"):
        modules = loaded(command, "--group", "z^2", "--random", "30")
        assert "isoperimetry" in modules
        assert modules.isdisjoint({"counterexample", "ringlike"})


#: the module of each host family
FAMILY_MODULES = {"cayleyiso._zd", "cayleyiso._torus", "cayleyiso._cylinder", "cayleyiso._free"}
#: the CLI's handler modules, one per kind of command
HANDLER_MODULES = {"cayleyiso._cli_sets", "cayleyiso._cli_hosts", "cayleyiso._cli_grid"}


def test_a_command_loads_only_the_modules_it_uses(tmp_path):
    # dataclasses (which loads inspect, dis, ast and tokenize), csv and
    # argparse load under no command, fractions only where a rational is
    # made, json only where a set file is read or written, ast only to read
    # a cylinder's generator list, isoperimetry under counterexample and
    # sweep only where a set is built, and the bitmap kernels under
    # counterexample and sweep, and where a depth is taken on a bitmap host:
    # z^2 is one, z^1 (closed form) is not. groups loads only where a
    # command builds a host, and then with the module of that host's family
    # alone, and _lattice with z^d, tori and cylinders. Each command loads
    # the one handler module its leaf names, the argparse builder loads only
    # for help and usage errors, and the file writer only for --out or
    # --emit-set
    emitted = str(tmp_path / "set.json")
    source = str(tmp_path / "source.json")
    save_set(VertexSet(IntegerLattice(2), [(0, 0), (1, 0), (1, 1)]), source)
    runs = {  # each command and the family modules it loads; torus compares z^2 with a torus
        "growth": (["growth", "--group", "z^2", "--max-radius", "3"], "_zd"),
        "growth free:2": (["growth", "--group", "free:2", "--max-radius", "3",
                           "--format", "json"], "_free"),
        "depth free:2": (["depth", "--group", "free:2", "--random", "30"], "_free"),
        "growth json": (["growth", "--group", "z^2", "--max-radius", "3", "--format", "json"],
                        "_zd"),
        "growth cyl:m:[...]": (["growth", "--group", "cyl:3:[(1,0),(0,1)]", "--format", "json"],
                               "_cylinder"),
        "ball": (["ball", "--group", "cyl:3", "--radius", "2"], "_cylinder"),
        "ball --out": (["ball", "--group", "cyl:3", "--radius", "2", "--out",
                        str(tmp_path / "out.json")], "_cylinder"),
        **{name: ([name, "--group", "z^2", "--random", "30"], "_zd")
           for name in ("boundary", "depth", "varopoulos", "separation")},
        **{f"{name} z^1": ([name, "--group", "z^1", "--random", "300"], "_zd")
           for name in ("depth", "separation")},
        "depth --set": (["depth", "--set", source], "_zd"),
        "counterexample stats": (["counterexample", "stats", "--i", "3", "--k", "3"], ""),
        "counterexample stats --emit-set": (["counterexample", "stats", "--i", "3", "--k", "3",
                                             "--emit-set", emitted], "_zd"),
        "counterexample find": (["counterexample", "find", "--c", "1/2"], ""),
        "counterexample torus": (["counterexample", "torus", "--i", "2", "--k", "2"],
                                 "_zd _torus"),
        "ringlike check": (["ringlike", "check", "--group", "cyl:3"], "_cylinder"),
        "ringlike cover": (["ringlike", "cover", "--group", "cyl:3", "--random", "30"],
                           "_cylinder"),
        "sweep ratio": (["sweep", "ratio", "--diag", "4,8"], ""),
        "sweep ratio json": (["sweep", "ratio", "--diag", "4,8", "--format", "json"], ""),
    }
    loaded = {name: _modules_loaded_by(*argv) for name, (argv, _) in runs.items()}

    def loading(module):
        return {name for name, modules in loaded.items() if module in modules}

    assert loading("dataclasses") == set()
    # a well-formed command is read without argparse, and so without gettext
    # and locale, which argparse loads; help and usage errors still load it
    assert loading("argparse") == loading("gettext") == loading("locale") == set()
    assert loading("cayleyiso._cli_parser") == set()
    for argv, code, line in USAGE_CASES:
        modules = _modules_loaded_by(*argv, code=code, line=line)
        assert {"argparse", "cayleyiso._cli_parser"} <= modules, argv
    # every leaf runs, and loads its own handler module and no other
    leaves = {name: cli._leaf_path(argv) for name, (argv, _) in runs.items()}
    assert len({words for words, _ in leaves.values()}) == len(LEAVES) == 12
    for name, (_, spec) in leaves.items():
        assert loaded[name] & HANDLER_MODULES == {f"cayleyiso.{spec[0][0]}"}, name
    assert loading("cayleyiso._cli_write") == {"ball --out", "counterexample stats --emit-set"}
    assert loading("fractions") == {name for name in runs if name.startswith(("counter", "sweep"))}
    assert loading("csv") == set()
    assert loading("json") == {"depth --set", "counterexample stats --emit-set"}
    assert loading("ast") == {"growth cyl:m:[...]"}
    assert loading("cayleyiso.isoperimetry") == {
        "boundary", "depth", "varopoulos", "separation", "depth z^1", "separation z^1",
        "depth free:2", "depth --set", "counterexample stats --emit-set",
        "counterexample torus", "ringlike check", "ringlike cover"}
    hostless = {name for name, (_, families) in runs.items() if not families}
    assert hostless == {"counterexample stats", "counterexample find", "sweep ratio",
                        "sweep ratio json"}
    assert loading("cayleyiso.groups") == set(runs) - hostless
    for name, (_, families) in runs.items():
        assert loaded[name] & FAMILY_MODULES == {f"cayleyiso.{m}" for m in families.split()}, name
    assert loading("cayleyiso._lattice") == set(runs) - hostless - loading("cayleyiso._free")
    assert loading("cayleyiso._grid") == {
        name for name in runs if name.startswith(("counter", "sweep"))} | {
        "depth", "separation", "depth --set"}
    # a free group is refused before any lattice family loads
    refused = _modules_loaded_by("ringlike", "check", "--group", "free:2", code=1)
    assert refused & FAMILY_MODULES == {"cayleyiso._free"}
    assert "cayleyiso._lattice" not in refused
