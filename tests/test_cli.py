"""End-to-end CLI behavior: payload shapes, exit codes, determinism, and the
no-floats-in-JSON guarantee."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from cayleyiso import Cylinder, IntegerLattice, VertexSet, cli, save_set
from cayleyiso.cli import main

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


def save_block_set(tmp_path, name="blocks.json", n_blocks=1000):
    g = Cylinder(3)
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
    # 100 binds only the set, as it does for `growth`
    rc, payload, err = run_json(
        ["varopoulos", "--group", "free:2", "--random", "50", "--budget", "100"],
        capsys,
    )
    assert rc == 0, err
    assert payload["m"] == 4  # b(3) = 53 < 100 <= b(4) = 161
    assert payload["holds"] is True


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
    assert "budget" in err and "best so far" in err


def test_counterexample_find_budget_exceeded(capsys):
    rc, out, err = run(
        ["counterexample", "find", "--c", "1/100", "--budget", "3000"], capsys
    )
    assert rc == 1
    assert out == ""
    assert err.startswith("error:")
    assert "budget" in err and "best so far" in err


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
    # the sweep names the member that broke the claim
    rc, out, err = run(["sweep", "ratio", "--diag", "4"], capsys)
    assert rc == 2
    assert out.splitlines()[1] == "4,4,280,77,4,11/10"
    assert err == "claim violated: closed forms match enumeration at i=4, k=4\n"


def test_violation_exit_on_broken_torus_embedding(monkeypatch, capsys):
    # a depth that differs between the lattice and the torus host
    monkeypatch.setattr("cayleyiso.counterexample.depth",
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
        lambda host, sources, budget, max_radius: iter([set(sources)]),
    )
    rc, out, err = run(["ringlike", "check", "--group", "cyl:3"], capsys)
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


def test_jsonify_rejects_floats_directly():
    with pytest.raises(TypeError):
        cli._jsonify({"x": 1.5})


def _declared_console_script():
    """The ``(module, attr)`` target of the ``cayleyiso`` entry in
    ``[project.scripts]``; fails the test if it is missing or malformed."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
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
