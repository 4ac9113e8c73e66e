"""Boundary, depth, closure connectivity, Varopoulos, and the separation
classifier, checked against slow per-vertex oracles."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cayleyiso import (
    Cylinder,
    FreeGroup,
    IntegerLattice,
    InvalidVertexError,
    Torus,
    VertexSet,
    ball,
    boundary,
    classify_separation,
    counterexample,
    depth,
    is_connected_with_boundary,
    load_set,
    random_connected_set,
    save_set,
    varopoulos_check,
)
from cayleyiso import isoperimetry
from cayleyiso.counterexample import GridParams
from cayleyiso.isoperimetry import set_from_json_obj

Z2 = IntegerLattice(2)

INFINITE_FAMILIES = [IntegerLattice(2), IntegerLattice(1), FreeGroup(2), Cylinder(3)]


def perforated(i, k):
    return counterexample.build(GridParams(i, k))


# --- boundary ----------------------------------------------------------------


def test_boundary_of_singleton():
    A = VertexSet(Z2, [(0, 0)])
    assert boundary(A).elements == {(1, 0), (-1, 0), (0, 1), (0, -1)}


def test_boundary_of_perforated_grid():
    A = perforated(2, 5)
    assert len(boundary(A)) == 60


def test_boundary_of_full_torus_is_empty():
    g = Torus(31, 2)
    A = VertexSet(g, ((x, y) for x in range(31) for y in range(31)))
    assert len(boundary(A)) == 0


def test_boundary_rejects_empty_set():
    with pytest.raises(ValueError):
        boundary(VertexSet(Z2, []))


def test_boundary_matches_distance_definition_on_random_sets():
    # both definitions of the boundary agree on 100 random connected sets
    # per family
    for g in INFINITE_FAMILIES + [Torus(11, 2)]:
        for seed in range(100):
            A = random_connected_set(g, 1 + (seed * 7) % 40, seed=seed)
            assert boundary(A).elements == oracles.boundary_by_distance(
                g, A.elements
            )


# --- depth -------------------------------------------------------------------


def test_depth_of_singleton_is_one():
    assert depth(VertexSet(Z2, [(0, 0)])) == 1


def test_depth_of_three_by_three_square():
    A = VertexSet(Z2, ((x, y) for x in range(3) for y in range(3)))
    assert depth(A) == 2


def test_depth_of_perforated_grid():
    assert depth(perforated(2, 5)) == 2


def test_depth_rejects_empty_and_full_sets():
    with pytest.raises(ValueError):
        depth(VertexSet(Z2, []))
    g = Torus(5, 2)
    full = VertexSet(g, ((x, y) for x in range(5) for y in range(5)))
    with pytest.raises(ValueError):
        depth(full)


def test_depth_matches_per_vertex_oracle_on_random_sets():
    for g in INFINITE_FAMILIES + [Torus(11, 2)]:
        cap = g.vertex_count - 1 if g.is_finite else 10**9
        for seed in range(12):
            A = random_connected_set(g, min(5 + seed * 11, cap), seed=seed)
            assert depth(A) == oracles.per_vertex_depth(g, A.elements)


def test_depth_of_disconnected_set():
    A = VertexSet(Z2, [(0, 0), (10, 10), (10, 11)])
    assert depth(A) == 1
    assert depth(A) == oracles.per_vertex_depth(Z2, A.elements)


def test_depth_of_lattice_balls_is_radius_plus_one():
    for g in (IntegerLattice(1), IntegerLattice(2)):
        for r in range(0, 21, 4):
            A = VertexSet(g, ball(g, g.identity(), r))
            assert depth(A) == r + 1


# --- closure connectivity ----------------------------------------------------


def test_closure_connectivity_examples():
    assert is_connected_with_boundary(VertexSet(Z2, [(0, 0)]))
    assert not is_connected_with_boundary(VertexSet(Z2, [(0, 0), (5, 5)]))
    # a diagonal gap is bridged by the shared boundary vertex
    assert is_connected_with_boundary(VertexSet(Z2, [(0, 0), (1, 1)]))
    assert is_connected_with_boundary(perforated(2, 5))


def test_closure_connectivity_on_torus():
    g = Torus(7, 2)
    A = VertexSet(g, [(0, 0), (3, 3)])
    assert not is_connected_with_boundary(A)


def test_closure_connectivity_matches_oracle():
    # random connected sets, unions of two random sets at independent random
    # places, and random subsets of a ball; the last two kinds include sets
    # whose closure is disconnected
    rng = random.Random(7)
    for g in INFINITE_FAMILIES + [Torus(11, 2)]:
        radius = 3 if isinstance(g, FreeGroup) else 4
        around = sorted(ball(g, g.identity(), radius), key=g.sort_key)
        verdicts = set()
        for seed in range(30):
            single = random_connected_set(g, 1 + seed * 3, seed=seed).elements
            far = oracles.random_vertex(g, rng)
            pair = random_connected_set(g, 1 + seed % 15, seed=seed).elements | (
                random_connected_set(g, 1 + seed % 7, seed=seed, start=far).elements
            )
            subset = [v for v in around if rng.random() < 0.5] or [g.identity()]
            for points in (single, pair, subset):
                closure = set(points) | oracles.boundary_by_distance(g, points)
                expected = oracles.connected_within(g, closure)
                assert is_connected_with_boundary(VertexSet(g, points)) == expected
                verdicts.add(expected)
        assert verdicts == {True, False}


# --- varopoulos --------------------------------------------------------------


def test_varopoulos_on_perforated_grid():
    report = varopoulos_check(perforated(2, 5))
    assert report == (10, True, 105, 1200)
    assert report.m == 10  # b(9) = 181 < 2|A| = 210 <= b(10) = 221


def test_varopoulos_on_singleton():
    report = varopoulos_check(VertexSet(Z2, [(0, 0)]))
    assert report == (1, True, 1, 8)


def test_varopoulos_on_free_ball():
    g = FreeGroup(2)
    A = VertexSet(g, ball(g, (), 2))
    report = varopoulos_check(A)
    assert len(boundary(A)) == 36
    assert report == (3, True, 17, 216)


def test_varopoulos_rejects_finite_host():
    g = Torus(5, 2)
    with pytest.raises(ValueError):
        varopoulos_check(VertexSet(g, [(0, 0)]))


def test_varopoulos_holds_on_random_sets():
    for g in INFINITE_FAMILIES:
        for seed in range(20):
            A = random_connected_set(g, 1 + seed * 97, seed=seed)
            assert varopoulos_check(A).holds


# --- separation --------------------------------------------------------------


def test_separation_small_set_on_perforated_grid():
    report = classify_separation(perforated(2, 5))
    assert report.branch == "SmallSet"
    assert report.sizeA == 105
    assert report.boundarySize == 60
    assert report.depth == 2
    assert report.connectedAUnionBoundary
    by_name = {q.name: q for q in report.inequalities}
    size_ineq = by_name["|A| <= 16k^2"]
    assert (size_ineq.lhs, size_ineq.rhs, size_ineq.holds) == (105, 57600, True)
    assert size_ineq.required
    depth_ineq = by_name["depth^2 < 32k^2"]
    assert (depth_ineq.lhs, depth_ineq.rhs, depth_ineq.holds) == (4, 115200, True)
    assert depth_ineq.required
    assert report.violations() == []


def test_separation_on_lattice_ball():
    A = VertexSet(Z2, ball(Z2, (0, 0), 10))
    report = classify_separation(A)
    assert report.branch == "SmallSet"
    assert report.sizeA == 221
    assert report.boundarySize == 44
    assert report.depth == 11


def test_separation_small_cylinder_set_records_failed_depth_bound():
    # on a two-ended host the depth bound is informational, not required:
    # a long thin block set is small (|A| <= 16k^2) but deep
    g = Cylinder(3)
    A = VertexSet(g, ((z, r) for z in range(100) for r in range(3)))
    report = classify_separation(A)
    assert report.branch == "SmallSet"
    assert report.boundarySize == 6
    assert report.depth == 50
    depth_ineq = {q.name: q for q in report.inequalities}["depth^2 < 32k^2"]
    assert not depth_ineq.holds
    assert not depth_ineq.required
    assert report.violations() == []


def test_separation_ring_like_cylinder_set():
    g = Cylinder(3)
    A = VertexSet(g, ((z, r) for z in range(1000) for r in range(3)))
    report = classify_separation(A)
    assert report.branch == "RingLike"
    assert report.sizeA == 3000
    assert report.boundarySize == 6
    names = [q.name for q in report.inequalities]
    assert names == ["|A| <= 16k^2", "q <= 2st", "|Q\\A| <= 2s^2t^2k + 2stk"]
    assert not report.inequalities[0].holds
    assert not report.inequalities[0].required
    assert all(q.holds and q.required for q in report.inequalities[1:])
    assert report.violations() == []


def test_separation_ring_like_on_z1_has_no_delegated_checks():
    g = IntegerLattice(1)
    A = VertexSet(g, ((x,) for x in range(200)))
    report = classify_separation(A)
    assert report.branch == "RingLike"
    assert report.boundarySize == 2
    assert len(report.inequalities) == 1


def test_separation_rejects_disconnected_closure_and_finite_host():
    with pytest.raises(ValueError):
        classify_separation(VertexSet(Z2, [(0, 0), (5, 5)]))
    g = Torus(7, 2)
    with pytest.raises(ValueError):
        classify_separation(VertexSet(g, [(0, 0)]))


def test_separation_small_branch_on_one_ended_and_tree_hosts():
    for g in (IntegerLattice(2), FreeGroup(2)):
        for seed in range(25):
            A = random_connected_set(g, 1 + seed * 37, seed=seed)
            report = classify_separation(A)
            assert report.branch == "SmallSet"
            assert all(q.holds for q in report.inequalities)
            assert report.violations() == []


def test_separation_report_serialization():
    d = classify_separation(perforated(2, 2)).to_dict()
    assert list(d) == [
        "group",
        "sizeA",
        "boundarySize",
        "depth",
        "connectedAUnionBoundary",
        "branch",
        "inequalities",
    ]
    assert d["group"] == "z^2"
    assert all(
        list(q) == ["name", "lhs", "rhs", "holds", "required"]
        for q in d["inequalities"]
    )


def test_a_set_computes_its_boundary_once(monkeypatch):
    calls = []

    def counted(A):
        calls.append(len(A))
        return original(A)

    original = isoperimetry._boundary_elements
    monkeypatch.setattr(isoperimetry, "_boundary_elements", counted)
    for g in INFINITE_FAMILIES:
        A = random_connected_set(g, 200, seed=7)
        var = varopoulos_check(A)
        sep = classify_separation(A)
        assert var.rhs == 2 * var.m * sep.boundarySize == 2 * var.m * len(boundary(A))
        assert sep.depth == depth(A) and is_connected_with_boundary(A)
    assert calls == [200] * len(INFINITE_FAMILIES)


def _count_validations(monkeypatch, *hosts):
    """Record every vertex that ``validate_vertex`` checks on these hosts' classes."""
    calls = []
    for cls in {type(g) for g in hosts}:
        def counted(self, v, original=cls.validate_vertex):
            calls.append(v)
            return original(self, v)

        monkeypatch.setattr(cls, "validate_vertex", counted)
    return calls


def test_the_set_calculus_validates_only_the_start_vertex(monkeypatch):
    hosts = [IntegerLattice(2), FreeGroup(2), Cylinder(3)]
    calls = _count_validations(monkeypatch, *hosts)
    for g in hosts:
        calls.clear()
        A = random_connected_set(g, 300, seed=3)
        assert varopoulos_check(A).holds
        classify_separation(A)
        assert calls == [g.identity()]


def test_sets_the_library_builds_are_not_validated_again(monkeypatch, capsys):
    from cayleyiso import cli, ringlike

    host = Cylinder(3)
    A = random_connected_set(host, 300, seed=3)
    system = ringlike.cyclic_system(host)
    obj = A.to_json_obj()
    calls = _count_validations(monkeypatch, Z2, host, Torus(3, 2))
    boundary(A)
    ringlike.interval_cover(system, A)
    counterexample.build(GridParams(3, 3))
    assert calls == []
    assert cli.main(["ball", "--group", "z^2", "--radius", "3"]) == 0
    assert calls == [(0, 0)]  # the center, checked by ``ball``
    calls.clear()
    assert set_from_json_obj(obj) == A
    assert len(calls) == len(A)  # once per item, by vertex_from_json
    calls.clear()
    # the torus set is checked: that is what shows it lies in [0, n)^2
    embedding = counterexample.embed_torus(GridParams(2, 2))
    assert len(calls) == len(embedding.vertex_set)


# --- random connected sets ---------------------------------------------------


def test_random_set_is_connected_and_sized():
    for g in INFINITE_FAMILIES + [Torus(13, 2)]:
        for seed in (0, 1, 7):
            A = random_connected_set(g, 150, seed=seed)
            assert len(A) == 150
            assert oracles.connected_within(g, A.elements)


def test_random_set_is_deterministic_per_seed():
    g = IntegerLattice(2)
    a = random_connected_set(g, 300, seed=5)
    b = random_connected_set(g, 300, seed=5)
    c = random_connected_set(g, 300, seed=6)
    assert a.elements == b.elements
    assert a.elements != c.elements


def test_random_set_custom_start():
    A = random_connected_set(Z2, 10, seed=0, start=(100, -4))
    assert (100, -4) in A


def test_random_set_size_validation():
    with pytest.raises(ValueError):
        random_connected_set(Z2, 0)
    with pytest.raises(ValueError):
        random_connected_set(Torus(3, 2), 10)


# --- vertex sets and set files -----------------------------------------------


def test_vertex_set_validates_and_deduplicates():
    A = VertexSet(Z2, [(0, 0), (0, 0), (1, 0)])
    assert len(A) == 2
    with pytest.raises(InvalidVertexError):
        VertexSet(Torus(5, 2), [(5, 0)])


def test_set_file_round_trip(tmp_path):
    for g, size in [(Z2, 40), (FreeGroup(2), 25), (Cylinder(3), 30),
                    (Torus(9, 2), 20)]:
        A = random_connected_set(g, size, seed=3)
        path = tmp_path / f"{g.family.replace(':', '_').replace('[', '').replace(']', '')}.json"
        save_set(A, str(path))
        B = load_set(str(path))
        assert B.host.family == g.family
        assert B.elements == A.elements


def test_set_file_free_group_uses_word_strings(tmp_path):
    g = FreeGroup(2)
    A = VertexSet(g, [(), (1,), (1, 2), (1, -2)])
    path = tmp_path / "words.json"
    save_set(A, str(path))
    text = path.read_text()
    assert '"ab"' in text and '"aB"' in text
    assert load_set(str(path)).elements == A.elements


def test_set_file_rejects_malformed_payloads():
    with pytest.raises(ValueError):
        set_from_json_obj({"vertices": []})
    with pytest.raises(ValueError):
        set_from_json_obj({"group": "z^2", "vertices": "nope"})
    with pytest.raises(ValueError):
        set_from_json_obj({"group": "zzz", "vertices": []})
    with pytest.raises(InvalidVertexError):
        set_from_json_obj({"group": "z^2", "vertices": [[1, 2, 3]]})
    with pytest.raises(InvalidVertexError):
        set_from_json_obj({"group": "torus:5x5", "vertices": [[9, 0]]})
    with pytest.raises(InvalidVertexError):
        set_from_json_obj({"group": "free:2", "vertices": [[1, 2]]})
    # coordinates are JSON integers: no float, string or boolean is coerced
    for vertices in ([[1.9, 0]], [["3", 0]], [[True, 0]], [[1e0, 0]],
                     [[1.9, 0], [1.2, 0]]):
        with pytest.raises(InvalidVertexError):
            set_from_json_obj({"group": "z^2", "vertices": vertices})
    with pytest.raises(InvalidVertexError):
        set_from_json_obj({"group": "cyl:3", "vertices": [[0, 2.7]]})


@settings(max_examples=40)
@given(points=st.sets(st.tuples(st.integers(-8, 8), st.integers(-8, 8)),
                      min_size=1, max_size=25))
def test_boundary_properties_hold_for_arbitrary_plane_sets(points):
    A = VertexSet(Z2, points)
    B = boundary(A)
    assert B.elements == oracles.z2_boundary_scan(set(points))
    assert not (B.elements & A.elements)
    for u in B:
        assert any(w in A for w in Z2.neighbors(u))


def test_varopoulos_report_serialization():
    d = varopoulos_check(VertexSet(Z2, [(0, 0)])).to_dict()
    assert d == {"m": 1, "holds": True, "lhs": 1, "rhs": 8}
