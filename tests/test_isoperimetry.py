"""Boundary, depth, closure connectivity, Varopoulos, and the separation
classifier, checked against slow per-vertex oracles."""

import math
import random
from collections import Counter
from fractions import Fraction
from itertools import count, islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import record_calls
from cayleyiso import (
    BudgetExceeded,
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
    parse_group,
    random_connected_set,
    save_set,
    varopoulos_check,
)
from cayleyiso import _lattice, _zd, isoperimetry
from cayleyiso._zd import LATTICE_COORDINATE_BOUND
from cayleyiso.counterexample import GridParams
from cayleyiso.groups import _bfs_levels
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


def test_depth_of_components_that_stop_at_different_levels():
    # the depth search from the boundary (level 0: 28 around the ball, 8
    # around the strip) runs on inside the ball after the strip is used up
    members = ball(Z2, (0, 0), 6) | {(40, y) for y in range(3)}
    A = VertexSet(Z2, members)
    assert depth(A) == 7 == oracles.per_vertex_depth(Z2, members)
    levels = _bfs_levels(Z2, A._boundary, None, within=A._keys)
    assert [len(sphere) for sphere in levels] == [28 + 8, 24 + 3, 20, 16, 12, 8, 4, 1]


def test_depth_of_a_long_interval_takes_a_level_per_step():
    # 5000 levels of two members each; the per-vertex oracle, quadratic in
    # the length, checks a shorter interval
    g = IntegerLattice(1)
    A = VertexSet(g, ((x,) for x in range(10**4)))
    assert depth(A) == 5000
    levels = _bfs_levels(g, A._boundary, None, within=A._keys)
    assert [len(sphere) for sphere in levels] == [2] * 5001
    members = {(x,) for x in range(-200, 201)}
    assert depth(VertexSet(g, members)) == 201 == oracles.per_vertex_depth(g, members)


def test_a_search_inside_a_set_may_start_outside_it():
    # a closure search from outside A: the source is level 0, never entered
    # again, and each level is the oracle's; from the annulus's hole, the
    # centre reaches nothing and (0, 2) reaches the whole annulus
    rng = random.Random(3)
    annulus = ball(Z2, (0, 0), 6) - ball(Z2, (0, 0), 2)
    cases = [(Z2, annulus, (0, 0)), (Z2, annulus, (0, 2))]
    for g in INFINITE_FAMILIES + [Torus(11, 2)]:
        members = random_connected_set(g, 120, seed=5).elements
        outside = sorted(oracles.boundary_by_distance(g, members), key=g.sort_key)
        cases.append((g, members, rng.choice(outside)))
    for g, members, source in cases:
        within = frozenset(map(g._encode, members))
        levels = _bfs_levels(g, (g._encode(source),), None, within=within)
        assert [set(map(g._decode, sphere)) for sphere in levels] == (
            oracles.levels_within(g, [source], members))
    assert len(oracles.levels_within(Z2, [(0, 0)], annulus)) == 1
    assert set().union(*oracles.levels_within(Z2, [(0, 2)], annulus)) == annulus | {(0, 2)}


def test_in_set_levels_pulled_where_the_frontier_outgrows_the_rest():
    # a level is pulled into the unreached members when they are fewer than
    # the frontier: from the boundary of an accreted free:2 set, and in the
    # last levels of a Euclidean z^2 disc searched from its centre
    g = FreeGroup(2)
    tree = oracles.accretion_set(g, 400, seed=2)
    disc = {(x, y) for x in range(-15, 16) for y in range(-15, 16) if x * x + y * y <= 225}
    cases = [(g, tree, list(oracles.boundary_by_distance(g, tree))), (Z2, disc, [(0, 0)])]
    for g, members, sources in cases:
        expected = oracles.levels_within(g, sources, members)
        reached = set()
        pulls = 0
        for level in expected[:-1]:
            reached |= level
            pulls += len(level) > len(members - reached)
        assert pulls
        levels = _bfs_levels(g, list(map(g._encode, sources)), within=set(map(g._encode, members)))
        assert [set(map(g._decode, sphere)) for sphere in levels] == expected


def test_inner_members_on_both_sides_of_the_boundary_switch():
    # level 1 of the search from the boundary, the members next to it, is
    # pushed from the boundary where it is the smaller side (z^2, holes
    # included), else pulled into A (free:3, whose boundary outgrows A)
    cases = [("free:3", random_connected_set(FreeGroup(3), 300, seed=4).elements, True),
             ("z^2", random_connected_set(Z2, 300, seed=4).elements, False),
             ("z^2", perforated(3, 4).elements, False)]
    for family, members, larger in cases:
        g = parse_group(family)
        A = VertexSet(g, members)
        assert (len(A._boundary) > len(A)) is larger
        neighbors = oracles.neighbor_function(g)
        expected = {v for v in members if any(u not in members for u in neighbors(v))}
        levels = _bfs_levels(g, A._boundary, within=A._keys)
        assert set(map(g._decode, next(levels))) == oracles.boundary_by_distance(g, members)
        assert set(map(g._decode, next(levels))) == expected


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
    # random connected sets, unions of two random sets, one of them moved to
    # a random place, and random subsets of a ball; the last two kinds
    # include sets whose closure is disconnected
    rng = random.Random(7)
    for g in INFINITE_FAMILIES + [Torus(11, 2)]:
        radius = 3 if isinstance(g, FreeGroup) else 4
        around = sorted(ball(g, g.identity(), radius), key=g.sort_key)
        verdicts = set()
        for seed in range(30):
            single = random_connected_set(g, 1 + seed * 3, seed=seed).elements
            far = oracles.random_vertex(g, rng)
            pair = random_connected_set(g, 1 + seed % 15, seed=seed).elements | {
                oracles.translate(g, far, v)
                for v in random_connected_set(g, 1 + seed % 7, seed=seed).elements
            }
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


def test_varopoulos_on_a_host_without_a_counting_rule():
    # m comes from the host's BFS levels, not from a counting rule
    g = Cylinder(4, [(2, 1), (1, 0)])
    A = random_connected_set(g, 150, seed=3)
    m = next(r for r in count(1) if len(oracles.bfs_ball(g, g.identity(), r)) >= 300)
    k = len(oracles.boundary_by_distance(g, A.elements))
    assert varopoulos_check(A) == (m, True, 150, 2 * m * k)


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


def test_separation_size_bound_is_met_with_equality_on_a_tube():
    # 64m full columns of cyl:m have k = 2m and |A| = 64m^2 = 16k^2: on cyl:3,
    # 192 columns meet the bound with equality and stay SmallSet, one column
    # more is RingLike, so the branch test must read |A| <= 16k^2, not <
    g = Cylinder(3)
    for columns, branch in [(192, "SmallSet"), (193, "RingLike")]:
        A = VertexSet(g, ((z, r) for z in range(columns) for r in range(3)))
        report = classify_separation(A)
        assert (report.boundarySize, report.branch) == (6, branch)
        assert report.inequalities[0] == ("|A| <= 16k^2", 3 * columns, 576, columns == 192, False)


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


def test_separation_on_a_host_of_another_end_count_is_inapplicable():
    # a host declaring one end makes the size bound required; past it, a
    # host of one or infinitely many ends has no ring-like branch
    g = IntegerLattice(1)
    g.declared_ends = 1
    report = classify_separation(VertexSet(g, ((x,) for x in range(100))))
    assert (report.branch, report.sizeA, report.boundarySize) == ("Inapplicable", 100, 2)
    assert report.inequalities == [("|A| <= 16k^2", 100, 64, False, True)]
    assert report.violations() == ["|A| <= 16k^2"]


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
    # never twice: a grown set carries its boundary and connected closure,
    # so it scans for neither; a copy of it scans A once for its boundary
    # and runs the connectivity BFS once, however many checks read them
    scans = record_calls(monkeypatch, isoperimetry, "_boundary_elements", lambda call: len(call.A))
    searches = record_calls(monkeypatch, isoperimetry, "_bfs_levels",
                            lambda call: len(call.sources))

    def checks(A):
        var = varopoulos_check(A)
        sep = classify_separation(A)
        assert var.rhs == 2 * var.m * sep.boundarySize == 2 * var.m * len(boundary(A))
        assert sep.depth == depth(A) and is_connected_with_boundary(A)
        return var, sep

    for g in INFINITE_FAMILIES:
        A = random_connected_set(g, 200, seed=7)
        grown = checks(A)
        # depth, kept on the set for every later depth call, erodes a bitmap
        # on z^1, z^2 and cyl:3 and parent keys on free:2: no BFS
        assert scans == [] and searches == []
        scans.clear(), searches.clear()
        assert checks(VertexSet(g, A)) == grown
        # the copy adds the connectivity BFS from one member
        assert scans == [200] and searches == [1]
        scans.clear(), searches.clear()


def test_the_set_calculus_validates_no_vertex(monkeypatch):
    # growth starts at the identity, key 0, and steps only to neighbors
    hosts = [IntegerLattice(2), FreeGroup(2), Cylinder(3)]
    # the lattice families share one validate_vertex
    calls = record_calls(monkeypatch, _lattice._MixedRadix, "validate_vertex", lambda call: call.v)
    record_calls(monkeypatch, FreeGroup, "validate_vertex", lambda call: call.v, calls)
    for g in hosts:
        A = random_connected_set(g, 300, seed=3)
        assert varopoulos_check(A).holds
        classify_separation(A)
    assert calls == []


def test_sets_the_library_builds_are_not_validated_again(monkeypatch, capsys):
    from cayleyiso import cli, ringlike

    host = Cylinder(3)
    A = random_connected_set(host, 300, seed=3)
    system = ringlike.cyclic_system(host)
    obj = A.to_json_obj()
    calls = record_calls(monkeypatch, _lattice._MixedRadix, "validate_vertex", lambda call: call.v)
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


# --- every small connected set ------------------------------------------------


def test_the_census_counts_the_known_sequences():
    # fixed polyominoes (OEIS A001168) and fixed polycubes (OEIS A001931):
    # one set per translation class, by size
    assert [len(sets) for sets in oracles.connected_sets(Z2, 8)] == [
        0, 1, 2, 6, 19, 63, 216, 760, 2725]
    assert [len(sets) for sets in oracles.connected_sets(IntegerLattice(3), 6)] == [
        0, 1, 3, 15, 86, 534, 3481]


#: each census family, the largest size it enumerates, its largest Varopoulos
#: lhs/rhs, |A| / (2m|boundary(A)|), None on the torus, a finite host, where
#: neither claim applies, and on the cylinders its largest interval-cover
#: slack/bound, |Q \ A| / (2s^2t^2k + 2stk)
CENSUS = [("z^1", 30, Fraction(1, 4), None), ("z^2", 8, Fraction(1, 6), None),
          ("z^3", 6, Fraction(3, 26), None), ("free:2", 6, Fraction(1, 6), None),
          ("free:3", 5, Fraction(3, 28), None), ("cyl:2", 8, Fraction(1, 4), Fraction(1, 15)),
          ("cyl:3", 7, Fraction(5, 24), Fraction(7, 192)),
          ("cyl:4:[(2,1),(1,0)]", 7, Fraction(1, 6), Fraction(37, 1728)),
          ("torus:5x5", 6, None, None)]


@pytest.mark.parametrize("family, top, largest, largest_slack", CENSUS,
                         ids=[row[0] for row in CENSUS])
def test_every_small_connected_set_meets_every_claim(family, top, largest, largest_slack):
    # every connected set of up to ``top`` vertices through the identity (one
    # per translation class on z^d): depth by the host's own route and the
    # boundary equal the oracles', A with its boundary is connected, A comes
    # back from its set file's object, and the Varopoulos and separation
    # checks, and on the cylinders the interval cover, find no violation.
    # The largest Varopoulos lhs/rhs and slack/bound are pinned, so that a
    # fast path which moves any claim on any of these sets fails here. On
    # the torus both checks refuse
    from cayleyiso.ringlike import cyclic_system, interval_cover

    g = parse_group(family)
    system = cyclic_system(g) if largest_slack is not None else None
    largest_seen = None if g.is_finite else Fraction(0)
    slack_seen = None if system is None else Fraction(0)
    for sets in oracles.connected_sets(g, top):
        for members in sets:
            A = VertexSet(g, members)
            assert depth(A) == oracles.per_vertex_depth(g, members), members
            assert boundary(A).elements == oracles.boundary_by_distance(g, members), members
            assert is_connected_with_boundary(A)
            assert set_from_json_obj(A.to_json_obj()) == A
            if g.is_finite:
                continue
            report = varopoulos_check(A)
            assert report.violations() == classify_separation(A).violations() == [], members
            largest_seen = max(largest_seen, Fraction(report.lhs, report.rhs))
            if system is not None:
                cover = interval_cover(system, A)
                assert cover.violations() == [], members
                slack_seen = max(slack_seen, Fraction(cover.slack, cover.bound))
    assert (largest_seen, slack_seen) == (largest, largest_slack)
    if g.is_finite:
        for check in (varopoulos_check, classify_separation):
            with pytest.raises(ValueError, match="needs an infinite host"):
                check(A)


# --- random connected sets ---------------------------------------------------


def test_random_set_is_connected_and_sized():
    for g in INFINITE_FAMILIES + [Torus(13, 2)]:
        for seed in (0, 1, 7):
            A = random_connected_set(g, 150, seed=seed)
            assert len(A) == 150
            assert oracles.connected_within(g, A.elements)


CARRYING_FAMILIES = ["z^1", "z^2", "z^3", "cyl:3", "cyl:4:[(2,1),(1,0)]", "free:2",
                     "free:3", "torus:31x31"]


def test_a_grown_set_carries_the_facts_the_independent_routes_find():
    for family in CARRYING_FAMILIES:
        g = parse_group(family)
        for size, seed in [(1, 0), (2, 4), (37, 1), (150, 2), (400, 3)]:
            A = random_connected_set(g, size, seed=seed)
            copy = VertexSet(g, A)
            assert {"_boundary", "_closure_is_connected"} <= set(vars(A))
            assert not {"_boundary", "_closure_is_connected"} & set(vars(copy))
            assert A == copy and hash(A) == hash(copy) and len(A) == len(copy) == size
            members = A.elements
            outside = oracles.boundary_by_distance(g, members)
            assert frozenset(A._boundary) == copy._boundary
            assert boundary(A) == boundary(copy)
            assert boundary(A).elements == boundary(copy).elements == outside
            next_to_outside = {v for v in members
                               if any(u not in members for u in g.neighbors(v))}
            inner = [list(islice(_bfs_levels(g, B._boundary, within=B._keys), 2))[1]
                     for B in (A, copy)]
            assert {g._decode(v) for v in inner[0]} == next_to_outside
            assert inner[0] == inner[1]
            assert depth(A) == depth(copy) == oracles.per_vertex_depth(g, members)
            closure = oracles.connected_within(g, members | outside)
            assert is_connected_with_boundary(A) is closure is True
            assert is_connected_with_boundary(copy) is True


def test_a_grown_set_that_exhausts_a_torus_carries_an_empty_boundary():
    g = Torus(3, 2)
    A = random_connected_set(g, 9, seed=5)
    copy = VertexSet(g, A)
    assert frozenset(A._boundary) == copy._boundary == frozenset()
    assert is_connected_with_boundary(A) and is_connected_with_boundary(copy)
    errors = []
    for B in (A, copy):
        with pytest.raises(ValueError) as exc_info:
            depth(B)
        errors.append(str(exc_info.value))
    assert errors[0] == errors[1] == "depth undefined: set exhausts the finite host torus:3x3"


@pytest.mark.parametrize("family", ["z^1", "z^2", "cyl:3", "free:2"])
def test_the_sweep_never_hashes_a_grown_set(family):
    # the sweep's checks read sizes, extremes and erosions, so a grown set
    # keeps the key lists its growth returned and builds no frozenset
    g = parse_group(family)
    for size, seed in [(1, 0), (37, 1), (400, 3), (3000, 4)]:
        A = random_connected_set(g, size, seed=seed)
        assert varopoulos_check(A).holds and not classify_separation(A).violations()
        assert depth(A) >= 1 and len(A) == size
        assert "_keys" not in vars(A)


def test_only_grown_sets_carry_facts(monkeypatch, tmp_path):
    # sets from files, balls, the perforated family and both sides of the
    # torus embedding scan A for their boundary, which on z^2 neither the
    # closure check of a connected set nor depth reads: ask for it
    scans = record_calls(monkeypatch, isoperimetry, "_boundary_elements", lambda call: len(call.A))
    path = tmp_path / "grown.json"
    save_set(random_connected_set(Z2, 50, seed=1), str(path))
    assert scans == []
    sets = [load_set(str(path)), VertexSet(Z2, ball(Z2, (0, 0), 3)),
            perforated(2, 3)]
    for A in sets:
        assert is_connected_with_boundary(A) and depth(A) >= 1 and boundary(A)
    assert scans == [len(A) for A in sets]
    scans.clear()
    report = counterexample.embed_torus(GridParams(2, 3)).report
    assert report.preserved and scans == [report.sizeLattice, report.sizeTorus]


@settings(max_examples=12)
@example(rank=3, size=20_000, seed=1)
@given(rank=st.sampled_from([2, 3]), size=st.integers(1, 20_000), seed=st.integers(0, 2**32))
def test_a_grown_tree_set_has_the_tree_boundary(rank, size, seed):
    # in the 2r-regular tree a connected A spans |A| - 1 edges and no vertex
    # outside it has two neighbors in it: |boundary| = (2r - 2)|A| + 2
    g = FreeGroup(rank)
    A = random_connected_set(g, size, seed=seed)
    assert len(boundary(A)) == (2 * rank - 2) * size + 2


@settings(max_examples=12)
@example(size=20_000, seed=1)
@given(size=st.integers(1, 20_000), seed=st.integers(0, 2**32))
def test_a_grown_line_set_is_an_interval(size, seed):
    # a connected set of Z is an interval: two boundary points, and its
    # middle point is ceil(|A|/2) steps from the nearer one
    A = random_connected_set(IntegerLattice(1), size, seed=seed)
    assert len(boundary(A)) == 2
    assert depth(A) == (size + 1) // 2


def test_random_set_is_deterministic_per_seed():
    g = IntegerLattice(2)
    a = random_connected_set(g, 300, seed=5)
    b = random_connected_set(g, 300, seed=5)
    c = random_connected_set(g, 300, seed=6)
    assert a.elements == b.elements
    assert a.elements != c.elements


def test_random_set_size_validation():
    with pytest.raises(ValueError):
        random_connected_set(Z2, 0)
    with pytest.raises(ValueError):
        random_connected_set(Torus(3, 2), 10)


def test_random_set_owns_its_budget():
    with pytest.raises(BudgetExceeded) as exc_info:
        random_connected_set(IntegerLattice(2), 1000, budget=100)
    assert (exc_info.value.budget, exc_info.value.visited) == (100, 1000)
    assert len(random_connected_set(IntegerLattice(2), 100, budget=100)) == 100


def test_random_set_matches_the_accretion_oracle_on_every_host():
    # the same draws over the same candidate order grow the same set; the
    # oracle draws with randrange, the generator with its inlined loop
    for family in CARRYING_FAMILIES:
        g = parse_group(family)
        for size, seed in [(1, 0), (2, 5), (60, 1), (400, 2), (500, 9), (2000, 3)]:
            size = min(size, g.vertex_count or size)
            A = random_connected_set(g, size, seed=seed)
            assert A.elements == oracles.accretion_set(g, size, seed=seed), family


def test_the_inlined_draw_is_randranges_own():
    # random_connected_set draws an index below n as randrange(n) does on
    # CPython 3.10-3.12: getrandbits(n.bit_length()) until the value is below
    # n. An interpreter whose randrange draws otherwise fails here instead of
    # growing other sets
    bounds = [*range(1, 4097), *(2**k + e for k in range(1, 41) for e in (-1, 0, 1))]
    for seed in (0, 1, 2, 12345):
        reference, inlined = random.Random(seed), random.Random(seed)
        getrandbits = inlined.getrandbits
        draws = []
        for n in bounds:
            k = n.bit_length()
            j = getrandbits(k)
            while j >= n:
                j = getrandbits(k)
            draws.append(j)
        assert draws == [reference.randrange(n) for n in bounds]
        assert inlined.getstate() == reference.getstate()


def _widening_sizes(degree: int, top: int) -> list:
    """Sizes up to ``top`` on both sides of each draw-width change of a
    free-group set grown from the identity: the draw that takes it from
    s - 1 to s members picks among degree + (s - 2)(degree - 2) candidates,
    so it widens by a bit where that count passes a power of two."""
    width = [(degree + (s - 2) * (degree - 2)).bit_length() for s in range(top + 1)]
    return [t for s in range(3, top + 1) if width[s] > width[s - 1] for t in (s - 1, s)]


def assert_grows_the_oracle_set(g, size, seed):
    A = random_connected_set(g, size, seed=seed)
    members = oracles.accretion_set(g, size, seed=seed)
    assert A.elements == members, (g.family, size, seed)
    assert set(map(g._decode, A._boundary)) == oracles.boundary_by_distance(g, members)


@pytest.mark.parametrize("rank", [2, 3, 26])
def test_free_group_sets_grown_as_trees_match_the_accretion_oracle(rank):
    # a free group grows its sets as trees, with no seen
    # set; the oracle keeps one and grows them vertex by vertex. Seeds cycle
    # through sizes 1, 2, 3 and both sides of every draw-width change. The
    # boundary oracle scans the neighbors of every member's neighbors,
    # degree^2 work per member, so on free:26 sizes stop at 22
    g = FreeGroup(rank)
    top = 22 if rank == 26 else 140
    sizes = sorted({1, 2, 3, *_widening_sizes(g.degree, top)})
    assert sizes[-1] > top // 2
    for seed in range(120):
        assert_grows_the_oracle_set(g, sizes[seed % len(sizes)], seed)


def _spy_on_the_loop(monkeypatch) -> list:
    """Patch ``_lattice._swap_and_pop``, under ``_lattice`` (cylinders, z^d for
    d >= 3) and ``_zd`` (z^2's window keys), to record the (start, size,
    rows, period) of each call, and return the record."""
    calls, loop = [], _lattice._swap_and_pop

    def spy(start, size, rng, rows, period):
        calls.append((start, size, rows, period))
        return loop(start, size, rng, rows, period)

    for module in (_lattice, _zd):
        assert module._swap_and_pop is loop
        monkeypatch.setattr(module, "_swap_and_pop", spy)
    return calls


#: hosts whose growth steps a key's four offsets, or a word's three children,
#: in line (the first five), and hosts of other degrees, which keep the loop
IN_LINE_HOSTS = ["z^2", "cyl:3", "cyl:4:[(2,1),(1,0)]", "torus:31x31", "free:2", "cyl:2",
                 "cyl:6:[(1,0),(0,2),(0,3)]", "z^3", "torus:7x7x7", "free:3"]


def test_growth_lists_the_generic_loops_members_and_candidates_in_order(monkeypatch):
    # the in-line steps and the loops kept beside them must return the lists
    # that the generic loops of ``oracles`` return for the same draws: the
    # members in order (a set's order on the lattices, which only the same
    # insertions reproduce) and the candidates in order, where a set
    # comparison would miss a swapped pair of candidates that no later draw
    # happens to tell apart. Sizes 1, 2, 2000 and both sides of every
    # draw-width change below it, capped at a torus's vertex count, three
    # seeds each
    loops = _spy_on_the_loop(monkeypatch)
    for family in IN_LINE_HOSTS:
        g = parse_group(family)
        sizes = sorted({min(s, g.vertex_count or s)
                        for s in (1, 2, 2000, *_widening_sizes(g.degree, 2000))})
        for seed in range(3 * len(sizes)):
            size = sizes[seed % len(sizes)]
            loops.clear()
            grown = [list(getattr(keys, "keys", keys))  # a z^2 ``_Window``'s own keys
                     for keys in g._accrete(size, random.Random(seed))]
            if isinstance(g, FreeGroup):
                members, candidates = oracles.free_growth_loop(g, size, random.Random(seed))
            else:
                (key, _, rows, period), = loops
                members, candidates = oracles.lattice_growth_loop(key, size, random.Random(seed),
                                                                  rows, period)
            assert grown == [list(members), candidates], (family, size, seed)


class _CountingRandom(random.Random):
    """A generator that counts its ``getrandbits`` calls."""

    calls = 0

    def getrandbits(self, k):
        self.calls += 1
        return super().getrandbits(k)


def test_line_sets_grown_as_intervals_are_the_generic_loops():
    # z^1 reads each getrandbits(2) draw of the generic loop as the top two
    # bits of one 32-bit word of getrandbits(32 N). That pins CPython's word
    # order for k > 32, least significant word first: an interpreter that
    # packs the words otherwise turns this red instead of growing other sets.
    # Sizes run from 1 to 2000; the route draws 2 words per member still to
    # absorb and draws again for those that rejections leave, so sizes 2 and
    # 3 and most larger ones meet both a first draw that suffices and one
    # that does not
    g = IntegerLattice(1)
    rng = random.Random(27)
    sizes = [1, 2, 3, 4, 5, 2000, *(rng.randint(1, 2000) for _ in range(40))]
    calls = Counter()
    for seed in range(520):
        size = sizes[seed % len(sizes)]
        counting = _CountingRandom(seed)
        keys, ends = g._accrete(size, counting)
        base_keys, base_ends = _lattice._swap_and_pop(0, size, random.Random(seed),
                                                      g._rows, g._period)
        assert (set(keys), set(ends)) == (base_keys, set(base_ends)), (size, seed)
        assert len(keys) == size and keys[0] - 1 == ends[0] and keys[-1] + 1 == ends[1]
        calls[min(counting.calls, 3)] += 1
    assert calls[0] >= 520 // len(sizes)  # size 1 draws nothing
    assert calls[1] > 50 and calls[2] > 50 and calls[3] > 10


def test_plane_sets_grown_on_window_keys_are_the_host_key_loops():
    # z^2 runs the one loop on window keys, the vertices in base 2 size + 1,
    # and lifts them to host keys: the members, and the candidates in their
    # order, must be those of the loop on host keys. Seeds cycle through
    # sizes 1, 2, 3 and 2000, and three in seven take both sides of a draw
    # of their own set that widens
    g = IntegerLattice(2)
    widened = 0
    for seed in range(140):
        if seed % 7 < 4:
            sizes = [(1, 2, 3, 2000)[seed % 7]]
        else:
            crossing = _crossing_sizes(g, seed, 300)
            sizes = crossing[seed % (len(crossing) // 2) * 2:][:2]
            widened += 1
        for size in sizes:
            host = _lattice._swap_and_pop(0, size, random.Random(seed), g._rows, g._period)
            members, candidates = g._accrete(size, random.Random(seed))
            assert (set(members), list(candidates)) == host, (size, seed)
            assert len(members) == size
    assert widened == 60


OFFSET_FAMILIES = ["z^2", "z^3", "cyl:2", "cyl:3", "cyl:7",
                   "cyl:4:[(2,1),(1,0)]", "cyl:5:[(1,2),(0,1)]"]


class _RecordingRandom(random.Random):
    """A generator that records the bound of each ``randrange`` call."""

    def __init__(self, seed):
        super().__init__(seed)
        self.bounds = []

    def randrange(self, n):
        self.bounds.append(n)
        return super().randrange(n)


def _crossing_sizes(g, seed, top) -> list:
    """Sizes up to ``top`` on both sides of each draw that is wider than the
    one before it, for the set grown at ``seed``: the oracle draws
    randrange(n) from n candidates, and draw i takes A from i + 1 to i + 2
    members, so it widens where n passes a power of two."""
    rng = _RecordingRandom(seed)
    oracles.accretion_set(g, top, seed=rng)
    widths = [n.bit_length() for n in rng.bounds]
    return [s for i in range(1, len(widths)) if widths[i] > widths[i - 1] for s in (i + 1, i + 2)]


def _random_word(g, length: int, rng) -> tuple:
    """A random reduced word of ``length`` letters on the free group ``g``."""
    word = []
    while len(word) < length:
        x = rng.choice([i for i in range(-g.rank, g.rank + 1) if i])
        if not word or x != -word[-1]:
            word.append(x)
    return tuple(word)


def _longest_absorbable(g, start: tuple, size: int) -> tuple:
    """The word of largest key ``size`` - 1 steps out from ``start``:
    ``start`` and then size - 1 maximal digits, each the inverse of the last
    generator unless it would cancel the letter before."""
    word = list(start)
    for _ in range(size - 1):
        word.append(-g.rank if not word or word[-1] != g.rank else g.rank)
    return tuple(word)


def _stepped_keys(g, rng) -> list:
    """Keys that growth and the searches may step from. z^d and cylinders get keys at z = 0,
    below it and far out on both sides, at every residue, with z^d's lower
    coordinates at 0, at the bound and between; tori every key; free
    groups, from starts of 1, 5 and 40 letters, the keys of random walks of
    size - 1 steps and of the longest word the size can absorb."""
    if isinstance(g, FreeGroup):
        words = set()
        for length in (1, 5, 40):
            start = _random_word(g, length, rng)
            for size in (1, 2, 7, 60):
                words |= {start, _longest_absorbable(g, start, size)}
                for _ in range(5):
                    v = g._encode(start)
                    for _ in range(size - 1):
                        v = rng.choice(g._step(v))
                        words.add(g._decode(v))
        return sorted(map(g._encode, words))
    if isinstance(g, Torus):
        return range(g.vertex_count)
    zs = [0, 1, -1, -5, 9, 10**12, -10**12, *(rng.randint(-10**15, 10**15) for _ in range(20))]
    if isinstance(g, Cylinder):
        return [g._encode((z, r)) for z in zs for r in range(g.m)]
    bound = LATTICE_COORDINATE_BOUND - 1
    lower = [0, bound, -bound, *(rng.randint(-bound, bound) for _ in range(4))]
    return [g._encode((z, *(rng.choice(lower) for _ in range(g.d - 1)))) for z in zs]


ROW_FAMILIES = ["z^1", *OFFSET_FAMILIES[:2], "torus:5x5", "torus:3x3x3",
                *OFFSET_FAMILIES[2:], "free:2", "free:26"]


@pytest.mark.parametrize("family", ROW_FAMILIES)
def test_offset_hosts_accrete_as_the_step_loop(family):
    # accretion steps key v to _step(v), in its order: through the rows
    # _step reads on z^d, tori and cylinders, and on a free group through
    # _step's children. Those keys must be the oracle's neighbors, in order,
    # or the sets and boundaries change. The offset hosts' first seeds also
    # grow the oracle's set on both sides of a draw that widens
    g = parse_group(family)
    neighbors = oracles.neighbor_function(g)
    for v in _stepped_keys(g, random.Random(29)):
        assert list(map(g._decode, g._step(v))) == neighbors(g._decode(v)), (family, v)
    if family not in OFFSET_FAMILIES:
        return
    for seed in range(12):
        crossing = _crossing_sizes(g, seed, 150)
        pair = crossing[seed % (len(crossing) // 2) * 2:][:2]
        assert_grows_the_oracle_set(g, pair[1], seed)


def test_one_loop_grows_every_host_but_trees_and_intervals(monkeypatch):
    # every host but a free group (a tree) and z^1 (an interval) runs the
    # one swap-and-pop loop: z^2 on window keys, with the row (w, -w, 1, -1)
    # for w = 2 size + 1, and the other z^d and the cylinders on their own
    # rows, which they keep, so their growth never calls _step. A torus
    # builds each row from one _step call as it is read and keeps none, so
    # reading the identity's row again steps again. A free group steps the
    # identity only
    steps = Counter()
    for cls in (_lattice._MixedRadix, Torus, FreeGroup):
        def step(host, key, original=cls._step):
            steps[host.family] += 1
            return original(host, key)

        monkeypatch.setattr(cls, "_step", step)
    loops = _spy_on_the_loop(monkeypatch)
    hosts = [parse_group(family) for family in OFFSET_FAMILIES]
    for g in hosts:
        assert len(random_connected_set(g, 300, seed=1)) == 300
    assert OFFSET_FAMILIES[0] == "z^2"
    assert loops[0][1:] == (300, ((601, -601, 1, -1),), 1)
    assert len(loops) == 7 and all(
        rows is g._rows and period == g._period
        for (*_, rows, period), g in zip(loops[1:], hosts[1:]))
    random_connected_set(parse_group("z^1"), 300, seed=1)
    random_connected_set(FreeGroup(2), 300, seed=1)
    assert steps == {"free:2": 1} and len(loops) == 7
    random_connected_set(Torus(9, 2), 50, seed=1)
    random_connected_set(Torus(3, 3), 27, seed=2)
    assert len(loops) == 9 and [period for *_, period in loops[7:]] == [81, 27]
    assert steps == {"torus:9x9": 50, "torus:3x3x3": 27, "free:2": 1}
    for start, _, rows, _ in loops[7:]:
        rows[start]
    assert steps == {"torus:9x9": 51, "torus:3x3x3": 28, "free:2": 1}


DIFFERENTIAL_FAMILIES = ["z^1", "z^2", "z^3", "torus:5x5", "torus:3x3x3", "cyl:2", "cyl:3",
                         "cyl:4:[(2,1),(1,0)]", "free:2", "free:3"]


@st.composite
def _growths(draw):
    """(host, size, seed, pick) for ``random_connected_set``: a size from 1
    to 150, or to the whole of a smaller torus, and an index that picks the
    member and the boundary vertex of its copies."""
    g = parse_group(draw(st.sampled_from(DIFFERENTIAL_FAMILIES)))
    size = draw(st.integers(1, min(150, g.vertex_count or 150)))
    return g, size, draw(st.integers(0, 2**32)), draw(st.integers(0, 2**16))


def assert_set_calculus_matches_the_oracles(A):
    """``boundary``, ``depth`` and closure connectivity of A against the
    per-vertex oracles; a set with no boundary is a whole torus, whose depth
    is refused."""
    g, members = A.host, A.elements
    outside = oracles.boundary_by_distance(g, members)
    assert boundary(A).elements == outside
    assert is_connected_with_boundary(A) == oracles.connected_within(g, members | outside)
    if outside:
        assert depth(A) == oracles.per_vertex_depth(g, members)
    else:
        with pytest.raises(ValueError, match="exhausts"):
            depth(A)


@settings(max_examples=800, deadline=None, derandomize=True, database=None)
@given(growth=_growths())
def test_grown_sets_match_the_oracles(growth):
    # every growth route, and every depth route a grown set reaches, against
    # the per-vertex oracles: the members, the boundary, the depth and
    # closure connectivity. So are three copies: one with a member removed
    # (cut trees, holed planes, z^1 sets of two runs), one with a boundary
    # vertex added, and on z^d and cylinders one with a member 10^15 further
    # along the first coordinate, past the bits cap of every bitmap
    g, size, seed, pick = growth
    members = oracles.accretion_set(g, size, seed=seed)
    A = random_connected_set(g, size, seed=seed)
    assert A.elements == members
    assert_set_calculus_matches_the_oracles(A)
    v = sorted(members, key=g.sort_key)[pick % size]
    outside = sorted(boundary(A).elements, key=g.sort_key)
    copies = [members - {v}] if size > 1 else []
    if outside:
        copies.append(members | {outside[pick % len(outside)]})
    if isinstance(g, (IntegerLattice, Cylinder)):
        copies.append(members | {(v[0] + 10**15, *v[1:])})
    for copy in copies:
        assert_set_calculus_matches_the_oracles(VertexSet(g, copy))


#: the largest set the translation property grows
TRANSLATED_TOP = 200


def _translations(g):
    """Vertices of ``g`` to move a set of up to ``TRANSLATED_TOP`` members
    by: any torus vertex, a reduced word of up to 12 letters, a cylinder
    vertex up to 10^15 out at any residue, and on z^d a first coordinate up
    to 10^15 in magnitude and lower ones that may put the set's extreme
    members next to the coordinate bound."""
    if isinstance(g, FreeGroup):
        return st.builds(lambda n, rng: _random_word(g, n, rng),
                         st.integers(0, 12), st.randoms(use_true_random=False))
    if isinstance(g, Torus):
        return st.tuples(*[st.integers(0, g.n - 1)] * g.d)
    far = st.integers(-10**15, 10**15)
    if isinstance(g, Cylinder):
        return st.tuples(far, st.integers(0, g.m - 1))
    reach = LATTICE_COORDINATE_BOUND - 1 - TRANSLATED_TOP
    lower = st.sampled_from([reach, -reach]) | st.integers(-reach, reach)
    return st.tuples(far, *[lower] * (g.d - 1))


@st.composite
def _translated_growths(draw):
    """(host, size, seed, s): a census family, a size up to
    ``TRANSLATED_TOP`` that leaves a torus a vertex outside, and a vertex s
    to move the grown set by."""
    g = parse_group(draw(st.sampled_from([row[0] for row in CENSUS])))
    size = draw(st.integers(1, min(TRANSLATED_TOP, (g.vertex_count or TRANSLATED_TOP + 1) - 1)))
    return g, size, draw(st.integers(0, 2**32)), draw(_translations(g))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(growth=_translated_growths())
def test_a_translated_grown_set_meets_the_same_claims(growth):
    # left multiplication by s is a graph automorphism that keeps generator
    # labels, so s A has the size, the depth and the Varopoulos and
    # separation reports of A, and its boundary is s boundary(A). Growth
    # starts at the identity; the moved copy, a VertexSet of host keys, takes
    # the routes of sets elsewhere: z^2 and cylinder bitmaps at other phases
    # and far out, free-group erosion without the identity, and the ring-like
    # cover on blocks away from 0
    g, size, seed, s = growth
    A = random_connected_set(g, size, seed=seed)
    moved = VertexSet(g, {oracles.translate(g, s, v) for v in A.elements})
    assert len(moved) == len(A) == size
    assert boundary(moved).elements == {oracles.translate(g, s, u) for u in boundary(A).elements}
    assert depth(moved) == depth(A)
    if not g.is_finite:
        assert varopoulos_check(moved) == varopoulos_check(A)
        assert classify_separation(moved) == classify_separation(A)


def test_sets_at_the_lattice_coordinate_bound_load_back(tmp_path):
    # grown sets moved next to the bound, each member's coordinates after
    # the first at most 2^38 - 1 in magnitude, load back through save_set
    # and load_set
    path = str(tmp_path / "near.json")
    for s, size in [((0, 1 - 2**38), 1), ((5, 2**38 - 150), 150), ((0, 0, 2**38 - 3), 3)]:
        g = IntegerLattice(len(s))
        A = VertexSet(g, {oracles.translate(g, s, v)
                          for v in random_connected_set(g, size, seed=1).elements})
        save_set(A, path)
        assert load_set(path) == A


# --- vertex sets and set files -----------------------------------------------


def test_vertex_set_validates_and_deduplicates():
    A = VertexSet(Z2, [(0, 0), (0, 0), (1, 0)])
    assert len(A) == 2
    B = set_from_json_obj({"group": "z^2", "vertices": [[0, 0], [1, 0], [0, 0]]})
    assert len(B) == 2 and B == A
    with pytest.raises(InvalidVertexError):
        VertexSet(Torus(5, 2), [(5, 0)])
    # a free-group word is a tuple; a list is named, not read letter by letter
    with pytest.raises(InvalidVertexError, match=r"^\[1\] is not a word tuple$"):
        VertexSet(FreeGroup(2), [[1]])
    assert repr(A) == "VertexSet('z^2', 2 vertices)"


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


# JSON values of every type, nested a few levels
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)
# set-file objects that get as far as the vertices: a valid group (or text)
# and vertices that are often well-formed
SET_FILES = st.fixed_dictionaries({
    "group": st.sampled_from(["z^1", "z^2", "torus:5x5", "free:2", "cyl:3", "cyl:2:[(1,1)]"])
    | st.text(max_size=8),
    "vertices": st.lists(
        st.lists(st.integers(-6, 6), max_size=3) | st.text(alphabet="abAB?", max_size=4)
        | JSON_VALUES,
        max_size=6,
    ),
})


@settings(max_examples=300)
@given(obj=JSON_VALUES | SET_FILES)
def test_set_from_json_obj_returns_a_set_or_raises_value_error(obj):
    try:
        A = set_from_json_obj(obj)
    except ValueError:  # InvalidVertexError included
        return
    assert isinstance(A, VertexSet)
    assert set_from_json_obj(A.to_json_obj()) == A


def test_vertex_isoperimetry_lower_bound_on_z2():
    # Wang & Wang (SIAM J. Appl. Math., 1977): on Z^2 no set of 2r^2 + 2r + 1
    # vertices has fewer than 4r + 4 boundary vertices, and the diamond
    # {|x| + |y| <= r} attains it (cited, not proved here). A boundary scan
    # that drops a vertex fails the diamond's equality.
    for r in range(12):
        size, least = 2 * r * r + 2 * r + 1, 4 * r + 4
        diamond = VertexSet(Z2, ball(Z2, (0, 0), r))
        assert (len(diamond), len(boundary(diamond))) == (size, least)
        for seed in range(30):
            A = random_connected_set(Z2, size, seed=seed)
            assert len(boundary(A)) >= least, (r, seed)


def test_varopoulos_report_serialization():
    d = varopoulos_check(VertexSet(Z2, [(0, 0)])).to_dict()
    assert d == {"m": 1, "holds": True, "lhs": 1, "rhs": 8}
