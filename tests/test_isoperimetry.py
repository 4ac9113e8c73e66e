"""Boundary, depth, closure connectivity, Varopoulos, and the separation
classifier, checked against slow per-vertex oracles."""

import math
import random
from itertools import count

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
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
from cayleyiso import isoperimetry
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
    # the depth search runs on inside the ball after the strip is used up
    members = ball(Z2, (0, 0), 6) | {(40, y) for y in range(3)}
    A = VertexSet(Z2, members)
    assert depth(A) == 7 == oracles.per_vertex_depth(Z2, members)
    levels = _bfs_levels(Z2, A._inner, None, within=A._keys)
    assert [len(sphere) for sphere in levels] == [24 + 3, 20, 16, 12, 8, 4, 1]


def test_depth_of_a_long_interval_takes_a_level_per_step():
    # 5000 levels of two members each; the per-vertex oracle, quadratic in
    # the length, checks a shorter interval
    g = IntegerLattice(1)
    A = VertexSet(g, ((x,) for x in range(10**4)))
    assert depth(A) == 5000
    levels = _bfs_levels(g, A._inner, None, within=A._keys)
    assert [len(sphere) for sphere in levels] == [2] * 5000
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
    # the frontier: from the inner members of an accreted free:2 set, and in
    # the last levels of a Euclidean z^2 disc searched from its centre
    g = FreeGroup(2)
    tree = oracles.accretion_set(g, 400, seed=2)
    disc = {(x, y) for x in range(-15, 16) for y in range(-15, 16) if x * x + y * y <= 225}
    cases = [(g, tree, list(map(g._decode, VertexSet(g, tree)._inner))), (Z2, disc, [(0, 0)])]
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
    # read from the boundary where it is the smaller side (z^2, holes
    # included), else from A (free:3, whose boundary outgrows A)
    cases = [("free:3", random_connected_set(FreeGroup(3), 300, seed=4).elements, True),
             ("z^2", random_connected_set(Z2, 300, seed=4).elements, False),
             ("z^2", perforated(3, 4).elements, False)]
    for family, members, larger in cases:
        g = parse_group(family)
        A = VertexSet(g, members)
        assert (len(A._boundary) > len(A)) is larger
        neighbors = oracles.neighbor_function(g)
        expected = {v for v in members if any(u not in members for u in neighbors(v))}
        assert set(map(g._decode, A._inner)) == expected


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
    # never twice: a grown set carries its boundary and connected closure,
    # so it scans for neither; a copy of it scans A once for its boundary
    # and runs the connectivity BFS once, however many checks read them
    scans, searches = [], []

    def counted_scan(A):
        scans.append(len(A))
        return scan(A)

    def counted_search(g, sources, budget=None, within=None):
        searches.append(len(sources))
        return search(g, sources, budget, within)

    scan, search = isoperimetry._boundary_elements, isoperimetry._bfs_levels
    monkeypatch.setattr(isoperimetry, "_boundary_elements", counted_scan)
    monkeypatch.setattr(isoperimetry, "_bfs_levels", counted_search)

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
        # on z^1, z^2 and cyl:3, and on free:2 runs one BFS from the members
        # next to the complement
        depth_searches = [len(A._inner)] if g.family == "free:2" else []
        assert scans == [] and searches == depth_searches
        scans.clear(), searches.clear()
        assert checks(VertexSet(g, A)) == grown
        # the copy adds the connectivity BFS from one member
        assert scans == [200] and searches == [1] + depth_searches
        scans.clear(), searches.clear()


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


CARRYING_FAMILIES = ["z^1", "z^2", "z^3", "cyl:3", "cyl:4:[(2,1),(1,0)]", "free:2",
                     "free:3", "torus:31x31"]


def test_a_grown_set_carries_the_facts_the_independent_routes_find():
    for family in CARRYING_FAMILIES:
        g = parse_group(family)
        for size, seed in [(1, 0), (2, 4), (37, 1), (150, 2), (400, 3)]:
            A = random_connected_set(g, size, seed=seed)
            copy = VertexSet(g, A)
            assert {"_boundary", "_closure_is_connected"} <= set(vars(A))
            assert not {"_boundary", "_inner", "_closure_is_connected"} & set(vars(copy))
            members = A.elements
            outside = oracles.boundary_by_distance(g, members)
            assert A._boundary == copy._boundary
            assert boundary(A).elements == boundary(copy).elements == outside
            next_to_outside = {v for v in members
                               if any(u not in members for u in g.neighbors(v))}
            assert {g._decode(v) for v in A._inner} == next_to_outside
            assert A._inner == copy._inner
            assert depth(A) == depth(copy) == oracles.per_vertex_depth(g, members)
            closure = oracles.connected_within(g, members | outside)
            assert is_connected_with_boundary(A) is closure is True
            assert is_connected_with_boundary(copy) is True


def test_a_grown_set_that_exhausts_a_torus_carries_an_empty_boundary():
    g = Torus(3, 2)
    A = random_connected_set(g, 9, seed=5)
    copy = VertexSet(g, A)
    assert A._boundary == copy._boundary == frozenset()
    assert is_connected_with_boundary(A) and is_connected_with_boundary(copy)
    errors = []
    for B in (A, copy):
        with pytest.raises(ValueError) as exc_info:
            depth(B)
        errors.append(str(exc_info.value))
    assert errors[0] == errors[1] == "depth undefined: set exhausts the finite host torus:3x3"


def test_only_grown_sets_carry_facts(monkeypatch, tmp_path):
    # sets from files, balls, the perforated family and both sides of the
    # torus embedding scan A for their boundary, which on z^2 neither the
    # closure check of a connected set nor depth reads: ask for it
    scans = []

    def counted(A):
        scans.append(len(A))
        return scan(A)

    scan = isoperimetry._boundary_elements
    monkeypatch.setattr(isoperimetry, "_boundary_elements", counted)
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
@example(rank=3, size=20_000, seed=1, start=random.Random(0))
@given(rank=st.sampled_from([2, 3]), size=st.integers(1, 20_000),
       seed=st.integers(0, 2**32), start=st.randoms(use_true_random=False))
def test_a_grown_tree_set_has_the_tree_boundary(rank, size, seed, start):
    # in the 2r-regular tree a connected A spans |A| - 1 edges and no vertex
    # outside it has two neighbors in it: |boundary| = (2r - 2)|A| + 2
    g = FreeGroup(rank)
    A = random_connected_set(g, size, seed=seed, start=oracles.random_vertex(g, start))
    assert len(boundary(A)) == (2 * rank - 2) * size + 2


@settings(max_examples=12)
@example(size=20_000, seed=1, start=0)
@given(size=st.integers(1, 20_000), seed=st.integers(0, 2**32),
       start=st.integers(-10**6, 10**6))
def test_a_grown_line_set_is_an_interval(size, seed, start):
    # a connected set of Z is an interval: two boundary points, and its
    # middle point is ceil(|A|/2) steps from the nearer one
    A = random_connected_set(IntegerLattice(1), size, seed=seed, start=(start,))
    assert len(boundary(A)) == 2
    assert depth(A) == (size + 1) // 2


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


def test_random_set_owns_its_budget():
    with pytest.raises(BudgetExceeded) as exc_info:
        random_connected_set(IntegerLattice(2), 1000, budget=100)
    assert (exc_info.value.budget, exc_info.value.visited) == (100, 1000)
    assert len(random_connected_set(IntegerLattice(2), 100, budget=100)) == 100


def test_random_set_matches_the_accretion_oracle_on_every_host():
    # the same draws over the same candidate order grow the same set; the
    # oracle draws with randrange, the generator with its inlined loop
    rng = random.Random(9)
    for family in CARRYING_FAMILIES:
        g = parse_group(family)
        for size, seed in [(1, 0), (2, 5), (60, 1), (400, 2), (2000, 3)]:
            size = min(size, g.vertex_count or size)
            A = random_connected_set(g, size, seed=seed)
            assert A.elements == oracles.accretion_set(g, size, seed=seed), family
        start = oracles.random_vertex(g, rng)
        A = random_connected_set(g, 500, seed=9, start=start)
        assert A.elements == oracles.accretion_set(g, 500, seed=9, start=start), family


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


# --- vertex sets and set files -----------------------------------------------


def test_vertex_set_validates_and_deduplicates():
    A = VertexSet(Z2, [(0, 0), (0, 0), (1, 0)])
    assert len(A) == 2
    with pytest.raises(InvalidVertexError):
        VertexSet(Torus(5, 2), [(5, 0)])
    # a free-group word is a tuple; a list is named, not read letter by letter
    with pytest.raises(InvalidVertexError, match=r"^\[1\] is not a word tuple$"):
        VertexSet(FreeGroup(2), [[1]])


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
