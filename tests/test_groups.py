"""Neighbor enumeration, balls, growth classification, and the group grammar."""

import math
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cayleyiso import (
    BudgetExceeded,
    Cylinder,
    FreeGroup,
    IntegerLattice,
    InvalidVertexError,
    Torus,
    ball,
    ball_profile,
    classify_growth,
    minimal_ball_radius,
    parse_group,
)


def all_families():
    return [
        IntegerLattice(1),
        IntegerLattice(2),
        Torus(31, 2),
        FreeGroup(2),
        Cylinder(3),
    ]


# --- neighbors ---------------------------------------------------------------


def test_lattice_neighbors_origin():
    g = IntegerLattice(2)
    assert set(g.neighbors((0, 0))) == {(1, 0), (-1, 0), (0, 1), (0, -1)}


def test_free_neighbors_of_single_letter():
    g = FreeGroup(2)
    words = {g.vertex_str(u) for u in g.neighbors(g.parse_word("a"))}
    assert words == {"", "aa", "ab", "aB"}


def test_torus_neighbors_wrap_around():
    g = Torus(31, 2)
    assert set(g.neighbors((30, 0))) == {(0, 0), (29, 0), (30, 1), (30, 30)}


def test_neighbors_deduplicated_count():
    # non-standard cylinders too: the generators are distinct (dz, dr mod m)
    # pairs, so their neighbors are distinct without a dedup pass
    extra = [
        parse_group("cyl:2"),
        Cylinder(4, [(2, 1), (1, 0)]),
        Cylinder(3, [(1, 0), (0, 1), (10**6, 0)]),
    ]
    for g in all_families() + extra:
        v = g.identity()
        nbrs = g.neighbors(v)
        assert len(nbrs) == len(set(nbrs)) == g.degree


def test_neighbor_symmetry_bulk():
    # direct sampling so each family sees at least 10^3 vertices
    rng = random.Random(1234)
    for g in all_families():
        for _ in range(1000):
            v = oracles.random_vertex(g, rng)
            for u in g.neighbors(v):
                assert v in g.neighbors(u)


@given(x=st.integers(-10**6, 10**6), y=st.integers(-10**6, 10**6))
def test_lattice_symmetry_unbounded(x, y):
    g = IntegerLattice(2)
    for u in g.neighbors((x, y)):
        assert (x, y) in g.neighbors(u)


@st.composite
def reduced_words(draw, rank=2, max_len=10):
    length = draw(st.integers(0, max_len))
    word = []
    for _ in range(length):
        options = [x for x in range(-rank, rank + 1)
                   if x != 0 and (not word or x != -word[-1])]
        word.append(draw(st.sampled_from(options)))
    return tuple(word)


@given(w=reduced_words())
def test_free_symmetry_and_degree(w):
    g = FreeGroup(2)
    nbrs = g.neighbors(w)
    assert len(nbrs) == 4
    for u in nbrs:
        assert w in g.neighbors(u)


@given(w=reduced_words(rank=3, max_len=8))
def test_word_string_round_trip(w):
    g = FreeGroup(3)
    assert g.parse_word(g.vertex_str(w)) == w


def test_invalid_vertices_rejected():
    with pytest.raises(InvalidVertexError):
        IntegerLattice(2).neighbors((0, 0, 0))
    with pytest.raises(InvalidVertexError):
        Torus(5, 2).neighbors((5, 0))
    with pytest.raises(InvalidVertexError):
        FreeGroup(2).neighbors((1, -1))
    with pytest.raises(InvalidVertexError):
        FreeGroup(2).neighbors((3,))
    with pytest.raises(InvalidVertexError):
        Cylinder(3).neighbors((0, 3))
    with pytest.raises(InvalidVertexError):
        FreeGroup(2).parse_word("a1b")
    # a caller's center is checked even when the BFS never expands it
    with pytest.raises(InvalidVertexError):
        ball(IntegerLattice(2), (0, 0, 0), 0)


# --- balls -------------------------------------------------------------------


def test_ball_radius_zero_is_center():
    g = IntegerLattice(2)
    assert ball(g, (3, -2), 0) == {(3, -2)}


def test_z2_ball_examples():
    g = IntegerLattice(2)
    assert ball(g, (0, 0), 2) == oracles.z2_ball_points(2)
    assert ball_profile(g, 2)[2] == 13
    assert ball_profile(g, 8)[8] == 145


def test_z1_ball_size():
    assert ball_profile(IntegerLattice(1), 5)[5] == 11


def test_free_ball_size_17():
    g = FreeGroup(2)
    B = ball(g, (), 2)
    assert len(B) == 17
    assert B == oracles.enumerate_reduced_words(2, 2)


def test_torus_ball_saturates():
    assert ball_profile(Torus(31, 2), 100)[100] == 961


def test_torus_ball_matches_wraparound_count():
    g = Torus(7, 2)
    for r in range(0, 9):
        assert ball_profile(g, r)[r] == oracles.torus_ball_size(7, 2, r)


def test_cylinder_ball_matches_direct_count():
    g = Cylinder(3)
    for r in range(0, 11):
        assert ball_profile(g, r)[r] == oracles.cylinder_standard_ball_size(3, r)


def test_ball_size_center_independent():
    rng = random.Random(99)
    for g in all_families():
        r = 3 if isinstance(g, FreeGroup) else 6
        reference = ball_profile(g, r)[r]
        for _ in range(10):
            center = oracles.random_vertex(g, rng)
            assert len(ball(g, center, r)) == reference


def test_z2_ball_formula_to_50():
    profile = ball_profile(IntegerLattice(2), 50)
    for r, size in enumerate(profile):
        assert size == oracles.z2_ball_size(r)


def test_free_ball_closed_form_to_8():
    g = FreeGroup(2)
    counted = ball_profile(g, 8)
    for r in range(9):
        assert counted[r] == oracles.free_ball_size(2, r)
        assert counted[r] == len(ball(g, (), r))


def test_free_rank3_profile_matches_formula():
    g = FreeGroup(3)
    profile = ball_profile(g, 6)
    for r in range(7):
        assert profile[r] == oracles.free_ball_size(3, r)


def test_negative_radius_rejected():
    with pytest.raises(ValueError):
        ball(IntegerLattice(2), (0, 0), -1)
    with pytest.raises(ValueError):
        ball_profile(IntegerLattice(2), -3)


def test_budget_exceeded_reports_partial_radius():
    g = FreeGroup(2)
    with pytest.raises(BudgetExceeded) as exc:
        ball(g, (), 9, budget=100)
    assert exc.value.budget == 100
    assert exc.value.radius_reached == 3  # b(3) = 53 fits, level 4 does not
    assert exc.value.visited == 101


def test_minimal_ball_radius():
    g = IntegerLattice(2)
    assert minimal_ball_radius(g, 2) == 1
    assert minimal_ball_radius(g, 168) == 9  # b(8) = 145 < 168 <= b(9) = 181
    with pytest.raises(ValueError):
        minimal_ball_radius(Torus(5, 2), 10)
    with pytest.raises(ValueError):
        minimal_ball_radius(g, 0)


def test_minimal_ball_radius_counts_free_groups():
    for rank, radius in ((2, 6), (3, 4)):
        g = FreeGroup(rank)
        sizes = [len(oracles.bfs_ball(g, g.identity(), r)) for r in range(radius + 1)]
        for target in range(1, sizes[radius] + 1):
            expected = next(r for r in range(1, radius + 1) if sizes[r] >= target)
            assert minimal_ball_radius(g, target) == expected
        # past BFS reach, against the closed form, across the counted chunks
        for r in range(1, 40):
            b = oracles.free_ball_size(rank, r)
            assert minimal_ball_radius(g, b, budget=1) == r
            assert minimal_ball_radius(g, b + 1, budget=1) == r + 1
    # counted, so exempt from the budget: b(11) = 354293 < 10^6 <= b(12)
    assert minimal_ball_radius(FreeGroup(2), 10**6, budget=10) == 12


def test_minimal_ball_radius_counts_lattices_and_cylinders():
    cases = (
        (IntegerLattice(1), 12, oracles.z1_ball_size),
        (IntegerLattice(2), 8, oracles.z2_ball_size),
        (Cylinder(3), 12, lambda r: oracles.cylinder_standard_ball_size(3, r)),
    )
    for g, radius, size in cases:
        sizes = [len(oracles.bfs_ball(g, g.identity(), r)) for r in range(radius + 1)]
        for target in range(1, sizes[radius] + 1):
            expected = next(r for r in range(1, radius + 1) if sizes[r] >= target)
            assert minimal_ball_radius(g, target) == expected
        # far past BFS reach, where only counting can answer within budget 1
        for r in list(range(1, 70)) + [1000, 4097, 10**5]:
            b = size(r)
            assert minimal_ball_radius(g, b, budget=1) == r
            assert minimal_ball_radius(g, b + 1, budget=1) == r + 1


def test_minimal_ball_radius_counts_each_radius_o_log_m_times():
    g = IntegerLattice(1)
    counted = []
    rule = g._ball_count
    g._ball_count = lambda r: counted.append(r) or rule(r)
    m = 10**12
    assert minimal_ball_radius(g, 2 * m + 1) == m
    assert len(counted) <= 2 * 41  # gallop and bisect, 2^40 < 10^12 < 2^41


# --- growth ------------------------------------------------------------------


def test_growth_z1_linear():
    report = classify_growth(IntegerLattice(1), 20)
    assert report.branch == 1
    assert report.alpha == 2
    assert report.beta == 1
    assert report.ball_sizes == [2 * n + 1 for n in range(21)]


def test_growth_z2_quadratic():
    report = classify_growth(IntegerLattice(2), 20)
    assert report.branch == 2
    assert report.alpha is None and report.beta is None


def test_growth_free_quadratic_branch():
    report = classify_growth(FreeGroup(2), 20)
    assert report.branch == 2
    assert report.ball_sizes[20] == oracles.free_ball_size(2, 20)


def test_growth_cylinder_linear():
    report = classify_growth(Cylinder(3), 20)
    assert report.branch == 1
    assert report.alpha == 6
    assert report.beta == 1


def test_growth_branch_matches_pointwise_quadratic_test():
    # the classifier must return branch 2 exactly when the quadratic lower
    # bound holds at every sampled radius
    for g in all_families():
        report = classify_growth(g, 15)
        quadratic = all(
            2 * report.ball_sizes[n] >= (n + 1) * (n + 2) for n in range(16)
        )
        assert (report.branch == 2) == quadratic


def test_growth_needs_two_radii():
    with pytest.raises(ValueError):
        classify_growth(IntegerLattice(2), 1)


def test_growth_report_serialization():
    d = classify_growth(IntegerLattice(1), 5).to_dict()
    assert d["group"] == "z^1"
    assert d["maxRadius"] == 5
    assert d["branch"] == 1
    assert d["ballSizes"] == [1, 3, 5, 7, 9, 11]


# --- grammar and construction ------------------------------------------------


def test_parse_group_families():
    assert parse_group("z^2").family == "z^2"
    assert parse_group("z^1").declared_ends == 2
    assert parse_group("torus:31x31").vertex_count == 961
    assert parse_group("free:2").degree == 4
    assert parse_group("cyl:3").degree == 4
    canonical = parse_group("cyl:3:[(1,0),(-1,0),(0,1),(0,-1)]")
    assert canonical.family == "cyl:3"


def test_parse_group_round_trip():
    for text in ("z^1", "z^2", "torus:31x31", "free:2", "cyl:3",
                 "cyl:4:[(2,1),(1,0)]"):
        g = parse_group(text)
        assert parse_group(g.family).family == g.family


def test_parse_group_rejects_garbage():
    for text in ("z^x", "torus:31x30", "torus:", "free:one", "q8", "cyl:3:[(1)]",
                 "cyl:x", "", "cyl:3:oops"):
        with pytest.raises(ValueError):
            parse_group(text)


def test_family_constructor_bounds():
    with pytest.raises(ValueError):
        IntegerLattice(0)
    with pytest.raises(ValueError):
        Torus(2, 2)
    with pytest.raises(ValueError):
        FreeGroup(1)
    with pytest.raises(ValueError):
        FreeGroup(27)
    with pytest.raises(ValueError):
        Cylinder(1)


def test_cylinder_symmetrizes_generators():
    g = Cylinder(2, [(1, 0), (1, 1)])
    assert set(g.generators) == {(1, 0), (-1, 0), (1, 1), (-1, 1)}
    assert g.degree == 4


def test_cylinder_self_inverse_generator_not_duplicated():
    g = Cylinder(2, [(1, 0), (0, 1)])
    # (0,1) is its own inverse mod 2, so the degree is 3
    assert g.degree == 3


def test_cylinder_rejects_non_generating_sets():
    with pytest.raises(ValueError, match="gcd"):
        Cylinder(4, [(2, 0), (0, 1)])
    with pytest.raises(ValueError, match="residues"):
        Cylinder(2, [(1, 1)])
    with pytest.raises(ValueError, match="gcd"):
        Cylinder(3, [(0, 1)])
    with pytest.raises(ValueError):
        Cylinder(3, [(0, 0)])


def test_cylinder_accepts_shifted_generators():
    # z-shifts of 1 plus a twisted step reach every residue at z=0
    g = Cylinder(4, [(2, 1), (1, 0)])
    assert g.max_z_shift == 2
    assert g.degree == 4


def test_counted_ball_profiles_match_bfs_and_oracles():
    for d, radius in ((1, 30), (2, 20), (3, 10), (4, 6)):
        g = IntegerLattice(d)
        bfs = [len(ball(g, g.identity(), r)) for r in range(radius + 1)]
        assert ball_profile(g, radius) == bfs
        assert bfs == [oracles.lattice_ball_size(d, r) for r in range(radius + 1)]
    for m in range(2, 8):
        direct = [oracles.cylinder_standard_ball_size(m, r) for r in range(26)]
        # the same generator set, given three ways; m = 2 has the long family
        for g in (Cylinder(m), Cylinder(m, [(-1, 0), (0, -1), (1, 0), (0, 1)]),
                  parse_group(Cylinder(m).family)):
            assert ball_profile(g, 25) == direct
            assert [len(ball(g, g.identity(), r)) for r in range(26)] == direct
    assert Cylinder(4, [(2, 1), (1, 0)])._ball_count(5) is None
    assert parse_group("torus:7x7")._ball_count(5) is None


def _generator_lists():
    # every set of one or two generators with |zShift| <= 3, for m <= 6
    for m in range(2, 7):
        steps = [(dz, dr) for dz in range(-3, 4) for dr in range(m) if (dz, dr) != (0, 0)]
        for gens in [[a] for a in steps] + list(combinations(steps, 2)):
            yield m, gens
    # long lists of rows of the lattice spanned by (1, c) and (0, e), of index e | m
    rng = random.Random(7)
    for _ in range(300):
        m = rng.randint(2, 9)
        c = rng.randrange(m)
        e = rng.choice([e for e in range(1, m + 1) if m % e == 0])
        gens = []
        for _ in range(rng.randint(1, 40)):
            x = rng.choice((0, 1, -1, 2, -3, 4)) * rng.choice((1, 1, 2, 3))
            gens.append((x, (c * x + e * rng.randrange(m)) % m))
        yield m, [gen for gen in gens if gen != (0, 0)] or [(0, 1)]


def test_cylinder_generation_matches_bfs_oracle():
    for m, gens in _generator_lists():
        generates, column = oracles.cylinder_generates(m, gens)
        if generates:
            Cylinder(m, gens)
            continue
        with pytest.raises(ValueError) as exc:
            Cylinder(m, gens)
        if math.gcd(*(dz for dz, _ in gens)) == 1:
            assert f"only residues {column} are reachable at z=0" in str(exc.value)
        else:
            assert "z-shifts have gcd" in str(exc.value)


@settings(max_examples=30)
@given(z=st.integers(-1000, 1000), r=st.integers(0, 2))
def test_cylinder_neighbors_shape(z, r):
    g = Cylinder(3)
    nbrs = g.neighbors((z, r))
    assert len(nbrs) == 4
    for (uz, ur) in nbrs:
        assert abs(uz - z) <= 1
        assert 0 <= ur < 3


def test_declared_ends_metadata():
    assert IntegerLattice(1).declared_ends == 2
    assert IntegerLattice(3).declared_ends == 1
    assert Torus(5, 2).declared_ends == 0
    assert FreeGroup(2).declared_ends == math.inf
    assert Cylinder(3).declared_ends == 2
