"""Neighbor enumeration, balls, growth classification, and the group grammar."""

import math
import random
from collections import defaultdict
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from cayleyiso import _zd, groups
from cayleyiso._budget import _least
from cayleyiso import (
    DEFAULT_BUDGET,
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


# --- free-group keys ----------------------------------------------------------


def test_free_keys_round_trip_every_short_word():
    for rank in (2, 3):
        g = FreeGroup(rank)
        words = oracles.enumerate_reduced_words(rank, 5)
        keys = {g._encode(w) for w in words}
        assert len(keys) == len(words)  # one key per word
        assert g._encode(g.identity()) == 0
        for w in words:
            assert g._decode(g._encode(w)) == w


@settings(max_examples=200)
@given(w=reduced_words(rank=26, max_len=60))
def test_free_keys_round_trip_rank_26(w):
    g = FreeGroup(26)
    assert g._decode(g._encode(w)) == w


def test_free_neighbors_match_word_oracle_in_order():
    for rank in (2, 3):
        g = FreeGroup(rank)
        for w in oracles.enumerate_reduced_words(rank, 4):
            assert g.neighbors(w) == oracles.neighbor_function(g)(w)


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


# --- integer keys on the abelian hosts ----------------------------------------

# lower z^d coordinates: anywhere, or at the edge of the validated range
LOWER_BOUND = _zd.LATTICE_COORDINATE_BOUND - 1
LOWER = st.integers(-10**6, 10**6) | st.sampled_from([LOWER_BOUND, -LOWER_BOUND, 0])
KEYED_CYLINDERS = [
    Cylinder(2), Cylinder(3), Cylinder(7), Cylinder(4, [(2, 1), (1, 0)]),
    Cylinder(3, [(1, 0), (0, 1), (10**6, 0)]),
    Cylinder(5000), Cylinder(10**12, [(1, 0), (0, 1), (3, 10**11 + 7)]),
]


def _keys_agree_with_the_oracle(g, v):
    key = g._encode(v)
    assert g._decode(key) == v
    assert [g._decode(u) for u in g._step(key)] == oracles.neighbor_function(g)(v)


@settings(max_examples=300)
@given(d=st.integers(1, 4), data=st.data())
def test_lattice_keys_round_trip_and_step_like_the_oracle(d, data):
    # the first coordinate is the key's quotient and has no bound
    first = data.draw(st.integers(-10**30, 10**30) | st.sampled_from([LOWER_BOUND, -LOWER_BOUND]))
    rest = data.draw(st.lists(LOWER, min_size=d - 1, max_size=d - 1))
    _keys_agree_with_the_oracle(IntegerLattice(d), (first, *rest))


WIDE = _zd._BYTES_FROM_DIMENSION


@settings(max_examples=40, deadline=None)
@example(d=2236, first=-(10**30), rng=random.Random(0), edge=True)
@given(d=st.sampled_from([WIDE - 2, WIDE - 1, WIDE, WIDE + 1, 100, 2236]),
       first=st.integers(-10**30, 10**30) | st.sampled_from([LOWER_BOUND, -LOWER_BOUND]),
       rng=st.randoms(use_true_random=False), edge=st.booleans())
def test_wide_lattice_keys_round_trip_and_keep_their_layout(d, first, rng, edge):
    # both sides of the switch to the bytes codec, and the largest d: the key
    # is x_0 * S^(d-1) + ... + x_{d-1} with S = 2^40, summed here by Horner's
    # rule, and below d = 2236 every step decodes like the oracle's neighbor
    g = IntegerLattice(d)
    values = [-LOWER_BOUND, -1, 0, 1, LOWER_BOUND]
    v = (first, *(rng.choice(values) if edge else rng.randint(-LOWER_BOUND, LOWER_BOUND)
                  for _ in range(d - 1)))
    key = g._encode(v)
    expected = 0
    for x in v:
        expected = (expected << 40) + x
    assert key == expected and g._decode(key) == v
    if d < 2236:
        _keys_agree_with_the_oracle(g, v)


@settings(max_examples=300)
@given(n=st.integers(3, 12), d=st.integers(1, 3), data=st.data())
def test_torus_keys_round_trip_and_step_like_the_oracle(n, d, data):
    residue = st.integers(0, n - 1) | st.sampled_from([0, n - 1])
    v = tuple(data.draw(st.lists(residue, min_size=d, max_size=d)))
    _keys_agree_with_the_oracle(Torus(n, d), v)


@settings(max_examples=300)
@given(g=st.sampled_from(KEYED_CYLINDERS), data=st.data())
def test_cylinder_keys_round_trip_and_step_like_the_oracle(g, data):
    z = data.draw(st.integers(-10**12, 10**12) | st.integers(-3, 3))
    r = data.draw(st.integers(0, g.m - 1) | st.sampled_from([0, g.m - 1]))
    _keys_agree_with_the_oracle(g, (z, r))


@pytest.mark.parametrize("g", [
    IntegerLattice(1), IntegerLattice(2), IntegerLattice(WIDE), IntegerLattice(2236),
    Torus(31, 2), Torus(3, 3), FreeGroup(2), FreeGroup(26), *KEYED_CYLINDERS[:4]])
def test_the_identity_is_key_zero_on_every_family(g):
    assert type(g.identity()) is tuple and g.identity() == oracles.identity(g)
    assert g._encode(g.identity()) == 0 and g._decode(0) == g.identity()


VALIDATED_HOSTS = [
    IntegerLattice(1), IntegerLattice(2), IntegerLattice(3), IntegerLattice(WIDE),
    Torus(31, 2), Torus(3, 3), Cylinder(2), Cylinder(3), Cylinder(4, [(2, 1), (1, 0)]),
]


def _edge_values(g) -> list:
    """Coordinates at the edges of every host's bounds, and foreign ones."""
    side = g.n if isinstance(g, Torus) else g.m if isinstance(g, Cylinder) else 5
    return [LOWER_BOUND, -LOWER_BOUND, LOWER_BOUND + 1, -LOWER_BOUND - 1, -1, 0, side - 1,
            side, 10**400, -(10**400), True, False, 0.0, 2.5, math.nan, None, "1"]


def _edge_cases() -> list:
    """(host, vertex) probes: the identity with one coordinate set to each
    edge value, and the identity cut, lengthened, listed or not a sequence."""
    cases = []
    for g in VALIDATED_HOSTS:
        zero = oracles.identity(g)
        for i in sorted({0, 1, len(zero) - 1} & set(range(len(zero)))):
            cases += [(g, zero[:i] + (x,) + zero[i + 1:]) for x in _edge_values(g)]
        cases += [(g, v) for v in (list(zero), (), zero[1:], (*zero, 0), 0, None, "0")]
    return cases


def _with_edge_examples(test):
    for case in _edge_cases():
        test = example(case=case)(test)
    return test


@st.composite
def vertices_near_the_identity(draw, g):
    """A vertex near the identity with one or two coordinates replaced by an
    edge or a foreign value, now and then cut or lengthened, or a list."""
    k = len(oracles.identity(g))
    v = draw(st.lists(st.integers(0, 2), min_size=k, max_size=k))
    for i in draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=2)):
        v[i] = draw(st.sampled_from(_edge_values(g)) | st.integers() | st.floats())
    if draw(st.booleans()):
        v = v[:draw(st.integers(0, k))] + draw(st.lists(st.integers(0, 2), max_size=1))
    return draw(st.sampled_from([tuple(v), v]))


@settings(max_examples=300)
@_with_edge_examples
@given(case=st.sampled_from(VALIDATED_HOSTS).flatmap(
    lambda g: st.tuples(st.just(g), vertices_near_the_identity(g))))
def test_abelian_hosts_validate_as_the_oracle_does(case):
    g, v = case
    expected = oracles.vertex_error(g, v)
    try:
        g.validate_vertex(v)
    except InvalidVertexError as error:
        assert str(error) == expected
    else:
        assert oracles.vertex_is_valid(g, v)


def test_lattice_lower_coordinates_are_bounded():
    bound = _zd.LATTICE_COORDINATE_BOUND
    for d in (2, 3):
        g = IntegerLattice(d)
        for x in (bound, -bound, 10**40):
            v = (0,) * (d - 1) + (x,)
            with pytest.raises(InvalidVertexError, match="magnitude >= 2\\^38"):
                g.validate_vertex(v)
        g.validate_vertex((10**40,) + (bound - 1,) * (d - 1))
    IntegerLattice(1).validate_vertex((10**40,))


def test_keys_of_a_ball_spread_under_the_hash():
    # a radix of 2^64 would fold (x, y) and (x - 1, y + 8) into one hash, as
    # CPython hashes an int modulo 2^61 - 1; the one shared hash left is
    # CPython's own hash(-1) == hash(-2)
    for g in (IntegerLattice(2), IntegerLattice(3), Torus(31, 2), Cylinder(3)):
        by_hash = defaultdict(set)
        for v in ball(g, g.identity(), 15):
            by_hash[hash(g._encode(v))].add(g._encode(v))
        shared = [keys for keys in by_hash.values() if len(keys) > 1]
        assert shared in ([], [{-1, -2}]), g


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
    assert len(ball(Torus(3, 2), (0, 0), 10**20)) == 9  # a radius past sys.maxsize


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
    # radius 3 takes levels 0..3 and builds no level past them
    assert len(ball(g, (), 3, budget=53)) == 53


def test_an_uncounted_ball_trips_its_budget_in_the_search():
    # a counted host refuses before the search; this one has no counting
    # rule, so the BFS itself trips, with the same fields
    g = Cylinder(4, [(2, 1), (1, 0)])
    sizes = [len(oracles.bfs_ball(g, g.identity(), r)) for r in range(6)]
    with pytest.raises(BudgetExceeded) as exc:
        ball(g, (3, 2), 9, budget=sizes[4])
    assert (exc.value.budget, exc.value.visited) == (sizes[4], sizes[4] + 1)
    assert exc.value.radius_reached == 4
    assert len(ball(g, (3, 2), 4, budget=sizes[4])) == sizes[4]


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


@settings(max_examples=400)
@example(lo=1, stride=1, offset=10**12)
@given(lo=st.integers(0, 3), stride=st.sampled_from([1, 2]),
       offset=st.one_of(st.integers(-3, 40), st.integers(0, 5000), st.integers(0, 10**15)))
def test_least_is_the_linear_scan_in_logarithmically_many_calls(lo, stride, offset):
    # the one gallop-and-bisect behind find_params (stride 2) and
    # minimal_ball_radius (stride 1), on a threshold offset from lo
    threshold, calls = lo + offset, []

    def holds(j):
        calls.append(j)
        return j >= threshold

    answer = _least(holds, lo, stride)
    i = max(0, -(-offset // stride))  # the answer's term, counting from 0
    assert answer == lo + i * stride
    assert all(j >= lo and (j - lo) % stride == 0 for j in calls)
    assert len(calls) <= 2 * (i + 1).bit_length() + 2  # 2 ceil(log2(i + 2)) + 2


def test_minimal_ball_radius_scans_bfs_levels_without_a_counting_rule():
    # a cylinder with non-standard generators has no counting rule, so m is
    # read off its BFS levels, under the vertex budget
    g = Cylinder(4, [(2, 1), (1, 0)])
    assert g._ball_count(1) is None
    sizes = [1]
    while sizes[-1] < 400:
        sizes.append(len(oracles.bfs_ball(g, g.identity(), len(sizes))))
    for target in range(1, 401):
        expected = next(r for r in range(1, len(sizes)) if sizes[r] >= target)
        assert minimal_ball_radius(g, target) == expected
    with pytest.raises(BudgetExceeded) as exc:
        minimal_ball_radius(g, 400, budget=50)
    assert exc.value.budget == 50 and exc.value.visited == 51
    assert exc.value.radius_reached == max(r for r, b in enumerate(sizes) if b <= 50)


def test_a_wide_lattice_ball_decodes_in_linear_time(run_capped):
    # 4473 keys of 2236 coordinates each: about a second with the bytes
    # codec, about a minute if decoding turned quadratic in d again
    proc = run_capped("-c", "from cayleyiso import IntegerLattice, ball; "
                      "print(len(ball(IntegerLattice(2236), (0,) * 2236, 1)))", timeout=20)
    assert (proc.returncode, proc.stdout) == (0, "4473\n"), proc.stderr


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
                 "cyl:x", "", "cyl:3:oops", "cyl:3:{[1]: 2}"):
        with pytest.raises(ValueError):
            parse_group(text)
    # the whole spec must match, in ASCII digits; non-strings are specs too
    for spec in (5, ["z^2"], None, "z^+2", "z^1_0", "z^ 2", "z^-1", "z^\u0663",
                 "torus:3x", "cyl:3x"):
        with pytest.raises(ValueError, match="unknown group grammar"):
            parse_group(spec)


def test_error_messages_clip_long_values():
    # short values are echoed whole, as before
    for call, text in [
        (lambda: parse_group("q8"), "unknown group grammar 'q8'"),
        (lambda: IntegerLattice(2).vertex_from_json("x"),
         "expected a list of integer coordinates, got 'x'"),
        (lambda: FreeGroup(2).vertex_from_json(5),
         "free group vertex must be a word string, got 5"),
        (lambda: FreeGroup(2).parse_word("a1b"), "bad letter '1' in word 'a1b'"),
    ]:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == text
    # long ones are cut to a fixed length, with an ellipsis
    huge = list(range(200_000))
    for call, start in [
        (lambda: parse_group(huge), "unknown group grammar [0, 1, 2"),
        (lambda: IntegerLattice(2).vertex_from_json(huge), "(0, 1, 2"),
        (lambda: FreeGroup(2).vertex_from_json(huge), "free group vertex must"),
        (lambda: FreeGroup(2).parse_word("ab" * 10**5 + "1"), "bad letter '1' in word"),
        (lambda: FreeGroup(2).parse_word("ab" * 10**5 + "Ba"), "word (1, 2, 1"),
    ]:
        with pytest.raises(ValueError) as info:
            call()
        message = str(info.value)
        assert message.startswith(start) and "..." in message and len(message) < 200


def _parses_whole_or_raises_value_error(text):
    try:
        g = parse_group(text)
    except ValueError:
        return
    assert parse_group(g.family) == g


@settings(max_examples=300)
@given(text=st.text(max_size=40))
def test_parse_group_on_arbitrary_text(text):
    _parses_whole_or_raises_value_error(text)


# a family prefix and a random tail, or a cylinder with a random pair list
GRAMMAR_SHAPED = st.builds(
    str.__add__,
    st.sampled_from(["z^", "torus:", "free:", "cyl:", "cyl:3:", "cyl:4:[("]),
    st.text(alphabet="0123456789x:[](),-+ 'e", max_size=30) | st.text(max_size=8),
) | st.builds(
    "cyl:{}:{!r}".format,
    st.integers(0, 12),
    st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), max_size=4),
)


# nesting too deep for Python's parser: MemoryError and RecursionError
# inside ast.literal_eval; the explicit examples may take over the deadline
@settings(max_examples=500, deadline=None)
@given(text=GRAMMAR_SHAPED)
@example(text="cyl:3:" + "-" * 10**5 + "1")
@example(text="cyl:3:" + "1+" * 10**5 + "1")
def test_parse_group_on_grammar_shaped_text(text):
    _parses_whole_or_raises_value_error(text)


def test_cylinder_errors_clip_long_generator_and_residue_lists():
    # 10^12 residues would be listed whole; 2*10^4 generators would be echoed
    for spec, words in [("cyl:1000000000000:[(1,0),(0,2)]", "only residues [0, 2, 4,"),
                        ("cyl:3:[" + ",".join(f"({2 * i + 2},0)" for i in range(20000)) + "]",
                         "z-shifts have gcd 2")]:
        with pytest.raises(ValueError) as info:
            parse_group(spec)
        message = str(info.value)
        assert words in message and "..." in message and len(message) < 300


def test_dimension_is_bounded_by_the_default_budget():
    # one step on z^d or a d-dimensional torus builds 2d neighbors of d
    # coordinates each, so 2d^2 may not exceed DEFAULT_BUDGET: d <= 2236
    assert 2 * 2236**2 <= DEFAULT_BUDGET < 2 * 2237**2
    for make in (lambda: IntegerLattice(2237), lambda: parse_group("z^2237"),
                 lambda: Torus(3, 2237), lambda: parse_group("torus:" + "x".join(["3"] * 2237)),
                 lambda: parse_group("z^" + "9" * 4000)):
        with pytest.raises(ValueError, match=r"dimension \d+ too large: needs 2d\^2 <= 10000000"):
            make()
    assert IntegerLattice(2236).degree == Torus(3, 2236).degree == 4472
    with pytest.raises(ValueError, match="lattice dimension must be >= 1, got 0"):
        IntegerLattice(0)


def test_parse_group_names_a_spec_whose_number_is_too_long():
    for spec in ("z^" + "9" * 5000, "torus:3x" + "9" * 5000, "free:" + "0" * 5000 + "2",
                 "cyl:" + "9" * 5000):
        with pytest.raises(ValueError) as info:
            parse_group(spec)
        message = str(info.value)
        assert message.startswith(f"number too long in group spec {spec[:20]!r}"[:-1])
        assert message.endswith("...") and len(message) < 200


def test_parse_group_accepts_whitespace_and_leading_zeros():
    for text, family in [(" z^2\n", "z^2"), ("z^02", "z^2"), ("torus:07x7", "torus:7x7"),
                         ("\tfree:002 ", "free:2"), ("cyl:03", "cyl:3"),
                         ("cyl:3:[(1,0),\n(0,1)]", "cyl:3")]:
        assert parse_group(text).family == family
    # an empty list names the spec instead of failing inside max()
    with pytest.raises(ValueError, match=r"cyl:3:\[\] has no generators"):
        parse_group("cyl:3:[]")


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


@pytest.mark.parametrize("d", [1, 2, 3, 7, 50, 2236])
def test_lattice_growth_recurrence_matches_the_single_radius_count(d):
    g = IntegerLattice(d)
    assert ball_profile(g, 60) == [g._ball_count(r) for r in range(61)]


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
