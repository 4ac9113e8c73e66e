"""Block systems on cylinders: fiber partition, edge locality, cohesiveness,
and the interval-cover slack bound."""

import random
import typing
from itertools import count

import pytest

import oracles
from conftest import record_calls
from cayleyiso import isoperimetry, ringlike
from cayleyiso import (
    BudgetExceeded,
    Cylinder,
    GroupGraph,
    IntegerLattice,
    VertexSet,
    classify_separation,
    is_connected_with_boundary,
    random_connected_set,
)
from cayleyiso.ringlike import (
    CyclicSystem,
    IntervalCover,
    cyclic_system,
    interval_cover,
)


def block_interval(host, n_blocks, skip=()):
    points = (
        (z, r)
        for z in range(n_blocks)
        for r in range(host.m)
        if (z, r) not in set(skip)
    )
    return VertexSet(host, points)


def ring_like_report(A, window=50):
    """The ring-like report as classify_separation and `ringlike cover`
    build it: the host's block system first, then the cover."""
    return interval_cover(cyclic_system(A.host, window=window), A)


# --- cyclic systems ----------------------------------------------------------


def test_cyclic_system_standard_cylinder():
    sysm = cyclic_system(Cylinder(3), window=50)
    assert (sysm.s, sysm.t, sysm.q) == (3, 1, 2)
    assert sysm.window == 50
    assert sysm.partition_ok and sysm.ring_like_ok and sysm.cohesive_ok
    assert sysm.q <= 2 * sysm.s * sysm.t
    assert sysm.violations() == []


def test_cyclic_system_width_two_variants():
    # (0,1) is self-inverse mod 2, so the standard host has degree 3
    std = Cylinder(2)
    assert std.degree == 3
    sysm = cyclic_system(std)
    assert (sysm.s, sysm.t, sysm.q) == (2, 1, 2)
    assert sysm.cohesive_ok

    skew = Cylinder(2, [(1, 1), (1, 0)])
    assert skew.degree == 4
    sysm = cyclic_system(skew)
    assert (sysm.s, sysm.t, sysm.q) == (2, 1, 2)
    assert sysm.cohesive_ok


def test_cyclic_system_long_shift_host():
    host = Cylinder(4, [(2, 1), (1, 0)])
    sysm = cyclic_system(host)
    assert (sysm.s, sysm.t, sysm.q) == (4, 2, 6)
    assert sysm.q <= 2 * sysm.s * sysm.t == 16
    assert sysm.partition_ok and sysm.ring_like_ok and sysm.cohesive_ok


def test_cyclic_system_serialization():
    d = cyclic_system(Cylinder(3), window=7).to_dict()
    assert d == {
        "group": "cyl:3",
        "s": 3,
        "t": 1,
        "q": 2,
        "qBound": 6,
        "window": 7,
        "partitionOk": True,
        "ringLikeOk": True,
        "cohesiveOk": True,
    }


def test_cyclic_system_annotations_resolve():
    # every annotation names a type bound in ringlike, so the record can be
    # introspected without a NameError
    hints = typing.get_type_hints(CyclicSystem)
    assert hints["host"] is GroupGraph
    assert [hints[name] for name in CyclicSystem._fields[1:]] == [int, int, int, int, bool]


def test_the_cli_set_loader_annotations_resolve():
    # the set commands' module imports isoperimetry at its top, so the
    # loader's return annotation names a bound type
    from cayleyiso import _cli_sets

    hints = typing.get_type_hints(_cli_sets._resolve_set)
    assert hints == {"budget": int, "return": isoperimetry.VertexSet}


def test_cyclic_system_rejects_bad_inputs():
    with pytest.raises(ValueError):
        cyclic_system(IntegerLattice(2))
    with pytest.raises(ValueError):
        cyclic_system(Cylinder(3), window=0)


def test_cohesiveness_is_window_independent():
    # generators act by z-translation, so q must not depend on the window
    qs = {cyclic_system(Cylinder(3), window=w).q for w in (1, 5, 50)}
    assert qs == {2}
    qs = {cyclic_system(Cylinder(4, [(2, 1), (1, 0)]), window=w).q for w in (1, 20)}
    assert qs == {6}


def _random_cylinders(count, seed=11):
    # generating sets of one to three generators, m <= 8 and |dz| <= 3;
    # draws that do not generate Z x Z_m are skipped
    rng = random.Random(seed)
    hosts = []
    while len(hosts) < count:
        m = rng.randint(2, 8)
        gens = [(rng.randint(-3, 3), rng.randrange(m)) for _ in range(rng.randint(1, 3))]
        try:
            hosts.append(Cylinder(m, gens))
        except ValueError:
            continue
    return hosts


def test_cohesiveness_matches_pairwise_bfs_oracle():
    for host in [
        Cylinder(2),
        Cylinder(3),
        Cylinder(2, [(1, 1), (1, 0)]),
        Cylinder(4, [(2, 1), (1, 0)]),
        Cylinder(3, [(3, 1), (1, 0)]),
        Cylinder(5, [(2, 1), (3, 0)]),
        Cylinder(4, [(4, 1), (3, 2)]),
        Cylinder(6, [(1, 1), (4, 3)]),
        Cylinder(3, [(1, 0), (0, 1), (10**19, 0)]),  # a cap 2st + 1 past sys.maxsize
    ] + _random_cylinders(150):
        sysm = cyclic_system(host)
        assert sysm.q == oracles.cylinder_cohesiveness(host)
        assert sysm.cohesive_ok == (sysm.q <= 2 * sysm.s * sysm.t)


# the standard generators sheared by (z, r) -> (z, r + z): a host isomorphic
# to cyl:3 by a map that keeps every block, so its q is 2, but with no rule
SHEARED = Cylinder(3, [(1, 1), (0, 1)])


def test_cohesiveness_runs_one_bfs(monkeypatch):
    calls = record_calls(monkeypatch, ringlike, "_bfs_levels", lambda call: tuple(call.sources))
    for host, q in ((SHEARED, 2), (Cylinder(7, [(1, 1), (0, 1)]), 4),
                    (Cylinder(4, [(2, 1), (1, 0)]), 6)):
        calls.clear()
        assert cyclic_system(host).q == q
        # one search, from the identity's key
        assert calls == [(host._encode(host.identity()),)]
    # the standard generators read q from their counting rule
    calls.clear()
    assert cyclic_system(Cylinder(7)).q == 4 and calls == []


def test_cohesiveness_takes_no_level_past_the_cap(monkeypatch):
    # a search that never reaches block 1 leaves q at the cap 2st + 1 = 7;
    # the system takes levels 0..7 of it and asks for no more
    taken = []

    def endless(g, sources, budget=None):
        for r in count():
            taken.append(r)
            yield set(sources) if r == 0 else set()

    monkeypatch.setattr(ringlike, "_bfs_levels", endless)
    system = cyclic_system(SHEARED)
    assert (system.q, system.cohesive_ok) == (7, False)
    assert taken == list(range(8))


def test_cohesiveness_of_standard_cylinders():
    # d((0,0),(1,x)) = 1 + min(x, m - x) peaks at x = floor(m/2)
    for m in range(2, 101):
        sysm = cyclic_system(Cylinder(m))
        assert sysm.q == m // 2 + 1
        assert sysm.cohesive_ok


def test_cohesiveness_search_is_budgeted(run_capped):
    # the BFS runs under the default vertex budget, so a wide cylinder
    # without a counting rule raises instead of filling the child's memory
    proc = run_capped(
        "-c",
        "from cayleyiso import BudgetExceeded, Cylinder, cyclic_system, groups\n"
        "groups.DEFAULT_BUDGET = 10**5\n"
        "try:\n"
        "    cyclic_system(Cylinder(10**4, [(1, 1), (0, 1)]))\n"
        "except BudgetExceeded:\n"
        "    print('budget')\n",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["budget"]


def test_cohesiveness_search_takes_a_budget():
    # on the sheared cyl:3 the search stops at radius q = 2, whose ball has
    # 11 vertices; the standard cyl:3 counts q and searches nothing
    with pytest.raises(BudgetExceeded):
        cyclic_system(SHEARED, budget=10)
    assert cyclic_system(SHEARED, budget=11).q == 2
    assert cyclic_system(Cylinder(3), budget=1).q == 2


def test_the_standard_cohesiveness_rule_is_the_search(monkeypatch):
    rules = [Cylinder(m)._cohesiveness() for m in range(2, 40)]
    monkeypatch.setattr(Cylinder, "_cohesiveness", lambda self: None)
    assert rules == [cyclic_system(Cylinder(m)).q for m in range(2, 40)]
    assert SHEARED._cohesiveness() is None


def test_cohesiveness_with_a_huge_shift(run_capped):
    # the distance search stops once blocks 0 and 1 are reached, so a shift
    # of 10^6 costs no more than a shift of 1; a search out to radius 2st + 1
    # would not fit in the child's memory cap
    proc = run_capped(
        "-c",
        "from cayleyiso import Cylinder, cyclic_system; "
        "s = cyclic_system(Cylinder(3, [(1, 0), (0, 1), (10**6, 0)])); "
        "print(s.t, s.q, s.cohesive_ok)",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1000000", "2", "True"]


# --- interval covers ---------------------------------------------------------


def test_interval_cover_of_full_block_interval():
    host = Cylinder(3)
    sysm = cyclic_system(host)
    cover = interval_cover(sysm, block_interval(host, 1000))
    assert (cover.j_lo, cover.j_hi) == (0, 999)
    assert cover.to_dict()["sizeQ"] == 3000
    assert (cover.sizeA, cover.k) == (3000, 6)
    assert (cover.slack, cover.bound) == (0, 144)
    assert cover.holds


def test_interval_cover_small_pinned_examples():
    host = Cylinder(3)
    sysm = cyclic_system(host)

    # block-aligned interval: zero slack, k = 6 from the two end-blocks
    cover = interval_cover(sysm, block_interval(host, 10))
    assert (cover.j_lo, cover.j_hi) == (0, 9)
    assert cover.to_dict()["sizeQ"] == 30
    assert (cover.k, cover.slack, cover.bound) == (6, 0, 144)

    # one missing interior vertex joins the boundary
    cover = interval_cover(sysm, block_interval(host, 10, skip=[(5, 0)]))
    assert (cover.k, cover.slack, cover.bound) == (7, 1, 168)

    # a singleton covers its whole block
    cover = interval_cover(sysm, VertexSet(host, [(0, 0)]))
    assert (cover.j_lo, cover.j_hi) == (0, 0)
    assert (cover.k, cover.slack, cover.bound) == (4, 2, 96)
    assert cover.holds


def test_interval_cover_counts_missing_interior_vertices():
    host = Cylinder(3)
    sysm = cyclic_system(host)
    A = block_interval(host, 1000, skip=[(500, 1), (600, 2)])
    cover = interval_cover(sysm, A)
    assert (cover.sizeA, cover.k) == (2998, 8)
    assert (cover.slack, cover.bound) == (2, 192)
    assert cover.holds


def test_interval_cover_width_two():
    host = Cylinder(2)
    sysm = cyclic_system(host)
    cover = interval_cover(sysm, block_interval(host, 500))
    assert (cover.sizeA, cover.k, cover.slack, cover.bound) == (1000, 4, 0, 48)
    ragged = block_interval(host, 500, skip=[(499, 1)])
    cover = interval_cover(sysm, ragged)
    assert (cover.sizeA, cover.k, cover.slack, cover.bound) == (999, 4, 1, 48)
    assert cover.holds


def test_interval_cover_contains_a():
    host = Cylinder(3)
    sysm = cyclic_system(host)
    for seed in range(5):
        A = random_connected_set(host, 80, seed=seed)
        cover = interval_cover(sysm, A)
        assert cover.j_lo == min(v[0] for v in A)
        assert cover.j_hi == max(v[0] for v in A)
        assert cover.to_dict()["sizeQ"] == (cover.j_hi - cover.j_lo + 1) * 3


def test_interval_cover_reads_its_blocks_from_the_extreme_keys():
    # a key z*m + r grows with its block z, so the least and greatest keys
    # lie in the least and greatest blocks, negative ones included: grown
    # sets moved to (z0, r0)
    for host in (Cylinder(2), Cylinder(3), Cylinder(4, [(2, 1), (1, 0)])):
        sysm = cyclic_system(host)
        for seed, z0 in enumerate((-1, -40, -3, 0, 7, -10**12)):
            s = (z0, seed % host.m)
            A = VertexSet(host, {oracles.translate(host, s, v) for v in
                                 random_connected_set(host, 10 + 30 * seed, seed=seed).elements})
            cover = interval_cover(sysm, A)
            assert cover.j_lo == min(map(host._block, A._keys)) == min(z for z, _ in A)
            assert cover.j_hi == max(map(host._block, A._keys)) == max(z for z, _ in A)


def test_interval_cover_holds_on_random_sets():
    for host in (Cylinder(3), Cylinder(2), Cylinder(4, [(2, 1), (1, 0)])):
        sysm = cyclic_system(host)
        for seed in range(25):
            A = random_connected_set(host, 20 + seed * 17, seed=seed)
            assert interval_cover(sysm, A).holds


def test_interval_cover_rejects_bad_inputs():
    sysm = cyclic_system(Cylinder(3))
    other = VertexSet(Cylinder(2), [(0, 0)])
    with pytest.raises(ValueError):
        interval_cover(sysm, other)
    with pytest.raises(ValueError):
        interval_cover(sysm, VertexSet(Cylinder(3), []))
    split = VertexSet(Cylinder(3), [(0, 0), (10, 0)])
    with pytest.raises(ValueError):
        interval_cover(sysm, split)


def test_interval_cover_serialization():
    sysm = cyclic_system(Cylinder(3))
    d = interval_cover(sysm, block_interval(Cylinder(3), 1000)).to_dict()
    assert d == {
        "group": "cyl:3",
        "s": 3,
        "t": 1,
        "q": 2,
        "qBound": 6,
        "window": 50,
        "partitionOk": True,
        "ringLikeOk": True,
        "cohesiveOk": True,
        "jLo": 0,
        "jHi": 999,
        "sizeQ": 3000,
        "sizeA": 3000,
        "k": 6,
        "slack": 0,
        "bound": 144,
        "holds": True,
    }


# --- branch obligations ------------------------------------------------------


def test_branch2_full_interval():
    report = ring_like_report(block_interval(Cylinder(3), 1000))
    assert isinstance(report, IntervalCover)
    assert report.violations() == []
    assert (report.k, report.slack, report.bound) == (6, 0, 144)


def test_branch2_punched_intervals():
    host = Cylinder(3)
    base = [(z, r) for z in range(3000) for r in range(3)]
    for holes, k, slack, bound in [
        ([(100, 0)], 7, 1, 168),
        ([(100, 0), (2000, 1)], 8, 2, 192),
        ([(100, 0), (2000, 1), (1500, 2)], 9, 3, 216),
    ]:
        A = VertexSet(host, set(base) - set(holes))
        report = ring_like_report(A)
        assert report.violations() == []
        assert (report.k, report.slack, report.bound) == (
            k, slack, bound,
        )


def test_branch2_width_two_host():
    # 1000 vertices > 16 * 4^2 = 256, so the large-set branch applies
    report = ring_like_report(block_interval(Cylinder(2), 500))
    assert report.violations() == []
    assert (report.system.s, report.system.t) == (2, 1)
    assert (report.k, report.slack, report.bound) == (4, 0, 48)


def test_branch2_long_shift_host():
    A = block_interval(Cylinder(4, [(2, 1), (1, 0)]), 1100)
    report = ring_like_report(A)
    assert report.violations() == []
    assert (report.k, report.slack, report.bound) == (16, 0, 2304)


def test_branch2_rejects_small_sets():
    small = block_interval(Cylinder(3), 100)  # 300 <= 16 * 6^2 = 576
    assert classify_separation(small).branch == "SmallSet"


def test_branch2_rejects_bad_hosts_and_empty_sets():
    with pytest.raises(ValueError):
        ring_like_report(VertexSet(IntegerLattice(2), [(0, 0)]))
    with pytest.raises(ValueError):
        ring_like_report(VertexSet(Cylinder(3), []))


def test_branch2_error_order():
    # each step fails alone while every later one would fail too:
    # non-cylinder host, window, connectivity
    host = Cylinder(3)
    apart = block_interval(host, 2000, skip=[(z, r) for z in (999, 1000, 1001)
                                             for r in range(3)])
    assert len(apart) > 16 * 12**2  # two intervals, k = 12: large-set branch
    cases = [
        (VertexSet(IntegerLattice(2), apart.elements), "cylinder host"),
        (apart, "window must be >= 1, got 0"),
    ]
    for A, message in cases:
        with pytest.raises(ValueError, match=message):
            ring_like_report(A, window=0)
    with pytest.raises(ValueError, match="A union boundary\\(A\\) connected"):
        ring_like_report(apart, window=1)


def test_branch2_computes_the_boundary_once(monkeypatch):
    calls = record_calls(monkeypatch, isoperimetry, "_boundary_elements", lambda call: len(call.A))
    report = ring_like_report(block_interval(Cylinder(3), 1000))
    assert report.k == 6
    assert calls == [3000]


def test_ring_like_separation_runs_the_closure_bfs_once(monkeypatch):
    calls = record_calls(monkeypatch, isoperimetry, "_levels_within",
                         lambda call: (len(call.sources), len(call.remaining) + len(call.sources)))
    report = classify_separation(block_interval(Cylinder(3), 1000))
    assert report.branch == "RingLike" and not report.violations()
    # the connectivity BFS from one member over A, which reaches all of A,
    # so the closure needs no BFS of its own; depth erodes a bitmap; the
    # interval cover reads the set's closure verdict and boundary instead
    # of scanning again
    assert calls == [(1, 3000)]
    # A in two pieces with a connected closure: the BFS over A misses a
    # piece, so the closure BFS runs once, over A and its boundary
    calls.clear()
    host = Cylinder(5)
    A = VertexSet(host, [(0, 0), (1, 1)])  # (1, 0) and (0, 1) join them
    assert is_connected_with_boundary(A) and is_connected_with_boundary(A)
    assert calls == [(1, 2), (1, 2 + 6)]
    calls.clear()
    assert not is_connected_with_boundary(VertexSet(host, [(0, 0), (4, 0)]))
    assert calls == [(1, 2), (1, 2 + 8)]


def test_branch2_serialization_merges_system_and_cover():
    d = ring_like_report(block_interval(Cylinder(3), 1000)).to_dict()
    assert d["group"] == "cyl:3"
    assert d["holds"] is True
    assert {"s", "t", "q", "qBound", "window", "jLo", "jHi", "sizeQ",
            "sizeA", "k", "slack", "bound"} <= set(d)
