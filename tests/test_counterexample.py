"""Perforated-grid family: construction, closed forms, exact ratios, the
diagonal search, and the torus embedding, all checked against independent
enumeration oracles."""

from fractions import Fraction

import pytest

import oracles
from cayleyiso import (
    BudgetExceeded,
    IntegerLattice,
    VertexSet,
    boundary,
    depth,
    is_connected_with_boundary,
)
from cayleyiso.counterexample import (
    CounterexampleStats,
    GridParams,
    SearchCapExceeded,
    boundary_closed_form,
    build,
    claimed_size,
    embed_torus,
    enumerated_size,
    find_params,
    stats,
)

Z2 = IntegerLattice(2)

# depth(A(i,k)) for the sweep range, frozen from three independent routes
# (bitmap transform, multi-source BFS, per-vertex BFS)
DEPTH_TABLE = {2: 2, 3: 2, 4: 4, 5: 4, 6: 6}
DEPTH_TABLE_K2 = {2: 2, 3: 2, 4: 3, 5: 4, 6: 4}


def expected_depth(i, k):
    return DEPTH_TABLE_K2[i] if k == 2 else DEPTH_TABLE[i]


# --- construction ------------------------------------------------------------


def test_build_sizes_match_enumeration():
    assert len(build(GridParams(2, 5))) == 105
    assert len(build(GridParams(2, 2))) == 24
    assert len(build(GridParams(3, 2))) == 48


def test_build_is_square_minus_pins():
    A = build(GridParams(3, 3))
    assert (0, 0) in A and (9, 9) in A
    assert (3, 3) not in A and (3, 6) not in A and (6, 3) not in A
    assert (6, 6) not in A
    assert (3, 4) in A
    assert all(0 <= x <= 9 and 0 <= y <= 9 for x, y in A)


def test_params_validation():
    with pytest.raises(ValueError):
        GridParams(1, 5)
    with pytest.raises(ValueError):
        GridParams(5, 1)
    with pytest.raises(ValueError):
        GridParams(0, 0)


def test_build_respects_budget():
    with pytest.raises(BudgetExceeded) as exc_info:
        build(GridParams(10, 10), budget=1000)
    assert exc_info.value.budget == 1000
    assert exc_info.value.visited == enumerated_size(GridParams(10, 10))


# --- closed forms vs scanned truth -------------------------------------------


def test_closed_forms_match_oracles_over_sweep_range():
    for i in range(2, 7):
        for k in range(2, 9):
            params = GridParams(i, k)
            points = oracles.perforated_points(i, k)
            assert enumerated_size(params) == len(points)
            assert boundary_closed_form(params) == len(
                oracles.z2_boundary_scan(points)
            )


def test_claimed_size_undercounts_by_rim():
    for i in range(2, 7):
        for k in range(2, 9):
            params = GridParams(i, k)
            assert enumerated_size(params) - claimed_size(params) == 2 * k * i + 1


# --- stats -------------------------------------------------------------------


def test_stats_match_generic_set_route():
    # the bitmap kernels agree with the generic VertexSet path
    for i, k in [(2, 2), (2, 5), (3, 3), (4, 4), (3, 7)]:
        st = stats(GridParams(i, k))
        A = build(GridParams(i, k))
        assert st.sizeA == len(A)
        assert st.boundarySize == len(boundary(A))
        assert st.depthOracle == depth(A)


def test_stats_over_sweep_range():
    for i in range(2, 7):
        for k in range(2, 9):
            st = stats(GridParams(i, k))
            assert st.closedFormsMatch
            assert st.depthOracle == expected_depth(i, k)
            assert st.ratio == Fraction(
                st.boundarySize * st.depthOracle, st.sizeA
            )
            assert not st.claimedSizeMatches
            assert not st.depthMeetsHalfIBound


def test_ratio_pins():
    assert stats(GridParams(2, 2)).ratio == Fraction(7, 4)
    assert stats(GridParams(2, 5)).ratio == Fraction(8, 7)
    assert stats(GridParams(3, 3)).ratio == Fraction(11, 12)
    assert stats(GridParams(4, 4)).ratio == Fraction(11, 10)
    assert stats(GridParams(9, 9)).ratio == Fraction(784, 1665)
    assert stats(GridParams(16, 16)).ratio == Fraction(1253, 4114)


def test_stats_serialization():
    d = stats(GridParams(2, 5)).to_dict()
    assert d == {
        "i": 2,
        "k": 5,
        "sizeA": 105,
        "boundarySize": 60,
        "depthOracle": 2,
        "ratio": "8/7",
        "closedFormsMatch": True,
        "claimedSize": 84,
        "claimedSizeMatches": False,
        "depthMeetsHalfIBound": False,
    }


def test_stats_respects_budget():
    with pytest.raises(BudgetExceeded):
        stats(GridParams(100, 100), budget=10**4)


# --- closure connectivity and pin placement ----------------------------------


def test_closure_connected_over_sweep_range():
    for i in range(2, 7):
        for k in range(2, 9):
            assert is_connected_with_boundary(build(GridParams(i, k)))


def test_pins_are_boundary_vertices_over_sweep_range():
    # i >= 2 isolates every pin, so each lands in the boundary
    for i in range(2, 7):
        for k in range(2, 9):
            A = build(GridParams(i, k))
            pins = {(m * i, n * i) for m in range(1, k) for n in range(1, k)}
            assert pins <= boundary(A).elements


# --- diagonal search ---------------------------------------------------------


def test_find_params_easy_target():
    params, st = find_params(2)
    assert params == GridParams(2, 2)
    assert st.ratio == Fraction(7, 4)


def test_find_params_half():
    params, st = find_params(Fraction(1, 2))
    assert params == GridParams(9, 9)
    assert st.ratio == Fraction(784, 1665)
    assert st.ratio < Fraction(1, 2)


def test_find_params_accepts_string_targets():
    params, st = find_params("1/2")
    assert params == GridParams(9, 9)


def test_find_params_budget_stop_carries_best():
    # budget 3000 admits i = k up to 7 (|A(7,7)| = 2464, |A(8,8)| = 4176)
    with pytest.raises(SearchCapExceeded) as exc_info:
        find_params(Fraction(1, 100), budget=3000)
    err = exc_info.value
    assert err.best.params.i <= 7
    assert "budget" in err.reason
    # budget 660 admits i = k = 5 exactly (|A(5,5)| = 660, |A(6,6)| = 1344)
    with pytest.raises(SearchCapExceeded) as exc_info:
        find_params(Fraction(1, 10), budget=660)
    err = exc_info.value
    assert err.best.params == GridParams(5, 5)
    assert err.best.ratio == Fraction(8, 11)
    assert "budget" in err.reason


def test_find_params_rejects_bad_arguments():
    with pytest.raises(ValueError):
        find_params(0)
    with pytest.raises(ValueError):
        find_params(-1)


def test_diagonal_envelope_is_decreasing():
    # closed-form envelope B(j) * j / S(j): the exact ratio oscillates with
    # depth parity but the envelope decreases, and so does the sparse diagonal
    prev = None
    for j in range(4, 65):
        params = GridParams(j, j)
        env = Fraction(boundary_closed_form(params) * j, enumerated_size(params))
        if prev is not None:
            assert env < prev
        prev = env


# --- torus embedding ---------------------------------------------------------


def test_embed_torus_pins():
    emb = embed_torus(GridParams(2, 5))
    r = emb.report
    assert emb.vertex_set.host.family == "torus:31x31"
    assert (r.n, r.volume) == (31, 961)
    assert (r.sizeLattice, r.sizeTorus) == (105, 105)
    assert (r.boundaryLattice, r.boundaryTorus) == (60, 60)
    assert (r.depthLattice, r.depthTorus) == (2, 2)
    assert r.preserved
    assert r.halfVolumeHolds
    assert len(emb.vertex_set) == 105


def test_embed_torus_more_members():
    for i, k, n in [(2, 2, 13), (3, 4, 37)]:
        emb = embed_torus(GridParams(i, k))
        assert emb.vertex_set.host.family == f"torus:{n}x{n}"
        assert emb.report.preserved
        assert emb.report.halfVolumeHolds


def test_embed_torus_side_leaves_wraparound_margin():
    r = embed_torus(GridParams(3, 3)).report
    assert r.n == 3 * 3 * 3 + 1
    # the set occupies columns 0..ki; the margin is 2ki columns
    assert r.n - (3 * 3 + 1) == 2 * 3 * 3


def test_embed_torus_serialization_and_budget():
    d = embed_torus(GridParams(2, 2)).report.to_dict()
    assert d["preserved"] is True and d["halfVolumeHolds"] is True
    assert list(d) == [
        "i", "k", "n", "volume", "sizeLattice", "sizeTorus",
        "boundaryLattice", "boundaryTorus", "depthLattice", "depthTorus",
        "preserved", "halfVolumeHolds",
    ]
    with pytest.raises(BudgetExceeded):
        embed_torus(GridParams(20, 20), budget=100)


# --- independent full check on one member ------------------------------------


def test_member_2_5_against_raw_scans():
    points = oracles.perforated_points(2, 5)
    A = VertexSet(Z2, points)
    st = stats(GridParams(2, 5))
    assert st.sizeA == len(points) == 105
    assert st.boundarySize == len(oracles.z2_boundary_scan(points)) == 60
    assert st.depthOracle == oracles.per_vertex_depth(Z2, points) == 2
    assert depth(A) == 2
