"""Perforated-grid family: construction, closed forms, exact ratios, the
diagonal search, and the torus embedding, all checked against independent
enumeration oracles."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cayleyiso import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    IntegerLattice,
    VertexSet,
    _grid,
    boundary,
    counterexample,
    depth,
    is_connected_with_boundary,
)
from cayleyiso.counterexample import (
    CounterexampleStats,
    GridParams,
    _parse_fraction,
    boundary_closed_form,
    build,
    claimed_size,
    depth_closed_form,
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
    for params in (GridParams(2, 5), GridParams(4, 3), GridParams(3, 7)):
        assert len(build(params)) == enumerated_size(params)


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


def test_depth_closed_form_matches_bitmap_and_per_vertex_oracle():
    pairs = {(i, k) for i in range(2, 41) for k in range(2, 9)}
    pairs |= {(j, j) for j in range(2, 33)}
    pairs |= {(i, k) for i in range(41, 101) for k in (2, 3)}
    for i, k in sorted(pairs):
        bm = _grid.perforated_block(i, k)
        assert depth_closed_form(GridParams(i, k)) == _grid.depth(bm), (i, k)
    for i in range(2, 6):
        for k in range(2, 6):
            points = oracles.perforated_points(i, k)
            expected = oracles.per_vertex_depth(Z2, points)
            assert depth_closed_form(GridParams(i, k)) == expected, (i, k)


def test_stats_confirms_the_closed_form_depth_in_two_erosions(monkeypatch):
    # E_{d-1}(A) nonempty and E_1(E_{d-1}(A)) empty: depth d, with no gallop
    erosions = []
    erode = _grid._erode
    monkeypatch.setattr(_grid, "_erode", lambda x, r, w: erosions.append(r) or erode(x, r, w))
    for i in range(2, 150):
        for k in (2, 3):
            d = depth_closed_form(GridParams(i, k))
            erosions.clear()
            st = stats(GridParams(i, k))
            assert (st.depthOracle, st.closedFormsMatch, erosions) == (d, True, [d - 1, 1])


@pytest.mark.parametrize("off", [-1, 1])
def test_stats_measures_the_depth_where_the_closed_form_is_off(monkeypatch, off):
    monkeypatch.setattr(counterexample, "depth_closed_form", lambda p: depth_closed_form(p) + off)
    for i in range(2, 41):
        for k in (2, 3, 7):
            st = stats(GridParams(i, k))
            assert st.depthOracle == depth_closed_form(GridParams(i, k)), (i, k)
            assert not st.closedFormsMatch and st.violations()


def test_depth_of_a_member_is_the_depth_of_its_patch():
    # the lemma stats rests on: depth(A(i, k)) = depth(A(i, 3)) for k >= 3,
    # on full-member bitmaps
    for i in range(2, 81):
        patch_depth = _grid.depth(_grid.perforated_block(i, 3))
        for k in range(4, 11):
            assert _grid.depth(_grid.perforated_block(i, k)) == patch_depth, (i, k)


def test_full_members_on_the_diagonal_match_the_closed_forms():
    # the criterion 03 ladder, enumerated whole: stats reads these members
    # off their patches
    for j in (4, 8, 16, 32, 64):
        params = GridParams(j, j)
        bm = _grid.perforated_block(j, j)
        assert bm.bits.bit_count() == enumerated_size(params)
        assert _grid.boundary_count(bm) == boundary_closed_form(params)
        assert _grid.depth(bm) == depth_closed_form(params)


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
    # the budget counts the patch A(100, 3), 301^2 - 4 = 90597 vertices
    with pytest.raises(BudgetExceeded) as exc_info:
        stats(GridParams(100, 100), budget=90596)
    assert (exc_info.value.budget, exc_info.value.visited) == (90596, 90597)
    assert stats(GridParams(100, 100), budget=90597).closedFormsMatch


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


def test_find_params_passes_a_member_whose_ratio_equals_the_target():
    # the search wants ratio < c strictly: A(9, 9) has exactly 784/1665, so
    # the first member below it is A(11, 11), as A(10, 10) lies above it
    assert stats(GridParams(9, 9)).ratio == Fraction(784, 1665)
    params, st = find_params(Fraction(784, 1665))
    assert params == GridParams(11, 11)
    assert st.ratio == Fraction(35, 88) < Fraction(784, 1665)


def test_find_params_accepts_string_targets():
    params, st = find_params("1/2")
    assert params == GridParams(9, 9)


def test_find_params_refuses_a_string_past_the_digit_limit_at_once(run_capped):
    # Fraction('1e999999999') would build 10**999999999; the child is capped,
    # so a regression fails on its timeout instead of hanging the suite
    code = ("import time\n"
            "from cayleyiso.counterexample import find_params\n"
            "start = time.perf_counter()\n"
            "try:\n"
            "    find_params('1e999999999')\n"
            "except ValueError as exc:\n"
            "    print(time.perf_counter() - start < 1, exc)\n")
    proc = run_capped("-c", code, timeout=20)
    limit = sys.get_int_max_str_digits()
    assert proc.stdout == f"True c '1e999999999' needs more than {limit} digits as p/q\n"


def test_find_params_names_a_long_string_by_its_digits():
    # a well-formed number whose p or q passes the digit limit is too long,
    # with or without an exponent; malformed text and a zero denominator
    # are not rationals, however long
    limit = sys.get_int_max_str_digits()
    for c in ("1" + "0" * limit, "0." + "0" * limit + "1", "1/" + "1" * (limit + 1),
              "1_0" * limit, "1e" + str(limit)):
        with pytest.raises(ValueError, match=f"needs more than {limit} digits as p/q"):
            find_params(c)
    for c in ("x" + "1" * limit, "1/" + "0" * limit, "1/0", "1/2/3", "0x10"):
        with pytest.raises(ValueError, match="expected a rational number like 1/2 or 0.5"):
            find_params(c)
    assert find_params("1" + "0" * (limit - 1))[0] == GridParams(2, 2)


def test_parse_fraction_counts_the_digits_of_the_value():
    # zeros that do not change the value do not count towards the limit
    limit = sys.get_int_max_str_digits()
    for text, value in (("0" * 5000 + "1", 1), ("1e" + "0" * 5000 + "1", 10),
                        ("1." + "0" * 5000, 1), ("1" + "0" * 5000 + "e-5000", 1),
                        ("1/" + "0" * limit + "3", Fraction(1, 3)),
                        ("-0_0012.500e-0_002", Fraction(-1, 8))):
        assert _parse_fraction(text) == value, text[:20]
    assert find_params("1e" + "0" * 5000 + "1")[0] == GridParams(2, 2)


DIGIT_RUNS = st.text("00123456789_", max_size=6)


@settings(max_examples=2000)
@given(sign=st.sampled_from(["", "-", "+", " "]), num=DIGIT_RUNS,
       tail=st.one_of(st.just(""), st.builds("/{}".format, DIGIT_RUNS),
                      st.builds("{}{}{}".format, st.sampled_from(["", ".", ". "]), DIGIT_RUNS,
                            st.sampled_from(["", "e", "E-", "e+", "e_"]))),
       exp=st.text("0123_", max_size=3), pad=st.sampled_from(["", " ", "\n", "x"]))
def test_parse_fraction_reads_what_fraction_reads(sign, num, tail, exp, pad):
    # exponents of at most three digits, so Fraction itself stays quick
    text = sign + num + tail + (exp if tail[-1:] in ("e", "-", "+", "_") else "") + pad
    try:
        expected = Fraction(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ValueError, match="expected a rational number"):
            _parse_fraction(text)
    else:
        assert _parse_fraction(text) == expected


def test_find_params_budget_stop_carries_best():
    # the first member whose patch A(j, 3) does not fit stops the walk with
    # that patch's BudgetExceeded: |A(17,3)| = 2700 fits 3000,
    # |A(18,3)| = 3021 does not
    with pytest.raises(BudgetExceeded) as exc_info:
        find_params(Fraction(1, 100), budget=3000)
    assert (exc_info.value.budget, exc_info.value.visited) == (3000, 3021)
    # budget 660 admits j = 8 (|A(8,3)| = 621), not j = 9 (|A(9,3)| = 780)
    with pytest.raises(BudgetExceeded) as exc_info:
        find_params(Fraction(1, 10), budget=660)
    assert (exc_info.value.budget, exc_info.value.visited) == (660, 780)


def _diagonal_ratio(j):
    params = GridParams(j, j)
    return Fraction(boundary_closed_form(params) * depth_closed_form(params),
                    enumerated_size(params))


# a target at, or a hair off, the ratio of a member j <= 400, or a rational
# of small terms; a budget at, or one off, the patch of a member j <= 500,
# or the default
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(target=st.one_of(
           st.builds(lambda j, off: _diagonal_ratio(j) + off, st.integers(2, 400),
                     st.sampled_from([0, Fraction(1, 10**12), -Fraction(1, 10**12)])),
           st.fractions(Fraction(1, 80), 3, max_denominator=1000).filter(bool)),
       budget=st.one_of(st.none(), st.builds(
           lambda j, off: enumerated_size(GridParams(j, min(j, 3))) + off,
           st.integers(2, 500), st.integers(-1, 1))))
def test_find_params_answers_as_the_walk_along_the_diagonal(target, budget):
    # the search steps by doubling and bisecting; the walk tries every member
    expected = oracles.diagonal_walk(target, DEFAULT_BUDGET if budget is None else budget)
    if isinstance(expected, tuple):
        with pytest.raises(BudgetExceeded) as exc_info:
            find_params(target, budget=budget)
        assert (exc_info.value.budget, exc_info.value.visited) == (
            budget or DEFAULT_BUDGET, expected[1])
        return
    params, st_ = find_params(target, budget=budget)
    assert params == GridParams(expected, expected)
    assert st_.ratio == _diagonal_ratio(expected) < target


def test_find_params_builds_one_bitmap(monkeypatch):
    built = []
    real = _grid.perforated_block

    def counting(i, k):
        built.append((i, k))
        return real(i, k)

    monkeypatch.setattr(_grid, "perforated_block", counting)
    params, st = find_params(Fraction(1, 10))
    assert params == GridParams(49, 49)
    assert st.ratio < Fraction(1, 10) and st.closedFormsMatch
    assert built == [(49, 3)]
    # the walk stops at the default budget before any member qualifies
    built.clear()
    with pytest.raises(BudgetExceeded):
        find_params(Fraction(1, 10**9))
    assert built == []


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
