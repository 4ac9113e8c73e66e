"""The bitmap kernels against the in-set BFS levels and the slow oracles:
every row width modulo 8, negative coordinates, long one-row strips, L1
diamonds deep enough to cross each power of two in depth's gallop, a deep
member under a memory cap and a deep patch under a timeout; the wrapped
rows of z^1, z^2 and cylinders, across the residue seam, and sets past the
bits cap, which take the BFS."""

import random

import pytest

import oracles
from cayleyiso import (
    Cylinder,
    FreeGroup,
    IntegerLattice,
    Torus,
    VertexSet,
    _grid,
    boundary,
    depth,
    isoperimetry,
    random_connected_set,
)
from cayleyiso.groups import _bfs_levels

Z1, Z2 = IntegerLattice(1), IntegerLattice(2)


def bfs_depth(A):
    """depth by the in-set BFS levels, called directly, so that they stay an
    oracle on the hosts whose ``depth`` erodes a bitmap."""
    return sum(1 for _ in _bfs_levels(A.host, A._inner, within=A._keys))


def blown_up(A, sx, sy):
    """Each point (x, y) of A becomes the sx-by-sy block at (sx*x, sy*y)."""
    return VertexSet(Z2, ((sx * x + a, sy * y + b) for x, y in A
                          for a in range(sx) for b in range(sy)))


def random_sets(scale):
    """Twelve random connected sets, each also blown up by ``scale`` along
    one axis and by 1 to 4 along the other, both ways round."""
    for seed in range(12):
        A = random_connected_set(Z2, 20 + 17 * seed, seed=seed)
        yield A
        yield blown_up(A, scale, 1 + seed % 4)
        yield blown_up(A, 1 + seed % 4, scale)


def assert_kernels_match(A):
    bm = _grid.Bitmap.from_points(A)
    assert bm.count() == len(A)
    assert _grid.depth(bm) == depth(A) == bfs_depth(A) == oracles.per_vertex_depth(
        Z2, A.elements)
    assert _grid.boundary_count(bm) == len(boundary(A)) == len(
        oracles.boundary_by_distance(Z2, A.elements))


def diamond(r, x0=0, y0=0):
    """The L1 ball of radius r around (x0, y0), of depth r + 1."""
    return {(x0 + x, y0 + y) for x in range(-r, r + 1) for y in range(abs(x) - r, r - abs(x) + 1)}


def assert_depth_matches_oracles(points, per_vertex=True):
    d = _grid.depth(_grid.Bitmap.from_points(points))
    assert d == oracles.erosion_depth(points)
    if per_vertex:
        assert d == oracles.per_vertex_depth(Z2, points)
    return d


@pytest.mark.parametrize("scale", [2, 3, 5])
def test_kernels_match_generic_path_and_oracles(scale):
    for A in random_sets(scale):
        assert_kernels_match(A)


def test_depth_of_thick_blocks_with_holes():
    # deeper fields than accretion sets reach: rectangles with random holes
    rng = random.Random(5)
    for h, w in [(13, 30), (31, 9), (22, 23)]:
        A = VertexSet(Z2, ((x, y) for x in range(h) for y in range(w) if rng.random() > 0.01))
        bm = _grid.Bitmap.from_points(A)
        assert _grid.depth(bm) == depth(A) == bfs_depth(A) == oracles.per_vertex_depth(
            Z2, A.elements)
        assert _grid.boundary_count(bm) == len(boundary(A))


@pytest.mark.parametrize("cols", range(1, 25))
def test_row_padding_for_every_width_mod_8(cols):
    # rows of 8 * stride bits hold cols members and a zero column on each
    # side; a cols-wide block with one hole, and a diagonal, on every residue
    bm = _grid.Bitmap.from_points([(0, c) for c in range(cols)])
    assert bm.width % 8 == 0 and cols + 2 <= bm.width < cols + 10
    assert bm.height == 3
    block = VertexSet(Z2, ((x, y) for x in range(4) for y in range(cols) if (x, y) != (1, 1)))
    assert_kernels_match(block)
    assert_kernels_match(VertexSet(Z2, ((c, c) for c in range(cols))))
    if cols >= 6:
        # depth's runs along (1, 1) and (1, -1) end on a padding column and
        # must not wrap into the next row: a holed block and bands along
        # both diagonals, all cols wide and of depth 3 or more
        rng = random.Random(cols)
        deep = {(x, y) for x in range(2 * cols) for y in range(cols)}
        deep -= {(rng.randrange(2 * cols), rng.randrange(cols)) for _ in range(3)}
        up = {(x + y, y) for x in range(7) for y in range(cols)}
        down = {(x - y, y) for x in range(7) for y in range(cols)}
        for points in (deep, up, down, deep | {(x + 2 * cols, y) for x, y in up}):
            assert {y for _, y in points} == set(range(cols))
            assert assert_depth_matches_oracles(points) >= 3


def test_sets_at_negative_coordinates():
    rng = random.Random(7)
    for shift in [(-1, -1), (-40, 3), (5, -1000), (-(2**37), -(2**37))]:
        A = VertexSet(Z2, ((x + shift[0], y + shift[1]) for x in range(9) for y in range(11)
                           if rng.random() > 0.2))
        assert_kernels_match(A)


def test_a_single_point():
    bm = _grid.Bitmap.from_points([(-3, 4)])
    assert (bm.count(), _grid.depth(bm), _grid.boundary_count(bm)) == (1, 1, 4)


def test_depth_of_diamonds_across_every_power_of_two():
    # depth r + 1 for r = 0..70 ends the gallop on each side of every
    # 2^j <= 64; the erosion oracle, cubic in r, checks r <= 33 and r = 63
    for r in range(71):
        points = diamond(r)
        assert _grid.depth(_grid.Bitmap.from_points(points)) == r + 1
        if r <= 33 or r == 63:
            assert assert_depth_matches_oracles(points, per_vertex=r <= 12) == r + 1


def test_depth_of_unions_of_diamonds_and_holed_rectangles():
    rng = random.Random(11)
    for _ in range(30):
        points = set()
        for _ in range(rng.randint(1, 4)):
            x0, y0 = rng.randint(-30, 30), rng.randint(-30, 30)
            if rng.random() < 0.5:
                points |= diamond(rng.randint(0, 16), x0, y0)
            else:
                points |= {(x0 + x, y0 + y) for x in range(rng.randint(1, 32))
                           for y in range(rng.randint(1, 32))}
        points -= set(rng.sample(sorted(points), min(len(points) - 1, rng.randint(0, 6))))
        assert_depth_matches_oracles(points, per_vertex=len(points) <= 600)


def test_a_guessed_depth_is_confirmed_or_searched_past():
    # a right guess is confirmed, a wrong one leaves the search to go on
    for r in range(40):
        bm = _grid.Bitmap.from_points(diamond(r))
        for guess in range(r + 5):
            assert _grid.depth(bm, guess) == r + 1


# the ids name the integer type that a two-pass L1 distance transform's
# field needs on each strip (int16 while 2 * length + 8 <= 32767);
# the bit kernels need none, and the strips stay as long-row inputs
@pytest.mark.parametrize("length, width", [(16378, 16384), (32998, 33000)],
                         ids=["16378-int16", "32998-int32"])
@pytest.mark.parametrize("transpose", [False, True])
def test_one_row_strips_on_both_sides_of_the_dtype_threshold(length, width, transpose):
    # one row of ``length`` cells, padded to a multiple of 8, or one column
    # of them in rows of 8
    points = [(y, 0) if transpose else (0, y) for y in range(length)]
    bm = _grid.Bitmap.from_points(points)
    assert (bm.height, bm.width) == ((length + 2, 8) if transpose else (3, width))
    A = VertexSet(Z2, points)
    assert _grid.depth(bm) == depth(A) == bfs_depth(A) == 1
    assert _grid.boundary_count(bm) == len(boundary(A)) == 2 * length + 2


def test_depth_of_a_thick_strip_near_the_int16_limit():
    # a 5-wide strip 16375 long, and its transpose: depth 3
    points = [(x, y) for x in range(5) for y in range(16375)]
    for pts in (points, [(y, x) for x, y in points]):
        bm = _grid.Bitmap.from_points(pts)
        assert (_grid.depth(bm), _grid.boundary_count(bm)) == (3, 2 * 16375 + 10)


def test_kernels_100_fit_in_one_gib(run_capped):
    # the full member A(100, 100): 10^8 cells, which the kernels hold at
    # about one bit per cell in each of a few ints
    proc = run_capped("-c", (
        "from cayleyiso import _grid; "
        "bm = _grid.perforated_block(100, 100); "
        "print(bm.count(), _grid.boundary_count(bm), _grid.depth(bm))"
    ))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(10001**2 - 99**2), str(99**2 + 4 * 10001), "100"]


def test_stats_200_fits_in_one_gib(run_capped):
    # stats measures A(200, 200) on its patch A(200, 3), within the default
    # budget; the full member would need about 1.6 * 10^9 padded cells
    proc = run_capped("-c", (
        "from cayleyiso.counterexample import GridParams, stats; "
        "st = stats(GridParams(200, 200)); "
        "print(st.closedFormsMatch, st.sizeA, st.boundarySize, st.depthOracle)"
    ))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", str(40001**2 - 199**2),
                                   str(199**2 + 4 * 40001), "200"]


def test_depth_of_a_deep_patch_is_logarithmic_in_its_depth(run_capped):
    # the patch A(2000, 3), 3.6 * 10^7 cells of depth 2000: one erosion per
    # level took 19-21 s on a 2-vCPU Xeon, over twice the timeout, and the
    # gallop 0.35-0.5 s, under a sixteenth of it
    proc = run_capped("-c", (
        "from cayleyiso.counterexample import GridParams, stats; "
        "st = stats(GridParams(2000, 3), budget=4 * 10**7); "
        "print(st.closedFormsMatch, st.depthOracle)"
    ), timeout=8)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "2000"]


# --- z^1, z^2 and cylinders: rows of m bits whose columns wrap ---------------


def assert_routes_agree(g, members, oracles_too=True):
    """The bitmap route, which must run, against the BFS levels and, where
    ``oracles_too``, the erosion and per-vertex oracles."""
    A = VertexSet(g, members)
    d = depth(A)
    assert g._bitmap_depth(A._keys) == d == bfs_depth(A)
    if oracles_too:
        assert d == oracles.erosion_depth(members, g) == oracles.per_vertex_depth(g, members)
    return d


def test_z1_intervals_components_and_isolated_points():
    # an interval of n points has depth ceil(n / 2)
    for n in range(1, 71):
        for x0 in (0, -n, 3 - 10**12):
            assert assert_routes_agree(Z1, {(x0 + x,) for x in range(n)}) == (n + 1) // 2
    rng = random.Random(13)
    for _ in range(40):
        members = {(rng.randint(-300, 300),) for _ in range(rng.randint(0, 4))}
        for _ in range(rng.randint(1, 5)):
            x0 = rng.randint(-200, 200)
            members |= {(x0 + x,) for x in range(rng.randint(1, 40))}
        assert_routes_agree(Z1, members)


def test_z2_holed_sets():
    rng = random.Random(17)
    for _ in range(25):
        x0, y0 = rng.randint(-50, 50), rng.randint(-50, 50)
        members = {(x0 + x, y0 + y) for x in range(rng.randint(1, 40))
                   for y in range(rng.randint(1, 40))}
        members -= set(rng.sample(sorted(members), min(len(members) - 1, rng.randint(0, 12))))
        assert_routes_agree(Z2, members, oracles_too=len(members) <= 600)


@pytest.mark.parametrize("m", range(2, 18))
def test_cylinder_sets_across_the_residue_seam(m):
    g = Cylinder(m)
    rng = random.Random(m)
    rows = range(-3, 2 * m + 1)  # 2m + 4 rows, so full rings are m + 2 > m deep
    cases = {
        "across the seam": {(z, r % m) for z in rows for r in range(-2, 2)},
        "no residue 0": {(z, r) for z in rows for r in range(1, m)},
        "full rings": {(z, r) for z in rows for r in range(m)},
        "a single block": {(7, r) for r in range(m)},
    }
    for name, members in cases.items():
        d = assert_routes_agree(g, members)
        assert d == {"full rings": m + 2, "a single block": 1}.get(name, d)
    for seed in range(6):
        # arcs from a random residue, with holes, and accreted sets
        start, width = rng.randrange(m), rng.randint(1, m)
        members = {(z, (start + r) % m) for z in range(rng.randint(1, 2 * m)) for r in range(width)}
        members -= set(rng.sample(sorted(members), min(len(members) - 1, rng.randint(0, 3))))
        assert_routes_agree(g, members)
        assert_routes_agree(g, random_connected_set(g, 40 + 60 * seed, seed=seed).elements,
                            oracles_too=seed < 3)


def test_only_z1_z2_and_standard_cylinders_erode_a_bitmap(monkeypatch):
    searches = []

    def counted(g, sources, budget=None, within=None):
        searches.append(g.family)
        return search(g, sources, budget, within)

    search = isoperimetry._bfs_levels
    monkeypatch.setattr(isoperimetry, "_bfs_levels", counted)
    bitmap_hosts = [Z1, Z2, *map(Cylinder, range(2, 18))]
    bfs_hosts = [FreeGroup(2), Torus(9, 2), IntegerLattice(3), Cylinder(5, [(1, 0), (0, 2)])]
    for g in bitmap_hosts + bfs_hosts:
        A = random_connected_set(g, 60, seed=3)
        searches.clear()
        assert depth(A) == oracles.per_vertex_depth(g, A.elements)
        assert searches == ([] if g in bitmap_hosts else [g.family])


def test_sets_past_the_bits_cap_take_the_bfs(run_capped):
    far = 10**14
    blocks = {(z, r) for z in (0, 1, 2, far, far + 1, far + 2) for r in range(7)}
    cases = [(Z1, {(0,), (10**15,)}, 1), (Z2, {(i, i) for i in range(100)}, 1),
             (Cylinder(7), blocks, 2)]
    for g, members, expected in cases:
        A = VertexSet(g, members)
        assert g._bitmap_depth(A._keys) is None
        assert depth(A) == expected == oracles.per_vertex_depth(g, members)
    # bitmaps of 10^15, 10^10 and 7 * 10^14 bits, and residue masks of 10^12
    # bits on a row of two members, all past the child's 1 GiB cap
    proc = run_capped("-c", (
        "from cayleyiso import Cylinder, IntegerLattice, VertexSet, depth; "
        f"far = {far}; "
        "print(depth(VertexSet(IntegerLattice(1), [(0,), (10**15,)])), "
        "depth(VertexSet(IntegerLattice(2), ((i, i) for i in range(10**5)))), "
        "depth(VertexSet(Cylinder(7), ((z, r) for z in (0, 1, 2, far, far + 1, far + 2) "
        "for r in range(7)))), "
        "depth(VertexSet(Cylinder(10**12), [(0, 0), (0, 1)])))"
    ), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "1", "2", "1"]
