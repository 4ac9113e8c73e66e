"""The bitmap kernels against the in-set BFS from the boundary and the slow
oracles: plane bitmaps built from keys, one-row and one-column strips of
every width up to 24, negative coordinates, long strips, L1 diamonds deep
enough to cross each power of two in depth's gallop, a deep member under a
memory cap and a deep patch under a timeout; ``perforated_block``'s byte
rows for every side modulo 8; packing cells against a byte loop; z^1 runs
in closed form; z^2 and cylinders, across the residue seam and off it
under both translation rules of the one erosion loop, and sets at and past
the bits cap, which take the BFS; grown z^2 sets on their window keys,
whose bitmap is their lift's moved by a constant; free groups' erosions
by parent keys, at the identity and elsewhere."""

import random
import tracemalloc
from itertools import accumulate

import pytest

import oracles
from conftest import record_calls
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
    parse_group,
    random_connected_set,
)
from cayleyiso._zd import LATTICE_COORDINATE_BOUND, _Window
from cayleyiso.counterexample import GridParams, depth_closed_form
from cayleyiso.groups import _levels_within

Z1, Z2 = IntegerLattice(1), IntegerLattice(2)


def bfs_depth(A):
    """depth by the BFS levels from the boundary into A, called directly,
    so that they stay an oracle on the hosts whose ``depth`` erodes a
    bitmap: level r holds the members at distance r from the complement."""
    return sum(1 for _ in _levels_within(A.host, A._boundary, set(A._keys))) - 1


def bitmap(points):
    """The plane points (x, y) as keys x*w + y, w the column span plus 2, in
    ``Bitmap.from_keys``: rows wrap where y does modulo w, as z^2's do."""
    ys = [y for _, y in points]
    w = max(ys) - min(ys) + 3
    return _grid.Bitmap.from_keys([x * w + y for x, y in points], w)


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
    bm = bitmap(A)
    assert bm.bits.bit_count() == len(A)
    assert _grid.depth(bm) == depth(A) == bfs_depth(A) == oracles.per_vertex_depth(
        Z2, A.elements)
    assert _grid.boundary_count(bm) == len(boundary(A)) == len(
        oracles.boundary_by_distance(Z2, A.elements))


def diamond(r, x0=0, y0=0):
    """The L1 ball of radius r around (x0, y0), of depth r + 1."""
    return {(x0 + x, y0 + y) for x in range(-r, r + 1) for y in range(abs(x) - r, r - abs(x) + 1)}


def assert_depth_matches_oracles(points, per_vertex=True):
    d = _grid.depth(bitmap(points))
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
        bm = bitmap(A)
        assert _grid.depth(bm) == depth(A) == bfs_depth(A) == oracles.per_vertex_depth(
            Z2, A.elements)
        assert _grid.boundary_count(bm) == len(boundary(A))


@pytest.mark.parametrize("cols", range(1, 25))
def test_row_padding_for_every_width_mod_8(cols):
    # from_keys rows of any width hold the column span and two zero
    # columns: a one-row and a one-column strip, a cols-wide block with one
    # hole, and a diagonal
    for points in ([(0, c) for c in range(cols)], [(c, 0) for c in range(cols)]):
        bm = bitmap(points)
        assert bm.size == bm.width * (len({x for x, _ in points}) + 2)
        assert bm.width == len({y for _, y in points}) + 2
        assert_kernels_match(VertexSet(Z2, points))
    block = VertexSet(Z2, ((x, y) for x in range(4) for y in range(cols) if (x, y) != (1, 1)))
    assert_kernels_match(block)
    assert_kernels_match(VertexSet(Z2, ((c, c) for c in range(cols))))
    if cols >= 6:
        # depth's runs along (1, 1) and (1, -1) end on a zero column and
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
    # perforated_block pads each row to whole bytes, so it is checked on a
    # side 3i + 1 of each residue mod 8, as 3 is a unit mod 8
    i = next(i for i in range(2 + 8 * ((cols - 1) // 8), 26) if (3 * i + 1 - cols) % 8 == 0)
    side, points = 3 * i + 1, oracles.perforated_points(i, 3)
    bm = _grid.perforated_block(i, 3)
    assert bm.width % 8 == 0 and side + 2 <= bm.width < side + 10
    assert bm.size == bm.width * (side + 2)
    A = VertexSet(Z2, points)
    assert bm.bits.bit_count() == len(points)
    assert _grid.boundary_count(bm) == len(boundary(A)) == len(oracles.z2_boundary_scan(points))
    assert _grid.depth(bm) == depth(A) == bfs_depth(A) == depth_closed_form(GridParams(i, 3))


def test_sets_at_negative_coordinates():
    rng = random.Random(7)
    for shift in [(-1, -1), (-40, 3), (5, -1000), (-(2**37), -(2**37))]:
        A = VertexSet(Z2, ((x + shift[0], y + shift[1]) for x in range(9) for y in range(11)
                           if rng.random() > 0.2))
        assert_kernels_match(A)


def test_a_single_point():
    bm = bitmap([(-3, 4)])
    assert (bm.bits.bit_count(), _grid.depth(bm), _grid.boundary_count(bm)) == (1, 1, 4)


def test_depth_of_diamonds_across_every_power_of_two():
    # depth r + 1 for r = 0..70 ends the gallop on each side of every
    # 2^j <= 64; the erosion oracle, cubic in r, checks r <= 33 and r = 63
    for r in range(71):
        points = diamond(r)
        assert _grid.depth(bitmap(points)) == r + 1
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
        bm = bitmap(diamond(r))
        for guess in range(r + 5):
            assert _grid.depth(bm, guess) == r + 1


# the ids name the integer type that a two-pass L1 distance transform's
# field needs on each strip (int16 while 2 * length + 8 <= 32767);
# the bit kernels need none, and the strips stay as long-row inputs
@pytest.mark.parametrize("length", [16378, 32998], ids=["16378-int16", "32998-int32"])
@pytest.mark.parametrize("transpose", [False, True])
def test_one_row_strips_on_both_sides_of_the_dtype_threshold(length, transpose):
    # one row of ``length`` cells and two zero columns, or one column of
    # them in rows of three cells; either way three rows of length + 2
    points = [(y, 0) if transpose else (0, y) for y in range(length)]
    bm = bitmap(points)
    assert (bm.size, bm.width) == (3 * (length + 2), 3 if transpose else length + 2)
    A = VertexSet(Z2, points)
    assert _grid.depth(bm) == depth(A) == bfs_depth(A) == 1
    assert _grid.boundary_count(bm) == len(boundary(A)) == 2 * length + 2


def test_depth_of_a_thick_strip_near_the_int16_limit():
    # a 5-wide strip 16375 long, and its transpose: depth 3
    points = [(x, y) for x in range(5) for y in range(16375)]
    for pts in (points, [(y, x) for x, y in points]):
        bm = bitmap(pts)
        assert (_grid.depth(bm), _grid.boundary_count(bm)) == (3, 2 * 16375 + 10)


def test_kernels_100_fit_in_one_gib(run_capped):
    # the full member A(100, 100): 10^8 cells, which the kernels hold at
    # about one bit per cell in each of a few ints
    proc = run_capped("-c", (
        "from cayleyiso import _grid; "
        "bm = _grid.perforated_block(100, 100); "
        "print(bm.bits.bit_count(), _grid.boundary_count(bm), _grid.depth(bm))"
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


# --- packing cells into an int ------------------------------------------------


def test_pack_matches_a_byte_loop():
    rng = random.Random(5)
    for size in range(1, 65):
        cases = [{0}, {size - 1}, {0, size - 1}, set(range(size))]
        cases += [set(rng.sample(range(size), rng.randint(1, max(1, size // 8))))
                  for _ in range(3)]
        cases += [set(rng.sample(range(size), rng.randint(size // 2, size))) for _ in range(3)]
        for cells in cases:
            assert _grid._pack(iter(cells), size) == oracles.pack_cells(cells, size)
    for size in (1000, 4099, 64 * 10**4 + 3):
        for count in (1, size // 64, size // 2):
            cells = rng.sample(range(size), count)
            assert _grid._pack(iter(cells), size) == oracles.pack_cells(cells, size)


def test_pack_at_the_bits_cap_peaks_under_two_bytes_per_cell():
    # from_keys' cap: 64 cells per member, here for 10^5 members
    size = 64 * 10**5
    cells = list(range(0, size, 64))
    tracemalloc.start()
    try:
        bits = _grid._pack(iter(cells), size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bits == oracles.pack_cells(cells, size)
    assert peak <= 2 * size


# --- z^1 runs; z^2 and cylinders: rows of m bits whose columns wrap ----------


def assert_routes_agree(g, members, oracles_too=True):
    """The erosion route, which must run, against the BFS levels and, where
    ``oracles_too``, the erosion and per-vertex oracles."""
    A = VertexSet(g, members)
    d = depth(A)
    assert g._erosion_depth(A._keys) == d == bfs_depth(A)
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


def test_z1_sets_take_the_closed_form_and_build_no_bitmap(monkeypatch):
    # a set's depth is ceil(L / 2), L its longest run of consecutive keys,
    # without a bitmap: an interval, a set with one gap, and one with a far
    # outlier, whose bitmap would be past the bits cap. The per-vertex
    # oracle, quadratic in n, checks every interval to 40 and every 23rd after
    built = []
    from_keys = _grid.Bitmap.from_keys
    monkeypatch.setattr(_grid.Bitmap, "from_keys",
                        lambda keys, width: built.append(width) or from_keys(keys, width))
    for n in range(1, 301):
        for x0 in (0, -10**12, 10**15):
            keys = frozenset(range(x0, x0 + n))
            d = Z1._erosion_depth(keys)
            assert d == (n + 1) // 2
            if n <= 40 or n % 23 == 0:
                assert d == oracles.per_vertex_depth(Z1, {(x,) for x in keys})
    rng = random.Random(30)
    for n in (3, 4, 9, 60, 300):
        for x0 in (0, -10**12, 10**15):
            gap = rng.randrange(1, n - 1)
            members = {(x0 + x,) for x in range(n)} - {(x0 + gap,)}
            assert assert_routes_agree(Z1, members) == (max(gap, n - 1 - gap) + 1) // 2
            members = {(x0 + x,) for x in range(n)} | {(x0 + 10**15,)}
            assert assert_routes_agree(Z1, members) == (n + 1) // 2
    # the longest run first, in the middle and last, runs one or more keys apart
    for lengths in ((9, 4, 1), (4, 9, 1), (1, 4, 9), (2, 2, 2)):
        for apart in (2, 3, 10**15):
            starts = accumulate((length + apart for length in lengths[:-1]), initial=0)
            members = {(x0 + x,) for x0, length in zip(starts, lengths) for x in range(length)}
            assert assert_routes_agree(Z1, members) == (max(lengths) + 1) // 2
    assert built == []


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
    if m > 2:  # residues m - 2 and m - 1 empty, and a hole
        cases["off the seam"] = {(z, r) for z in rows for r in range(m - 2)} - {(m, (m - 3) // 2)}
    for name, members in cases.items():
        d = assert_routes_agree(g, members)
        assert d == {"full rings": m + 2, "a single block": 1}.get(name, d)
        if name == "off the seam":
            # every path out of these cells crosses the two empty residues, so
            # the one erosion loop gives the same depth under either
            # translation rule: plane rows of width m, padded by those two
            # zero columns, and wrapping rows
            bm = _grid.Bitmap.from_keys(VertexSet(g, members)._keys, m)
            assert _grid.depth(bm) == _grid.wrapped_depth(bm) == d
    for seed in range(6):
        # arcs from a random residue, with holes, and accreted sets
        start, width = rng.randrange(m), rng.randint(1, m)
        members = {(z, (start + r) % m) for z in range(rng.randint(1, 2 * m)) for r in range(width)}
        members -= set(rng.sample(sorted(members), min(len(members) - 1, rng.randint(0, 3))))
        assert_routes_agree(g, members)
        assert_routes_agree(g, random_connected_set(g, 40 + 60 * seed, seed=seed).elements,
                            oracles_too=seed < 3)


def held(A):
    """A copy of A that holds A's boundary, as a grown set holds its own."""
    copy = VertexSet._trusted(A.host, A._members)
    copy._boundary = A._boundary
    return copy


def fills_its_rows(g, members):
    """The fill test by the definitions: every vertex of the blocks that A
    spans is a member or at distance 1 from A."""
    outside = oracles.boundary_by_distance(g, members)
    zs = [z for z, _ in members]
    return all((z, r) in members or (z, r) in outside
               for z in range(min(zs), max(zs) + 1) for r in range(g.m))


@pytest.mark.parametrize("m, top", [(2, 8), (3, 7), (5, 6)])
def test_a_cylinder_bitmap_read_off_the_held_boundary(monkeypatch, m, top):
    # where A and the boundary keys between the boundary's outer blocks fill
    # those blocks, the bitmap is drawn from those keys, with no from_keys:
    # it must be the bitmap from_keys packs from A, bit for bit. Elsewhere
    # from_keys packs A. Every census set, sets two blocks apart and grown
    # sets of 1 to 2000 members, without and with the boundary held; the
    # depth must be the per-vertex oracle's and the BFS's. Every grown set
    # fills its rows on cyl:2 and cyl:3
    g = Cylinder(m)
    drawn = []
    kernel = _grid.wrapped_depth
    monkeypatch.setattr(_grid, "wrapped_depth", lambda bm: drawn.append(bm) or kernel(bm))
    packed = record_calls(monkeypatch, _grid.Bitmap, "from_keys", lambda call: len(call.keys))
    census = [VertexSet(g, members) for sets in oracles.connected_sets(g, top) for members in sets]
    apart = [VertexSet(g, {(z, r) for z in (0, 1) for r in range(m)} | {(gap, 0)})
             for gap in (3, 4, 9)]
    grown = [random_connected_set(g, n, seed=seed)
             for seed in range(3) for n in (1, 2, 3, 10, 60, 300, 2000)]
    verdicts = set()
    for A in census + apart + grown:
        plain = VertexSet._trusted(g, A._members)
        drawn.clear()
        packed.clear()
        d = depth(plain)
        assert packed == [len(A)] and "_boundary" not in vars(plain)
        expected, = drawn
        drawn.clear()
        packed.clear()
        assert depth(held(A)) == d
        bm, = drawn
        fill = fills_its_rows(g, A.elements)
        assert packed == ([] if fill else [len(A)])
        assert (bm.bits, bm.width, bm.size) == (expected.bits, expected.width, expected.size)
        verdicts.add(fill)
        if len(A) <= 300:
            assert d == oracles.per_vertex_depth(g, A.elements) == bfs_depth(A)
    assert verdicts == {True, False}
    assert m > 3 or all(fills_its_rows(g, A.elements) for A in grown)


def test_only_tori_z3_and_other_cylinders_take_the_depth_bfs(monkeypatch):
    searches = record_calls(monkeypatch, isoperimetry, "_levels_within", lambda call: call.g.family)
    erosion_hosts = [Z1, Z2, *map(Cylinder, range(2, 18)), FreeGroup(2), FreeGroup(3)]
    bfs_hosts = [Torus(9, 2), IntegerLattice(3), Cylinder(5, [(1, 0), (0, 2)])]
    for g in erosion_hosts + bfs_hosts:
        A = random_connected_set(g, 60, seed=3)
        searches.clear()
        assert depth(A) == oracles.per_vertex_depth(g, A.elements)
        assert searches == ([] if g in erosion_hosts else [g.family])


def test_sets_past_the_bits_cap_take_the_bfs(run_capped):
    # z^2 and cylinder sets past the cap have no erosion depth and take the
    # BFS; z^1 has no cap, and its far-apart members take the closed form
    far = 10**14
    blocks = {(z, r) for z in (0, 1, 2, far, far + 1, far + 2) for r in range(7)}
    cases = [(Z1, {(0,), (10**15,)}, 1), (Z2, {(i, i) for i in range(100)}, 1),
             (Cylinder(7), blocks, 2)]
    for g, members, expected in cases:
        A = VertexSet(g, members)
        assert g._erosion_depth(A._keys) == (expected if g is Z1 else None)
        assert depth(A) == expected == oracles.per_vertex_depth(g, members)
    # members 10^15 apart on z^1, and bitmaps of 10^10 and 7 * 10^14 bits
    # and residue masks of 10^12 bits on a row of two members, all past the
    # child's 1 GiB cap
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


def test_a_bitmap_at_the_cap_is_built_and_one_cell_further_is_not(monkeypatch):
    # n members whose padded bitmap is exactly 64 (n + 16) bits take it;
    # moved one cell further, which adds a row, they take the BFS. The z^2
    # columns start on residue 1 mod w = 13, so its rows do not wrap. z^1 has
    # no cap: the same sets of one-cell rows take the closed form, no bitmap
    sizes = []
    for name in ("depth", "wrapped_depth"):
        kernel = getattr(_grid, name)
        monkeypatch.setattr(_grid, name, lambda bm, k=kernel: sizes.append(bm.size) or k(bm))
    y0 = (1 - 2**39) % 13
    block = {(x, y0 + y) for x in range(3) for y in range(3)}
    cases = [  # host, members at the cap and the one moved out, depth
        (Z1, lambda t: {(x,) for x in range(8)} | {(1597 + t,)}, 4),
        (Z2, lambda t: block | {(125 + t, y0 + 10)}, 2),
        (Cylinder(5), lambda t: {(z, r) for z in range(3) for r in range(5)}
         | {(445 + t, r) for r in range(4)}, 2),
    ]
    for g, members, expected in cases:
        for t in (0, 1):
            A = VertexSet(g, members(t))
            sizes.clear()
            assert depth(A) == expected == oracles.per_vertex_depth(g, A.elements)
            assert sizes == ([] if t or g is Z1 else [64 * (len(A) + 16)])
            assert g._erosion_depth(A._keys) == (expected if t == 0 or g is Z1 else None)
            assert g._erosion_depth(A._keys, A._boundary) == g._erosion_depth(A._keys)
            assert bfs_depth(A) == expected


def lowest_cell(bits: int) -> int:
    """The index of the lowest set bit of a nonzero ``bits``."""
    return (bits & -bits).bit_length() - 1


def test_a_grown_plane_set_builds_its_lifts_bitmap_from_window_keys(monkeypatch):
    # z^2 keeps the window keys it grew on (``_Window``) and reads their
    # rows and columns as v // w and v % w, which are its lift's less two
    # constants: the bitmap must be the one the host keys of the set, and of
    # its copies moved to (-5, 7) and a far corner, give, of the same width,
    # with every bit moved by one constant number of cells and within one
    # row of its size, for sizes 1, 2, 3, 50 and 2000. The depth must be the
    # copies', and the per-vertex oracle's up to 50 members. The boundary
    # the set keeps is a window too, and must meet the same checks
    built = []
    kernel = _grid.depth
    monkeypatch.setattr(_grid, "depth", lambda bm, guess=0: built.append(bm) or kernel(bm, guess))
    corner = (-10**15, LATTICE_COORDINATE_BOUND - 2001)
    shifts = set()
    for seed in range(3):
        for size in (1, 2, 3, 50, 2000):
            A = random_connected_set(Z2, size, seed=seed)
            for S in (A, boundary(A)):
                assert isinstance(S._members, _Window)
                built.clear()
                d = Z2._erosion_depth(S._members)
                window, = built
                for s in [(0, 0), (-5, 7), corner]:
                    copy = VertexSet(Z2, {oracles.translate(Z2, s, v) for v in S.elements})
                    built.clear()
                    assert Z2._erosion_depth(copy._keys) == d
                    lifted, = built
                    assert window.width == lifted.width
                    shift = lowest_cell(window.bits) - lowest_cell(lifted.bits)
                    moved = lifted.bits << shift if shift >= 0 else lifted.bits >> -shift
                    assert window.bits == moved, (s, seed, size)
                    assert abs(window.size - lifted.size) <= window.width
                    shifts.add(shift)
                    assert depth(copy) == d
                assert depth(S) == d
                if size <= 50:
                    assert d == oracles.per_vertex_depth(Z2, S.elements)
    # the window does not copy the lift's column phase
    assert shifts != {0}


def test_a_window_past_the_bits_cap_takes_the_bfs():
    # a diagonal staircase of 600 window keys spans 300 rows and 301
    # columns, past 64 bits per member: no bitmap, and the BFS from its
    # boundary, kept as a window as growth keeps it, gives the oracle's depth
    n, start = 700, (4, -9)
    w, base = 2 * n + 1, Z2._encode(start) - n * ((1 << 40) + 1)
    steps = [(i, i + j) for i in range(300) for j in (0, 1)]
    window = _Window([(x + n) * w + y + n for x, y in steps], w, base)
    A = VertexSet._trusted(Z2, window)
    members = {(4 + x, y - 9) for x, y in steps}
    assert A.elements == members
    outside = oracles.boundary_by_distance(Z2, members)
    A._boundary = _Window([(x - 4 + n) * w + y + 9 + n for x, y in outside], w, base)
    assert set(map(Z2._decode, A._boundary)) == outside
    assert Z2._erosion_depth(window) is None
    assert depth(A) == 1 == oracles.per_vertex_depth(Z2, members) == bfs_depth(A)



def plane_layout(S):
    """The bitmap of z^2's layout, cell x*W + c in rows of W, the column
    span plus 3, built by ``from_keys``' default frame from each key's row x
    and column c: v // w and v % w of a window key v, and x and y + 2^39 of
    a host key's vertex (x, y)."""
    if isinstance(S._members, _Window):
        cells = [divmod(v, S._members.w) for v in S._members.keys]
    else:
        cells = [(x, y + 2**39) for x, y in S.elements]
    columns = [c for _, c in cells]
    w = max(columns) - min(columns) + 3
    return _grid.Bitmap.from_keys([x * w + c for x, c in cells], w)


def test_a_plane_bitmap_read_off_the_held_boundary(monkeypatch):
    # z^2 reads the width and the zero rows off the boundary a set holds:
    # the bitmap must be the one that A's own frame gives and the layout's,
    # bit for bit, on window keys (grown sets, and their boundaries, which
    # hold a boundary of host keys) and on host keys (census sets, copies,
    # holed blocks), and the depth the per-vertex oracle's and the BFS's
    built = []
    kernel = _grid.depth
    monkeypatch.setattr(_grid, "depth", lambda bm, guess=0: built.append(bm) or kernel(bm, guess))
    census = [VertexSet(Z2, members) for sets in oracles.connected_sets(Z2, 7) for members in sets]
    grown = [random_connected_set(Z2, n, seed=seed)
             for seed in range(3) for n in (1, 2, 3, 10, 60, 300, 2000)]
    rng = random.Random(48)
    holed = [VertexSet(Z2, {(x0 + x, y0 + y) for x in range(h) for y in range(w)
                            if rng.random() > 0.05})
             for x0, y0, h, w in [(0, 0, 9, 30), (-7, 5, 31, 6), (3, -2**37, 12, 12)]]
    copies = [VertexSet(Z2, A.elements) for A in grown]
    for A in census + grown + holed + copies + [boundary(A) for A in grown]:
        plain = VertexSet._trusted(Z2, A._members)
        built.clear()
        d = depth(plain)
        assert "_boundary" not in vars(plain)
        expected, = built
        built.clear()
        assert depth(held(A)) == d
        bm, = built
        layout = plane_layout(A)
        assert (bm.bits, bm.width, bm.size) == (expected.bits, expected.width, expected.size)
        assert (bm.bits, bm.width, bm.size) == (layout.bits, layout.width, layout.size)
        if len(A) <= 300:
            assert d == oracles.per_vertex_depth(Z2, A.elements) == bfs_depth(A)


@pytest.mark.parametrize("family", ["z^1", "z^2", "cyl:2", "cyl:3", "cyl:5", "free:2"])
def test_the_depth_of_a_loaded_set_computes_no_boundary(tmp_path, family):
    # depth hands the host a boundary only where the set holds one: on the
    # hosts that erode, a set read from its file keeps its boundary unknown
    g = parse_group(family)
    path = tmp_path / "set.json"
    isoperimetry.save_set(random_connected_set(g, 150, seed=4), str(path))
    A = isoperimetry.load_set(str(path))
    assert depth(A) == oracles.per_vertex_depth(g, A.elements)
    assert "_boundary" not in vars(A)

# --- free groups: erosions by parent keys ------------------------------------


@pytest.mark.parametrize("rank", [2, 3, 26])
def test_free_group_accreted_sets(rank):
    g = FreeGroup(rank)
    for seed, size in enumerate((1, 2, 5, 30, 120, 400, 1500)):
        A = random_connected_set(g, size, seed=seed)
        assert_routes_agree(g, A.elements, oracles_too=size <= 400)


@pytest.mark.parametrize("rank", [2, 3])
def test_free_group_balls_are_one_deeper_than_their_radius(rank):
    # B_r around the identity, and around a word longer than r, which is
    # left multiplication of B_r and leaves out the identity
    g, center = FreeGroup(rank), (1, 2, -1, -2, 1, 2)
    for r in range(6 if rank == 2 else 4):
        ball = oracles.enumerate_reduced_words(rank, r)
        moved = {oracles.translate(g, center, w) for w in ball}
        assert () not in moved
        for members in (ball, moved):
            assert assert_routes_agree(g, members, oracles_too=r <= 3) == r + 1


def test_free_group_sets_without_the_identity_disconnected_and_single():
    g = FreeGroup(2)
    for w in [(), (1,), (-2, 1), (1, 2, -1, -2, 1, 2)]:
        assert assert_routes_agree(g, {w}) == 1
    # B_2, B_1 around a word six letters out (three steps from B_2), and a
    # word four steps from both
    far = (2, 2, 2, 2, 2, 2)
    pieces = [oracles.enumerate_reduced_words(2, 2),
              {oracles.translate(g, far, w) for w in oracles.enumerate_reduced_words(2, 1)},
              {(-1, -1, -1, -1, -1, -1)}]
    assert assert_routes_agree(g, set().union(*pieces)) == 3
    assert assert_routes_agree(g, pieces[1] | pieces[2]) == 2
    rng = random.Random(29)
    for _ in range(20):
        members = set()
        for _ in range(rng.randint(2, 4)):
            s = oracles.random_vertex(g, rng)
            members |= {oracles.translate(g, s, w) for w in
                        random_connected_set(g, rng.randint(1, 40), seed=rng.randrange(99))}
        assert_routes_agree(g, members)


@pytest.mark.parametrize("rank", [2, 3, 26])
def test_free_group_a_vertex_with_all_or_all_but_one_neighbor(rank):
    # {v} and its 2r neighbors has depth 2; without any one of them, 1.
    # At the identity all 2r neighbors are children, elsewhere one is the parent
    g = FreeGroup(rank)
    for v in [(), (1,), (-rank, 1, 2)]:
        star = g.neighbors(v)
        assert assert_routes_agree(g, {v, *star}) == 2
        for u in star:
            assert assert_routes_agree(g, {v, *star} - {u}) == 1
