"""The bitmap kernels against the generic set path and the slow oracles:
chunked scans with ragged last chunks, and both distance dtypes."""

import numpy as np
import pytest

import oracles
from cayleyiso import IntegerLattice, VertexSet, _grid, boundary, depth, random_connected_set

Z2 = IntegerLattice(2)


def blown_up(A, sx, sy):
    """Each point (x, y) of A becomes the sx-by-sy block at (sx*x, sy*y)."""
    return VertexSet(Z2, ((sx * x + a, sy * y + b) for x, y in A
                          for a in range(sx) for b in range(sy)))


def random_sets():
    for seed in range(12):
        A = random_connected_set(Z2, 20 + 17 * seed, seed=seed)
        yield A
        yield blown_up(A, 2 + seed % 3, 1 + seed % 4)


@pytest.mark.parametrize("chunk", [2, 3, 5])
def test_kernels_match_generic_path_and_oracles(monkeypatch, chunk):
    monkeypatch.setattr(_grid, "_CHUNK", chunk)
    ragged = []
    for A in random_sets():
        bm = _grid.Bitmap.from_points(A)
        h, w = bm.mask.shape
        # non-square, and at least three chunks along each axis
        if h == w or min(h, w) <= 2 * chunk:
            continue
        ragged += [n % chunk != 0 for n in (h, w)]
        d = _grid.depth(bm)
        assert d == depth(A) == oracles.per_vertex_depth(Z2, A.elements)
        assert _grid.boundary_count(bm) == len(boundary(A)) == len(
            oracles.boundary_by_distance(Z2, A.elements))
    # whole and short last chunks both ran, on at least a dozen sets
    assert len(ragged) >= 24 and set(ragged) == {True, False}


def test_depth_of_thick_blocks_with_holes(monkeypatch):
    # deeper fields than accretion sets reach: rectangles with random holes
    monkeypatch.setattr(_grid, "_CHUNK", 4)
    rng = np.random.default_rng(5)
    for h, w in [(13, 30), (31, 9), (22, 23)]:
        keep = rng.random((h, w)) > 0.01
        A = VertexSet(Z2, ((x, y) for x in range(h) for y in range(w) if keep[x, y]))
        bm = _grid.Bitmap.from_points(A)
        assert _grid.depth(bm) == depth(A) == oracles.per_vertex_depth(Z2, A.elements)
        assert _grid.boundary_count(bm) == len(boundary(A))


def test_distance_dtype_threshold():
    # h + w + 1 + max(h, w) must not exceed 32767 for int16
    assert _grid._distance_dtype((3, 16381)) is np.int16
    assert _grid._distance_dtype((3, 16382)) is np.int32
    assert _grid._distance_dtype((16381, 3)) is np.int16
    assert _grid._distance_dtype((10003, 10003)) is np.int16
    assert _grid._distance_dtype((10923, 10923)) is np.int32


@pytest.mark.parametrize("length, dtype", [(16378, np.int16), (32998, np.int32)])
@pytest.mark.parametrize("transpose", [False, True])
def test_one_row_strips_on_both_sides_of_the_dtype_threshold(length, dtype, transpose):
    # the transposed strip runs its longest column through the first pass,
    # where d + j reaches its largest value, inf + length
    points = [(y, 0) if transpose else (0, y) for y in range(length)]
    bm = _grid.Bitmap.from_points(points)
    assert bm.mask.shape == ((length + 2, 3) if transpose else (3, length + 2))
    assert _grid._distance_dtype(bm.mask.shape) is dtype
    A = VertexSet(Z2, points)
    assert _grid.depth(bm) == depth(A) == 1
    assert _grid.boundary_count(bm) == len(boundary(A)) == 2 * length + 2


def test_depth_of_a_thick_strip_near_the_int16_limit():
    # a 5-wide strip in a 7 x 16377 bitmap, and its transpose: depth 3
    points = [(x, y) for x in range(5) for y in range(16375)]
    bm = _grid.Bitmap.from_points(points)
    assert _grid._distance_dtype(bm.mask.shape) is np.int16
    assert _grid.depth(bm) == 3
    assert _grid.depth(_grid.Bitmap(np.ascontiguousarray(bm.mask.T))) == 3


def test_kernels_100_fit_in_one_gib(run_capped):
    # the full member A(100, 100): 10^8 cells; at about 3 bytes per cell
    # this fits, a kernel with full-size int32 temporaries fails here with
    # MemoryError
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
