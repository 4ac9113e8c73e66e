"""Bitmap kernels for finite subsets of the square lattice and its quotients.

The generic set routines in :mod:`cayleyiso.isoperimetry` walk hash sets of
keys, which is fine up to ~10^5 vertices. Perforated-grid families reach
millions of vertices, so this module redoes the two hot statistics (boundary
size and depth) on a bitmap held in one Python ``int``, whose word-parallel
shifts, ands and ors are the kernels. Results are exact and must agree with
the generic path; the unit tests compare both routes.

Boundary size is one pass. Depth gallops over erosions by L1 balls, each
split into two diagonal segments and one 4-neighborhood (Zhuang–Haralick
1986), in O(log^2 depth) passes. Each kernel holds a few ints of the
bitmap's size at once, at one bit per padded cell each:
``perforated_block(100, 100)`` followed by ``depth``, on 10^8 cells, takes
under 1 s on a 2-vCPU Xeon and peaks at 90 MB, about 0.8 bytes per cell
above the interpreter's start (``ru_maxrss`` in a fresh process, Python 3.11).

A ``Bitmap`` pads Z^2's rows; ``wrapped_depth`` reads Z x Z_m (Z if m = 1),
Z^2 modulo (0, m), in rows of m bits whose columns wrap. Its ball B_r is the
image of Z^2's, so it erodes by the same split, and a shift by (dz, dr) moves
residue r by dz*m + dr bits, or by m fewer where r + dr wraps past m - 1.
z^2 sets take it too, with one empty column. It refuses a set whose bitmap
would take over 64 bits per member, past a slack: its caller runs a BFS.
"""

from __future__ import annotations

from typing import Callable, Collection, Iterable, Optional, Tuple


class Bitmap:
    """A set of lattice points stored row by row in the bits of one int.

    Cell (r, c) is bit ``r * width + c``, and (x, y) is in the set iff cell
    (x - x0 + 1, y - y0 + 1) is set, for the least coordinates x0, y0 of the
    set. ``width`` is a multiple of 8, so that rows start on byte boundaries,
    and leaves at least one zero column on each side of every row; a zero row
    lies above and below. A shift by 1 or by ``width`` therefore moves every
    member onto its 4-neighbor's cell and never into another row's cells.
    Boundary size and depth are translation-invariant, so the kernels never
    need (x0, y0) and it is not kept.
    """

    def __init__(self, bits: int, width: int, height: int):
        self.bits = bits
        self.width = width
        self.height = height
        self.size = width * height

    @property
    def mask(self) -> "Bitmap":
        """This bitmap, whose padded cells the benchmark tracer reads as ``mask.size``."""
        return self

    @classmethod
    def from_points(cls, points: Iterable[Tuple[int, int]]) -> "Bitmap":
        pts = list(points)
        if not pts:
            raise ValueError("cannot build a bitmap from an empty point set")
        xs, ys = zip(*pts)
        x0, y0 = min(xs), min(ys)
        height, width = max(xs) - x0 + 3, 8 * _row_bytes(max(ys) - y0 + 1)
        offset = (1 - x0) * width + 1 - y0
        return cls(_pack((x * width + y + offset for x, y in pts), height * width),
                   width, height)

    def count(self) -> int:
        return self.bits.bit_count()


def _row_bytes(cols: int) -> int:
    """Bytes per row for ``cols`` member columns and a zero column each side."""
    return (cols + 2 + 7) // 8


def _pack(cells: Iterable[int], size: int) -> int:
    """The int whose set bits are ``cells``, each below ``size``."""
    buf = bytearray(size + 7 >> 3)
    for c in cells:
        buf[c >> 3] |= 1 << (c & 7)
    return int.from_bytes(buf, "little")


def boundary_count(bm: Bitmap) -> int:
    """Size of the exterior vertex boundary: non-members adjacent to a member."""
    a, w = bm.bits, bm.width
    return ((a << 1 | a >> 1 | a << w | a >> w) & ~a).bit_count()


def depth(bm: Bitmap, guess: int = 0) -> int:
    """max over members of the lattice distance to the complement.

    E_r, the erosion by the L1 ball B_r, keeps the members v with v + B_r
    inside A, those at distance > r from the complement, so the depth is
    the least r with E_r(A) empty. As B_a ⊕ B_b = B_{a+b}, E_{a+b} = E_b ∘
    E_a: the search erodes the last nonempty E_t(A) by B_1, B_2, B_4, …
    until one is empty and then bisects that gap, in O(log depth) erosions
    of O(log depth) passes each (``_erode``). A ``guess`` d is confirmed in
    two erosions, E_{d-1}(A) nonempty and E_d(A) empty, or searched past.
    The zero padding counts as complement, which is correct: every cell
    beyond the bitmap is farther from a member than the padding cell on the
    same ray.
    """
    return _gallop(bm.bits, lambda x, r: _erode(x, r, bm.width), guess)


def _gallop(a: int, erode: Callable[[int, int], int], guess: int = 0) -> int:
    """``depth``'s search: the least r with ``erode(a, r)`` empty, plus 1."""
    t, s = 0, 1  # a is E_t(A), up to a translation, and not empty unless A is
    if guess > 1 and (b := erode(a, guess - 1)):
        a, t = b, guess - 1
    while b := erode(a, s):
        a, t, s = b, t + s, 2 * s
    while s := s // 2:  # E_{t+2s}(A) is empty
        if b := erode(a, s):
            a, t = b, t + s
    return t + 1 if a else 0


def _erode(x: int, r: int, w: int) -> int:
    """x eroded by B_r, up to a translation.

    B_r(c) = D+ ⊕ D- ⊕ B_1 for c = (r - 1, 0) and the diagonal segments
    D± = {j(1, ±1) : 0 <= j < r}. D+ ⊕ D- is the points of B_{r-1}(c) with
    x + y even, which are all the even points of B_r(c) (their distance to
    c has the parity of r - 1), and an odd point of B_r(c) is next to an
    even one nearer c, or to (r - 2, 0) if it is c. The segment erosions double the
    run they test per pass, x &= x >> s·d with d = w ± 1 the offset of
    (1, ±1); erosions commute, so they share one loop. Each pass keeps a
    subset of x, so the padding columns stay zero, and a run of members
    along (1, ±1) meets column w - 1 or 0 before it could wrap into
    another row.
    """
    run = 1
    while run < r:
        s = min(run, r - run)
        x &= x >> s * (w + 1)
        x &= x >> s * (w - 1)
        run += s
    return x & (x << 1) & (x >> 1) & (x << w) & (x >> w)


def wrapped_depth(keys: Collection[int], m: int) -> Optional[int]:
    """``depth`` of a nonempty set of keys z*m + r of Z x Z_m, standard
    generators, or None past the bits cap; bit i holds residue i mod m."""
    base = min(keys) // m * m
    size = max(keys) // m * m + m - base  # whole rows, so the masks fit too
    if size > 64 * (len(keys) + 16):  # over 64 bits per member, past a slack
        return None
    ones = ((1 << size) - 1) // ((1 << m) - 1)  # residue 0 of every row

    def at(x, dz, dr):  # x at v + (dz, dr) for every cell v, dz >= 0
        low = ones * ((1 << m - dr % m) - 1)  # residues r + dr % m < m: no wrap
        k = dz * m + dr % m
        return x >> k & low | x << m >> k & ~low

    def erode(x, r):  # ``_erode`` on wrapping rows; rows beyond x are complement
        run = 1
        while run < r:
            s = min(run, r - run)
            x &= at(x, s, s)
            x &= at(x, s, -s)
            run += s
        return x & x >> m & x << m & at(x, 0, 1) & at(x, 0, -1)

    return _gallop(_pack((k - base for k in keys), size), erode)


def perforated_block(i: int, k: int) -> Bitmap:
    """The square {0..ki}^2 minus interior pins {(m*i, n*i) : 1 <= m,n <= k-1}.

    Built directly at bitmap resolution, by repeating one row's bytes, so
    multi-million-vertex instances never materialize point lists. Its caller
    passes ``GridParams``, which holds i, k > 1.
    """
    side = k * i + 1
    stride = _row_bytes(side)
    row = (((1 << side) - 1) << 1).to_bytes(stride, "little")
    buf = bytearray(stride) + row * side + bytearray(stride)
    for m in range(1, k):
        for n in range(1, k):
            c = n * i + 1
            buf[(m * i + 1) * stride + (c >> 3)] &= ~(1 << (c & 7))
    return Bitmap(int.from_bytes(buf, "little"), 8 * stride, side + 2)
