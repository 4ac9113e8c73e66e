"""``z^d``: ``IntegerLattice`` on ``_lattice``'s keys, radix 2^40."""

from __future__ import annotations

import sys
from itertools import accumulate, compress, count, repeat
from math import comb, inf
from operator import add, and_, lt, mul, rshift, sub, xor
from typing import Collection, Iterator, Optional, Tuple

from ._lattice import _MixedRadix, _check_dimension, _swap_and_pop
from .groups import Vertex

#: a ``z^d`` key's digits are 2^_LATTICE_BITS apart
_LATTICE_BITS = 40
#: from this dimension on a ``z^d`` key is read and written through one bytes
#: string, linear in d; below it the digit loop, quadratic in d, is faster
#: (measured crossovers of the shared codec: decoding near d = 12, encoding
#: near d = 40)
_BYTES_FROM_DIMENSION = 40
#: a byte's sign fill: 0xFF where its top bit is set, else 0
_SIGN_FILL = bytes(128) + b"\xff" * 128
#: ``validate_vertex`` bounds every ``z^d`` coordinate but the first below this
LATTICE_COORDINATE_BOUND = 1 << 38


class IntegerLattice(_MixedRadix):
    """Cayley graph of Z^d with the standard generating set.

    The key has radix S = 2^40 and balanced lower digits, so on z^1 it is
    the coordinate itself, and stepping along e_i adds +-S^(d-1-i). For
    d >= 2 ``validate_vertex`` admits only lower coordinates below 2^38 in
    magnitude, half the exact range of 2^39, and a step moves one
    coordinate by one, so a key the library forms is exact unless a search
    walks about 2^38 steps from a valid vertex; a search holds every vertex
    it visits, so that needs far more memory than any run has. S is a power
    of two below 2^61: CPython hashes an int modulo 2^61 - 1, so S = 2^64
    (8 modulo 2^61 - 1) would give (x, y) and (x - 1, y + 8) one hash.

    From d = 40 on (``_BYTES_FROM_DIMENSION``) a key is decoded and
    encoded in time linear in d: adding the bias H, with 2^39 in every
    lower digit, makes those digits unsigned without carries, so
    ``(key + H) >> 40(d - 1)`` is the first coordinate and one ``to_bytes``
    of the low 40(d - 1) bits holds the others, five bytes each.
    """

    def __init__(self, d: int):
        _check_dimension("lattice", d)
        self.d = d
        self.degree = 2 * d
        self.declared_ends = 2 if d == 1 else 1
        self.family = f"z^{d}"
        self.vertex_count = None
        bound = LATTICE_COORDINATE_BOUND
        super().__init__(
            1 << _LATTICE_BITS, 1 << _LATTICE_BITS - 1,
            (-inf,) + (1 - bound,) * (d - 1), (inf,) + (bound,) * (d - 1),
            f"is not a length-{d} integer tuple",
            "has a coordinate after the first of magnitude >= 2^38")
        # one row, +e_0, -e_0, +e_1, -e_1, ...: the order ``neighbors`` lists them
        self._rows, self._period = ([sign << _LATTICE_BITS * (d - 1 - i)
                                     for i in range(d) for sign in (1, -1)],), 1
        # H: 2^39 in each of the d - 1 lower digits
        self._bias = int.from_bytes(b"\x80\0\0\0\0" * (d - 1), "big")
        if d >= _BYTES_FROM_DIMENSION:
            self._encode, self._decode = self._encode_bytes, self._decode_bytes

    def _encode_bytes(self, v: Vertex) -> int:
        half = 1 << _LATTICE_BITS - 1
        lower = b"".join([(x + half).to_bytes(5, "big") for x in v[1:]])
        shift = _LATTICE_BITS * (self.d - 1)
        return (v[0] << shift) + int.from_bytes(lower, "big") - self._bias

    def _decode_bytes(self, key: int) -> Vertex:
        lower = self.d - 1
        shift = _LATTICE_BITS * lower
        biased = key + self._bias
        # the XOR leaves each digit's 40-bit two's complement: five bytes,
        # widened to a signed machine word by three copies of its sign fill
        digits = ((biased & (1 << shift) - 1) ^ self._bias).to_bytes(5 * lower, "big")
        fill = digits[::5].translate(_SIGN_FILL)
        words = bytearray(8 * lower)
        little = sys.byteorder == "little"
        for k in range(8):  # byte k of every word, from its least significant
            words[k if little else 7 - k::8] = digits[4 - k::5] if k < 5 else fill
        coordinates = memoryview(words).cast("q").tolist()
        coordinates.insert(0, biased >> shift)
        return tuple(coordinates)

    def _ball_count(self, r: int) -> int:
        # Delannoy numbers: choose the k nonzero coordinates, their signs,
        # and positive values summing to at most r (C(r, k) ways)
        return sum(2**k * comb(self.d, k) * comb(r, k) for k in range(min(self.d, r) + 1))

    def _erosion_depth(self, keys: Collection) -> Optional[int]:
        if self.d == 1:
            # the key is the point, and a run of n consecutive keys has depth
            # ceil(n / 2) at its middle: a set's depth is its longest run's.
            # An interval is one run and needs no sort; any other set is cut
            # wherever consecutive keys skip
            if max(keys) - min(keys) + 1 == len(keys):
                return (len(keys) + 1) // 2
            ks = sorted(keys)
            cuts = [0, *compress(count(1), map(lt, repeat(1), map(sub, ks[1:], ks))), len(ks)]
            return (max(map(sub, cuts[1:], cuts)) + 1) // 2
        if self.d > 2:
            return None
        from . import _grid

        # key + S/2 is x*S + c for the column c = y + S/2. Read as the key
        # x*w + c, w the column span plus 2, the columns fill w - 2
        # consecutive residues mod w and leave two empty, so a member keeps
        # its member neighbors, its neighbors outside the set stay outside,
        # and the bitmap erodes as the plane does. Both passes add S/2
        # afresh: a list of 10^4 sums would peak 0.4 MB higher to save about
        # 0.6 ms
        h, low = 1 << _LATTICE_BITS - 1, (1 << _LATTICE_BITS) - 1
        columns = list(map(and_, map(add, keys, repeat(h)), repeat(low)))
        w = max(columns) - min(columns) + 3
        rows = map(rshift, map(add, keys, repeat(h)), repeat(_LATTICE_BITS))
        bm = _grid.Bitmap.from_keys(list(map(add, map(mul, rows, repeat(w)), columns)), w)
        return bm and _grid.depth(bm)

    def _accrete(self, start: int, size: int, rng) -> Tuple[Collection, Collection]:
        if self.d == 2:
            # Host keys a row apart differ by S = 2^40, so their low hash bits
            # collide. A and its candidates lie within size steps of the
            # start, so the offset (x, y) from it has the window key
            # v = (x + size)*w + y + size, w = 2 size + 1, two digits in
            # 0 .. 2 size: the loop hashes small ints with the host keys'
            # draws and order, and v lifts to the host key
            # start + x*S + y = base + v + (v // w)*(S - w)
            S, w = 1 << _LATTICE_BITS, 2 * size + 1
            base, lift = start - size * (S + 1), S - w
            window = _swap_and_pop(size * w + size, size, rng, ((w, -w, 1, -1),), 1)
            return tuple([base + v + v // w * lift for v in keys] for keys in window)
        if self.d > 2:
            return super()._accrete(start, size, rng)
        # A is an interval [hi - size + 1, hi] whose candidates are its two
        # ends, so each draw is getrandbits(2), the top two bits of one
        # 32-bit word: a top byte >= 128 is rejected, and one < 64 (j = 0)
        # takes the first candidate, after which the other end is first.
        # Either way the end taken is then the last candidate; up is 1 while
        # that is hi + 1 (_step lists hi + 1 first, so up starts at 0).
        # getrandbits(32 N) returns N words least significant first; the
        # generator is the caller's own, so words drawn past the last
        # absorption are harmless
        hi, up, left = start, 0, size - 1
        while left:
            words = rng.getrandbits(64 * left).to_bytes(8 * left, "little")
            taken = words[3::4].translate(None, bytes(range(128, 256)))[:left]
            # the end taken at each draw, 1 for hi + 1: the parity of the flips
            ends = list(accumulate(taken.translate(b"\1" * 64 + bytes(192)), xor, initial=up))
            hi, up, left = hi + sum(ends) - up, ends[-1], left - len(taken)
        return range(hi - size + 1, hi + 1), (hi - size, hi + 1)

    def _check_grown(self, start: Vertex, size: int, keys: Collection) -> None:
        # a draw moves one coordinate by one, so only a start within size - 1
        # steps of the bound has members to check: the loops stay untouched
        if max(map(abs, start[1:]), default=0) + size > LATTICE_COORDINATE_BOUND:
            for key in keys:
                self.validate_vertex(self._decode(key))

    def _ball_counts(self) -> Iterator[int]:
        # the generating function (1+x)^d / (1-x)^(d+1) of the sizes gives
        # (r+1) b(r+1) = (2d+1) b(r) + r b(r-1): one step per radius, exact
        prev, cur = 0, 1
        for r in count():
            yield cur
            prev, cur = cur, ((2 * self.d + 1) * cur + r * prev) // (r + 1)
