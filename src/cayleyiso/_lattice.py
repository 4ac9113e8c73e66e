"""``z^d``, tori and cylinders: the hosts on Z^a x (Z_n)^b, ``IntegerLattice``,
``Torus`` and ``Cylinder``. A vertex is a tuple of coordinates, ints on an
unbounded axis and residues on the others, and its key reads them as one
mixed-radix number (``_MixedRadix``); the sets these hosts grow come from
``_swap_and_pop`` except on z^1 and z^2. ``parse_group`` imports this module
only for a spec that names one of these families.
"""

from __future__ import annotations

import sys
from itertools import accumulate, compress, count, repeat
from math import comb, gcd, inf
from operator import add, and_, le, lt, mul, rshift, sub, xor
from typing import Collection, Iterator, Optional, Sequence, Tuple

from .groups import DEFAULT_BUDGET, GroupGraph, InvalidVertexError, Vertex, _clip


def _check_dimension(kind: str, d: int) -> None:
    """d >= 1, and 2d^2 <= DEFAULT_BUDGET: one ``_step`` builds 2d neighbors
    of d coordinates each."""
    if d < 1:
        raise ValueError(f"{kind} dimension must be >= 1, got {d}")
    if 2 * d * d > DEFAULT_BUDGET:
        raise ValueError(f"{kind} dimension {d} too large: needs 2d^2 <= {DEFAULT_BUDGET}")


def _swap_and_pop(start: int, size: int, rng, rows, period: int) -> Tuple[set, list]:
    """``_accrete``'s loop: the members and the candidates, in discovery order,
    of ``size`` - 1 draws from ``start``, stepping v to v + o, o in ``rows[v % period]``."""
    # the candidate list is exactly the keys seen but not absorbed
    getrandbits = rng.getrandbits
    candidates = [start + o for o in rows[start % period]]
    seen = {start, *candidates}
    add, append, pop = seen.add, candidates.append, candidates.pop
    for _ in range(size - 1):
        n = len(candidates)
        k = n.bit_length()
        j = getrandbits(k)
        while j >= n:
            j = getrandbits(k)
        # swap-and-pop: the last candidate takes slot j
        v = pop()
        if j < n - 1:
            v, candidates[j] = candidates[j], v
        for o in rows[v % period]:
            u = v + o
            if u not in seen:
                add(u)
                append(u)
    return seen.difference(candidates), candidates


#: ``int`` without end, shared: ``map(isinstance, v, _INTS)`` checks each
#: coordinate's type without building an iterator per call
_INTS = repeat(int)


class _MixedRadix(GroupGraph):
    """A host on Z^a x (Z_n)^b whose key is its coordinates read as one
    mixed-radix number.

    Each lower axis i >= 1 has the radix R and the half h of its family,
    and the key of (x_0, ..., x_{k-1}) is the sum of x_i * R^(k-1-i), x_0
    most significant. Axis i's coordinate is the digit of key + h at place
    R^(k-1-i), minus h, so h = R/2 gives balanced digits (``z^d``,
    R = 2^40) and h = 0 residues (a torus, R = n; a cylinder (z, r), key
    z*m + r). The first coordinate is the quotient left over, and key 0 is
    the identity. A key determines its vertex while every lower coordinate
    lies in [-h, R - h). ``validate_vertex`` admits tuples of ints with
    lo_i <= x_i < hi_i, the bounds +-inf on an unbounded axis.

    Each family sets ``_rows`` and ``_period``: the neighbors of key v are
    v + o for o in ``_rows[v % _period]``, in ``neighbors`` order. ``_step``
    reads them, and so does growth, ``_swap_and_pop``, on every family but
    z^1 and z^2, which grow the same sets another way.
    """

    def __init__(self, radix: int, half: int, lo: tuple, hi: tuple, malformed: str,
                 out_of_bounds: str):
        #: (R, h) of each lower axis, least significant first, for decoding
        self._axes = [(radix, half)] * (len(lo) - 1)
        self._radix, self._lo, self._hi = radix, lo, hi
        # the ends of the two errors: a malformed tuple, a coordinate out of bounds
        self._malformed, self._out_of_bounds = malformed, out_of_bounds

    def validate_vertex(self, v) -> None:
        lo, hi = self._lo, self._hi
        if not isinstance(v, tuple) or len(v) != len(lo) or not all(map(isinstance, v, _INTS)):
            raise InvalidVertexError(f"{_clip(v)} {self._malformed}")
        if not (all(map(le, lo, v)) and all(map(lt, v, hi))):
            raise InvalidVertexError(f"{_clip(v)} {self._out_of_bounds}")

    def _encode(self, v: Vertex) -> int:
        key, radix = v[0], self._radix
        for x in v[1:]:  # Horner's rule
            key = key * radix + x
        return key

    def _decode(self, key: int) -> Vertex:
        digits = []
        for radix, half in self._axes:
            key, x = divmod(key + half, radix)
            digits.append(x - half)
        digits.append(key)
        return tuple(reversed(digits))

    def _step(self, key: int) -> list:
        return [key + o for o in self._rows[key % self._period]]

    def _accrete(self, start: int, size: int, rng) -> Tuple[Collection, Collection]:
        return _swap_and_pop(start, size, rng, self._rows, self._period)


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


class Torus(_MixedRadix):
    """Cayley graph of (Z_n)^d with the standard generating set; n >= 3.

    The key has radix n on every axis, an exact bijection onto 0 .. n^d - 1.
    Stepping along +-e_i adds +-n^(d-1-i), or subtracts or adds
    (n-1)*n^(d-1-i) where the digit x_i wraps around.
    """

    def __init__(self, n: int, d: int = 2):
        if n < 3:
            raise ValueError(f"torus side must be >= 3, got {n}")
        _check_dimension("torus", d)
        self.n = n
        self.d = d
        self.degree = 2 * d
        self.declared_ends = 0
        self.family = f"torus:{'x'.join(str(n) for _ in range(d))}"
        self.vertex_count = n**d
        malformed = f"is not a length-{d} tuple of residues mod {n}"
        super().__init__(n, 0, (0,) * d, (n,) * d, malformed, malformed)
        # per coordinate, in ``neighbors`` order: its place value and the
        # offset that wraps its digit from n - 1 to 0
        self._places = [(n ** (d - 1 - i), (n - 1) * n ** (d - 1 - i)) for i in range(d)]
        # a row depends on the digits that wrap: built from _step as it is read
        self._rows, self._period = _StepRows(self._step), n**d

    def _step(self, key: int) -> list:
        top = self.n - 1
        out = []
        for place, wrap in self._places:
            x = key // place % self.n
            out.append(key + place if x < top else key - wrap)
            out.append(key - place if x else key + wrap)
        return out


STANDARD_CYLINDER_GENERATORS = ((1, 0), (-1, 0), (0, 1), (0, -1))

class _Rows(dict):
    """Rows of key offsets, row r built as ``row_fn(r)`` on first use and kept
    (idempotently, so a shared host stays safe): a cylinder's rows by residue
    cost only the residues a search reaches."""

    def __init__(self, row_fn):
        super().__init__()
        self._row_fn = row_fn

    def __missing__(self, r: int) -> list:
        return self.setdefault(r, self._row_fn(r))


class _StepRows:
    # row v is built from _step(v) on each read and never kept, as
    # accretion reads each absorbed key's row once
    def __init__(self, step):
        self._step = step

    def __getitem__(self, v: int) -> list:
        return [u - v for u in self._step(v)]


class Cylinder(_MixedRadix):
    """Cayley graph of Z x Z_m with an explicit symmetrized generating set.

    The generator list is closed under inverses (missing inverses are added)
    and must generate the whole group; non-generating sets are rejected.

    Z x Z_m is Z^2 modulo the row (0, m), so the generators span it exactly
    when their rows together with (0, m) span the lattice Z^2. By the Smith
    normal form the index of the lattice L spanned by these rows is the gcd
    D of their 2x2 minors, so the test is D == 1. D is computed as |det| of
    a triangular basis of L, in one pass over the rows. When the z-shifts
    have gcd 1, L meets the column z = 0 in {0} x DZ, and D divides m (the
    minor of (dz, dr) with (0, m) is dz*m), so exactly the residues 0, D,
    2D, ... are reachable at z = 0.

    Generator (dz, dr) moves key z*m + r by dz*m + (r + dr) % m - r, so the
    offsets depend on the residue alone: one row per residue, period m.
    """

    def __init__(self, m: int, generators: Optional[Sequence[Tuple[int, int]]] = None):
        if m < 2:
            raise ValueError(f"cylinder modulus must be >= 2, got {m}")
        self.m = m
        raw = list(generators) if generators is not None else [(1, 0), (0, 1)]
        if not raw:
            raise ValueError(f"cyl:{m}:[] has no generators; give at least one pair")
        gens = set()
        for item in raw:
            if not (
                isinstance(item, (tuple, list))
                and len(item) == 2
                and all(isinstance(x, int) and not isinstance(x, bool) for x in item)
            ):
                raise ValueError(f"generator {_clip(item)} is not a (zShift, rShift) pair")
            dz, dr = item[0], item[1] % m
            if dz == 0 and dr == 0:
                raise ValueError("identity (0,0) is not allowed as a generator")
            gens.add((dz, dr))
            gens.add((-dz, (-dr) % m))
        self.generators = tuple(sorted(gens))
        self.max_z_shift = max(abs(dz) for dz, _ in self.generators)
        self._check_generates()
        self.degree = len(self.generators)
        self.declared_ends = 2
        standard = sorted((dz, dr % m) for dz, dr in STANDARD_CYLINDER_GENERATORS)
        # counting needs only the generator set; the family string compares
        # the 4-tuple, which repeats (0, 1) when m = 2, so cyl:2 gets the long form
        self._standard = set(self.generators) == set(standard)
        if self.generators == tuple(standard):
            self.family = f"cyl:{m}"
        else:
            self.family = f"cyl:{m}:{list(self.generators)!r}".replace(" ", "")
        self.vertex_count = None
        malformed = f"is not a (z, residue mod {m}) pair"
        super().__init__(m, 0, (-inf, 0), (inf, m), malformed, malformed)
        # row r: what each generator (dz, dr) adds to a key z*m + r; the
        # generators are distinct (dz, dr mod m) pairs, so its keys are too
        gens, self._period = self.generators, m
        self._rows = _Rows(lambda r: [dz * m + (r + dr) % m - r for dz, dr in gens])

    def _check_generates(self) -> None:
        m = self.m
        g = gcd(*(dz for dz, _ in self.generators))
        if g != 1:
            raise ValueError(
                f"generators {_clip(list(self.generators))} do not generate "
                f"Z x Z_{m}: z-shifts have gcd {g}"
            )
        # D is the index of L. Fold the rows one at a time into a triangular
        # basis (a, b), (0, d) of L, starting from (0, m): Euclid on a pair
        # of rows keeps the lattice they span and leaves (+-gcd, b), (0, y)
        a, b, d = 0, 0, m
        for x, y in self.generators:
            while x:
                q = a // x
                a, b, x, y = x, y, a - q * x, b - q * y
            d = gcd(d, y)
            b %= d
        if d != 1:  # D = |a| * d, and |a| = 1 as the z-shifts have gcd 1
            # at most 100 residues: enough to fill the clipped message
            residues = list(range(0, min(m, 100 * d), d))
            raise ValueError(
                f"generators {_clip(list(self.generators))} do not generate "
                f"Z x Z_{m}: only residues {_clip(residues)} are reachable at z=0"
            )

    def _ball_count(self, r: int) -> Optional[int]:
        if not self._standard:
            return None
        # d((0, 0), (z, x)) = |z| + the circular distance of x; the column at
        # |z| = r - j holds min(m, 2j + 1) residues, twice for j < r
        h = min(r, (self.m - 1) // 2)
        columns = (h + 1) ** 2 + (r - h) * self.m  # sum of min(m, 2j+1), j <= r
        return 2 * columns - min(self.m, 2 * r + 1)

    def _cohesiveness(self) -> Optional[int]:
        """``cyclic_system``'s q by a counting rule, or None if there is none."""
        # the farthest vertex of blocks 0 and 1 from (0, 0) is (1, m // 2):
        # d((0, 0), (1, x)) = 1 + the circular distance of x
        return 1 + self.m // 2 if self._standard else None

    def _erosion_depth(self, keys: Collection) -> Optional[int]:
        if not self._standard:
            return None
        from . import _grid

        bm = _grid.Bitmap.from_keys(keys, self.m)
        return bm and _grid.wrapped_depth(bm)

    def _decode(self, key: int) -> Vertex:
        # one lower axis: a single divmod, about 4x faster than the digit loop
        return divmod(key, self.m)

    def _block(self, key: int) -> int:
        """The block index z of a key: the z-fibre {z} x Z_m it lies in. It is
        key // m, so it never decreases as the key grows."""
        return key // self.m
