"""Implicit Cayley graphs for a fixed family of groups.

Each graph exposes only local structure (neighbor enumeration from an exact
vertex representation). Balls and growth statistics are computed by
breadth-first expansion under an explicit vertex budget, except that ball
sizes are counted, outside the budget, on free groups, ``z^d`` and cylinders
with the standard generators. Public entry points validate a caller's
vertices; internal loops step from the library's own vertices unchecked.

Internally a vertex is an integer *key*: ``_encode`` maps a vertex to its
key and ``_decode`` maps it back, and ``_step`` and ``_bfs_levels`` run on
keys, so a step is a few integer additions from a per-host offset table.
``_bfs_levels`` is the one BFS loop: a search of the host under the vertex
budget, or a search inside a set the caller holds, built level by level
by set algebra.
On ``z^d``, tori and cylinders the key is the coordinates read as one
mixed-radix number, first coordinate most significant (``_MixedRadix``); a
free-group key packs the reduced word. Key 0 is the identity on every host.
Public functions take and return vertices; only this module knows the key
layout.

Supported families and vertex representations:

* ``IntegerLattice(d)``  - tuples of ints, standard generators +-e_i
* ``Torus(n, d)``        - tuples of residues mod n, same generators
* ``FreeGroup(rank)``    - reduced words as tuples of signed generator
  indices (+i for the i-th generator, -i for its inverse)
* ``Cylinder(m, gens)``  - pairs (z, r) with z an int and r a residue mod m,
  generators are explicit (zShift, rShift) pairs, symmetrized
"""

from __future__ import annotations

import re
import sys
from bisect import bisect_left
from collections import Counter
from itertools import accumulate, chain, compress, count, islice, repeat
from math import comb, gcd, inf
from operator import add, and_, ge, le, lt, mul, rshift, sub, xor
from typing import AbstractSet, Collection, Iterator, NamedTuple, Optional, Sequence, Tuple

Vertex = Tuple[int, ...]

DEFAULT_BUDGET = 10_000_000


def _clip(value) -> str:
    """``repr(value)`` for an error message, cut to 100 characters with an
    ellipsis."""
    text = repr(value)
    return text if len(text) <= 100 else text[:97] + "..."


class InvalidVertexError(ValueError):
    """A vertex value is malformed for its host graph."""


def _check_dimension(kind: str, d: int) -> None:
    """d >= 1, and 2d^2 <= DEFAULT_BUDGET: one ``_step`` builds 2d neighbors
    of d coordinates each."""
    if d < 1:
        raise ValueError(f"{kind} dimension must be >= 1, got {d}")
    if 2 * d * d > DEFAULT_BUDGET:
        raise ValueError(f"{kind} dimension {d} too large: needs 2d^2 <= {DEFAULT_BUDGET}")


class BudgetExceeded(RuntimeError):
    """An operation would touch more vertices than the budget allows.

    For breadth-first expansions ``radius_reached`` is the last radius whose
    sphere was fully generated before the budget tripped; operations that
    size their work up front leave it as None.
    """

    def __init__(self, budget: int, visited: int, radius_reached: Optional[int] = None):
        self.budget = budget
        self.visited = visited
        self.radius_reached = radius_reached
        detail = (
            f" (complete up to radius {radius_reached})"
            if radius_reached is not None
            else ""
        )
        super().__init__(
            f"vertex budget {budget} exceeded: needs {visited} vertices{detail}"
        )


def _require_budget(budget: Optional[int], needed: int) -> None:
    """Raise BudgetExceeded(budget, needed) if work sized up front needs more
    than ``budget`` vertices (DEFAULT_BUDGET if None)."""
    budget = DEFAULT_BUDGET if budget is None else budget
    if needed > budget:
        raise BudgetExceeded(budget, needed)


class GroupGraph:
    """Base class: an implicit, locally finite, vertex-transitive graph.

    Instances are immutable after construction and safe to share across
    threads; every operation is a pure function of its arguments.
    """

    #: number of distinct neighbors of any vertex (multi-edges collapsed)
    degree: int
    #: declared number of ends (0, 1, 2, or math.inf); ``classify_separation``
    #: reads it to choose the branch and which inequalities are required
    declared_ends: float
    #: canonical grammar string, e.g. ``z^2`` or ``cyl:3``
    family: str
    #: total vertex count for finite hosts, None for infinite ones
    vertex_count: Optional[int]

    def identity(self) -> Vertex:
        return self._decode(0)

    def neighbors(self, v: Vertex) -> list:
        """All vertices adjacent to ``v``, deduplicated, in a fixed order."""
        self.validate_vertex(v)
        return [self._decode(u) for u in self._step(self._encode(v))]

    def _encode(self, v: Vertex) -> int:
        """The key of a valid vertex."""
        raise NotImplementedError

    def _decode(self, key: int) -> Vertex:
        """The vertex of a key."""
        raise NotImplementedError

    def _step(self, key: int) -> list:
        """The keys of the neighbors of a valid vertex's key, unchecked, in
        the order ``neighbors`` lists them."""
        raise NotImplementedError

    def validate_vertex(self, v) -> None:
        """Raise InvalidVertexError unless ``v`` is a valid vertex here."""
        raise NotImplementedError

    @property
    def is_finite(self) -> bool:
        return self.vertex_count is not None

    def vertex_to_json(self, v: Vertex):
        return list(v)

    def vertex_from_json(self, obj) -> Vertex:
        # type(x) is int: floats, strings and booleans are not coordinates
        if not isinstance(obj, (list, tuple)) or not all(type(x) is int for x in obj):
            raise InvalidVertexError(
                f"expected a list of integer coordinates, got {_clip(obj)}"
            )
        v = tuple(obj)
        self.validate_vertex(v)
        return v

    def sort_key(self, v: Vertex):
        """Canonical ordering key, used to serialize sets deterministically."""
        return v

    def _ball_count(self, r: int) -> Optional[int]:
        """b(r) by this family's counting rule, or None if it has none.

        The one hook through which a host knows its own growth: a rule needs
        no vertex enumeration, so ``_ball_sizes`` and ``minimal_ball_radius``
        read it outside the budget. Rules must agree with BFS wherever both
        are feasible; the tests compare them on overlapping radii.
        """
        return None

    def _ball_counts(self) -> Iterator[int]:
        """b(0), b(1), ... by the counting rule, one ``_ball_count`` per
        radius; a host with a cheaper exact recurrence overrides it."""
        return map(self._ball_count, count())

    def _erosion_depth(self, keys: Collection) -> Optional[int]:
        """The depth of a nonempty key set by erosions in the host's own key
        layout, or None where the host has none or the set is past its cap."""
        return None

    def _accrete(self, start: int, size: int, rng) -> Tuple[Collection, Collection]:
        """The members and the candidates, distinct keys, of the set that
        ``size`` - 1 draws grow from the key ``start``: those ``_swap_and_pop``
        returns when it steps each key to ``_step``'s keys, in their order.
        Each host grows that set its own way."""
        raise NotImplementedError

    def __eq__(self, other) -> bool:
        return isinstance(other, GroupGraph) and self.family == other.family

    def __hash__(self) -> int:
        return hash(self.family)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.family!r})"


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


class FreeGroup(GroupGraph):
    """Cayley graph of the free group on ``rank`` generators (a 2*rank-regular tree).

    Vertices are reduced words stored as tuples of signed generator indices;
    the string form uses lowercase letters for generators and uppercase for
    their inverses (``"aB"`` is a * b^-1).
    """

    #: a word's letters: generator i is the i-th lowercase letter, its
    #: inverse the uppercase one (ranks above 26 are rejected)
    _char_index = {chr(ord(a) + i - 1): sign * i
                   for i in range(1, 27) for a, sign in (("a", 1), ("A", -1))}
    _index_char = {x: ch for ch, x in _char_index.items()}

    def __init__(self, rank: int):
        if rank < 2:
            raise ValueError(f"free group rank must be >= 2, got {rank}")
        if rank > 26:
            raise ValueError("free group rank capped at 26 (one letter per generator)")
        self.rank = rank
        self.degree = 2 * rank
        self.declared_ends = inf
        self.family = f"free:{rank}"
        self.vertex_count = None
        # The key of a word packs one digit per letter, +i as 2i - 1 and -i
        # as 2i, in ``_bits`` bits each, first letter most significant; the
        # identity is 0. No digit is 0, so the key determines the word, and
        # appending digit d is (key << _bits) | d, the parent is
        # key >> _bits and the last digit is key & _mask. Conversions go
        # through binary strings, linear in the word length.
        self._bits = bits = (2 * rank).bit_length()
        self._mask = (1 << bits) - 1
        # digits 1, 2, ... in ``neighbors`` order: generator i, then its inverse
        letters = [x for i in range(1, rank + 1) for x in (i, -i)]
        self._chunk = {x: format(d, f"0{bits}b") for d, x in enumerate(letters, 1)}
        self._letter = {chunk: x for x, chunk in self._chunk.items()}
        # _step lists digit d at index d - 1; _cancels[d] is the index of
        # the digit that undoes d (the identity's 0 has none)
        self._cancels = [None] + [d if d % 2 else d - 2 for d in range(1, 2 * rank + 1)]

    def _encode(self, v: Vertex) -> int:
        return int("".join(map(self._chunk.__getitem__, v)) or "0", 2)

    def _decode(self, key: int) -> Vertex:
        if not key:
            return ()
        bits = self._bits
        text = format(key, "b")
        text = text.zfill(len(text) + -len(text) % bits)
        return tuple(map(self._letter.__getitem__,
                         (text[i : i + bits] for i in range(0, len(text), bits))))

    def validate_vertex(self, v) -> None:
        if not isinstance(v, tuple):
            raise InvalidVertexError(f"{_clip(v)} is not a word tuple")
        for x in v:
            if not isinstance(x, int) or x == 0 or abs(x) > self.rank:
                raise InvalidVertexError(
                    f"letter {_clip(x)} out of range for rank {self.rank}"
                )
        for a, b in zip(v, v[1:]):
            if a == -b:
                raise InvalidVertexError(f"word {_clip(v)} is not reduced")

    def _step(self, key: int) -> list:
        # the children are consecutive: key << _bits plus each digit
        base = key << self._bits
        out = list(range(base + 1, base + self.degree + 1))
        if key:
            out[self._cancels[key & self._mask]] = key >> self._bits
        return out

    def _erosion_depth(self, keys: Collection) -> int:
        # E_1(A), the members whose neighbors are all members: those whose
        # parent key >> _bits is a member and that have degree - 1 member
        # children. The identity is its own parent, so it counts itself, and
        # needs degree children, one more than the others: its count drops by 2.
        # A induces a forest, so |E_1(A)| < 2|A| / degree: O(|A|) in all
        bits, need, t = self._bits, self.degree - 1, 0
        keys = frozenset(keys)  # erosion tests membership
        while keys:
            counts = Counter(map(rshift, keys, repeat(bits)))
            if 0 in keys:
                counts[0] -= 2
            full = keys.intersection(compress(counts, map(ge, counts.values(), repeat(need))))
            keys = set(compress(full, map(keys.__contains__, map(rshift, full, repeat(bits)))))
            t += 1
        return t

    def _accrete(self, start: int, size: int, rng) -> Tuple[Collection, Collection]:
        # A is a subtree, and an absorbed key's only neighbor in A is the one
        # it was reached from: its other neighbors were never seen, as in a
        # tree their only path to A runs through it. That neighbor is its
        # parent, so v appends v << _bits plus each digit of kids[last],
        # last = v & _mask: the digits 1 .. degree but the one that cancels
        # last, whose slot _step gives to the parent (the identity's row
        # keeps all). Only a proper prefix of the start is reached from its
        # child toward the start instead, and appends rows[v], _step(v) less
        # that child; rows holds the size - 1 prefixes nearest the start, all
        # that growth can reach, and none from the identity. No seen set
        getrandbits, bits, mask = rng.getrandbits, self._bits, self._mask
        kids = [[d for d in range(1, self.degree + 1) if d - 1 != c] for c in self._cancels]
        prefixes = (start >> bits * i for i in range(min(size - 1, start.bit_length())))
        rows = {v >> bits: [u for u in self._step(v >> bits) if u != v] for v in prefixes if v}
        members, candidates = [start], self._step(start)
        absorb, extend, pop = members.append, candidates.extend, candidates.pop
        for _ in range(size - 1):
            n = len(candidates)
            k = n.bit_length()
            j = getrandbits(k)
            while j >= n:
                j = getrandbits(k)
            v = pop()
            if j < n - 1:
                v, candidates[j] = candidates[j], v
            absorb(v)
            base = v << bits
            extend(rows.get(v) or [base + d for d in kids[v & mask]])
        return members, candidates

    def vertex_to_json(self, v: Vertex) -> str:
        return self.vertex_str(v)

    def vertex_from_json(self, obj) -> Vertex:
        if not isinstance(obj, str):
            raise InvalidVertexError(
                f"free group vertex must be a word string, got {_clip(obj)}"
            )
        return self.parse_word(obj)

    def vertex_str(self, v: Vertex) -> str:
        return "".join(map(self._index_char.__getitem__, v))

    def parse_word(self, text: str) -> Vertex:
        bad = next((ch for ch in text if ch not in self._char_index), None)
        if bad is not None:
            raise InvalidVertexError(f"bad letter {bad!r} in word {_clip(text)}")
        v = tuple(map(self._char_index.__getitem__, text))
        self.validate_vertex(v)
        return v

    def sort_key(self, v: Vertex):
        return (len(v), v)

    def _ball_count(self, r: int) -> int:
        # the sphere of radius n >= 1 in a (2*rank)-regular tree holds
        # 2*rank*(2*rank-1)^(n-1) words; summed over n <= r, with the identity
        return 1 + self.rank * ((2 * self.rank - 1) ** r - 1) // (self.rank - 1)


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


# one anchored pattern for the whole grammar; ASCII digits only, so int()
# never sees a sign, an underscore or a non-ASCII digit. DOTALL lets a
# cylinder's generator list span lines.
_GRAMMAR = re.compile(
    r"z\^(?P<z>[0-9]+)|torus:(?P<torus>[0-9]+(?:x[0-9]+)*)|free:(?P<free>[0-9]+)"
    r"|cyl:(?P<cyl>[0-9]+)(?::(?P<gens>.*))?",
    re.DOTALL,
)


def parse_group(text: str) -> GroupGraph:
    """Build a GroupGraph from the compact grammar used by the CLI and set files.

    Examples: ``z^2``, ``torus:31x31``, ``free:2``, ``cyl:3``,
    ``cyl:3:[(1,0),(-1,0),(0,1),(0,-1)]``. The stripped spec must match whole.
    """
    match = _GRAMMAR.fullmatch(text.strip()) if isinstance(text, str) else None
    if match is None:
        raise ValueError(f"unknown group grammar {_clip(text)}")

    def number(digits: str) -> int:
        try:
            return int(digits)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise ValueError(f"number too long in group spec {_clip(text)}") from None

    if match["z"]:
        return IntegerLattice(number(match["z"]))
    if match["torus"]:
        ns = [number(x) for x in match["torus"].split("x")]
        if any(n != ns[0] for n in ns):
            raise ValueError(
                f"torus spec {_clip(text)} must repeat one side, e.g. torus:31x31"
            )
        return Torus(ns[0], len(ns))
    if match["free"]:
        return FreeGroup(number(match["free"]))
    gens = match["gens"]
    if gens is not None:
        import ast

        try:
            gens = ast.literal_eval(gens)
        # TypeError: {[1]: 2}; MemoryError and RecursionError: nesting too
        # deep for the parser ("-" * 10**5 + "1", "1+" * 10**5 + "1")
        except (ValueError, SyntaxError, TypeError, MemoryError, RecursionError):
            raise ValueError(f"bad cylinder generators in {_clip(text)}") from None
        if not isinstance(gens, (list, tuple)):
            raise ValueError(f"cylinder generators in {_clip(text)} must be a list of pairs")
    return Cylinder(number(match["cyl"]), gens)


def _bfs_levels(
    g: GroupGraph,
    sources: Collection,
    budget: Optional[int] = None,
    within: Optional[AbstractSet] = None,
) -> Iterator[set]:
    """Yield the BFS spheres around the ``sources``: level r is yielded at step r.

    Sources, ``within`` and the yielded spheres hold host keys. The search
    stops when the frontier empties or when its consumer stops taking
    levels: level r + 1 is built only when asked for. Sources are not
    validated and are expanded by the unchecked ``_step``: ``ball`` checks
    a caller's center.

    ``budget`` applies to a host search (no ``within``) only: it raises
    BudgetExceeded when the visited set would grow past ``budget``
    (DEFAULT_BUDGET if None), recording the last completed radius. A search
    inside ``within`` enters only keys it contains (the sources themselves
    need not be in it). It builds each level by set algebra on one mutable
    copy of ``within``, which sheds every level it reaches, and holds no
    more keys than the caller already holds. A level is pushed from the
    frontier, or pulled into the unreached keys when they are fewer
    (Beamer et al. 2012): every host's generators are symmetric, so the
    two agree.
    """
    frontier = set(sources)
    yield frontier
    step = g._step
    if within is None:
        budget = DEFAULT_BUDGET if budget is None else budget
        seen = set(frontier)
    else:
        remaining = set(within)
    r = 0
    while frontier:
        if within is None:
            nxt = set()
            for v in frontier:
                for u in step(v):
                    if u not in seen:
                        # checked per vertex so memory cannot overshoot the
                        # budget by a whole level on fast-growing graphs
                        if len(seen) >= budget:
                            raise BudgetExceeded(budget, len(seen) + 1, r)
                        seen.add(u)
                        nxt.add(u)
        else:
            remaining -= frontier
            if len(frontier) > len(remaining):
                nxt = {v for v in remaining if not frontier.isdisjoint(step(v))}
            else:
                nxt = remaining.intersection(chain.from_iterable(map(step, frontier)))
        frontier = nxt
        r += 1
        if frontier:
            yield frontier


def ball(
    g: GroupGraph, center: Vertex, r: int, budget: Optional[int] = None
) -> set:
    """Exact metric ball {u : d(u, center) <= r}, by breadth-first expansion."""
    return set(map(g._decode, _ball_keys(g, center, r, budget)))


def _ball_keys(g: GroupGraph, center: Vertex, r: int, budget: Optional[int]) -> set:
    """The keys of ``ball(g, center, r)``, for callers that need no vertex."""
    if r < 0:
        raise ValueError(f"radius must be >= 0, got {r}")
    g.validate_vertex(center)
    if g._ball_count(0) is not None:
        # the BFS holds the center whatever the budget, and trips adding the
        # vertex after max(budget, 1) while it builds the first radius m
        # whose ball holds that many: refuse a ball that reaches m up front
        budget = DEFAULT_BUDGET if budget is None else budget
        visited = max(budget, 1) + 1
        m = minimal_ball_radius(g, visited)
        if r >= m:
            raise BudgetExceeded(budget, visited, m - 1)
    keys: set = set()
    # a range, unlike islice, takes radii past sys.maxsize (a whole finite host)
    for _, sphere in zip(range(r + 1), _bfs_levels(g, (g._encode(center),), budget)):
        keys |= sphere
    return keys


def _ball_sizes(g: GroupGraph, budget: Optional[int]) -> Iterator[int]:
    """The sequence b(0), b(1), ... of the host, the one route to its growth.

    Where the host has a counting rule the sequence is ``g._ball_counts()``,
    endless and outside the budget; otherwise it comes from a
    BFS from the identity under ``budget`` and ends when the frontier empties
    (a finite host).
    """
    if g._ball_count(0) is not None:
        return g._ball_counts()
    levels = _bfs_levels(g, (g._encode(g.identity()),), budget)
    return accumulate(len(sphere) for sphere in levels)


#: the largest radius ``ball_profile`` samples. Counted sizes are exempt
#: from the vertex budget, so the profile needs a bound of its own: free:26's
#: profile to radius 10^4 already peaks near 55 MB and takes about 1.6 s
MAX_PROFILE_RADIUS = 10_000


def ball_profile(g: GroupGraph, r: int, budget: Optional[int] = None) -> list:
    """Cumulative ball sizes [b(0), b(1), ..., b(r)], read from ``_ball_sizes``.

    The host is vertex-transitive, so ball sizes do not depend on the
    center. Counted hosts (free groups, ``z^d``, cylinders with the standard
    generators) are exempt from the budget; the others are enumerated by
    BFS. On a finite host the profile is padded with the saturated total
    once the frontier empties. r may not exceed MAX_PROFILE_RADIUS.
    """
    if r < 0:
        raise ValueError(f"radius must be >= 0, got {r}")
    if r > MAX_PROFILE_RADIUS:
        raise ValueError(f"radius {r} exceeds the growth profile cap {MAX_PROFILE_RADIUS}")
    sizes = list(islice(_ball_sizes(g, budget), r + 1))
    return sizes + sizes[-1:] * (r + 1 - len(sizes))


def minimal_ball_radius(
    g: GroupGraph, target: int, budget: Optional[int] = None
) -> int:
    """Smallest positive m with b(m) >= target; the host must be infinite.

    Where the host has a counting rule, a gallop and bisection over
    ``_ball_count`` finds m with O(log m) single-radius counts; otherwise
    ``_ball_sizes`` is scanned up to m.
    """
    if target < 1:
        raise ValueError(f"target must be >= 1, got {target}")
    if g.is_finite:
        raise ValueError(f"minimal_ball_radius needs an infinite host, got {g.family}")
    rule = g._ball_count
    if rule(1) is None:
        sizes = enumerate(_ball_sizes(g, budget))
        return next(r for r, b in sizes if r >= 1 and b >= target)
    hi = 1  # gallop to a radius that reaches the target, then bisect below it
    while rule(hi) < target:
        hi *= 2
    lo = hi // 2 + 1
    return lo + bisect_left(range(lo, hi + 1), target, key=rule)


class GrowthReport(NamedTuple):
    """Sampled growth of a graph and the branch of the linear/quadratic dichotomy.

    branch 1: b(n) stays under a linear envelope alpha*n + beta on the sample
    (alpha is the largest observed increment, beta = b(0)); branch 2: the
    quadratic lower bound b(n) >= (n+1)(n+2)/2 holds at every sampled n.
    """

    group: str
    max_radius: int
    ball_sizes: list
    branch: int
    alpha: Optional[int]
    beta: Optional[int]

    def to_dict(self) -> dict:
        return {
            "group": self.group,
            "maxRadius": self.max_radius,
            "ballSizes": list(self.ball_sizes),
            "branch": self.branch,
            "alpha": self.alpha,
            "beta": self.beta,
        }


def classify_growth(
    g: GroupGraph, max_radius: int, budget: Optional[int] = None
) -> GrowthReport:
    """Sample b(0..max_radius) and report which branch of the dichotomy holds.

    The quadratic branch is decided pointwise over the whole sample; when it
    fails anywhere the report returns the linear branch with the fitted
    envelope. Sampling too few radii can misclassify a linear-growth family,
    so ``max_radius`` must be at least 2 and 20 is a sensible default.
    """
    if max_radius < 2:
        raise ValueError(f"max_radius must be >= 2, got {max_radius}")
    sizes = ball_profile(g, max_radius, budget=budget)
    quadratic = all(
        sizes[n] * 2 >= (n + 1) * (n + 2) for n in range(max_radius + 1)
    )
    if quadratic:
        return GrowthReport(g.family, max_radius, sizes, 2, None, None)
    alpha = max(sizes[n] - sizes[n - 1] for n in range(1, max_radius + 1))
    return GrowthReport(g.family, max_radius, sizes, 1, alpha, sizes[0])
