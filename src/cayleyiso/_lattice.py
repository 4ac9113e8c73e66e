"""The key layout that ``_zd``'s ``IntegerLattice``, ``_torus``'s ``Torus``
and ``_cylinder``'s ``Cylinder`` share on Z^a x (Z_n)^b: a vertex is a tuple
of coordinates, ints on an unbounded axis and residues on the others, and
its key reads them as one mixed-radix number (``_MixedRadix``); the sets
these hosts grow come from ``_swap_and_pop`` except on z^1 and z^2.
"""

from __future__ import annotations

from itertools import repeat
from operator import le, lt
from typing import Collection, Tuple

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
