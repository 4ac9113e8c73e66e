"""Cylinders Z x Z_m: ``Cylinder`` on ``_lattice``'s keys z*m + r."""

from __future__ import annotations

from math import gcd, inf
from typing import Collection, Optional, Sequence, Tuple

from ._lattice import _MixedRadix
from .groups import Vertex, _clip

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
            raise ValueError(f"generators {_clip(list(self.generators))} do not generate "
                             f"Z x Z_{m}: z-shifts have gcd {g}")
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
            raise ValueError(f"generators {_clip(list(self.generators))} do not generate "
                             f"Z x Z_{m}: only residues {_clip(residues)} are reachable at z=0")

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

    def _erosion_depth(self, keys: Collection, rim: Optional[Collection] = None) -> Optional[int]:
        if not self._standard:
            return None
        from . import _grid

        m = self.m
        if rim is not None:
            # the fill test (``GroupGraph._erosion_depth``); a set that passes
            # takes under 15 bits per member, as |∂A| <= 4|A|: no cap refuses it
            base, top = min(rim) // m * m, max(rim) // m * m
            holes = [u - base for u in rim if base + m <= u < top]
            if len(keys) + len(holes) == top - base - m:
                bits = (1 << top - base - m) - 1 << m ^ _grid._pack(holes, top + m - base)
                return _grid.wrapped_depth(_grid.Bitmap(bits, m, top + m - base))
        bm = _grid.Bitmap.from_keys(keys, m)
        return bm and _grid.wrapped_depth(bm)

    def _decode(self, key: int) -> Vertex:
        # one lower axis: a single divmod, about 4x faster than the digit loop
        return divmod(key, self.m)

    def _block(self, key: int) -> int:
        """The block index z of a key: the z-fibre {z} x Z_m it lies in. It is
        key // m, so it never decreases as the key grows."""
        return key // self.m
