"""Perforated-grid family on the square lattice with vanishing boundary-depth
ratio.

A(i, k) is the square {0..ki}^2 with the (k-1)^2 interior pins
{(m*i, n*i) : 1 <= m, n <= k-1} removed. Removing the pins caps the depth
near i while the boundary stays near 4ki + k^2, so the ratio
|boundary| * depth / |A| tends to 0 along the diagonal i = k. This makes the
family a witness against any hoped-for lower bound of the form
|boundary| * depth >= c * |A|. Size, boundary and depth have closed forms,
which ``find_params`` walks on and ``stats`` checks on a bitmap.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional, Tuple, Union

from . import DEFAULT_BUDGET, _clip, _grid, _least, _require_budget


class _Params(NamedTuple):
    i: int
    k: int


class GridParams(_Params):
    """Side multiplier i and pin count parameter k; both must exceed 1."""

    __slots__ = ()

    def __new__(cls, i: int, k: int):
        if i <= 1 or k <= 1:
            raise ValueError(f"parameters must satisfy i, k > 1, got i={i}, k={k}")
        return super().__new__(cls, i, k)

    @classmethod
    def _make(cls, iterable):  # so that _replace checks too
        return cls(*iterable)


def enumerated_size(params: GridParams) -> int:
    """|A(i,k)| by counting: (ki+1)^2 square points minus (k-1)^2 pins."""
    i, k = params.i, params.k
    return (k * i + 1) ** 2 - (k - 1) ** 2


def claimed_size(params: GridParams) -> int:
    """The (ki)^2 - (k-1)^2 closed form sometimes quoted for this family.

    It undercounts the enumerated set by 2ki + 1 (it treats the square
    {0..ki}^2 as having side ki rather than ki + 1). Recorded for audit;
    enumeration is ground truth everywhere in this package.
    """
    i, k = params.i, params.k
    return (k * i) ** 2 - (k - 1) ** 2


def boundary_closed_form(params: GridParams) -> int:
    """|boundary(A(i,k))| = (k-1)^2 + 4(ki+1): the pins plus the outer rim."""
    i, k = params.i, params.k
    return (k - 1) ** 2 + 4 * (k * i + 1)


def depth_closed_form(params: GridParams) -> int:
    """depth(A(i,k)) = 2*floor(i/2) for k >= 3 and floor((2i+2)/3) for k = 2.

    The lines x, y in iZ cut the square into k^2 cells of side i. Each cell
    corner is a pin or lies on the square's edge, one step from the
    exterior, and the point of iZ^2 nearest to a point of a cell is one of
    the cell's corners. Let (a, b) be a point's offsets in its cell.
    - Four pin corners (k >= 3 only): the exterior is over i away, so the
      distance is min(a + b, 2i - a - b, i - |a - b|). That is at most i,
      and at most i - 1 for odd i (a + b = i makes a - b odd); a = b =
      floor(i/2) attains 2*floor(i/2).
    - Corner cell, offsets from the square's corner: the pin (i, i) and the
      exterior bound it by min(a + 1, b + 1, 2i - a - b) <= min(a + 1, 2i - 2a)
      for a <= b, with equality at a = b when k = 2. The maximum,
      floor((2i+2)/3) at a = floor((2i-1)/3), is <= 2*floor(i/2).
    - Edge cell (k >= 3), a measured from the edge: two pins and the
      exterior bound it by min(a + 1, i - a + floor(i/2)), an integer at
      most (i + floor(i/2) + 1) / 2, so at most 2*floor(i/2).
    For k = 2 every cell is a corner cell.
    """
    i, k = params.i, params.k
    return 2 * (i // 2) if k >= 3 else (2 * i + 2) // 3


def _points(params: GridParams) -> Iterator[Tuple[int, int]]:
    """The points of A(i,k): [0, ki]^2 without its (k-1)^2 inner pins."""
    i, k = params.i, params.k
    pins = {(m * i, n * i) for m in range(1, k) for n in range(1, k)}
    side = range(k * i + 1)
    return ((x, y) for x in side for y in side if (x, y) not in pins)


def build(params: GridParams, budget: Optional[int] = None):
    """Materialize A(i,k) as a VertexSet on the square lattice."""
    from . import _zd, isoperimetry  # loaded only where a set is built

    _require_budget(budget, enumerated_size(params))
    host = _zd.IntegerLattice(2)
    return isoperimetry.VertexSet._trusted(host, frozenset(map(host._encode, _points(params))))


class CounterexampleStats(NamedTuple):
    """Exact statistics of one family member.

    ``ratio`` is |boundary| * depth / |A| as an exact rational.
    ``closedFormsMatch`` is the verdict of ``stats``' checks (strict:
    ``violations()`` names it when False).
    ``claimedSizeMatches`` compares against the historically claimed
    (ki)^2-based size and is advisory: it is expected to be False.
    ``depthMeetsHalfIBound`` records whether depth <= i/2, a stronger depth
    bound claimed for this family. By ``depth_closed_form`` it is False for
    every i >= 2, and the ratio argument does not rely on it.
    """

    params: GridParams
    sizeA: int
    boundarySize: int
    depthOracle: int
    ratio: Fraction
    closedFormsMatch: bool
    claimedSize: int
    claimedSizeMatches: bool
    depthMeetsHalfIBound: bool

    def to_dict(self) -> dict:
        """The fields in order, with ``params`` as its keys i and k."""
        fields = self._asdict()
        fields["ratio"] = f"{self.ratio.numerator}/{self.ratio.denominator}"
        return {**fields.pop("params")._asdict(), **fields}

    def violations(self) -> list:
        return [] if self.closedFormsMatch else ["closed forms match enumeration"]


def _patch(params: GridParams, budget: Optional[int]) -> GridParams:
    """A(i, min(k, 3)), the member ``stats`` builds for A(i, k), if ``budget`` admits it."""
    patch = GridParams(params.i, min(params.k, 3))
    _require_budget(budget, enumerated_size(patch))
    return patch


def stats(params: GridParams, budget: Optional[int] = None) -> CounterexampleStats:
    """Boundary, depth, and exact ratio of A(i,k), measured on its patch.

    The bitmap kernels measure the patch A(i, min(k, 3)), whose side is
    3i + 1, and its size, boundary and depth must equal the closed forms at
    the patch. Its depth is the member's, which ``depth_closed_form`` at
    (i, k) must confirm: every i x i cell of A(i, k) is a corner, edge or
    interior cell, A(i, 3) has all three kinds, and that function's proof
    bounds each kind by its own corners and the square's edge alone. Size
    and boundary are the closed forms at (i, k). ``closedFormsMatch`` is
    False when any of these checks fails. The budget counts the patch's
    vertices, the bitmap that is built: ``stats(GridParams(200, 200))``
    builds about 3.6 * 10^5 bits, where the whole member has 1.6 * 10^9
    vertices.
    """
    measured = _patch(params, budget)
    bm = _grid.perforated_block(measured.i, measured.k)
    d = _grid.depth(bm, depth_closed_form(measured))
    size, bsize = enumerated_size(params), boundary_closed_form(params)
    return CounterexampleStats(
        params=params,
        sizeA=size,
        boundarySize=bsize,
        depthOracle=d,
        ratio=Fraction(bsize * d, size),
        closedFormsMatch=(
            bm.bits.bit_count() == enumerated_size(measured)
            and _grid.boundary_count(bm) == boundary_closed_form(measured)
            and d == depth_closed_form(measured) == depth_closed_form(params)
        ),
        claimedSize=claimed_size(params),
        claimedSizeMatches=claimed_size(params) == size,
        depthMeetsHalfIBound=2 * d <= params.i,
    )


# Fraction's string grammar: [sign] p [/ q], or [sign] digits [. digits]
# [e exponent], digits grouped by single underscores, blanks around the whole.
# Compiled by ``re`` on first use, so that only a parse pays for it.
_RATIONAL = (
    r"\s*(?P<sign>[-+]?)(?=\d|\.\d)(?P<num>(?:\d+(?:_\d+)*)?)"
    r"(?:/(?P<den>\d+(?:_\d+)*)"
    r"|(?:\.(?P<frac>(?:\d+(?:_\d+)*)?))?(?:[eE](?P<exp>[-+]?\d+(?:_\d+)*))?)\s*"
)


def _parse_fraction(text: str, name: str = "c") -> Fraction:
    """``text`` as a rational, in ``Fraction``'s string grammar, refused when
    p or q of its value needs more digits than Python's limit for converting
    an int to text.

    The digits are counted on the value: leading zeros and a decimal part's
    trailing zeros do not count, and an exponent moves the count instead of
    building 10**e, so ``'1e999999999'`` is refused at once. A numerator, a
    denominator or a mantissa that keeps more significant digits than the
    limit is refused, even where the rest of the text would cancel them.
    """
    limit = sys.get_int_max_str_digits() or math.inf  # 0: no limit
    too_long = ValueError(f"{name} {_clip(text)} needs more than {limit} digits as p/q")
    match = re.fullmatch(_RATIONAL, text)
    den = (match["den"] or "1").replace("_", "").lstrip("0") if match else ""
    if not den:  # no match, or a zero denominator
        raise ValueError(f"expected a rational number like 1/2 or 0.5, got {_clip(text)}")
    frac = (match["frac"] or "").replace("_", "")
    digits = (match["num"].replace("_", "") + frac).lstrip("0")
    mantissa = digits.rstrip("0")
    if not mantissa:
        return Fraction(0)
    exp = (match["exp"] or "0").replace("_", "")
    magnitude = exp.lstrip("+-").lstrip("0") or "0"
    # an exponent with more digits than the limit is past every bound below
    e = int(magnitude) if len(magnitude) <= limit else math.inf
    if exp.startswith("-"):
        e = -e
    # the value is +-mantissa * 10**e / den
    e += len(digits) - len(mantissa) - len(frac)
    # p has at most len(mantissa) + e digits and q at least -e - len(mantissa)
    if len(mantissa) + max(e, 0) > limit or len(den) > limit or -e > limit + len(mantissa):
        raise too_long
    value = Fraction(int(mantissa) * 10 ** max(e, 0), int(den) * 10 ** max(-e, 0))
    if value.denominator >= 10**limit:
        raise too_long
    return -value if match["sign"] == "-" else value


def find_params(
    c: Union[Fraction, int, str], budget: Optional[int] = None
) -> Tuple[GridParams, CounterexampleStats]:
    """The first member on the diagonal i = k = 2, 3, ... with ratio < c,
    with its ``stats``.

    The search reads each ratio from the closed forms and runs the bitmap
    once, on the patch of the member it returns. The diagonal ratio behaves
    like 5/i, so the search ends for any reachable c, and it takes
    O(log i) steps. The vertex budget bounds it against smaller targets: it
    stops, as a walk along the diagonal would, at the first member whose
    patch is over budget. A string c too long for p/q raises ValueError.
    """
    target = _parse_fraction(c) if isinstance(c, str) else Fraction(c)
    if target <= 0:
        raise ValueError(f"target ratio must be positive, got {target}")
    p, q = target.numerator, target.denominator
    budget = DEFAULT_BUDGET if budget is None else budget

    # At i = k = j the closed forms give |A| = j^4 + j^2 + 2j, |boundary| =
    # 5j^2 - 2j + 5 and depth j - j % 2 (j = 2 included), so the ratio is
    # (5j^2 - 2j + 5) / (j^3 + j + 2) for even j and
    # (5j^3 - 7j^2 + 7j - 5) / (j^4 + j^2 + 2j) for odd j. Each falls
    # strictly on the reals from 2, resp. 3, on: the numerators of their
    # derivatives, -j^3(5j - 4) - 10j(j - 2) - 9 and
    # -j^3(5j^3 - 14j^2 + 16j - 40) - 21j^2 + 10j + 10, are negative there,
    # as 5j^3 - 14j^2 + 16j - 40 is 17 at j = 3 and increasing. The patch
    # grows with j too, so whether the walk stops at j changes once along
    # each parity, and its first stop is the earlier of the two.
    def stop(j):  # on unchecked _Params: j > 1 holds on both progressions
        member, patch = _Params(j, j), _Params(j, min(j, 3))
        bd = boundary_closed_form(member) * depth_closed_form(member)
        return enumerated_size(patch) > budget or bd * q < p * enumerated_size(member)

    params = GridParams(*[min(_least(stop, 2, 2), _least(stop, 3, 2))] * 2)
    return params, stats(params, budget=budget)  # which refuses an over-budget patch


class EmbedReport(NamedTuple):
    """Lattice-vs-torus comparison for one family member.

    The torus column is computed independently on the torus host (generic
    neighbor scans and BFS with wraparound), never copied from the lattice
    side; ``preserved`` asserts the triple (|A|, |boundary|, depth) agrees.
    ``violations()`` names each of ``preserved`` and ``halfVolumeHolds``
    that is False.
    """

    i: int
    k: int
    n: int
    volume: int
    sizeLattice: int
    sizeTorus: int
    boundaryLattice: int
    boundaryTorus: int
    depthLattice: int
    depthTorus: int
    preserved: bool
    halfVolumeHolds: bool

    def to_dict(self) -> dict:
        return self._asdict()

    def violations(self) -> list:
        claims = [(self.preserved, "embedding preserves (|A|, |boundary|, depth)"),
                  (self.halfVolumeHolds, "2|A| <= n^2")]
        return [name for holds, name in claims if not holds]


class TorusEmbedding(NamedTuple):
    """The torus side of ``embed_torus``, a VertexSet, and its report."""

    vertex_set: object
    report: EmbedReport


def embed_torus(params: GridParams, budget: Optional[int] = None) -> TorusEmbedding:
    """Embed A(i,k) into the torus of side n = 3ki+1 and compare statistics.

    The margin n - (ki+1) = 2ki keeps the embedded set and its boundary away
    from wraparound, so (|A|, |boundary|, depth) must be preserved exactly
    and 2|A| <= n^2 must hold.
    """
    from ._torus import Torus  # as in build
    from .isoperimetry import VertexSet, boundary, depth

    i, k = params.i, params.k
    n = 3 * k * i + 1
    lattice_set = build(params, budget=budget)
    # 0 <= x, y <= ki < n, so the points are already residues; the
    # validating constructor is what shows it
    torus_set = VertexSet(Torus(n, 2), _points(params))
    lattice, torus = [(len(A), len(boundary(A)), depth(A)) for A in (lattice_set, torus_set)]
    # the report's columns pair each lattice statistic with the torus's
    paired = [x for pair in zip(lattice, torus) for x in pair]
    report = EmbedReport(i, k, n, n * n, *paired, lattice == torus, 2 * torus[0] <= n * n)
    return TorusEmbedding(torus_set, report)

