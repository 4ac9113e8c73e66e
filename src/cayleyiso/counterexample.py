"""Perforated-grid family on the square lattice with vanishing boundary-depth
ratio.

A(i, k) is the square {0..ki}^2 with the (k-1)^2 interior pins
{(m*i, n*i) : 1 <= m, n <= k-1} removed. Removing the pins caps the depth
near i while the boundary stays near 4ki + k^2, so the ratio
|boundary| * depth / |A| tends to 0 along the diagonal i = k. This makes the
family a witness against any hoped-for lower bound of the form
|boundary| * depth >= c * |A|.

Statistics come from bitmap kernels (exact, tested against the generic set
path in the unit suite) so multi-million-vertex instances stay cheap; the
torus embedding recomputes everything on the torus host as an independent
route. The kernels peak at about 3 bytes per cell of the padded
(ki+3) x (ki+3) grid: the boolean mask plus one ``int16`` distance array.
Past ki + 3 = 10922 the distances need ``int32`` and the peak is about
5 bytes per cell. So ``stats(GridParams(100, 100))``, 10^8 cells, peaks
near 320 MB.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import count
from typing import Optional, Tuple, Union

from . import _grid
from .groups import DEFAULT_BUDGET, BudgetExceeded, IntegerLattice, Torus
from .isoperimetry import VertexSet, boundary, depth


@dataclass(frozen=True)
class GridParams:
    """Side multiplier i and pin count parameter k; both must exceed 1."""

    i: int
    k: int

    def __post_init__(self):
        if self.i <= 1 or self.k <= 1:
            raise ValueError(f"parameters must satisfy i, k > 1, got i={self.i}, k={self.k}")


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


def _check_budget(params: GridParams, budget: Optional[int]) -> None:
    budget = DEFAULT_BUDGET if budget is None else budget
    needed = enumerated_size(params)
    if needed > budget:
        raise BudgetExceeded(budget, needed)


def build(params: GridParams, budget: Optional[int] = None) -> VertexSet:
    """Materialize A(i,k) as a VertexSet on the square lattice."""
    _check_budget(params, budget)
    i, k = params.i, params.k
    pins = {(m * i, n * i) for m in range(1, k) for n in range(1, k)}
    points = (
        (x, y)
        for x in range(k * i + 1)
        for y in range(k * i + 1)
        if (x, y) not in pins
    )
    return VertexSet._trusted(IntegerLattice(2), points)


@dataclass
class CounterexampleStats:
    """Exact statistics of one family member.

    ``ratio`` is |boundary| * depth / |A| as an exact rational.
    ``closedFormsMatch`` asserts the bitmap oracle equals the enumeration
    closed forms (strict; ``violations()`` names it when False).
    ``claimedSizeMatches`` compares against the historically claimed
    (ki)^2-based size and is advisory: it is expected to be False.
    ``depthMeetsHalfIBound`` records whether depth <= i/2, a stronger depth
    bound claimed for this family that the oracle does not reproduce (depth
    is close to i); it is expected to be False and the ratio argument does
    not rely on it.
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
        return {
            "i": self.params.i,
            "k": self.params.k,
            "sizeA": self.sizeA,
            "boundarySize": self.boundarySize,
            "depthOracle": self.depthOracle,
            "ratio": f"{self.ratio.numerator}/{self.ratio.denominator}",
            "closedFormsMatch": self.closedFormsMatch,
            "claimedSize": self.claimedSize,
            "claimedSizeMatches": self.claimedSizeMatches,
            "depthMeetsHalfIBound": self.depthMeetsHalfIBound,
        }

    def violations(self) -> list:
        return [] if self.closedFormsMatch else ["closed forms match enumeration"]


def stats(params: GridParams, budget: Optional[int] = None) -> CounterexampleStats:
    """Boundary, depth, and exact ratio of A(i,k) from the bitmap kernels."""
    _check_budget(params, budget)
    bm = _grid.perforated_block(params.i, params.k)
    size = bm.count()
    bsize = _grid.boundary_count(bm)
    d = _grid.depth(bm)
    return CounterexampleStats(
        params=params,
        sizeA=size,
        boundarySize=bsize,
        depthOracle=d,
        ratio=Fraction(bsize * d, size),
        closedFormsMatch=(
            size == enumerated_size(params) and bsize == boundary_closed_form(params)
        ),
        claimedSize=claimed_size(params),
        claimedSizeMatches=claimed_size(params) == size,
        depthMeetsHalfIBound=2 * d <= params.i,
    )


class SearchCapExceeded(RuntimeError):
    """The diagonal parameter search stopped before reaching the target ratio.

    Carries the best parameters seen so far and why the walk stopped (the
    vertex budget at the next step).
    """

    def __init__(self, target: Fraction, best: "CounterexampleStats", reason: str):
        self.target = target
        self.best = best
        self.reason = reason
        super().__init__(
            f"no ratio < {target} found: {reason}; best so far is "
            f"{best.ratio} at i=k={best.params.i}"
        )


def find_params(
    c: Union[Fraction, int, str], budget: Optional[int] = None
) -> Tuple[GridParams, CounterexampleStats]:
    """Walk the diagonal i = k = 2, 3, ... and return the first member with
    ratio < c.

    The diagonal ratio behaves like 5/i, so the walk terminates for any
    reachable c. The vertex budget bounds it against smaller targets: the
    first member that does not fit stops the walk with SearchCapExceeded,
    carrying the best ratio found.
    """
    target = Fraction(c)
    if target <= 0:
        raise ValueError(f"target ratio must be positive, got {target}")
    best: Optional[CounterexampleStats] = None
    for j in count(2):
        params = GridParams(j, j)
        try:
            st = stats(params, budget=budget)
        except BudgetExceeded as exc:
            if best is None:
                raise
            raise SearchCapExceeded(
                target, best, f"vertex budget {exc.budget} hit at i=k={j}"
            ) from exc
        if best is None or st.ratio < best.ratio:
            best = st
        if st.ratio < target:
            return params, st


@dataclass
class EmbedReport:
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
        return asdict(self)

    def violations(self) -> list:
        claims = [(self.preserved, "embedding preserves (|A|, |boundary|, depth)"),
                  (self.halfVolumeHolds, "2|A| <= n^2")]
        return [name for holds, name in claims if not holds]


@dataclass
class TorusEmbedding:
    vertex_set: VertexSet
    report: EmbedReport


def embed_torus(params: GridParams, budget: Optional[int] = None) -> TorusEmbedding:
    """Embed A(i,k) into the torus of side n = 3ki+1 and compare statistics.

    The margin n - (ki+1) = 2ki keeps the embedded set and its boundary away
    from wraparound, so (|A|, |boundary|, depth) must be preserved exactly
    and 2|A| <= n^2 must hold; both are recorded, and a False is a claim
    violation for callers.
    """
    i, k = params.i, params.k
    n = 3 * k * i + 1
    lattice_set = build(params, budget=budget)
    # 0 <= x, y <= ki < n, so the lattice coordinates are already residues;
    # the validating constructor is what shows it
    torus_set = VertexSet(Torus(n, 2), lattice_set.elements)

    size_lat = len(lattice_set)
    boundary_lat = len(boundary(lattice_set))
    depth_lat = depth(lattice_set)
    size_tor = len(torus_set)
    boundary_tor = len(boundary(torus_set))
    depth_tor = depth(torus_set)

    report = EmbedReport(
        i=i,
        k=k,
        n=n,
        volume=n * n,
        sizeLattice=size_lat,
        sizeTorus=size_tor,
        boundaryLattice=boundary_lat,
        boundaryTorus=boundary_tor,
        depthLattice=depth_lat,
        depthTorus=depth_tor,
        preserved=(
            size_lat == size_tor
            and boundary_lat == boundary_tor
            and depth_lat == depth_tor
        ),
        halfVolumeHolds=2 * size_tor <= n * n,
    )
    return TorusEmbedding(torus_set, report)

