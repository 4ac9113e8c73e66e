"""Block systems on two-ended cylinder graphs and the interval-cover bound.

A cylinder Z x Z_m carries the natural block partition B_z = {z} x Z_m,
linearly ordered by z. With s = m (block size) and t = max |zShift| over the
generators, every edge joins blocks at distance <= t (the partition is
(s,t)-ring-like) and any two vertices in the same or adjacent blocks are
joined by a path of length <= 2st (2st-cohesiveness). For a finite connected
set A with connected closure and |boundary(A)| = k, the interval of blocks
spanned by A covers A with slack |Q \\ A| <= 2s^2t^2k + 2stk.

The partition and edge-locality properties hold by construction: the blocks
are the z-fibres, so they partition the vertices into blocks of exactly s
vertices, and a generator (dz, dr) moves the block index by dz, where
|dz| <= t by the definition of t. They are reported, not checked. What is
checked is cohesiveness, exactly, and the slack bound of each cover.
Cohesiveness depends on the host alone: translations are automorphisms, so
a counting rule or one BFS from the identity gives it. This module
instantiates the known block system; it does not search for others.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .groups import GroupGraph, _bfs_levels
from .isoperimetry import Inequality, VertexSet, is_connected_with_boundary


class CyclicSystem(NamedTuple):
    """The z-fiber block system of a cylinder and its cohesiveness.

    ``q`` is the exact cohesiveness when ``cohesive_ok`` is True; otherwise
    it is a lower bound (some distance exceeded the search radius, which
    already refutes q <= 2st). ``window`` is echoed in the output and does
    no work: q does not depend on it.
    """

    host: Cylinder
    s: int
    t: int
    q: int
    window: int
    cohesive_ok: bool

    #: true by construction: the blocks are the z-fibres
    partition_ok = True
    #: true by construction: t is the largest |zShift| of a generator
    ring_like_ok = True

    def _cohesion(self) -> Inequality:
        return Inequality("q <= 2st", self.q, 2 * self.s * self.t, self.cohesive_ok, True)

    def to_dict(self) -> dict:
        return {
            "group": self.host.family,
            "s": self.s,
            "t": self.t,
            "q": self.q,
            "qBound": self._cohesion().rhs,
            "window": self.window,
            "partitionOk": self.partition_ok,
            "ringLikeOk": self.ring_like_ok,
            "cohesiveOk": self.cohesive_ok,
        }

    def violations(self) -> list:
        claim = self._cohesion()
        return [] if claim.holds else [claim.name]


def cyclic_system(
    host: GroupGraph, window: int = 50, budget: Optional[int] = None
) -> CyclicSystem:
    """Instantiate the z-fiber block system of a cylinder and compute its
    cohesiveness q exactly.

    Translations are automorphisms of the Cayley graph of an abelian group,
    so d((z1, r1), (z2, r2)) = d((0, 0), (z2 - z1, r2 - r1)), and the
    generator set is symmetric, so d((0, 0), (-1, x)) = d((0, 0), (1, -x)).
    The largest distance between two vertices in the same or adjacent blocks
    is therefore the largest distance from (0, 0) to a vertex of
    ({0, 1} x Z_m) minus (0, 0): the host's ``_cohesiveness`` rule, or one
    BFS from (0, 0) capped at radius 2st + 1 and under ``budget``
    (DEFAULT_BUDGET if None). It stops at the level where the last of these
    2m - 1 vertices appears; a vertex it does not reach counts as the cap,
    which refutes q <= 2st.
    ``window`` is only validated (>= 1) and echoed. Partition and edge
    locality hold by construction (see the module docstring).
    """
    if not hasattr(host, "_block"):  # only a cylinder has blocks
        raise ValueError(f"block system requires a cylinder host, got {host.family}")
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    s = host.m
    t = host.max_z_shift
    cap = 2 * s * t + 1
    q = host._cohesiveness()
    if q is None:
        found = 0  # vertices of blocks 0 and 1 reached, (0, 0) included
        origin = host._encode(host.identity())
        for q, sphere in zip(range(cap + 1), _bfs_levels(host, (origin,), budget)):
            found += sum(1 for key in sphere if 0 <= host._block(key) <= 1)
            if found == 2 * s:
                break
        else:
            q = cap
    return CyclicSystem(host, s, t, q, window, q <= 2 * s * t)


class IntervalCover(NamedTuple):
    """The ring-like report of a set A on a cylinder: the host's block
    system, the interval of blocks A touches, and the slack of their union Q.

    slack = |Q \\ A| = (j_hi - j_lo + 1)s - |A| (Q contains A) and
    bound = 2s^2t^2k + 2stk with k = |boundary(A)|; ``holds`` records
    slack <= bound, a claim for every connected A with connected closure.
    ``violations()`` gives the combined verdict, cohesiveness and slack.
    """

    system: CyclicSystem
    j_lo: int
    j_hi: int
    sizeA: int
    k: int
    slack: int
    bound: int
    holds: bool

    def inequalities(self) -> list:
        return [
            self.system._cohesion(),
            Inequality("|Q\\A| <= 2s^2t^2k + 2stk", self.slack, self.bound,
                       self.holds, True),
        ]

    def violations(self) -> list:
        return [q.name for q in self.inequalities() if not q.holds]

    def to_dict(self) -> dict:
        """The system's fields, then the cover's; ``holds`` is the cover's."""
        return {
            **self.system.to_dict(),
            "jLo": self.j_lo,
            "jHi": self.j_hi,
            "sizeQ": self.sizeA + self.slack,
            "sizeA": self.sizeA,
            "k": self.k,
            "slack": self.slack,
            "bound": self.bound,
            "holds": self.holds,
        }


def interval_cover(system: CyclicSystem, A: VertexSet) -> IntervalCover:
    """The ring-like report of A: cover A by the blocks it touches and check
    the slack bound. ``classify_separation`` decides when the ring-like
    branch applies (|A| > 16k^2). Building ``system`` first keeps the error
    order: non-cylinder host, bad window, then the set's own errors.
    """
    if A.host != system.host:
        raise ValueError(
            f"set lives on {A.host.family} but the block system is on "
            f"{system.host.family}"
        )
    if not is_connected_with_boundary(A):
        raise ValueError("interval cover requires A union boundary(A) connected")
    lo, hi = A.host._block(min(A._members)), A.host._block(max(A._members))
    s, t, k = system.s, system.t, len(A._boundary)
    slack = (hi - lo + 1) * s - len(A)
    bound = 2 * s * s * t * t * k + 2 * s * t * k
    return IntervalCover(system, lo, hi, len(A), k, slack, bound, slack <= bound)
