"""Finite vertex-set calculus and inequality checkers on implicit Cayley graphs.

Provides the exterior vertex boundary, the depth of a set (how far its
deepest member is from the complement), closure connectivity, the Varopoulos
inequality check, and the small-set / ring-like separation classifier. Also
houses the seedable random connected-set generator and the JSON set-file
format shared with the CLI.

Every checker reads a set's boundary, and whether A union boundary(A) is
connected, from the ``VertexSet`` itself, which computes each once.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Optional

from .groups import (
    Cylinder,
    GroupGraph,
    Vertex,
    _bfs_levels,
    minimal_ball_radius,
    parse_group,
)


class VertexSet:
    """A finite set of vertices with O(1) membership, bound to its host graph.

    The constructor validates every element; sets the library builds from
    vertices it produced use ``_trusted``, which does not check them again.
    Immutable: its exterior boundary and the connectivity of A union
    boundary(A) are computed on first use and kept (``_boundary``,
    ``_closure_is_connected``), so every checker that reads them shares one
    computation per set.
    """

    def __init__(self, host: GroupGraph, elements: Iterable[Vertex]):
        self.host = host
        elems = set()
        for v in elements:
            host.validate_vertex(v)
            elems.add(v)
        self.elements = frozenset(elems)

    @classmethod
    def _trusted(cls, host: GroupGraph, elements: Iterable[Vertex]) -> "VertexSet":
        """A set of vertices the library produced as valid, not checked again."""
        A = cls.__new__(cls)
        A.host = host
        A.elements = frozenset(elements)
        return A

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, v) -> bool:
        return v in self.elements

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, VertexSet)
            and self.host == other.host
            and self.elements == other.elements
        )

    def __hash__(self) -> int:
        return hash((self.host, self.elements))

    def __repr__(self) -> str:
        return f"VertexSet({self.host.family!r}, {len(self.elements)} vertices)"

    def sorted_elements(self) -> list:
        return sorted(self.elements, key=self.host.sort_key)

    def to_json_obj(self) -> dict:
        return {
            "group": self.host.family,
            "vertices": [self.host.vertex_to_json(v) for v in self.sorted_elements()],
        }

    @cached_property
    def _boundary(self) -> frozenset:
        return frozenset(_boundary_elements(self))

    @cached_property
    def _closure_is_connected(self) -> bool:
        closure = self.elements | self._boundary
        start = next(iter(self.elements))
        levels = _bfs_levels(self.host, (start,), len(closure), within=closure)
        return sum(len(sphere) for sphere in levels) == len(closure)


def load_set(path: str) -> VertexSet:
    """Read a set file: {"group": "<grammar>", "vertices": [...]}."""
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    return set_from_json_obj(obj)


def set_from_json_obj(obj) -> VertexSet:
    if not isinstance(obj, dict) or "group" not in obj or "vertices" not in obj:
        raise ValueError('set file must be an object with "group" and "vertices" keys')
    host = parse_group(obj["group"])
    if not isinstance(obj["vertices"], list):
        raise ValueError('"vertices" must be a list')
    # vertex_from_json validates each item
    return VertexSet._trusted(host, (host.vertex_from_json(item) for item in obj["vertices"]))


def save_set(A: VertexSet, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(A.to_json_obj(), fh, indent=2)
        fh.write("\n")


def _require_nonempty(A: VertexSet) -> None:
    if not A.elements:
        raise ValueError(f"operation needs a non-empty set on {A.host.family}")


def _boundary_elements(A: VertexSet) -> set:
    g = A.host
    out = set()
    for v in A.elements:
        for u in g._step(v):
            if u not in A.elements:
                out.add(u)
    return out


def boundary(A: VertexSet) -> VertexSet:
    """Exterior vertex boundary: vertices outside A adjacent to some vertex of A.

    Equals {u : d(u, A) = 1}; the empty set is returned only when A exhausts
    a finite host.
    """
    _require_nonempty(A)
    return VertexSet._trusted(A.host, A._boundary)


def depth(A: VertexSet) -> int:
    """max over u in A of d(u, complement of A), distances in the whole graph.

    Computed as one multi-source BFS seeded at the boundary and expanded only
    into A: a geodesic from u to its nearest complement vertex stays inside A
    until its final step, so d(u, complement) = d(u, boundary) along paths
    within A. Every finite component of A touches the boundary, so the BFS
    covers all of A even when A is disconnected.
    """
    _require_nonempty(A)
    bd = A._boundary
    if not bd:
        raise ValueError(
            f"depth undefined: set exhausts the finite host {A.host.family}"
        )
    # the BFS visits only bd and A, so its budget cannot trip
    levels = _bfs_levels(A.host, bd, len(bd) + len(A), within=A.elements)
    return sum(1 for _ in levels) - 1


def is_connected_with_boundary(A: VertexSet) -> bool:
    """True iff the subgraph induced on A union boundary(A) is connected."""
    _require_nonempty(A)
    return A._closure_is_connected


class VaropoulosReport(NamedTuple):
    """Outcome of the |A| <= 2m|boundary(A)| check, m minimal with b(m) >= 2|A|."""

    m: int
    holds: bool
    lhs: int
    rhs: int

    def to_dict(self) -> dict:
        return self._asdict()

    def violations(self) -> list:
        return [] if self.holds else ["|A| <= 2m|boundary(A)|"]


def varopoulos_check(A: VertexSet, budget: Optional[int] = None) -> VaropoulosReport:
    """Check |A| <= 2m|boundary(A)| with m minimal such that b(m) >= 2|A|.

    The inequality is a theorem for every finite set in an infinite
    vertex-transitive graph, so holds=False signals an implementation bug and
    is treated as a claim violation by callers, not as an input error.
    """
    _require_nonempty(A)
    if A.host.is_finite:
        raise ValueError(
            f"Varopoulos check needs an infinite host, got {A.host.family}"
        )
    m = minimal_ball_radius(A.host, 2 * len(A), budget=budget)
    lhs = len(A)
    rhs = 2 * m * len(A._boundary)
    return VaropoulosReport(m, lhs <= rhs, lhs, rhs)


@dataclass(frozen=True)
class Inequality:
    """One checked claim: lhs REL rhs, with both sides in exact integer form.

    ``required`` marks claims the host's end count makes unconditional; a
    failed required claim is a violation (CLI exit code 2), while a failed
    non-required one is informational.
    """

    name: str
    lhs: int
    rhs: int
    holds: bool
    required: bool

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class SeparationReport:
    """Which branch of the small-set / ring-like separation dichotomy applies.

    branch SmallSet: |A| <= 16k^2, and the depth bound depth < 4*sqrt(2)*k is
    recorded in the exact integer form depth^2 < 32k^2 (required only when
    the host has 1 or infinitely many ends; two-ended hosts admit deep small
    sets). branch RingLike: |A| > 16k^2 on a two-ended host, with the
    cohesiveness and interval-cover obligations delegated to the ringlike
    module for cylinder hosts. branch Inapplicable: |A| > 16k^2 on a host
    with 1 or infinitely many ends, which the small-set bound rules out, so
    its required inequality is recorded as failed.
    """

    group: str
    sizeA: int
    boundarySize: int
    depth: int
    connectedAUnionBoundary: bool
    branch: str
    inequalities: list

    def violations(self) -> list:
        return [q.name for q in self.inequalities if q.required and not q.holds]

    def to_dict(self) -> dict:
        return asdict(self)


def classify_separation(A: VertexSet) -> SeparationReport:
    """Classify a finite set with connected closure per the separation dichotomy.

    Requires an infinite host and A union boundary(A) connected. This is the
    one place that decides the |A| <= 16k^2 branch; on a cylinder the
    ring-like branch takes its obligations from ``ringlike.interval_cover``.
    """
    _require_nonempty(A)
    if A.host.is_finite:
        raise ValueError(f"separation dichotomy needs an infinite host, got {A.host.family}")
    if not is_connected_with_boundary(A):
        raise ValueError("classify_separation requires A union boundary(A) connected")
    k = len(A._boundary)
    d = depth(A)
    size = len(A)
    unconditional = A.host.declared_ends in (1, math.inf)
    small = size <= 16 * k * k
    inequalities = [
        Inequality("|A| <= 16k^2", size, 16 * k * k, small, unconditional)
    ]
    if small:
        branch = "SmallSet"
        inequalities.append(
            Inequality(
                "depth^2 < 32k^2", d * d, 32 * k * k, d * d < 32 * k * k, unconditional
            )
        )
    elif A.host.declared_ends == 2:
        branch = "RingLike"
        if isinstance(A.host, Cylinder):
            from . import ringlike

            system = ringlike.cyclic_system(A.host)
            inequalities += ringlike.interval_cover(system, A).inequalities()
    else:
        branch = "Inapplicable"
    return SeparationReport(
        group=A.host.family,
        sizeA=size,
        boundarySize=k,
        depth=d,
        connectedAUnionBoundary=True,
        branch=branch,
        inequalities=inequalities,
    )


def random_connected_set(
    g: GroupGraph, size: int, seed: int = 0, start: Optional[Vertex] = None
) -> VertexSet:
    """Grow a connected set by BFS accretion: repeatedly absorb a boundary
    vertex chosen uniformly at random.

    Deterministic for a given (seed, size, start): the candidate list is kept
    in insertion order and sampled by index with swap-and-pop removal.
    """
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    if g.is_finite and size > g.vertex_count:
        raise ValueError(f"size {size} exceeds |V| = {g.vertex_count} on {g.family}")
    rng = random.Random(seed)
    if start is None:
        start = g.identity()
    g.validate_vertex(start)
    members = {start}
    candidates = g._step(start)
    candidate_set = set(candidates)
    while len(members) < size:
        j = rng.randrange(len(candidates))
        candidates[j], candidates[-1] = candidates[-1], candidates[j]
        v = candidates.pop()
        candidate_set.discard(v)
        members.add(v)
        for u in g._step(v):
            if u not in members and u not in candidate_set:
                candidate_set.add(u)
                candidates.append(u)
    return VertexSet._trusted(g, members)
