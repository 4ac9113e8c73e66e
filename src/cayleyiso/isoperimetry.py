"""Finite vertex-set calculus and inequality checkers on implicit Cayley graphs.

Provides the exterior vertex boundary, the depth of a set, closure
connectivity, the Varopoulos inequality check, and the small-set /
ring-like separation classifier. Also houses the seedable random
connected-set generator and the JSON set-file format shared with the CLI.
"""

from __future__ import annotations

import math
import random
from collections import deque
from functools import cached_property
from typing import Collection, Iterable, NamedTuple, Optional

from . import _require_budget
from .groups import GroupGraph, Vertex, _levels_within, minimal_ball_radius, parse_group


class VertexSet:
    """A finite set of vertices with O(1) membership, bound to its host graph.

    The set holds host keys: ``_members`` keeps the distinct keys its
    producer handed over (a list, a range, a set, a frozenset or, for every
    set grown on z^2, a ``_Window``, which lifts its keys when iterated) as
    given, and ``_keys`` hashes them into a frozenset on the first
    membership test, equality or hash. The constructor validates and encodes
    every element. ``elements``, iteration, membership and serialization see
    vertices, decoded once on first use. Immutable: every checker reads its
    exterior boundary, the connectivity of A union boundary(A) and its depth
    from the set, which computes each at most once.
    """

    def __init__(self, host: GroupGraph, elements: Iterable[Vertex]):
        self.host = host
        keys = set()
        for v in elements:
            host.validate_vertex(v)
            keys.add(host._encode(v))
        self._members = frozenset(keys)

    @classmethod
    def _trusted(cls, host: GroupGraph, keys: Collection) -> "VertexSet":
        """Distinct keys the library produced as valid, unchecked."""
        A = cls.__new__(cls)
        A.host = host
        A._members = keys
        return A

    @cached_property
    def _keys(self) -> frozenset:
        return frozenset(self._members)

    @cached_property
    def elements(self) -> frozenset:
        return frozenset(map(self.host._decode, self._members))

    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, v) -> bool:
        return v in self.elements

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, VertexSet)
            and self.host == other.host
            and self._keys == other._keys
        )

    def __hash__(self) -> int:
        return hash((self.host, self._keys))

    def __repr__(self) -> str:
        return f"VertexSet({self.host.family!r}, {len(self._members)} vertices)"

    def sorted_elements(self) -> list:
        return sorted(self.elements, key=self.host.sort_key)

    def to_json_obj(self) -> dict:
        return {
            "group": self.host.family,
            "vertices": [self.host.vertex_to_json(v) for v in self.sorted_elements()],
        }

    @cached_property
    def _boundary(self) -> frozenset:
        return _boundary_elements(self)

    @cached_property
    def _closure_is_connected(self) -> bool:
        # a boundary vertex has a neighbor in A, so A connected implies A union
        # boundary(A) connected; else the closure's BFS goes on from the component reached
        rest = set(self._keys)
        start = rest.pop()
        deque(_levels_within(self.host, (start,), rest), 0)
        if rest:
            rest.update(self._boundary)
            deque(_levels_within(self.host, self._keys.difference(rest), rest), 0)
        return not rest

    @cached_property
    def _depth(self) -> int:
        # a depth is at least 1, so a host's None falls through to the BFS
        return self.host._erosion_depth(self._members) or sum(
            1 for _ in _levels_within(self.host, self._boundary, set(self._keys))) - 1


def load_set(path: str) -> VertexSet:
    """Read a set file: {"group": "<grammar>", "vertices": [...]}."""
    import json  # loaded only for set files

    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except RecursionError:
            raise ValueError(f"set file {path!r} is nested too deeply to parse") from None
    return set_from_json_obj(obj)


def set_from_json_obj(obj) -> VertexSet:
    if not isinstance(obj, dict) or "group" not in obj or "vertices" not in obj:
        raise ValueError('set file must be an object with "group" and "vertices" keys')
    host = parse_group(obj["group"])
    if not isinstance(obj["vertices"], list):
        raise ValueError('"vertices" must be a list')
    # vertex_from_json validates each item
    vertices = (host.vertex_from_json(item) for item in obj["vertices"])
    # a set file may list a vertex twice
    return VertexSet._trusted(host, frozenset(map(host._encode, vertices)))


def set_file_text(A: VertexSet) -> str:
    """The text of A's set file, as ``save_set`` and the CLI write it.

    Raises ``InvalidVertexError`` for a member that the host would refuse
    to load, so no set file is written that cannot be read back: the
    boundary of a ``z^d`` set can reach a coordinate bound its members keep.
    """
    import json

    for v in A.elements:
        A.host.validate_vertex(v)
    return json.dumps(A.to_json_obj(), indent=2) + "\n"


def save_set(A: VertexSet, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(set_file_text(A))


def _require_nonempty(A: VertexSet) -> None:
    if not A._members:
        raise ValueError(f"operation needs a non-empty set on {A.host.family}")


def _boundary_elements(A: VertexSet) -> frozenset:
    """The boundary keys of A, in one scan of A."""
    keys, step = A._keys, A.host._step
    return frozenset(u for v in keys for u in step(v) if u not in keys)


def boundary(A: VertexSet) -> VertexSet:
    """Exterior vertex boundary: vertices outside A adjacent to some vertex of A.

    Equals {u : d(u, A) = 1}; the empty set is returned only when A exhausts
    a finite host.
    """
    _require_nonempty(A)
    return VertexSet._trusted(A.host, A._boundary)


def depth(A: VertexSet) -> int:
    """max over u in A of d(u, complement of A), distances in the whole graph.

    The host erodes A in its own key layout where it can
    (``_erosion_depth``). Other sets take one multi-source BFS from ∂A into
    A: a geodesic from u to its nearest complement vertex stays inside A
    until its final step into ∂A, so level r of the BFS holds the members
    at distance r from the complement, and every finite component of A is
    next to ∂A. The set keeps the result.
    """
    _require_nonempty(A)
    # hosts are connected, so only a set that is the whole host has no
    # member next to the complement
    if A.host.is_finite and len(A) == A.host.vertex_count:
        raise ValueError(f"depth undefined: set exhausts the finite host {A.host.family}")
    return A._depth


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
        raise ValueError(f"Varopoulos check needs an infinite host, got {A.host.family}")
    m = minimal_ball_radius(A.host, 2 * len(A), budget=budget)
    lhs = len(A)
    rhs = 2 * m * len(A._boundary)
    return VaropoulosReport(m, lhs <= rhs, lhs, rhs)


class Inequality(NamedTuple):
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


class SeparationReport(NamedTuple):
    """Which branch of the small-set / ring-like separation dichotomy applies.

    branch SmallSet: |A| <= 16k^2, and the depth bound depth < 4*sqrt(2)*k is
    recorded in the exact integer form depth^2 < 32k^2 (required only when
    the host has 1 or infinitely many ends; two-ended hosts admit deep small
    sets). branch RingLike: |A| > 16k^2 on a two-ended host, with the
    ``ringlike`` obligations on a cylinder. branch Inapplicable: |A| >
    16k^2 on a host with 1 or infinitely many ends, which the small-set
    bound rules out, so its required inequality is recorded as failed.
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
        return {**self._asdict(), "inequalities": [q._asdict() for q in self.inequalities]}


def classify_separation(A: VertexSet, budget: Optional[int] = None) -> SeparationReport:
    """Classify a finite set with connected closure per the separation dichotomy.

    Requires an infinite host and A union boundary(A) connected. This is the
    one place that decides the |A| <= 16k^2 branch; ``budget`` bounds the
    cohesiveness search of ``ringlike.cyclic_system`` on a cylinder.
    """
    if A.host.is_finite:
        raise ValueError(f"separation dichotomy needs an infinite host, got {A.host.family}")
    if not is_connected_with_boundary(A):
        raise ValueError("classify_separation requires A union boundary(A) connected")
    k = len(A._boundary)
    d = depth(A)
    size = len(A)
    unconditional = A.host.declared_ends in (1, math.inf)
    small = size <= 16 * k * k
    inequalities = [Inequality("|A| <= 16k^2", size, 16 * k * k, small, unconditional)]
    if small:
        branch = "SmallSet"
        # d^2 = 32k^2 has no solution with k >= 1, as sqrt(32) is irrational,
        # so this test reads the same with <=
        inequalities.append(Inequality("depth^2 < 32k^2", d * d, 32 * k * k, d * d < 32 * k * k,
                                       unconditional))
    elif A.host.declared_ends == 2:
        branch = "RingLike"
        if hasattr(A.host, "_block"):  # a cylinder: the one host with a block system
            from . import ringlike

            system = ringlike.cyclic_system(A.host, budget=budget)
            inequalities += ringlike.interval_cover(system, A).inequalities()
    else:
        branch = "Inapplicable"
    return SeparationReport(A.host.family, size, k, d, True, branch, inequalities)


def random_connected_set(g: GroupGraph, size: int, seed: int = 0,
                         budget: Optional[int] = None) -> VertexSet:
    """Grow a connected set from the identity by BFS accretion: repeatedly
    absorb a boundary vertex chosen uniformly at random, by the host's
    ``_accrete``.

    Deterministic for a given (seed, size). ``budget`` is charged before
    growth runs. The set keeps the members and candidates ``_accrete``
    returns: its boundary is the final candidates (a candidate leaves only
    by joining A), and its closure is connected, as A grew by neighbors.
    """
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    # growth holds at most size(degree - 1) + 2 keys, as each absorbed key adds
    # at most degree - 1 candidates, and exactly that many on a tree. A host
    # with infinitely many ends is non-amenable (Stallings), so its candidates
    # grow with the set; the others are charged the set
    _require_budget(budget, size * (g.degree - 1) + 2 if g.declared_ends == math.inf else size)
    if g.is_finite and size > g.vertex_count:
        raise ValueError(f"size {size} exceeds |V| = {g.vertex_count} on {g.family}")
    keys, candidates = g._accrete(size, random.Random(seed))
    A = VertexSet._trusted(g, keys)
    A._boundary = candidates
    A._closure_is_connected = True
    return A
