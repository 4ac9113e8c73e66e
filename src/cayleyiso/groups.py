"""Implicit Cayley graphs for a fixed family of groups.

Each graph exposes only local structure (neighbor enumeration from an exact
vertex representation). Balls and growth statistics are computed by
breadth-first expansion under an explicit vertex budget, except that ball
sizes are counted, outside the budget, on free groups, ``z^d`` and cylinders
with the standard generators. Public entry points validate a caller's
vertices; internal loops step from the library's own vertices unchecked.

Supported families and vertex representations:

* ``IntegerLattice(d)``  - tuples of ints, standard generators +-e_i
* ``Torus(n, d)``        - tuples of residues mod n, same generators
* ``FreeGroup(rank)``    - reduced words as tuples of signed generator
  indices (+i for the i-th generator, -i for its inverse)
* ``Cylinder(m, gens)``  - pairs (z, r) with z an int and r a residue mod m,
  generators are explicit (zShift, rShift) pairs, symmetrized
"""

from __future__ import annotations

import ast
import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, count, islice
from math import comb, gcd
from typing import Collection, Container, Iterator, Optional, Sequence, Tuple

Vertex = Tuple[int, ...]

DEFAULT_BUDGET = 10_000_000

INFINITE_ENDS = math.inf


class InvalidVertexError(ValueError):
    """A vertex value is malformed for its host graph."""


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
        raise NotImplementedError

    def neighbors(self, v: Vertex) -> list:
        """All vertices adjacent to ``v``, deduplicated, in a fixed order."""
        self.validate_vertex(v)
        return self._step(v)

    def _step(self, v: Vertex) -> list:
        """``neighbors`` of a vertex already known to be valid, unchecked."""
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
            raise InvalidVertexError(f"expected a list of integer coordinates, got {obj!r}")
        v = tuple(obj)
        self.validate_vertex(v)
        return v

    def vertex_str(self, v: Vertex) -> str:
        return repr(v)

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

    def __eq__(self, other) -> bool:
        return isinstance(other, GroupGraph) and self.family == other.family

    def __hash__(self) -> int:
        return hash(self.family)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.family!r})"


class IntegerLattice(GroupGraph):
    """Cayley graph of Z^d with the standard generating set."""

    def __init__(self, d: int):
        if d < 1:
            raise ValueError(f"lattice dimension must be >= 1, got {d}")
        self.d = d
        self.degree = 2 * d
        self.declared_ends = 2 if d == 1 else 1
        self.family = f"z^{d}"
        self.vertex_count = None

    def identity(self) -> Vertex:
        return (0,) * self.d

    def validate_vertex(self, v) -> None:
        if (
            not isinstance(v, tuple)
            or len(v) != self.d
            or not all(isinstance(x, int) for x in v)
        ):
            raise InvalidVertexError(f"{v!r} is not a length-{self.d} integer tuple")

    def _step(self, v: Vertex) -> list:
        out = []
        for i in range(self.d):
            for step in (1, -1):
                out.append(v[:i] + (v[i] + step,) + v[i + 1 :])
        return out

    def _ball_count(self, r: int) -> int:
        # Delannoy numbers: choose the k nonzero coordinates, their signs,
        # and positive values summing to at most r (C(r, k) ways)
        return sum(2**k * comb(self.d, k) * comb(r, k) for k in range(min(self.d, r) + 1))


class Torus(GroupGraph):
    """Cayley graph of (Z_n)^d with the standard generating set; n >= 3."""

    def __init__(self, n: int, d: int = 2):
        if n < 3:
            raise ValueError(f"torus side must be >= 3, got {n}")
        if d < 1:
            raise ValueError(f"torus dimension must be >= 1, got {d}")
        self.n = n
        self.d = d
        self.degree = 2 * d
        self.declared_ends = 0
        self.family = f"torus:{'x'.join(str(n) for _ in range(d))}"
        self.vertex_count = n**d

    def identity(self) -> Vertex:
        return (0,) * self.d

    def validate_vertex(self, v) -> None:
        if (
            not isinstance(v, tuple)
            or len(v) != self.d
            or not all(isinstance(x, int) and 0 <= x < self.n for x in v)
        ):
            raise InvalidVertexError(
                f"{v!r} is not a length-{self.d} tuple of residues mod {self.n}"
            )

    def _step(self, v: Vertex) -> list:
        out = []
        for i in range(self.d):
            for step in (1, -1):
                out.append(v[:i] + ((v[i] + step) % self.n,) + v[i + 1 :])
        return out


class FreeGroup(GroupGraph):
    """Cayley graph of the free group on ``rank`` generators (a 2*rank-regular tree).

    Vertices are reduced words stored as tuples of signed generator indices;
    the string form uses lowercase letters for generators and uppercase for
    their inverses (``"aB"`` is a * b^-1).
    """

    def __init__(self, rank: int):
        if rank < 2:
            raise ValueError(f"free group rank must be >= 2, got {rank}")
        if rank > 26:
            raise ValueError("free group rank capped at 26 (one letter per generator)")
        self.rank = rank
        self.degree = 2 * rank
        self.declared_ends = INFINITE_ENDS
        self.family = f"free:{rank}"
        self.vertex_count = None

    def identity(self) -> Vertex:
        return ()

    def validate_vertex(self, v) -> None:
        if not isinstance(v, tuple):
            raise InvalidVertexError(f"{v!r} is not a word tuple")
        for x in v:
            if not isinstance(x, int) or x == 0 or abs(x) > self.rank:
                raise InvalidVertexError(f"letter {x!r} out of range for rank {self.rank}")
        for a, b in zip(v, v[1:]):
            if a == -b:
                raise InvalidVertexError(f"word {v!r} is not reduced")

    def _step(self, v: Vertex) -> list:
        out = []
        for i in range(1, self.rank + 1):
            for g in (i, -i):
                if v and v[-1] == -g:
                    out.append(v[:-1])
                else:
                    out.append(v + (g,))
        return out

    def vertex_to_json(self, v: Vertex) -> str:
        return self.vertex_str(v)

    def vertex_from_json(self, obj) -> Vertex:
        if not isinstance(obj, str):
            raise InvalidVertexError(f"free group vertex must be a word string, got {obj!r}")
        return self.parse_word(obj)

    def vertex_str(self, v: Vertex) -> str:
        letters = []
        for x in v:
            base = ord("a") + abs(x) - 1
            letters.append(chr(base) if x > 0 else chr(base).upper())
        return "".join(letters)

    def parse_word(self, text: str) -> Vertex:
        word = []
        for ch in text:
            if "a" <= ch <= "z":
                x = ord(ch) - ord("a") + 1
            elif "A" <= ch <= "Z":
                x = -(ord(ch) - ord("A") + 1)
            else:
                raise InvalidVertexError(f"bad letter {ch!r} in word {text!r}")
            word.append(x)
        v = tuple(word)
        self.validate_vertex(v)
        return v

    def sort_key(self, v: Vertex):
        return (len(v), v)

    def _ball_count(self, r: int) -> int:
        # the sphere of radius n >= 1 in a (2*rank)-regular tree holds
        # 2*rank*(2*rank-1)^(n-1) words; summed over n <= r, with the identity
        return 1 + self.rank * ((2 * self.rank - 1) ** r - 1) // (self.rank - 1)


STANDARD_CYLINDER_GENERATORS = ((1, 0), (-1, 0), (0, 1), (0, -1))


class Cylinder(GroupGraph):
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
        gens = set()
        for item in raw:
            if not (
                isinstance(item, (tuple, list))
                and len(item) == 2
                and all(isinstance(x, int) and not isinstance(x, bool) for x in item)
            ):
                raise ValueError(f"generator {item!r} is not a (zShift, rShift) pair")
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

    def _check_generates(self) -> None:
        m = self.m
        g = gcd(*(dz for dz, _ in self.generators))
        if g != 1:
            raise ValueError(
                f"generators {list(self.generators)} do not generate Z x Z_{m}: "
                f"z-shifts have gcd {g}"
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
            raise ValueError(
                f"generators {list(self.generators)} do not generate Z x Z_{m}: "
                f"only residues {list(range(0, m, d))} are reachable at z=0"
            )

    def identity(self) -> Vertex:
        return (0, 0)

    def _ball_count(self, r: int) -> Optional[int]:
        if not self._standard:
            return None
        # d((0, 0), (z, x)) = |z| + the circular distance of x; the column at
        # |z| = r - j holds min(m, 2j + 1) residues, twice for j < r
        h = min(r, (self.m - 1) // 2)
        columns = (h + 1) ** 2 + (r - h) * self.m  # sum of min(m, 2j+1), j <= r
        return 2 * columns - min(self.m, 2 * r + 1)

    def validate_vertex(self, v) -> None:
        if (
            not isinstance(v, tuple)
            or len(v) != 2
            or not isinstance(v[0], int)
            or not isinstance(v[1], int)
            or not 0 <= v[1] < self.m
        ):
            raise InvalidVertexError(f"{v!r} is not a (z, residue mod {self.m}) pair")

    def _step(self, v: Vertex) -> list:
        z, r = v
        # the generators are distinct (dz, dr mod m) pairs, so these are too
        return [(z + dz, (r + dr) % self.m) for dz, dr in self.generators]


def parse_group(text: str) -> GroupGraph:
    """Build a GroupGraph from the compact grammar used by the CLI and set files.

    Examples: ``z^2``, ``torus:31x31``, ``free:2``, ``cyl:3``,
    ``cyl:3:[(1,0),(-1,0),(0,1),(0,-1)]``.
    """
    s = text.strip()
    if s.startswith("z^"):
        try:
            d = int(s[2:])
        except ValueError:
            raise ValueError(f"bad lattice spec {text!r}") from None
        return IntegerLattice(d)
    if s.startswith("torus:"):
        sides = s[len("torus:") :].split("x")
        try:
            ns = [int(x) for x in sides]
        except ValueError:
            raise ValueError(f"bad torus spec {text!r}") from None
        if not ns or any(n != ns[0] for n in ns):
            raise ValueError(f"torus spec {text!r} must repeat one side, e.g. torus:31x31")
        return Torus(ns[0], len(ns))
    if s.startswith("free:"):
        try:
            rank = int(s[len("free:") :])
        except ValueError:
            raise ValueError(f"bad free group spec {text!r}") from None
        return FreeGroup(rank)
    if s.startswith("cyl:"):
        rest = s[len("cyl:") :]
        if ":" in rest:
            m_text, gens_text = rest.split(":", 1)
            try:
                gens = ast.literal_eval(gens_text)
            except (ValueError, SyntaxError):
                raise ValueError(f"bad cylinder generators in {text!r}") from None
            if not isinstance(gens, (list, tuple)):
                raise ValueError(f"cylinder generators in {text!r} must be a list of pairs")
        else:
            m_text, gens = rest, None
        try:
            m = int(m_text)
        except ValueError:
            raise ValueError(f"bad cylinder modulus in {text!r}") from None
        return Cylinder(m, gens)
    raise ValueError(f"unknown group grammar {text!r}")


def _bfs_levels(
    g: GroupGraph,
    sources: Collection[Vertex],
    budget: Optional[int],
    max_radius: Optional[int] = None,
    within: Optional[Container[Vertex]] = None,
) -> Iterator[set]:
    """Yield the BFS spheres around the ``sources``: level r is yielded at step r.

    When ``within`` is given, expansion enters only vertices it contains
    (the sources themselves need not be in it). Stops after ``max_radius``
    levels if given, or when the frontier empties. Raises BudgetExceeded
    when the visited set would grow past ``budget`` (DEFAULT_BUDGET if None);
    the exception records the last completed radius. Sources are not
    validated and are expanded by the unchecked ``_step``: ``ball`` checks
    a caller's center.
    """
    budget = DEFAULT_BUDGET if budget is None else budget
    frontier = set(sources)
    seen = set(frontier)
    r = 0
    yield frontier
    while frontier:
        if max_radius is not None and r >= max_radius:
            return
        nxt = set()
        for v in frontier:
            for u in g._step(v):
                if u not in seen and (within is None or u in within):
                    # checked per vertex so memory cannot overshoot the
                    # budget by a whole level on fast-growing graphs
                    if len(seen) >= budget:
                        raise BudgetExceeded(budget, len(seen) + 1, r)
                    seen.add(u)
                    nxt.add(u)
        frontier = nxt
        r += 1
        if frontier:
            yield frontier


def ball(
    g: GroupGraph, center: Vertex, r: int, budget: Optional[int] = None
) -> set:
    """Exact metric ball {u : d(u, center) <= r}, by breadth-first expansion."""
    if r < 0:
        raise ValueError(f"radius must be >= 0, got {r}")
    g.validate_vertex(center)
    out: set = set()
    for sphere in _bfs_levels(g, (center,), budget, max_radius=r):
        out |= sphere
    return out


def _ball_sizes(g: GroupGraph, budget: Optional[int]) -> Iterator[int]:
    """The sequence b(0), b(1), ... of the host, the one route to its growth.

    Where the host has a counting rule the sequence is ``g._ball_count`` at
    r = 0, 1, ..., endless and outside the budget; otherwise it comes from a
    BFS from the identity under ``budget`` and ends when the frontier empties
    (a finite host).
    """
    if g._ball_count(0) is not None:
        return map(g._ball_count, count())
    levels = _bfs_levels(g, (g.identity(),), budget)
    return accumulate(len(sphere) for sphere in levels)


def ball_profile(g: GroupGraph, r: int, budget: Optional[int] = None) -> list:
    """Cumulative ball sizes [b(0), b(1), ..., b(r)], read from ``_ball_sizes``.

    The host is vertex-transitive, so ball sizes do not depend on the
    center. Counted hosts (free groups, ``z^d``, cylinders with the standard
    generators) are exempt from the budget; the others are enumerated by
    BFS. On a finite host the profile is padded with the saturated total
    once the frontier empties.
    """
    if r < 0:
        raise ValueError(f"radius must be >= 0, got {r}")
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


@dataclass
class GrowthReport:
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
