"""Implicit Cayley graphs: the core that every family of groups shares.

Each graph exposes only local structure (neighbor enumeration from an exact
vertex representation); balls and growth come from ``_bfs_levels`` under
an explicit vertex budget, or from the host's counting rule. Internally a
vertex is an integer *key* (``_encode``, ``_decode``), key 0 is the
identity, and a step is a few integer additions from a per-host offset
table. Public functions take, validate and return vertices; internal loops
step from the library's own keys unchecked. Each family lives in a module
of its own, which alone knows its vertices and keys.
"""

from __future__ import annotations

from importlib import import_module
from itertools import accumulate, chain, count, islice
from typing import Collection, Iterator, NamedTuple, Optional, Tuple

from . import DEFAULT_BUDGET, BudgetExceeded, _clip, _least

Vertex = Tuple[int, ...]


class InvalidVertexError(ValueError):
    """A vertex value is malformed for its host graph."""


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
        """b(0), b(1), ... by ``_ball_count``; a cheaper exact recurrence may override it."""
        return map(self._ball_count, count())

    def _erosion_depth(self, keys: Collection) -> Optional[int]:
        """The depth of a nonempty key set by ``depth``'s erosion route, or None."""
        return None

    def _accrete(self, size: int, rng) -> Tuple[Collection, Collection]:
        """The members and the candidates, distinct keys, of the set that
        ``size`` - 1 draws grow from the identity, key 0: those the loop
        ``_lattice._swap_and_pop`` returns stepping each key to ``_step``'s
        keys in order. Each host grows it one way, and may hand over a lazy
        collection that yields them (``range``, ``_zd._Window``)."""
        raise NotImplementedError

    def __eq__(self, other) -> bool:
        return isinstance(other, GroupGraph) and self.family == other.family

    def __hash__(self) -> int:
        return hash(self.family)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.family!r})"


def parse_group(text: str) -> GroupGraph:
    """Build a GroupGraph from the compact grammar used by the CLI and set files.

    Examples: ``z^2``, ``torus:31x31``, ``free:2``, ``cyl:3``,
    ``cyl:3:[(1,0),(-1,0),(0,1),(0,-1)]``. The stripped spec must match whole.
    """
    spec = text.strip() if isinstance(text, str) else ""
    family, _, body = spec.partition(":")
    gens = None
    if spec.startswith("z^"):
        family, body = "z^", spec[2:]
    elif family == "cyl" and ":" in body:  # the generator list may span lines
        body, _, gens = body.partition(":")
    numbers = body.split("x") if family == "torus" else [body]
    # ASCII digits only, so int() never sees a sign, an underscore or a
    # non-ASCII digit
    if family not in ("z^", "torus", "free", "cyl") or not all(
            n.isascii() and n.isdigit() for n in numbers):
        raise ValueError(f"unknown group grammar {_clip(text)}")

    def number(digits: str) -> int:
        try:
            return int(digits)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise ValueError(f"number too long in group spec {_clip(text)}") from None

    # each branch imports the module of its family only
    if family == "free":
        from ._free import FreeGroup

        return FreeGroup(number(body))
    if family == "z^":
        from ._zd import IntegerLattice

        return IntegerLattice(number(body))
    if family == "torus":
        from ._torus import Torus

        ns = [number(x) for x in numbers]
        if any(n != ns[0] for n in ns):
            raise ValueError(
                f"torus spec {_clip(text)} must repeat one side, e.g. torus:31x31"
            )
        return Torus(ns[0], len(ns))
    from ._cylinder import Cylinder

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
    return Cylinder(number(body), gens)


def __getattr__(name):
    # PEP 562: the benchmark's tracer reads the four families here, which the
    # package's export table places, each in a module of its own
    if name not in ("FreeGroup", "IntegerLattice", "Torus", "Cylinder"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(__package__), name)


def _bfs_levels(g: GroupGraph, sources: Collection, budget: Optional[int] = None) -> Iterator[set]:
    """Yield the BFS spheres of the host around the ``sources``, host keys:
    level r at step r, level 0 even when empty. Level r + 1 is built only
    when asked for; ``budget`` bounds the visited set."""
    frontier = set(sources)
    budget = DEFAULT_BUDGET if budget is None else budget
    seen = set(frontier)
    step = g._step
    for r in count():
        yield frontier
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
        if not nxt:
            return
        frontier = nxt


def _levels_within(g: GroupGraph, sources: Collection, remaining: set) -> Iterator[set]:
    """Yield the BFS spheres around the ``sources`` along paths that enter
    only the keys of a set, as ``_bfs_levels`` does, with no budget.

    Level 0 is ``frozenset(sources)``, not a copy when the sources are a
    frozenset; they need not be in the set. ``remaining`` holds the set's
    keys less the sources, and loses each level as the search builds it:
    what a finished search leaves there, it never reached. A level is
    pushed from the frontier, or pulled into the unreached keys when they
    are fewer (Beamer et al. 2012): the hosts' generators are symmetric.
    """
    frontier = frozenset(sources)
    step = g._step
    while True:
        yield frontier
        if len(frontier) > len(remaining):
            frontier = {v for v in remaining if not frontier.isdisjoint(step(v))}
        else:
            frontier = remaining.intersection(chain.from_iterable(map(step, frontier)))
        if not frontier:
            return
        remaining -= frontier


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
    """The sequence b(0), b(1), ... of the host, the one route to its growth:
    ``g._ball_counts()`` where the host has a counting rule, else a BFS from
    the identity under ``budget``, which ends on a finite host."""
    if g._ball_count(0) is not None:
        return g._ball_counts()
    levels = _bfs_levels(g, (0,), budget)
    return accumulate(len(sphere) for sphere in levels)


#: the largest radius ``ball_profile`` samples. Counted sizes are exempt
#: from the vertex budget, so the profile needs a bound of its own: free:26's
#: profile to radius 10^4 already peaks near 55 MB and takes about 1.6 s
MAX_PROFILE_RADIUS = 10_000


def ball_profile(g: GroupGraph, r: int, budget: Optional[int] = None) -> list:
    """Cumulative ball sizes [b(0), b(1), ..., b(r)], read from ``_ball_sizes``.

    The host is vertex-transitive, so ball sizes do not depend on the
    center. A finite host's profile is padded with its total. r may not
    exceed MAX_PROFILE_RADIUS.
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

    Where the host has a counting rule, ``_least`` finds m in O(log m)
    single-radius counts; otherwise ``_ball_sizes`` is scanned up to m.
    """
    if target < 1:
        raise ValueError(f"target must be >= 1, got {target}")
    if g.is_finite:
        raise ValueError(f"minimal_ball_radius needs an infinite host, got {g.family}")
    if g._ball_count(0) is None:
        sizes = enumerate(_ball_sizes(g, budget))
        return next(r for r, b in sizes if r >= 1 and b >= target)
    return _least(lambda m: g._ball_count(m) >= target, 1)


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
