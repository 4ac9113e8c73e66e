"""Slow reference implementations, independent of the library's fast paths.

Everything here favors directness over speed: per-vertex BFS, literal set
comprehensions, and closed-form counts derived without shared code. Expected
values in the test suite are pinned from these.
"""

from __future__ import annotations

import itertools
import random
import re
from collections import deque
from fractions import Fraction
from math import gcd

from cayleyiso import Cylinder, FreeGroup, IntegerLattice, Torus


def z1_ball_size(r: int) -> int:
    return 2 * r + 1


def z2_ball_size(r: int) -> int:
    return 2 * r * r + 2 * r + 1


def z2_ball_points(r: int) -> set:
    return {(x, y) for x in range(-r, r + 1) for y in range(-r, r + 1)
            if abs(x) + abs(y) <= r}


def free_ball_size(rank: int, r: int) -> int:
    if r == 0:
        return 1
    return 1 + 2 * rank * ((2 * rank - 1) ** r - 1) // (2 * rank - 2)


def enumerate_reduced_words(rank: int, r: int) -> set:
    """All reduced words of length <= r, by direct recursive extension."""
    words = {()}
    frontier = [()]
    for _ in range(r):
        nxt = []
        for w in frontier:
            for x in range(-rank, rank + 1):
                if x == 0 or (w and w[-1] == -x):
                    continue
                u = w + (x,)
                words.add(u)
                nxt.append(u)
        frontier = nxt
    return words


def lattice_ball_size(d: int, r: int) -> int:
    """Count the points of Z^d with |x_1| + ... + |x_d| <= r, one
    coordinate value at a time."""
    if d == 0:
        return 1
    return sum(lattice_ball_size(d - 1, r - abs(x)) for x in range(-r, r + 1))


def torus_ball_size(n: int, d: int, r: int) -> int:
    """Count residue vectors whose coordinatewise wraparound distances sum
    to <= r."""

    def circ(x: int) -> int:
        return min(x, n - x)

    def rec(idx: int, used: int) -> int:
        if idx == d:
            return 1
        total = 0
        for x in range(n):
            c = circ(x)
            if used + c <= r:
                total += rec(idx + 1, used + c)
        return total

    return rec(0, 0)


def cylinder_standard_ball_size(m: int, r: int) -> int:
    """Ball size for Z x Z_m with generators (+-1,0),(0,+-1): the distance
    is |dz| plus the wraparound residue distance, counted directly."""
    total = 0
    for dz in range(-r, r + 1):
        c = r - abs(dz)
        total += min(m, 2 * c + 1)
    return total


def neighbor_function(g):
    """A function listing the neighbors of a vertex of ``g``, in the order
    ``g.neighbors`` lists them, enumerated on the vertex itself and never
    through the host's keys.

    On ``z^d`` and tori: +e_0, -e_0, +e_1, -e_1, ..., wrapping mod n on a
    torus. On a cylinder: each generator (dz, dr) in ``g.generators`` order.
    On a free group: generator i, then its inverse, each appended to the
    word or, when it undoes the last letter, cancelling that letter.
    """
    if isinstance(g, IntegerLattice):
        return lambda v: [v[:i] + (v[i] + step,) + v[i + 1:]
                          for i in range(g.d) for step in (1, -1)]
    if isinstance(g, Torus):
        return lambda v: [v[:i] + ((v[i] + step) % g.n,) + v[i + 1:]
                          for i in range(g.d) for step in (1, -1)]
    if isinstance(g, Cylinder):
        return lambda v: [(v[0] + dz, (v[1] + dr) % g.m) for dz, dr in g.generators]
    if isinstance(g, FreeGroup):
        letters = [x for i in range(1, g.rank + 1) for x in (i, -i)]
        return lambda v: [v[:-1] if v and v[-1] == -x else v + (x,) for x in letters]
    raise TypeError(f"no neighbor rule for {type(g).__name__}")


def identity(g):
    """The identity of ``g``: the empty word on a free group, else the zero
    tuple of its coordinates."""
    if isinstance(g, FreeGroup):
        return ()
    return (0, 0) if isinstance(g, Cylinder) else (0,) * g.d


def vertex_error(g, v):
    """The message ``g.validate_vertex(v)`` raises InvalidVertexError with,
    or None if ``v`` is a vertex of the ``z^d``, torus or cylinder ``g``.

    Each family's rule is written out on its own: a tuple of ints (bools
    among them) of the host's length, whose ``z^d`` coordinates after the
    first have magnitude below 2^38, whose torus coordinates are residues
    mod n, and whose cylinder residue (the second coordinate) is one mod m.
    """
    text = repr(v)
    text = text if len(text) <= 100 else text[:97] + "..."
    ints = isinstance(v, tuple) and all(isinstance(x, int) for x in v)
    if isinstance(g, IntegerLattice):
        if not ints or len(v) != g.d:
            return f"{text} is not a length-{g.d} integer tuple"
        if any(abs(x) >= 2**38 for x in v[1:]):
            return f"{text} has a coordinate after the first of magnitude >= 2^38"
        return None
    if isinstance(g, Torus):
        if ints and len(v) == g.d and all(0 <= x < g.n for x in v):
            return None
        return f"{text} is not a length-{g.d} tuple of residues mod {g.n}"
    if isinstance(g, Cylinder):
        if ints and len(v) == 2 and 0 <= v[1] < g.m:
            return None
        return f"{text} is not a (z, residue mod {g.m}) pair"
    raise TypeError(f"no validation rule for {type(g).__name__}")


def vertex_is_valid(g, v) -> bool:
    return vertex_error(g, v) is None


def accretion_set(g, size: int, seed: int = 0, start=None) -> set:
    """The vertices ``random_connected_set`` grows, by the same protocol on
    vertices: candidates in discovery order, one ``randrange`` per absorbed
    vertex, swap-and-pop removal. ``seed`` may also be a ``random.Random``
    to draw from, so that a caller can watch the draws."""
    neighbors = neighbor_function(g)
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    start = g.identity() if start is None else start
    members = {start}
    candidates = neighbors(start)
    pending = set(candidates)
    while len(members) < size:
        j = rng.randrange(len(candidates))
        candidates[j], candidates[-1] = candidates[-1], candidates[j]
        v = candidates.pop()
        pending.discard(v)
        members.add(v)
        for u in neighbors(v):
            if u not in members and u not in pending:
                pending.add(u)
                candidates.append(u)
    return members


def bfs_ball(g, center, r: int) -> set:
    neighbors = neighbor_function(g)
    out = {center}
    frontier = [center]
    for _ in range(r):
        nxt = []
        for v in frontier:
            for u in neighbors(v):
                if u not in out:
                    out.add(u)
                    nxt.append(u)
        frontier = nxt
    return out


def bfs_distance(g, u, v) -> int:
    """d(u, v) by a breadth-first search from u that stops when it meets v;
    the graph must be connected."""
    neighbors = neighbor_function(g)
    dist = {u: 0}
    queue = deque([u])
    while queue:
        w = queue.popleft()
        if w == v:
            return dist[w]
        for x in neighbors(w):
            if x not in dist:
                dist[x] = dist[w] + 1
                queue.append(x)
    raise ValueError(f"{v!r} is not reachable from {u!r}")


def cylinder_cohesiveness(host) -> int:
    """Largest distance between two distinct vertices of block 0, or a
    vertex of block 0 and one of block 1, one BFS per pair."""
    block0 = [(0, r) for r in range(host.m)]
    targets = block0 + [(1, r) for r in range(host.m)]
    return max(bfs_distance(host, u, v) for u in block0 for v in targets if u != v)


def cylinder_generates(m: int, gens) -> tuple:
    """Whether the (zShift, rShift) pairs ``gens`` generate Z x Z_m, and the
    sorted residues reachable at z = 0, by breadth-first search from (0, 0).

    The search is confined to |z| <= m * max |zShift|: a walk that reaches
    a residue at z = 0 can be rearranged to stay in that box. The pairs
    generate exactly when their z-shifts have gcd 1 and every residue is
    reachable at z = 0.
    """
    steps = set()
    for dz, dr in gens:
        steps.add((dz, dr % m))
        steps.add((-dz, -dr % m))
    box = m * max(abs(dz) for dz, _ in steps)
    seen = {(0, 0)}
    queue = deque([(0, 0)])
    while queue:
        z, r = queue.popleft()
        for dz, dr in steps:
            u = (z + dz, (r + dr) % m)
            if abs(u[0]) <= box and u not in seen:
                seen.add(u)
                queue.append(u)
    column = sorted(r for z, r in seen if z == 0)
    z_gcd = 0
    for dz, _ in steps:
        z_gcd = gcd(z_gcd, dz)
    return z_gcd == 1 and len(column) == m, column


def boundary_by_distance(g, elements) -> set:
    """{u : d(u, A) = 1}: the members' neighbors outside A, each kept when
    its own neighbor scan finds a member at distance exactly 1."""
    neighbors = neighbor_function(g)
    members = set(elements)
    candidates = {u for v in members for u in neighbors(v)} - members
    return {u for u in candidates if any(w in members for w in neighbors(u))}


def per_vertex_depth(g, elements) -> int:
    """max over members of d(u, complement), one full-graph BFS per member.
    The search stops at the first non-member it meets: BFS meets vertices
    in order of distance, so that one is nearest."""
    neighbors = neighbor_function(g)
    members = set(elements)
    best = 0
    for u in members:
        dist = {u: 0}
        queue = deque([u])
        while queue:
            v = queue.popleft()
            near = [w for w in neighbors(v) if w not in dist]
            if not members.issuperset(near):
                best = max(best, dist[v] + 1)
                break
            for w in near:
                dist[w] = dist[v] + 1
                queue.append(w)
    return best


def erosion_depth(points, g=None) -> int:
    """Depth of a set of vertices of ``g`` (the plane if None) as its number
    of erosions, one level at a time: each keeps the vertices whose
    neighbors are all kept."""
    neighbors = neighbor_function(g or IntegerLattice(2))
    level = set(points)
    t = 0
    while level:
        level = {v for v in level if all(u in level for u in neighbors(v))}
        t += 1
    return t


def levels_within(g, sources, elements) -> list:
    """The BFS levels, as vertex sets, from ``sources`` along paths that
    enter only ``elements``; level 0 is the sources, inside or not."""
    neighbors = neighbor_function(g)
    members = set(elements)
    levels = [set(sources)]
    seen = set(sources)
    while True:
        nxt = {u for v in levels[-1] for u in neighbors(v) if u in members and u not in seen}
        if not nxt:
            return levels
        seen |= nxt
        levels.append(nxt)


def connected_within(g, elements) -> bool:
    neighbors = neighbor_function(g)
    members = set(elements)
    if not members:
        return True
    start = next(iter(members))
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for u in neighbors(v):
                if u in members and u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    return len(seen) == len(members)


def pack_cells(cells, size: int) -> int:
    """The int whose set bits are ``cells``, each below ``size``: one byte
    per 8 cells, each cell or-ed into its byte."""
    buf = bytearray(size + 7 >> 3)
    for c in cells:
        buf[c >> 3] |= 1 << (c & 7)
    return int.from_bytes(buf, "little")


def perforated_points(i: int, k: int) -> set:
    """Direct enumeration of the square {0..ki}^2 minus the interior pins."""
    square = {(x, y) for x in range(k * i + 1) for y in range(k * i + 1)}
    pins = {(a * i, b * i) for a in range(1, k) for b in range(1, k)}
    return square - pins


def z2_boundary_scan(points: set) -> set:
    """Boundary of a plane set using inline 4-adjacency, no library calls."""
    out = set()
    for (x, y) in points:
        for u in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if u not in points:
                out.add(u)
    return out


def random_vertex(g, rng: random.Random):
    """A uniformly-ish random valid vertex, for bulk symmetry sampling."""
    if isinstance(g, IntegerLattice):
        return tuple(rng.randint(-40, 40) for _ in range(g.d))
    if isinstance(g, Torus):
        return tuple(rng.randrange(g.n) for _ in range(g.d))
    if isinstance(g, Cylinder):
        return (rng.randint(-60, 60), rng.randrange(g.m))
    if isinstance(g, FreeGroup):
        length = rng.randrange(0, 12)
        word = []
        for _ in range(length):
            options = [x for x in range(-g.rank, g.rank + 1)
                       if x != 0 and (not word or x != -word[-1])]
            word.append(rng.choice(options))
        return tuple(word)
    raise TypeError(f"no random vertex rule for {type(g).__name__}")


# the group grammar as one anchored pattern; ASCII digits only, and DOTALL
# lets a cylinder's generator list span lines
GROUP_GRAMMAR = re.compile(
    r"z\^(?P<z>[0-9]+)|torus:(?P<torus>[0-9]+(?:x[0-9]+)*)|free:(?P<free>[0-9]+)"
    r"|cyl:(?P<cyl>[0-9]+)(?::(?P<gens>.*))?",
    re.DOTALL,
)


def group_spec_parts(text: str):
    """``(family, digit strings, generator text or None)`` of a group spec
    that the grammar matches whole once stripped, e.g. ``("torus", ["31",
    "31"], None)``; None for any other spec."""
    match = GROUP_GRAMMAR.fullmatch(text.strip())
    if match is None:
        return None
    family = next(name for name in ("z", "torus", "free", "cyl") if match[name])
    return family, match[family].split("x"), match["gens"]


def diagonal_walk(target, budget: int):
    """``find_params``' answer by its definition: walk i = k = j = 2, 3, ...
    one member at a time and return the first j whose ratio is below
    ``target``, or ``("budget", n)`` for the first patch A(j, min(j, 3)) of
    n > ``budget`` vertices met before it. The counts are the family's
    definitions: the square's points less the pins, the pins plus the rim,
    and the depth of each cell kind."""
    for j in itertools.count(2):
        m = min(j, 3)
        patch = (m * j + 1) ** 2 - (m - 1) ** 2
        if patch > budget:
            return "budget", patch
        size = (j * j + 1) ** 2 - (j - 1) ** 2
        boundary = (j - 1) ** 2 + 4 * (j * j + 1)
        depth = 2 * (j // 2) if j >= 3 else (2 * j + 2) // 3
        if Fraction(boundary * depth, size) < target:
            return j
