"""Free groups: ``FreeGroup`` on reduced words."""

from __future__ import annotations

from collections import Counter
from itertools import compress, repeat
from math import inf
from operator import ge, rshift
from typing import Collection, Optional, Tuple

from .groups import GroupGraph, InvalidVertexError, Vertex, _clip


class FreeGroup(GroupGraph):
    """Cayley graph of the free group on ``rank`` generators (a 2*rank-regular tree).

    Vertices are reduced words stored as tuples of signed generator indices
    (+i for the i-th generator, -i for its inverse); the string form uses
    lowercase letters for generators and uppercase for their inverses
    (``"aB"`` is a * b^-1).
    """

    #: the letters of the string form (ranks above 26 are rejected)
    _char_index = {chr(ord(a) + i - 1): sign * i
                   for i in range(1, 27) for a, sign in (("a", 1), ("A", -1))}
    _index_char = {x: ch for ch, x in _char_index.items()}

    def __init__(self, rank: int):
        if rank < 2:
            raise ValueError(f"free group rank must be >= 2, got {rank}")
        if rank > 26:
            raise ValueError("free group rank capped at 26 (one letter per generator)")
        self.rank = rank
        self.degree = 2 * rank
        self.declared_ends = inf
        self.family = f"free:{rank}"
        self.vertex_count = None
        # The key of a word packs one digit per letter, +i as 2i - 1 and -i
        # as 2i, in ``_bits`` bits each, first letter most significant; the
        # identity is 0. No digit is 0, so the key determines the word, and
        # appending digit d is (key << _bits) | d, the parent is
        # key >> _bits and the last digit is key & _mask. Conversions go
        # through binary strings, linear in the word length.
        self._bits = bits = (2 * rank).bit_length()
        self._mask = (1 << bits) - 1
        # digits 1, 2, ... in ``neighbors`` order: generator i, then its inverse
        letters = [x for i in range(1, rank + 1) for x in (i, -i)]
        self._chunk = {x: format(d, f"0{bits}b") for d, x in enumerate(letters, 1)}
        self._letter = {chunk: x for x, chunk in self._chunk.items()}
        # _step lists digit d at index d - 1; _cancels[d] is the index of
        # the digit that undoes d (the identity's 0 has none)
        self._cancels = [None] + [d if d % 2 else d - 2 for d in range(1, 2 * rank + 1)]

    def _encode(self, v: Vertex) -> int:
        return int("".join(map(self._chunk.__getitem__, v)) or "0", 2)

    def _decode(self, key: int) -> Vertex:
        if not key:
            return ()
        bits = self._bits
        text = format(key, "b")
        text = text.zfill(len(text) + -len(text) % bits)
        return tuple(map(self._letter.__getitem__,
                         (text[i : i + bits] for i in range(0, len(text), bits))))

    def validate_vertex(self, v) -> None:
        if not isinstance(v, tuple):
            raise InvalidVertexError(f"{_clip(v)} is not a word tuple")
        for x in v:
            if not isinstance(x, int) or x == 0 or abs(x) > self.rank:
                raise InvalidVertexError(f"letter {_clip(x)} out of range for rank {self.rank}")
        for a, b in zip(v, v[1:]):
            if a == -b:
                raise InvalidVertexError(f"word {_clip(v)} is not reduced")

    def _step(self, key: int) -> list:
        # the children are consecutive: key << _bits plus each digit
        base = key << self._bits
        out = list(range(base + 1, base + self.degree + 1))
        if key:
            out[self._cancels[key & self._mask]] = key >> self._bits
        return out

    def _erosion_depth(self, keys: Collection, rim: Optional[Collection] = None) -> int:
        # E_1(A), the members whose neighbors are all members: those whose
        # parent key >> _bits is a member and that have degree - 1 member
        # children. The identity is its own parent, so it counts itself, and
        # needs degree children, one more than the others: its count drops by 2.
        # A induces a forest, so |E_1(A)| < 2|A| / degree: O(|A|) in all
        bits, need, t = self._bits, self.degree - 1, 0
        keys = frozenset(keys)  # erosion tests membership
        while keys:
            counts = Counter(map(rshift, keys, repeat(bits)))
            if 0 in keys:
                counts[0] -= 2
            full = keys.intersection(compress(counts, map(ge, counts.values(), repeat(need))))
            keys = set(compress(full, map(keys.__contains__, map(rshift, full, repeat(bits)))))
            t += 1
        return t

    def _accrete(self, size: int, rng) -> Tuple[Collection, Collection]:
        # A is a subtree grown from the identity, and an absorbed key's only
        # neighbor in A is the one it was reached from: its other neighbors
        # were never seen, as in a tree their only path to A runs through it.
        # That neighbor is its parent, so v appends v << _bits plus each digit
        # of kids[last], last = v & _mask: the digits 1 .. degree but the one
        # that cancels last, whose slot _step gives to the parent. No seen
        # set. On rank 2 every kids[last] holds three digits: they are
        # appended as one tuple, with no list built
        getrandbits, bits, mask = rng.getrandbits, self._bits, self._mask
        kids = [[d for d in range(1, self.degree + 1) if d - 1 != c] for c in self._cancels]
        members, candidates = [0], self._step(0)
        absorb, extend, pop = members.append, candidates.extend, candidates.pop
        three = self.rank == 2
        for _ in range(size - 1):
            n = len(candidates)
            k = n.bit_length()
            j = getrandbits(k)
            while j >= n:
                j = getrandbits(k)
            v = pop()
            if j < n - 1:
                v, candidates[j] = candidates[j], v
            absorb(v)
            base = v << bits
            if three:
                x, y, z = kids[v & mask]
                extend((base + x, base + y, base + z))
            else:
                extend([base + d for d in kids[v & mask]])
        return members, candidates

    def vertex_to_json(self, v: Vertex) -> str:
        return self.vertex_str(v)

    def vertex_from_json(self, obj) -> Vertex:
        if not isinstance(obj, str):
            raise InvalidVertexError(f"free group vertex must be a word string, got {_clip(obj)}")
        return self.parse_word(obj)

    def vertex_str(self, v: Vertex) -> str:
        return "".join(map(self._index_char.__getitem__, v))

    def parse_word(self, text: str) -> Vertex:
        bad = next((ch for ch in text if ch not in self._char_index), None)
        if bad is not None:
            raise InvalidVertexError(f"bad letter {bad!r} in word {_clip(text)}")
        v = tuple(map(self._char_index.__getitem__, text))
        self.validate_vertex(v)
        return v

    def sort_key(self, v: Vertex):
        return (len(v), v)

    def _ball_count(self, r: int) -> int:
        # the sphere of radius n >= 1 in a (2*rank)-regular tree holds
        # 2*rank*(2*rank-1)^(n-1) words; summed over n <= r, with the identity
        return 1 + self.rank * ((2 * self.rank - 1) ** r - 1) // (self.rank - 1)
