"""Bitmap kernels for finite subsets of the square lattice.

The generic set routines in :mod:`cayleyiso.isoperimetry` walk hash sets of
tuples, which is fine up to ~10^5 vertices. Perforated-grid families reach
millions of vertices, so this module redoes the two hot statistics (boundary
size and depth) on a padded boolean array. Results are exact and must agree
with the generic path; the unit tests compare both routes.

Memory is the limit here, not time, so the kernels hold at most one full-size
array besides the 1-byte-per-cell mask: ``boundary_count`` one boolean
(2 bytes per cell in all), ``depth`` one distance array of ``int16`` when the
shape allows it and ``int32`` otherwise (3 or 5 bytes per cell in all; see
:func:`_distance_dtype`). Every other temporary spans at most ``_CHUNK``
lines of the array.
"""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

#: lines (columns in the first depth pass, rows in the second) per chunk
_CHUNK = 64


class Bitmap:
    """A set of lattice points stored as a padded boolean grid.

    ``mask[x - x0 + 1, y - y0 + 1]`` is True iff (x, y) is in the set, for
    the least coordinates x0, y0 of the set; one ring of padding keeps every
    4-neighbor of a member inside the array. Boundary size and depth are
    translation-invariant, so the kernels never need (x0, y0) and it is not
    kept.
    """

    def __init__(self, mask: np.ndarray):
        self.mask = mask

    @classmethod
    def from_points(cls, points: Iterable[Tuple[int, int]]) -> "Bitmap":
        pts = np.asarray(list(points), dtype=np.int64)
        if pts.size == 0:
            raise ValueError("cannot build a bitmap from an empty point set")
        x0, y0 = pts.min(axis=0)
        x1, y1 = pts.max(axis=0)
        mask = np.zeros((int(x1 - x0) + 3, int(y1 - y0) + 3), dtype=bool)
        mask[pts[:, 0] - x0 + 1, pts[:, 1] - y0 + 1] = True
        return cls(mask)

    def count(self) -> int:
        return int(np.count_nonzero(self.mask))


def boundary_count(bm: Bitmap) -> int:
    """Size of the exterior vertex boundary: non-members adjacent to a member."""
    mask = bm.mask
    out = np.zeros_like(mask)
    out[:-1, :] |= mask[1:, :]
    out[1:, :] |= mask[:-1, :]
    out[:, :-1] |= mask[:, 1:]
    out[:, 1:] |= mask[:, :-1]
    return int(np.count_nonzero(np.greater(out, mask, out=out)))


def _distance_dtype(shape: Tuple[int, int]) -> type:
    """``int16`` if every value ``depth`` forms on this shape fits, else ``int32``.

    With inf = h + w + 1 on members and 0 elsewhere, a pass along an axis of
    length n forms d[j] - j >= -(n - 1) and d[j] + j <= inf + n - 1, keeps
    their running minima in the same range, and returns
    min_j (d[j] + |i - j|), which lies in [0, inf] because j = i is a
    candidate. So the second pass reads the same range as the first, and
    every intermediate of both lies in [-max(h, w), h + w + 1 + max(h, w)].
    """
    h, w = shape
    return np.int16 if h + w + 1 + max(h, w) <= np.iinfo(np.int16).max else np.int32


def _scan(src: np.ndarray, idx: np.ndarray, axis: int, out: np.ndarray) -> np.ndarray:
    """One separable pass: out[i] = min_j (src[j] + |i - j|) along ``axis``.

    Uses min_{j<=i}(src[j] + i - j) = i + cummin(src[j] - j) and its mirror,
    so each direction is one vectorized accumulate, done in place: the
    forward one in a chunk-size buffer, the backward one in ``src``, which is
    overwritten. ``out`` may be ``src``.
    """
    rev = (slice(None), slice(None, None, -1)) if axis else (slice(None, None, -1),)
    fwd = np.subtract(src, idx)
    np.minimum.accumulate(fwd, axis=axis, out=fwd)
    fwd += idx
    src += idx
    bwd = src[rev]
    np.minimum.accumulate(bwd, axis=axis, out=bwd)
    src -= idx
    return np.minimum(fwd, src, out=out)


def depth(bm: Bitmap) -> int:
    """max over members of the lattice distance to the complement.

    Lattice distance is L1, so the distance-to-complement field is the L1
    distance transform of the non-member cells, computed by the separable
    two-axis scan in O(area) (Rosenfeld–Pfaltz 1966; Felzenszwalb–Huttenlocher
    2012). The padding ring is non-member, which is correct: any complement
    point beyond the array is strictly farther than the ring cell on the same
    ray. Non-members are at distance 0, so the largest value of the field is
    the largest over members.

    The column pass writes one full-size array of :func:`_distance_dtype`,
    ``_CHUNK`` columns at a time; the row pass reads it ``_CHUNK`` rows at a
    time and keeps only the running maximum.
    """
    mask = bm.mask
    h, w = mask.shape
    dtype = _distance_dtype(mask.shape)
    inf = dtype(h + w + 1)
    d = np.empty(mask.shape, dtype=dtype)
    rows = np.arange(h, dtype=dtype).reshape(h, 1)
    for c in range(0, w, _CHUNK):
        src = mask[:, c : c + _CHUNK].astype(dtype)
        src *= inf
        _scan(src, rows, 0, d[:, c : c + _CHUNK])
    cols = np.arange(w, dtype=dtype)
    best = 0
    for r in range(0, h, _CHUNK):
        src = d[r : r + _CHUNK]
        best = max(best, int(_scan(src, cols, 1, src).max()))
    return best


def perforated_block(i: int, k: int) -> Bitmap:
    """The square {0..ki}^2 minus interior pins {(m*i, n*i) : 1 <= m,n <= k-1}.

    Built directly at bitmap resolution so multi-million-vertex instances
    never materialize point lists. Its caller passes ``GridParams``, which
    holds i, k > 1.
    """
    side = k * i + 1
    mask = np.zeros((side + 2, side + 2), dtype=bool)
    mask[1 : side + 1, 1 : side + 1] = True
    idx = np.arange(1, k) * i + 1
    mask[np.ix_(idx, idx)] = False
    return Bitmap(mask)
