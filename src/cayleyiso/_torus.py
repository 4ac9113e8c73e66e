"""Tori (Z_n)^d: ``Torus`` on ``_lattice``'s keys, radix n."""

from __future__ import annotations

from ._lattice import _MixedRadix, _check_dimension


class Torus(_MixedRadix):
    """Cayley graph of (Z_n)^d with the standard generating set; n >= 3."""

    def __init__(self, n: int, d: int = 2):
        if n < 3:
            raise ValueError(f"torus side must be >= 3, got {n}")
        _check_dimension("torus", d)
        self.n = n
        self.d = d
        self.degree = 2 * d
        self.declared_ends = 0
        self.family = f"torus:{'x'.join(str(n) for _ in range(d))}"
        self.vertex_count = n**d
        malformed = f"is not a length-{d} tuple of residues mod {n}"
        super().__init__(n, 0, (0,) * d, (n,) * d, malformed, malformed)
        # per coordinate, in ``neighbors`` order: its place value and the
        # offset that wraps its digit from n - 1 to 0
        self._places = [(n ** (d - 1 - i), (n - 1) * n ** (d - 1 - i)) for i in range(d)]
        # a row depends on the digits that wrap: built from _step as it is read
        self._rows, self._period = _StepRows(self._step), n**d

    def _step(self, key: int) -> list:
        top = self.n - 1
        out = []
        for place, wrap in self._places:
            x = key // place % self.n
            out.append(key + place if x < top else key - wrap)
            out.append(key - place if x else key + wrap)
        return out


class _StepRows:
    # row v is built from _step(v) on each read and never kept, as
    # accretion reads each absorbed key's row once
    def __init__(self, step):
        self._step = step

    def __getitem__(self, v: int) -> list:
        return [u - v for u in self._step(v)]
