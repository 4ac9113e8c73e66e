"""Isoperimetry on implicit Cayley graphs.

Boundaries, depth, growth, the Varopoulos inequality, small-set / ring-like
separation, block systems on cylinders, and the perforated-grid family with
vanishing boundary-depth ratio.

Each submodule's exports are bound on first use (PEP 562), so importing the
package loads none of its submodules, and a submodule only what it imports
itself. The package holds what ``groups`` and ``counterexample`` share: the
vertex budget, its error and the monotone search ``_least``. A ``budget``
of None, wherever the package takes one, is DEFAULT_BUDGET.
"""

from importlib import import_module

__version__ = "0.1.0"

# each submodule's public names and that submodule; a submodule maps to itself
_EXPORTS = {
    **dict.fromkeys(["groups", "GroupGraph", "GrowthReport", "InvalidVertexError", "ball",
                     "ball_profile", "classify_growth", "minimal_ball_radius",
                     "parse_group"], "groups"),
    "IntegerLattice": "_zd", "Torus": "_torus", "Cylinder": "_cylinder", "FreeGroup": "_free",
    **dict.fromkeys(["isoperimetry", "Inequality", "SeparationReport", "VaropoulosReport",
                     "VertexSet", "boundary", "classify_separation", "depth",
                     "is_connected_with_boundary", "load_set", "random_connected_set",
                     "save_set", "varopoulos_check"], "isoperimetry"),
    **dict.fromkeys(["counterexample", "CounterexampleStats", "EmbedReport", "GridParams",
                     "TorusEmbedding", "embed_torus", "find_params"], "counterexample"),
    **dict.fromkeys(["ringlike", "CyclicSystem", "IntervalCover", "cyclic_system",
                     "interval_cover"], "ringlike"),
}

__all__ = sorted([*_EXPORTS, "DEFAULT_BUDGET", "BudgetExceeded"])

DEFAULT_BUDGET = 10_000_000


def _clip(value) -> str:
    """``repr(value)`` for an error message, cut to 100 characters with an
    ellipsis."""
    text = repr(value)
    return text if len(text) <= 100 else text[:97] + "..."


class BudgetExceeded(RuntimeError):
    """An operation would touch more vertices than the budget allows.

    For breadth-first expansions ``radius_reached`` is the last radius whose
    sphere was fully generated before the budget tripped; operations that
    size their work up front leave it as None.
    """

    def __init__(self, budget: int, visited: int, radius_reached: int | None = None):
        self.budget = budget
        self.visited = visited
        self.radius_reached = radius_reached
        detail = "" if radius_reached is None else f" (complete up to radius {radius_reached})"
        super().__init__(f"vertex budget {budget} exceeded: needs {visited} vertices{detail}")


def _require_budget(budget: int | None, needed: int) -> None:
    """Raise BudgetExceeded(budget, needed) if work sized up front needs more
    than ``budget`` vertices."""
    budget = DEFAULT_BUDGET if budget is None else budget
    if needed > budget:
        raise BudgetExceeded(budget, needed)


def _least(holds, lo: int, stride: int = 1) -> int:
    """The least of lo, lo + stride, lo + 2 * stride, ... at which ``holds``
    holds, where it holds from some point on and never fails after it: the
    step doubles until a point holds, and only the last gap is bisected."""
    if holds(lo):
        return lo
    step = stride  # holds fails at lo and holds at lo + step, once the gallop ends
    while not holds(lo + step):
        lo, step = lo + step, 2 * step
    while step > stride:
        step //= 2
        if not holds(lo + step):
            lo += step
    return lo + stride


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{_EXPORTS[name]}", __name__)
    value = module if name == _EXPORTS[name] else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
