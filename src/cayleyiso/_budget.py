"""The vertex budget, its error and the monotone search ``_least``, which
``groups`` and ``counterexample`` share: a command that builds no host
(``counterexample stats``/``find``, ``sweep ratio``) loads it, not ``groups``."""

from __future__ import annotations

from typing import Optional

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

    def __init__(self, budget: int, visited: int, radius_reached: Optional[int] = None):
        self.budget = budget
        self.visited = visited
        self.radius_reached = radius_reached
        detail = "" if radius_reached is None else f" (complete up to radius {radius_reached})"
        super().__init__(f"vertex budget {budget} exceeded: needs {visited} vertices{detail}")


def _require_budget(budget: Optional[int], needed: int) -> None:
    """Raise BudgetExceeded(budget, needed) if work sized up front needs more
    than ``budget`` vertices (DEFAULT_BUDGET if None)."""
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
