"""Isoperimetry on implicit Cayley graphs.

Boundaries, depth, growth, the Varopoulos inequality, small-set / ring-like
separation, block systems on cylinders, and the perforated-grid family with
vanishing boundary-depth ratio.
"""

from .groups import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    Cylinder,
    FreeGroup,
    GroupGraph,
    GrowthReport,
    IntegerLattice,
    InvalidVertexError,
    Torus,
    ball,
    ball_profile,
    classify_growth,
    minimal_ball_radius,
    parse_group,
)
from .isoperimetry import (
    Inequality,
    SeparationReport,
    VaropoulosReport,
    VertexSet,
    boundary,
    classify_separation,
    depth,
    is_connected_with_boundary,
    load_set,
    random_connected_set,
    save_set,
    varopoulos_check,
)
from .counterexample import (
    CounterexampleStats,
    EmbedReport,
    GridParams,
    TorusEmbedding,
    embed_torus,
    find_params,
)
from .ringlike import (
    CyclicSystem,
    IntervalCover,
    cyclic_system,
    interval_cover,
)
from . import counterexample, groups, isoperimetry, ringlike

__version__ = "0.1.0"

# every public name bound above, submodules included
__all__ = [name for name in dir() if not name.startswith("_")]
