"""Isoperimetry on implicit Cayley graphs.

Boundaries, depth, growth, the Varopoulos inequality, small-set / ring-like
separation, block systems on cylinders, and the perforated-grid family with
vanishing boundary-depth ratio.

Every export is bound on first use (PEP 562), so importing the package
loads none of its submodules, and a submodule only what it imports itself.
"""

from importlib import import_module

__version__ = "0.1.0"

# each public name and the submodule that defines it; a submodule maps to itself
_EXPORTS = {
    **dict.fromkeys(["groups", "GroupGraph", "GrowthReport", "InvalidVertexError", "ball",
                     "ball_profile", "classify_growth", "minimal_ball_radius",
                     "parse_group"], "groups"),
    **dict.fromkeys(["DEFAULT_BUDGET", "BudgetExceeded"], "_budget"),
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

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{_EXPORTS[name]}", __name__)
    value = module if name == _EXPORTS[name] else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
