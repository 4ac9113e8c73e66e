"""The package's public surface: every name in ``cayleyiso.__all__``
resolves, a star import works, every name in the export table is defined in
the submodule it names, and no name exported before the exports were bound
lazily is dropped."""

import inspect
from importlib import import_module

import cayleyiso

# ``__all__`` when ``__init__.py`` imported every submodule eagerly
EAGER_EXPORTS = """
    BudgetExceeded CounterexampleStats CyclicSystem Cylinder DEFAULT_BUDGET EmbedReport
    FreeGroup GridParams GroupGraph GrowthReport Inequality IntegerLattice IntervalCover
    InvalidVertexError SeparationReport Torus TorusEmbedding VaropoulosReport VertexSet
    ball ball_profile boundary classify_growth classify_separation counterexample
    cyclic_system depth embed_torus find_params groups interval_cover
    is_connected_with_boundary isoperimetry load_set minimal_ball_radius parse_group
    random_connected_set ringlike save_set varopoulos_check
""".split()


def test_all_names_resolve_and_star_import_works():
    assert len(set(cayleyiso.__all__)) == len(cayleyiso.__all__)
    missing = [name for name in cayleyiso.__all__ if not hasattr(cayleyiso, name)]
    assert missing == []
    namespace = {}
    exec("from cayleyiso import *", namespace)
    assert set(cayleyiso.__all__) <= set(namespace)


def test_every_imported_public_name_is_exported():
    table = cayleyiso._EXPORTS
    assert set(cayleyiso.__all__) == set(table)
    assert set(EAGER_EXPORTS) <= set(table)
    for name, source in table.items():
        module = import_module(f"cayleyiso.{source}")
        if name == source:
            assert getattr(cayleyiso, name) is module
            continue
        value = vars(module)[name]
        # functions and classes are defined there, not re-exported from elsewhere
        if inspect.isfunction(value) or inspect.isclass(value):
            assert value.__module__ == module.__name__, name
        assert getattr(cayleyiso, name) is value
    # a name outside the table is an AttributeError, which hasattr reads
    assert not hasattr(cayleyiso, "no_such_name")
