"""The package's public surface: every name in ``cayleyiso.__all__``
resolves, a star import works, every name in the export table is defined in
the submodule it names, no name exported before the exports were bound
lazily is dropped, the report records are immutable named tuples whose
``to_dict`` keys keep their order, every annotation in the package
resolves, no submodule imports a name at module level that it never uses,
every private definition is referenced, and the source holds exactly its
recorded counts of lines and of comment lines."""

import ast
import inspect
import typing
from importlib import import_module
from pathlib import Path

import pytest

import cayleyiso
from cayleyiso import (
    Cylinder, GridParams, IntegerLattice, classify_growth, classify_separation, cyclic_system,
    embed_torus, interval_cover, random_connected_set, varopoulos_check,
)
from cayleyiso.counterexample import stats

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
    assert set(cayleyiso.__all__) <= set(dir(cayleyiso))
    namespace = {}
    exec("from cayleyiso import *", namespace)
    assert set(cayleyiso.__all__) <= set(namespace)


#: the public names the package root defines itself, outside the export table
ROOT_EXPORTS = {"DEFAULT_BUDGET", "BudgetExceeded"}


def test_every_imported_public_name_is_exported():
    table = cayleyiso._EXPORTS
    assert set(cayleyiso.__all__) == set(table) | ROOT_EXPORTS
    assert ROOT_EXPORTS.isdisjoint(table)
    assert cayleyiso.BudgetExceeded.__module__ == "cayleyiso"
    assert "DEFAULT_BUDGET" in vars(cayleyiso)
    assert set(EAGER_EXPORTS) <= set(cayleyiso.__all__)
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


def test_the_families_resolve_under_groups_as_the_benchmark_reads_them(monkeypatch):
    # bench/tracer.py reads the four families and parse_group as attributes
    # of ``groups`` and rebinds each family's ``neighbors`` on its class. The
    # shim serves exactly those four, as the package's export table places
    # them, each in a module of its own: no other name of those modules or
    # of the package resolves under ``groups``
    from cayleyiso import _cylinder, _free, _torus, _zd, groups

    families = {"IntegerLattice": _zd, "Torus": _torus, "FreeGroup": _free,
                "Cylinder": _cylinder}
    names = set(cayleyiso._EXPORTS).union(*map(vars, families.values())) - set(vars(groups))
    assert {name for name in names if hasattr(groups, name)} == set(families)
    assert {"LATTICE_COORDINATE_BOUND", "STANDARD_CYLINDER_GENERATORS", "_swap_and_pop",
            "varopoulos_check"} <= names
    assert groups.parse_group is vars(groups)["parse_group"]
    calls = []
    for name, module in families.items():
        cls = getattr(groups, name)
        assert cls is vars(module)[name] is getattr(cayleyiso, name), name
        assert cls.__module__ == module.__name__, name

        def traced(*args, fn=cls.neighbors, name=name):
            calls.append(name)
            return fn(*args)

        monkeypatch.setattr(cls, "neighbors", traced)
    for family in ("z^2", "torus:5x5", "free:2", "cyl:3"):
        g = groups.parse_group(family)
        assert len(g.neighbors(g.identity())) == g.degree
    assert calls == ["IntegerLattice", "Torus", "FreeGroup", "Cylinder"]
    with pytest.raises(AttributeError, match="has no attribute 'LATTICE_COORDINATE_BOUND'"):
        groups.LATTICE_COORDINATE_BOUND


def _records() -> dict:
    """One record of each report type, made by the function that returns it."""
    A = random_connected_set(Cylinder(3), 300, seed=2)
    system = cyclic_system(Cylinder(3))
    separation = classify_separation(A)
    embedding = embed_torus(GridParams(2, 2))
    records = [classify_growth(IntegerLattice(2), 3), separation, separation.inequalities[0],
               varopoulos_check(A), GridParams(2, 3), stats(GridParams(2, 3)), embedding,
               embedding.report, system, interval_cover(system, A)]
    return {type(record).__name__: record for record in records}


def test_records_compare_by_value_and_refuse_assignment():
    records = _records()
    assert set(records) == {
        "GrowthReport", "SeparationReport", "Inequality", "VaropoulosReport", "GridParams",
        "CounterexampleStats", "TorusEmbedding", "EmbedReport", "CyclicSystem", "IntervalCover"}
    for name, record in records.items():
        copy = type(record)(*record)
        assert copy == record and copy is not record, name
        last = record._fields[-1]
        assert record._replace(**{last: 7}) != record, name
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
    with pytest.raises(ValueError, match="i, k > 1"):
        GridParams(1, 3)
    with pytest.raises(ValueError, match="i, k > 1"):
        GridParams(i=3, k=0)
    with pytest.raises(ValueError, match="i, k > 1"):
        GridParams(2, 3)._replace(k=1)


def test_record_keys_keep_their_order():
    records = _records()
    assert list(records["GrowthReport"].to_dict()) == [
        "group", "maxRadius", "ballSizes", "branch", "alpha", "beta"]
    assert list(records["EmbedReport"].to_dict()) == [
        "i", "k", "n", "volume", "sizeLattice", "sizeTorus", "boundaryLattice",
        "boundaryTorus", "depthLattice", "depthTorus", "preserved", "halfVolumeHolds"]
    assert list(records["IntervalCover"].to_dict()) == [
        "group", "s", "t", "q", "qBound", "window", "partitionOk", "ringLikeOk",
        "cohesiveOk", "jLo", "jHi", "sizeQ", "sizeA", "k", "slack", "bound", "holds"]
    # nested records become dicts too: a report's inequalities, a member's parameters
    separation = records["SeparationReport"].to_dict()
    assert list(separation) == ["group", "sizeA", "boundarySize", "depth",
                                "connectedAUnionBoundary", "branch", "inequalities"]
    assert [list(q) for q in separation["inequalities"]] == [
        ["name", "lhs", "rhs", "holds", "required"]] * len(separation["inequalities"])
    assert list(records["CounterexampleStats"].to_dict())[:3] == ["i", "k", "sizeA"]
    assert records["CounterexampleStats"].to_dict()["ratio"] == "64/45"


def test_every_annotation_resolves():
    # a module annotates only with names it binds, so ``get_type_hints``
    # raises no NameError on any function, class or method it defines, and
    # a name that a module binds only inside a function (to load lazily)
    # never appears in an annotation
    checked = []
    for path in sorted(Path(cayleyiso.__file__).parent.glob("*.py")):
        module = import_module(f"cayleyiso.{path.stem}".replace(".__init__", ""))
        for value in vars(module).values():
            if not (inspect.isfunction(value) or inspect.isclass(value)):
                continue
            if value.__module__ != module.__name__:
                continue
            checked.append(value)
            if inspect.isclass(value):
                for member in vars(value).values():
                    member = getattr(member, "__func__", getattr(member, "fget", member))
                    if inspect.isfunction(member):
                        checked.append(member)
    hints = {obj: typing.get_type_hints(obj) for obj in checked}
    from cayleyiso import _cli_sets, counterexample, ringlike

    # test_ringlike.py pins what CyclicSystem's and _resolve_set's hints are
    for obj in (ringlike.CyclicSystem, _cli_sets._resolve_set,
                counterexample.build, counterexample.TorusEmbedding):
        assert obj in hints


def test_no_submodule_imports_a_name_it_never_uses():
    # ``__init__`` re-exports what it imports, so it is left out
    unused = []
    for path in sorted(Path(cayleyiso.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for statement in tree.body:
            if isinstance(statement, ast.ImportFrom) and statement.module == "__future__":
                continue
            if isinstance(statement, (ast.Import, ast.ImportFrom)):
                names = (alias.asname or alias.name.partition(".")[0] for alias in statement.names)
                unused += [f"{path.name}: {name}" for name in names if name not in used]
    assert unused == []


#: private definitions that nothing in ``src/`` names: the namedtuple protocol
#: calls ``GridParams._make`` from ``_replace``, so that a replaced field is checked too
REFERENCED_OUTSIDE_THE_SOURCE = {"counterexample.py: _make"}


def test_every_private_definition_is_referenced():
    # a private function, method or class counts as used when some name,
    # attribute or string constant in src/ spells it: a route or hook that
    # nothing reads any more is dead code
    defined, used = set(), set()
    for path in sorted(Path(cayleyiso.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add((path.name, node.name))
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    dead = {f"{module}: {name}" for module, name in defined
            if name.startswith("_") and not name.startswith("__") and name not in used}
    assert dead == REFERENCED_OUTSIDE_THE_SOURCE


#: the non-blank, non-comment lines ``src/cayleyiso/*.py`` holds, docstrings
#: counted, as ROADMAP counts them: a change that moves the count moves it in
#: its own diff, so a reduction leaves no slack for a later addition
SOURCE_LINE_CEILING = 1990
#: the whole-line ``#`` comments the same files hold, pinned the same way, so
#: that prose moved out of a docstring into comments shows in the diff
SOURCE_COMMENT_CEILING = 158


def test_the_source_stays_under_its_line_ceiling():
    lines = [line.strip() for path in Path(cayleyiso.__file__).parent.glob("*.py")
             for line in path.read_text(encoding="utf-8").splitlines()]
    assert sum(1 for line in lines if line and not line.startswith("#")) == SOURCE_LINE_CEILING
    assert sum(1 for line in lines if line.startswith("#")) == SOURCE_COMMENT_CEILING


def test_every_mutant_text_occurs_once_in_its_module():
    # tests/mutants.py mutates by text replacement: a text that a refactor
    # changed would leave the probe's copy unmutated, and one that occurs
    # twice would mutate both places
    import mutants

    assert mutants.misplaced(mutants.MUTANTS) == []
