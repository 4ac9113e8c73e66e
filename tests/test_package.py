"""The package's public surface: every name in ``cayleyiso.__all__``
resolves, a star import works, and every public name that ``__init__.py``
imports is exported."""

import ast
from pathlib import Path

import cayleyiso


def imported_public_names() -> set:
    tree = ast.parse(Path(cayleyiso.__file__).read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }


def test_all_names_resolve_and_star_import_works():
    assert len(set(cayleyiso.__all__)) == len(cayleyiso.__all__)
    missing = [name for name in cayleyiso.__all__ if not hasattr(cayleyiso, name)]
    assert missing == []
    namespace = {}
    exec("from cayleyiso import *", namespace)
    assert set(cayleyiso.__all__) <= set(namespace)


def test_every_imported_public_name_is_exported():
    assert imported_public_names() - set(cayleyiso.__all__) == set()
    assert "counterexample" in imported_public_names()
