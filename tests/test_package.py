"""The package's public surface is ``geolex.__all__``."""

from __future__ import annotations

import ast
from pathlib import Path

import geolex


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from geolex import *", namespace)
    del namespace["__builtins__"]
    assert len(set(geolex.__all__)) == len(geolex.__all__)
    assert set(namespace) == set(geolex.__all__)
    for name in geolex.__all__:
        assert namespace[name] is getattr(geolex, name)


def test_json_is_parsed_only_in_parse_json():
    """Every outside document is parsed by ``corpus.parse_json``, the
    one place that decides what JSON input the package accepts."""
    package = Path(geolex.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = [node for node in ast.walk(tree)
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        inside = {id(node): function.name
                  for function in functions for node in ast.walk(function)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in ("load", "loads")
                    and isinstance(node.value, ast.Name) and node.value.id == "json"):
                found.append((path.name, inside.get(id(node))))
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                found += [(path.name, alias.name) for alias in node.names
                          if alias.name in ("load", "loads")]
    assert found == [("corpus.py", "parse_json")]
