"""foldcc runs on the standard library alone: every absolute import in
the package names a standard-library module."""

import ast
import os
import sys

import foldcc

PACKAGE = os.path.dirname(foldcc.__file__)


def absolute_imports(path):
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module


def test_every_absolute_import_is_stdlib():
    sources = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py"))
    assert "core.py" in sources
    for name in sources:
        for module in absolute_imports(os.path.join(PACKAGE, name)):
            assert module.partition(".")[0] in sys.stdlib_module_names, (
                name, module)
