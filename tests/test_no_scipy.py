"""The library itself imports no scipy; only the tests use it, as a reference."""

import ast
from pathlib import Path

import darbouxkit

SOURCES = sorted(Path(darbouxkit.__file__).resolve().parent.glob("*.py"))


def _imported_roots(tree: ast.AST) -> set[str]:
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_no_module_imports_scipy():
    assert len(SOURCES) >= 9
    offenders = [p.name for p in SOURCES if "scipy" in _imported_roots(ast.parse(p.read_text()))]
    assert offenders == []
