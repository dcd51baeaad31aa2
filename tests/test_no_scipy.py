"""The library itself imports neither scipy nor numpy.polynomial; only the tests
use them, as references."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import darbouxkit

SOURCES = sorted(Path(darbouxkit.__file__).resolve().parent.glob("*.py"))
# modules the library must not use; each is a reference in the tests only
FORBIDDEN = ("scipy", "numpy.polynomial")


def _dotted(node: ast.AST) -> str | None:
    """'a.b.c' for an attribute chain a.b.c on a plain name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def _uses(tree: ast.AST, module: str) -> bool:
    """Whether the tree imports ``module`` (or a submodule, or it from its
    parent) or reaches it by an attribute chain on ``np`` or ``numpy``."""
    head, _, last = module.rpartition(".")
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module] + [f"{head}.{alias.name}" for alias in node.names if node.module == head]
        elif isinstance(node, ast.Attribute) and node.attr == last:
            root, _, rest = (_dotted(node) or "").partition(".")
            names = [f"numpy.{rest}"] if root in ("np", "numpy") else []
        else:
            continue
        if any(name == module or name.startswith(module + ".") for name in names):
            return True
    return False


@pytest.mark.parametrize("module", FORBIDDEN)
def test_no_module_uses(module):
    assert len(SOURCES) >= 9
    assert [p.name for p in SOURCES if _uses(ast.parse(p.read_text()), module)] == []


@pytest.mark.parametrize("module, code, used", [
    ("scipy", "import scipy.special as sp", True),
    ("scipy", "from scipy.integrate import quad", True),
    ("numpy.polynomial", "import numpy.polynomial.polynomial as P", True),
    ("numpy.polynomial", "from numpy.polynomial.polynomial import polyval", True),
    ("numpy.polynomial", "from numpy import polynomial", True),
    ("numpy.polynomial", "np.polynomial.polynomial.polyval(1.0, [1.0])", True),
    ("numpy.polynomial", "numpy.polynomial.Polynomial([1.0])", True),
    ("numpy.polynomial", "np.polyval([1.0], 2.0)", False),
    ("numpy.polynomial", "from numpy import linalg", False),
    ("numpy.polynomial", "# numpy.polynomial.polynomial.polyval's order", False),
])
def test_use_check_sees_imports_and_attribute_chains(module, code, used):
    assert _uses(ast.parse(code), module) == used


def test_import_loads_no_forbidden_module():
    src = str(Path(darbouxkit.__file__).resolve().parents[1])
    code = (
        "import json, sys, darbouxkit\n"
        f"forbidden = {FORBIDDEN!r}\n"
        "print(json.dumps([m for m in sys.modules for f in forbidden if m == f or m.startswith(f + '.')]))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(out.stdout) == []
