"""The package namespace re-exports exactly the library modules' public names,
so a name dropped from a module cannot linger in ``darbouxkit.__all__``, and
every public name, and every module-level private name of the library, has a
reader outside the tests."""

import ast
import re
from pathlib import Path
from types import FunctionType

import pytest

import darbouxkit
from darbouxkit import curvature, darboux, geodesics, potentials, reporting, soliton, submanifolds

MODULES = (soliton, potentials, darboux, curvature, geodesics, submanifolds, reporting)
ROOT = Path(__file__).resolve().parent.parent


def test_all_is_the_union_of_the_module_lists():
    lists = [darbouxkit.__all__, *(module.__all__ for module in MODULES)]
    assert all(len(names) == len(set(names)) for names in lists)
    assert set(darbouxkit.__all__) == set().union(*(module.__all__ for module in MODULES))


def test_every_listed_name_resolves_to_its_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(darbouxkit, name) is getattr(module, name), f"{module.__name__}.{name}"


def _names_read(sources) -> set[str]:
    """Every ``Name`` id and ``Attribute`` attr in the python sources."""
    used = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def _outside_sources() -> list[str]:
    """The library, scripts, benchmark and README python blocks."""
    sources = [path.read_text() for d in ("src", "scripts", "perfbench") for path in (ROOT / d).rglob("*.py")]
    readme = (ROOT / "README.md").read_text()
    return sources + re.findall(r"^```python\n(.*?)^```", readme, flags=re.M | re.S)


def test_every_listed_name_is_read_outside_the_tests():
    # a name only tests read is test-only API: it belongs in tests/, not in src/
    assert sorted(set(darbouxkit.__all__) - _names_read(_outside_sources())) == []


def test_every_public_member_is_read_outside_the_tests():
    # methods and properties of the public classes too; the acceptance gate is
    # frozen, so what it reads stays
    used = _names_read([*_outside_sources(), (ROOT / "tests" / "test_acceptance.py").read_text()])
    members = {
        f"{name}.{attr}"
        for name in darbouxkit.__all__
        if isinstance(cls := getattr(darbouxkit, name), type)
        for attr, value in vars(cls).items()
        if not attr.startswith("_") and isinstance(value, (FunctionType, property, classmethod, staticmethod))
    }
    assert sorted(m for m in members if m.split(".")[1] not in used) == []


def _private_definitions() -> list[str]:
    """``module.name`` of every module-level private function, class and
    constant in the library, except functions that one of the library's own
    decorators registers (a ``@_claim(...)`` body is read by its decorator; a
    stdlib wrapper such as ``functools.lru_cache`` reads nothing)."""
    paths = sorted((ROOT / "src" / "darbouxkit").glob("*.py"))
    trees = {path.stem: ast.parse(path.read_text()) for path in paths}
    defined = {
        node.name
        for tree in trees.values()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }

    def registered(node) -> bool:
        return any(
            isinstance(call := getattr(d, "func", d), ast.Name) and call.id in defined
            for d in node.decorator_list
        )

    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [] if registered(node) else [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            found += [f"{module}.{name}" for name in names if name.startswith("_") and not name.startswith("__")]
    return found


def _private_reads(sources) -> set[str]:
    """Names read in the python sources: ``Name`` ids and ``Attribute`` attrs
    in load context, and the names of ``from ... import``."""
    used = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return used


def test_every_private_definition_is_read_outside_the_tests():
    # a private helper, class or constant that only tests read (or nothing
    # does) is dead code left behind by a refactor
    used = _private_reads(_outside_sources())
    assert sorted(d for d in _private_definitions() if d.split(".")[1] not in used) == []


@pytest.mark.parametrize(
    "source, unread",
    [
        ("def _f():\n    pass\n", ["m._f"]),
        ("def _f():\n    pass\n\n_f()\n", []),
        ("import functools\n\n@functools.lru_cache(maxsize=None)\ndef _f():\n    pass\n", ["m._f"]),
        ("def _reg(x):\n    return lambda f: f\n\n@_reg(1)\ndef _f():\n    pass\n", []),
        ("_K = 1\n", ["m._K"]),
        ("_K = 1\nX = _K\n", []),
        ("_K: int = 1\n", ["m._K"]),
        ("_A, _B = 1, 2\nprint(_A)\n", ["m._B"]),
        ("class _C:\n    pass\n\nimport m\nm._C\n", []),
        ("class _C:\n    pass\n\nfrom m import _C\n", []),
        ("__all__ = []\n", []),
    ],
)
def test_private_definition_check_on_snippets(source, unread, monkeypatch, tmp_path):
    (tmp_path / "src" / "darbouxkit").mkdir(parents=True)
    (tmp_path / "src" / "darbouxkit" / "m.py").write_text(source)
    monkeypatch.setitem(globals(), "ROOT", tmp_path)
    used = _private_reads([source])
    assert [d for d in _private_definitions() if d.split(".")[1] not in used] == unread
