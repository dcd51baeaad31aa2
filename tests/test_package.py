"""The package namespace re-exports exactly the library modules' public names,
so a name dropped from a module cannot linger in ``darbouxkit.__all__``, and
every public name has a reader outside the tests."""

import ast
import re
from pathlib import Path
from types import FunctionType

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
