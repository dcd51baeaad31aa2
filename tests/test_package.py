"""The package namespace re-exports exactly the library modules' public names,
so a name dropped from a module cannot linger in ``darbouxkit.__all__``, and
every public name, and every module-level private name of the library, has a
reader outside the tests.  The claim layers (geodesics, submanifolds,
reporting) load on first use, so evaluating a point loads none of them."""

import ast
import json
import os
import re
import subprocess
import sys
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
    # the package lists the lazily loaded names itself, so they must follow
    # the modules' own lists, in order
    assert darbouxkit.__all__ == [name for module in MODULES for name in module.__all__]


def test_every_listed_name_resolves_to_its_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(darbouxkit, name) is getattr(module, name), f"{module.__name__}.{name}"


def _fresh(code: str):
    """The JSON that ``code`` prints from a fresh interpreter on the library."""
    src = str(Path(darbouxkit.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout)


CLAIM_LAYERS = ["darbouxkit.geodesics", "darbouxkit.submanifolds", "darbouxkit.reporting", "numpy.random"]


def test_point_evaluation_loads_no_claim_layer():
    code = f"""if True:
        import json, sys
        import darbouxkit as dk
        def loaded():
            return [m for m in {CLAIM_LAYERS!r} if m in sys.modules]
        z = [0.3 + 0.2j, 0.7 - 0.1j]
        for model in (dk.CigarProductPotential(2), dk.SolitonPotential(dk.SolitonProfile(2))):
            dk.metric_at(model, z)
            dk.christoffel_at(model, z)
            dk.curvature_at(model, z)
            dk.DarbouxMap(model).pullback_residual(z)
            dk.DarbouxMap(model).pullback_residual(z, method="fd")
        points = loaded()
        dk.run_claim
        print(json.dumps([points, loaded()]))
    """
    # reading a claim-layer name loads the layers; only a claim run samples
    assert _fresh(code) == [[], CLAIM_LAYERS[:3]]


def test_reporting_import_leaves_numpy_random_unloaded():
    assert _fresh("import json, sys, darbouxkit.reporting; print(json.dumps('numpy.random' in sys.modules))") is False


def test_lazy_names_bind_nothing_in_the_package():
    # a name bound here on first use would stay bound to whatever its module
    # held then, say the benchmark tracer's wrapper
    code = """if True:
        import json, sys
        import darbouxkit as dk
        modules = set(sys.modules)
        misses = []
        for probe in ("__wrapped__", "no_such_name"):
            try:
                getattr(dk, probe)
            except AttributeError:
                misses.append(probe)
        loaded_by_misses = sorted(set(sys.modules) - modules)
        before = dict(vars(dk))
        for name in dk.__all__:
            getattr(dk, name)
        after = vars(dk)
        star = {}
        exec("from darbouxkit import *", star)
        print(json.dumps({
            "misses": misses,
            "loaded_by_misses": loaded_by_misses,
            "added": sorted(set(after) - set(before)),
            "rebound": sorted(k for k in before if after[k] is not before[k]),
            "star": sorted(set(star) - {"__builtins__"}) == sorted(dk.__all__),
            "count": len(dk.__all__),
            "dir": "__all__" in dir(dk) and set(dk.__all__) <= set(dir(dk)),
        }))
    """
    assert _fresh(code) == {
        "misses": ["__wrapped__", "no_such_name"],
        "loaded_by_misses": [],
        "added": ["geodesics", "reporting", "submanifolds"],
        "rebound": [],
        "star": True,
        "count": 57,
        "dir": True,
    }


def test_a_claim_layer_module_resolves_on_the_package():
    code = """if True:
        import json, darbouxkit
        print(json.dumps(darbouxkit.reporting.__name__))
    """
    assert _fresh(code) == "darbouxkit.reporting"


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
