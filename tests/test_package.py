"""The package namespace re-exports exactly the library modules' public names,
so a name dropped from a module cannot linger in ``darbouxkit.__all__``."""

import darbouxkit
from darbouxkit import curvature, darboux, geodesics, potentials, reporting, soliton, submanifolds

MODULES = (soliton, potentials, darboux, curvature, geodesics, submanifolds, reporting)


def test_all_is_the_union_of_the_module_lists():
    lists = [darbouxkit.__all__, *(module.__all__ for module in MODULES)]
    assert all(len(names) == len(set(names)) for names in lists)
    assert set(darbouxkit.__all__) == set().union(*(module.__all__ for module in MODULES))


def test_every_listed_name_resolves_to_its_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(darbouxkit, name) is getattr(module, name), f"{module.__name__}.{name}"
