"""The benchmark's tracer wraps library names; a renamed or removed one must
fail here, not only in a traced benchmark run."""

import sys
from pathlib import Path

import darbouxkit  # noqa: F401  (loads every module the tracer patches)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _bindings() -> dict:
    """id() of every attribute of every darbouxkit module and class."""
    ids = {}
    for mod_name, module in list(sys.modules.items()):
        if module is None or not mod_name.startswith("darbouxkit"):
            continue
        for attr, value in vars(module).items():
            ids[(mod_name, attr)] = id(value)
            if isinstance(value, type) and value.__module__.startswith("darbouxkit"):
                for cattr, cvalue in vars(value).items():
                    ids[(mod_name, attr, cattr)] = id(cvalue)
    return ids


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from tracer import Tracer

    before = _bindings()
    tracer = Tracer()
    try:
        layers.install(tracer)
        patched = {key for key, value in _bindings().items() if before.get(key) != value}
    finally:
        tracer.restore()
    assert ("darbouxkit.curvature", "metric_z_derivative") in patched
    assert ("darbouxkit.potentials", "SolitonPotential", "radial_deriv") in patched
    # the F_n evaluations per solve and the solve branches are counted here, so
    # the Newton loop must keep calling these methods, not an inlined kernel
    assert ("darbouxkit.soliton", "FIntegral", "eval") in patched
    assert ("darbouxkit.soliton", "FIntegral", "log_eval") in patched
    assert ("darbouxkit.soliton", "SolitonProfile", "u_prime") in patched
    assert _bindings() == before
