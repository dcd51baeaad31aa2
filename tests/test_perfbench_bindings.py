"""The benchmark's tracer wraps library names; a renamed or removed one must
fail here, not only in a traced benchmark run."""

import sys
from pathlib import Path

import pytest

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


@pytest.fixture
def perfbench_path(monkeypatch):
    """The benchmark's modules importable, with no bytecode written beside them."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)


def test_tracer_installs_and_restores(perfbench_path):
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


def _assert_predicted_layers_fire(wl) -> None:
    """One traced pass of ``wl`` passes, and every tracer-derived metric the
    benchmark predicts nonzero on its workload is nonzero."""
    import layers
    from tracer import Tracer

    tracer = Tracer()
    try:
        layers.install(tracer)
        result = wl.run_pass(0, on_op=tracer.set_op)
    finally:
        tracer.restore()
    assert [op.error for op in result.ops if not op.ok] == []
    metrics = layers.traced_metrics(tracer, [op.op_id for op in result.ops if op.kind == "point"])
    predicted = [m.name for m in layers.LAYER_METRICS if m.nonzero_on and wl.name in m.nonzero_on]
    traced = [name for name in predicted if name in metrics]
    assert traced and [name for name in traced if not metrics[name] > 0] == []


@pytest.mark.parametrize("workload", ["cigar-fields", "soliton-fields"])
def test_predicted_layers_fire_on_a_tiny_fields_pass(workload, perfbench_path):
    # a fusion that drops a call the benchmark predicts (say the FD pullback's
    # metric_at) must fail here, not only in a traced benchmark run
    from workloads import NEAR_EVERY, WORKLOADS

    # NEAR_EVERY points per model put one of them near the origin, where the
    # radial series answers, as in every full pass
    _assert_predicted_layers_fire(WORKLOADS[workload](1, points_per_model=NEAR_EVERY))


def test_predicted_layers_fire_on_a_suite_pass(perfbench_path):
    # the geodesic layers (the integrator's run counter, the curve residual)
    # fire only on suite, so a restructured integrator must keep them firing
    from workloads import WORKLOADS

    _assert_predicted_layers_fire(WORKLOADS["suite"](1))
