"""darbouxkit benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 15 --trace 0

Run from the repository root.  With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics (``setup_s``,
``pass_cost``, ``peak_rss_mb``); with ``--trace 1`` the workload's passes are
run untraced and then replayed under the layer tracer, and the JSON carries
the per-layer metrics listed in ``layers.LAYER_METRICS``.  A fuller record (machine facts,
suite digests, per-op failures) and the traced spans are written under
``.perfbench_out/``.  BLAS/OpenMP threads are pinned to 1: every matrix is at
most 8x8 and each workload runs in a single thread.  Modules that import
numpy are imported only after the threads are pinned.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

E2E_UNITS = {"setup_s": "s", "pass_cost": "ref", "peak_rss_mb": "MB"}


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["suite", "cigar-fields", "soliton-fields"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def probe_setup(workload: str, seed: int) -> float:
    """Median set-up time over fresh interpreters (import, models, caches)."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


@dataclass
class Measurement:
    passes: list
    work_s: list[float]  # each pass's wall time less the kernel samples inside it
    cost_ref: list[float]  # each pass's work in reference-kernel units
    ref_s: float  # median reference-kernel time over the measurement


def measure(wl, seconds: float) -> Measurement:
    """Run passes until ``seconds`` have elapsed, at least one, with the
    reference kernel sampled throughout."""
    from yardstick import Yardstick

    passes, elapsed = [], 0.0
    with Yardstick() as ys:
        while not passes or elapsed < seconds:
            passes.append(wl.run_pass(len(passes)))
            elapsed += passes[-1].seconds
    work, cost = zip(*(ys.cost(p.start, p.seconds) for p in passes))
    return Measurement(passes, list(work), list(cost), statistics.median(ys.seconds))


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def quantile_ms(values, q: int) -> float:
    """The q-th percentile of ``values`` seconds, in ms; 0 when there are none."""
    if len(values) < 2:
        return 1e3 * values[0] if values else 0.0
    return 1e3 * statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def untraced_layer_metrics(passes) -> dict[str, float]:
    """Per-layer metrics taken from the untraced passes."""
    from layers import CLAIM_IDS

    ops = [op for p in passes for op in p.ops]
    out: dict[str, float] = {}
    for claim in CLAIM_IDS:
        times = [op.seconds for op in ops if op.kind == "claim" and op.label == claim]
        out[f"reporting.run_claim.{claim}.s"] = statistics.median(times) if times else 0.0
    points = [op.seconds for op in ops if op.kind == "point"]
    jets = [op.seconds for op in ops if op.kind == "jet"]
    out["fields.points_per_s"] = len(points) / sum(points) if points else 0.0
    out["fields.jets_per_s"] = len(jets) / sum(jets) if jets else 0.0
    for q in (50, 90, 99):
        out[f"fields.point_p{q}_ms"] = quantile_ms(points, q)
    return out


def source_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "darbouxkit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def check_suite_digests(key: str, passes) -> list[str]:
    """Suite bodies must hash the same in every run of one source tree and config.

    Digests are kept per (source hash, ``key``) in the output directory, so a
    later run of the same sources and config compares against the first one.
    """
    digests = sorted({p.digest for p in passes})
    if len(digests) > 1:
        return [f"suite digests differ within the run: {digests}"]
    store_path = OUT / "suite-digests.json"
    store = json.loads(store_path.read_text()) if store_path.is_file() else {}
    first = store.setdefault(f"{source_hash()}/{key}", digests[0])
    store_path.write_text(json.dumps(store, indent=1, sort_keys=True) + "\n")
    if first != digests[0]:
        return [f"suite digest {digests[0]} differs from an earlier run of these sources: {first}"]
    return []


def run_workload(wl, seconds: float, trace: bool, setup_s: float | None = None) -> tuple[dict, dict]:
    """Measure ``wl`` (untraced; then traced replay when ``trace``), check it.

    Returns the contract's result object and the fuller record, which is also
    written to the output directory.
    """
    import machine

    OUT.mkdir(exist_ok=True)
    wl.warm()
    measured = measure(wl, seconds)
    untraced = measured.passes
    traced, errors = [], []
    if trace:
        import layers
        from tracer import Tracer

        tracer = Tracer()
        try:
            layers.install(tracer)
            traced = [wl.run_pass(i, on_op=tracer.set_op) for i in range(len(untraced))]
        finally:
            tracer.restore()
        point_ops = [op.op_id for p in traced for op in p.ops if op.kind == "point"]
        layer = layers.traced_metrics(tracer, point_ops)
        layer.update(untraced_layer_metrics(untraced))
        layer["pass.wall_s"] = statistics.median(measured.work_s)
        layer["machine.ref_ms"] = 1e3 * measured.ref_s
        layer["trace.overhead_s"] = sum(p.seconds for p in traced) - sum(measured.work_s)
        errors += layers.coverage_errors(wl.name, layer)
        tracer.save(OUT / f"{wl.name}-seed{wl.seed}.spans.npz")
        metrics = {m.name: {"value": layer[m.name], "unit": m.unit} for m in layers.LAYER_METRICS}
    else:
        e2e = {
            "setup_s": setup_s,
            "pass_cost": statistics.fmean(measured.cost_ref),
            "peak_rss_mb": peak_rss_mb(),
        }
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in E2E_UNITS.items()}

    if wl.name == "suite":
        errors += check_suite_digests(wl.digest_key, untraced + traced)
    ops = [op for p in untraced + traced for op in p.ops]
    failed = [op for op in ops if not op.ok]
    errors += [f"op {op.op_id} {op.kind} {op.label}: {op.error}" for op in failed[:20]]
    record = {
        "workload": wl.name,
        "seed": wl.seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine.facts(ROOT),
        "passes": len(untraced),
        "pass_seconds": [p.seconds for p in untraced],
        "pass_work_seconds": measured.work_s,
        "pass_cost_ref": measured.cost_ref,
        "reference_kernel_ms": 1e3 * measured.ref_s,
        "traced_pass_seconds": [p.seconds for p in traced],
        "suite_digests": sorted({p.digest for p in untraced + traced if p.digest}),
        "errors": errors,
        "metrics": metrics,
    }
    (OUT / f"{wl.name}-seed{wl.seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    result = {
        "correct": not errors,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }
    return result, record


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "darbouxkit" / "__init__.py").is_file():
        print(f"error: no darbouxkit sources under {SRC}", file=sys.stderr)
        return 2
    pin_threads()
    sys.path.insert(0, str(SRC))
    setup_s = probe_setup(args.workload, args.seed) if args.trace == 0 else None

    from workloads import WORKLOADS

    result, record = run_workload(WORKLOADS[args.workload](args.seed), args.seconds, bool(args.trace), setup_s)
    for line in record["errors"]:
        print(f"error: {line}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{name:<58} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
