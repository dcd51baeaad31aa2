"""Tiny-size self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at a tiny size, untraced and traced, in this process and
checks that:

* each run is correct, and emits exactly the metrics ``BENCHMARK.json`` names
  (end-to-end untraced, per-layer traced), each with its unit;
* the same seed reproduces the suite digest, and a different seed changes the
  generated points;
* the library is unpatched, and the reference-kernel timer disarmed, after
  every run.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path

import run

TINY_SUITE = {"points": 3, "rays": 2, "geodesic_length": 1.0}


def library_bindings() -> dict:
    """id() of every attribute of every darbouxkit module and class."""
    ids = {}
    for mod_name, module in sorted(sys.modules.items()):
        if module is None or not mod_name.startswith("darbouxkit"):
            continue
        for attr, value in vars(module).items():
            ids[(mod_name, attr)] = id(value)
            if isinstance(value, type) and value.__module__.startswith("darbouxkit"):
                for cattr, cvalue in vars(value).items():
                    ids[(mod_name, attr, cattr)] = id(cvalue)
    return ids


def main() -> int:
    run.pin_threads()
    sys.path.insert(0, str(run.SRC))
    from workloads import CigarFields, SolitonFields, SuiteWorkload

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    if {w["name"] for w in spec["workloads"]} != {"suite", "cigar-fields", "soliton-fields"}:
        return fail(["BENCHMARK.json workloads differ from the benchmark's own"])
    tiny = {
        "suite": lambda seed: SuiteWorkload(seed, TINY_SUITE),
        "cigar-fields": lambda seed: CigarFields(seed, points_per_model=8),
        "soliton-fields": lambda seed: SolitonFields(seed, points_per_model=8),
    }
    failures = []
    before = None
    digests = []
    for name, make in tiny.items():
        for trace in (0, 1):
            result, record = run.run_workload(make(1), 1e-3, bool(trace), setup_s=1.0)
            if before is None:
                # the first run has imported every module the tracer patches
                before = library_bindings()
            label = f"{name} trace={trace}"
            if not result["correct"] or result["failed"]:
                failures.append(f"{label}: not correct: {record['errors'][:5]}")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != expected[trace]:
                missing = sorted(set(expected[trace]) - set(units))
                extra = sorted(set(units) - set(expected[trace]))
                wrong = sorted(k for k in units if k in expected[trace] and units[k] != expected[trace][k])
                failures.append(f"{label}: metrics differ: missing {missing} extra {extra} unit {wrong}")
            if library_bindings() != before:
                failures.append(f"{label}: library still patched after the run")
            if signal.getitimer(signal.ITIMER_REAL) != (0.0, 0.0):
                failures.append(f"{label}: reference-kernel timer still armed after the run")
            digests += record["suite_digests"]
    if len(digests) != 2 or digests[0] != digests[1]:
        failures.append(f"same seed gave different suite digests: {digests}")

    for make in (CigarFields, SolitonFields):
        same = [make(5).inputs(0), make(5).inputs(0)]
        other = make(6).inputs(0)
        if not all((a == b).all() for a, b in zip(same[0][0], same[1][0])):
            failures.append(f"{make.name}: same seed gave different points")
        if any((a == b).any() for a, b in zip(same[0][0], other[0])):
            failures.append(f"{make.name}: different seeds share points")
    return fail(failures)


def fail(failures: list[str]) -> int:
    for line in failures:
        print(f"FAIL {line}")
    print("selftest " + ("failed" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
