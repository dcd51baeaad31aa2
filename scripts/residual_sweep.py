#!/usr/bin/env python3
"""Sweep sample radius and record the worst pullback residual per model.

For each shipped model the script samples points on spheres of growing radius,
evaluates the symplectic pullback residual with both the analytic Jacobian and
the finite-difference cross-check, and writes one CSV row per (model, radius).

Usage:
    python3 scripts/residual_sweep.py --points 40 --seed 7
    DARBOUXKIT_OUTDIR=/tmp/out python3 scripts/residual_sweep.py
"""

from __future__ import annotations

import argparse
import csv

import numpy as np

from darbouxkit import DarbouxMap, resolve_out, shipped_models


def sphere_points(n: int, radius: float, count: int, rng: np.random.Generator):
    raw = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    return radius * raw / norms


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--points", type=int, default=40, help="points per radius")
    parser.add_argument("--seed", type=int, default=20260814)
    parser.add_argument("--radii", type=float, nargs="+", default=None,
                        help="explicit radius list (default: logspace 0.1 .. 30)")
    parser.add_argument("--out", default=None, help="output directory")
    args = parser.parse_args()

    radii = args.radii or list(np.logspace(-1.0, np.log10(30.0), 8))
    path = resolve_out("residual_sweep.csv", args.out)

    rng = np.random.default_rng(args.seed)
    rows = []
    for model in shipped_models():
        dm = DarbouxMap(model)
        for radius in radii:
            pts = sphere_points(model.n, radius, args.points, rng)
            # one batched call per method; np.max propagates a NaN from any point
            analytic = float(np.max(dm.pullback_residual(pts)))
            fd = float(np.max(dm.pullback_residual(pts, method="fd")))
            rows.append((model.name, model.n, radius, analytic, fd))
            print(f"{model.name:>12s}  r={radius:8.3f}  "
                  f"analytic={analytic:9.2e}  fd={fd:9.2e}")

    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "n", "radius", "max_residual_analytic",
                         "max_residual_fd"])
        for row in rows:
            writer.writerow([row[0], row[1], f"{row[2]:.6g}",
                             f"{row[3]:.6e}", f"{row[4]:.6e}"])
    worst = float(np.max([r[3] for r in rows]))
    print(f"\nworst analytic residual over all models/radii: {worst:.3e}")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
