#!/usr/bin/env python3
"""Contrast a confined geodesic with one that leaves its submanifold.

Two experiments in one run:

1. Launch a geodesic tangent to a phase-block linear subspace (first entry of
   the standard catalog) and track its distance to that subspace along the
   flow.  The distance stays at solver-noise level: the subspace is totally
   geodesic.
2. Launch a geodesic tangent to the graph curve (z, z^2) in the two-cigar
   model and track its distance to the curve.  The distance grows to order
   one: the graph is not totally geodesic.

Both geodesics are launched at unit metric speed, so tau is arclength.  Each
experiment writes a CSV of (tau, distance) rows and prints the maxima.

Usage:
    python3 scripts/geodesy_demo.py --kind cigar --n 2 --length 10
"""

from __future__ import annotations

import argparse
import csv

import numpy as np

from darbouxkit import (
    CigarProductPotential,
    curve_distance,
    geodesic_integrate,
    graph_counterexample_pair,
    model_from_descriptor,
    resolve_out,
    standard_catalog,
)
from darbouxkit.potentials import metric_energy


def write_csv(path, times, distances) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tau", "distance"])
        for tau, dist in zip(times, distances):
            writer.writerow([f"{tau:.6f}", f"{dist:.6e}"])


def unit_speed(model, z, v) -> np.ndarray:
    """The velocity v at z rescaled to metric energy g(v, vbar) = 1."""
    return v / np.sqrt(metric_energy(model, z, v))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kind", choices=["cigar", "soliton"], default="cigar")
    parser.add_argument("--n", type=int, default=2)
    parser.add_argument("--length", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=20260814)
    parser.add_argument("--out", default=None, help="output directory")
    args = parser.parse_args()

    model = model_from_descriptor({"kind": args.kind, "n": args.n})
    confined_path = resolve_out("geodesy_confined.csv", args.out)
    departure_path = resolve_out("geodesy_departure.csv", args.out)

    rng = np.random.default_rng(args.seed)
    emb = standard_catalog(args.n)[-1]
    p = 0.8 * (rng.standard_normal(emb.k) + 1j * rng.standard_normal(emb.k))
    q = rng.standard_normal(emb.k) + 1j * rng.standard_normal(emb.k)
    z0 = emb.embed(p)
    traj = geodesic_integrate(model, z0, unit_speed(model, z0, emb.matrix @ q), args.length)
    every = max(1, traj.steps // 64)
    confined_t = traj.times[::every]
    confined_d = emb.distance_to_image(traj.converged_points()[::every])
    write_csv(confined_path, confined_t, confined_d)
    print(f"{model.name}: subspace sigma={emb.sigma}")
    print(f"  confined geodesic, length {args.length}: "
          f"max distance to subspace = {np.max(confined_d):.3e}")

    two_cigar = CigarProductPotential(2)
    pair = graph_counterexample_pair()
    w0 = 0.7
    z0, v0 = pair.jet(w0)[:2]
    traj = geodesic_integrate(two_cigar, z0, unit_speed(two_cigar, z0, v0), args.length)
    every = max(1, traj.steps // 64)
    graph_t = traj.times[::every]
    graph_d = curve_distance(pair, traj.converged_points()[::every])
    write_csv(departure_path, graph_t, graph_d)
    print(f"{two_cigar.name}: graph curve launched at w0={w0}")
    print(f"  departing geodesic, length {args.length}: "
          f"max distance to curve = {np.max(graph_d):.3e}")
    print(f"wrote {confined_path}")
    print(f"wrote {departure_path}")


if __name__ == "__main__":
    main()
