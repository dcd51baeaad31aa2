#!/usr/bin/env python3
"""Print the suite's body digest and verdict at each seed.

The digest is the sha256 of the concatenated ``VerificationReport.body()``
strings of one ``run_suite`` pass, the hash perfbench's ``suite_digest``
takes; a refactor that keeps every body byte-identical keeps every digest.
One line per seed: the seed, the digest's first 16 hex digits, and PASS if
every claim passed, else FAIL.  The exit status is 1 if any seed fails, or,
under ``--against``, if any leaf moved.

The bodies are byte-identical on one host only: numpy's CPU dispatch of
``power`` and ``log1p`` (the cigar series) and OpenBLAS's kernel choice move
their last bits.  ``--save DIR`` also writes each body to
DIR/<seed>/<claim>.json, and what decides that dispatch to DIR/host.json:
numpy's version, its ``power`` and ``log1p`` float64 loops where numpy reports
them, and the NPY_DISABLE_CPU_FEATURES and OPENBLAS_CORETYPE variables.
``--against DIR`` compares each body with the one saved there and prints,
instead of the digest lines, one line per JSON leaf that moved: the seed,
the claim, the leaf's path, the saved and the new value (<absent> where the leaf is
on one side only; an empty object or list is a leaf), and the relative
change |new - old| / |old| of a number ("-" otherwise).  Nothing is printed
when every body matches.  If DIR's host.json differs from this host's, one
line on stderr says so, so that a dispatch change is not read as a code
change.

Usage:
    python3 scripts/suite_digests.py
    python3 scripts/suite_digests.py --seeds 1 3
    python3 scripts/suite_digests.py --save /tmp/before
    python3 scripts/suite_digests.py --against /tmp/before
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from darbouxkit import RunConfig, run_suite

_DISPATCH_VARIABLES = ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE")


def _host() -> dict:
    """What besides the sources decides the bodies' last bits on this host."""
    host = {"numpy": np.__version__}
    try:
        from numpy.lib.introspect import opt_func_info  # numpy >= 2.0
    except ImportError:
        pass
    else:
        host["loops"] = opt_func_info(func_name="power|log1p", signature="float64.*")
    host.update((name, os.environ.get(name)) for name in _DISPATCH_VARIABLES)
    return host


def _leaves(value, path: str = ""):
    """(path, leaf) of every leaf of a parsed JSON body, paths like
    details.points[2]; an empty object or list is a leaf."""
    if isinstance(value, dict) and value:
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list) and value:
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def _moved(old_body: str, new_body: str):
    """(path, old, new, relative change) of every leaf that differs, the
    values as their repr; a leaf present on one side only reads <absent> on
    the other."""
    old, new = dict(_leaves(json.loads(old_body))), dict(_leaves(json.loads(new_body)))
    for path in sorted(old.keys() | new.keys()):
        if path in old and path in new:
            a, b = old[path], new[path]
            if json.dumps(a) == json.dumps(b):  # equal values, and NaN equal to NaN
                continue
            numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
            rel = f"{abs(b - a) / abs(a):.3g}" if numbers and a != 0 else "-"
            yield path, repr(a), repr(b), rel
        else:
            yield path, *(repr(side[path]) if path in side else "<absent>" for side in (old, new)), "-"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[20260814, 1, 3, 7])
    parser.add_argument("--save", type=Path, metavar="DIR", help="write each seed's bodies under DIR")
    parser.add_argument("--against", type=Path, metavar="DIR", help="print the leaves that moved from DIR's bodies")
    args = parser.parse_args()

    host = _host()
    if args.save is not None:
        args.save.mkdir(parents=True, exist_ok=True)
        (args.save / "host.json").write_text(json.dumps(host, indent=1, sort_keys=True))
    if args.against is not None:
        saved_host = args.against / "host.json"
        saved = json.loads(saved_host.read_text()) if saved_host.exists() else {}
        moved = sorted(k for k in saved.keys() | host.keys() if saved.get(k) != host.get(k))
        if moved:
            print(f"{saved_host} differs from this host in {', '.join(moved)}: a moved leaf may come"
                  " from numpy's or OpenBLAS's dispatch, not from the code", file=sys.stderr)
    failed = False
    for seed in args.seeds:
        reports = run_suite(RunConfig(seed=seed))
        passed = all(r.passed for r in reports)
        failed |= not passed
        if args.save is not None:
            (args.save / str(seed)).mkdir(parents=True, exist_ok=True)
            for r in reports:
                (args.save / str(seed) / f"{r.claim}.json").write_text(r.body())
        if args.against is not None:
            for r in reports:
                saved = (args.against / str(seed) / f"{r.claim}.json").read_text()
                for path, old, new, rel in _moved(saved, r.body()):
                    failed = True
                    print(f"{seed} {r.claim} {path} {old} {new} {rel}")
        else:
            digest = hashlib.sha256("".join(r.body() for r in reports).encode()).hexdigest()
            print(f"{seed} {digest[:16]} {'PASS' if passed else 'FAIL'}")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
