#!/usr/bin/env python3
"""Print the suite's body digest and verdict at each seed.

The digest is the sha256 of the concatenated ``VerificationReport.body()``
strings of one ``run_suite`` pass, the hash perfbench's ``suite_digest``
takes; a refactor that keeps every body byte-identical keeps every digest.
One line per seed: the seed, the digest's first 16 hex digits, and PASS if
every claim passed, else FAIL.  The exit status is 1 if any seed fails.

Usage:
    python3 scripts/suite_digests.py
    python3 scripts/suite_digests.py --seeds 1 3
"""

from __future__ import annotations

import argparse
import hashlib
import sys

from darbouxkit import RunConfig, run_suite


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[20260814, 1, 3, 7])
    args = parser.parse_args()

    failed = False
    for seed in args.seeds:
        reports = run_suite(RunConfig(seed=seed))
        digest = hashlib.sha256("".join(r.body() for r in reports).encode()).hexdigest()
        passed = all(r.passed for r in reports)
        failed |= not passed
        print(f"{seed} {digest[:16]} {'PASS' if passed else 'FAIL'}")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
