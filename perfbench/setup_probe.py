"""Time one fresh set-up of a workload: import, model construction, lazy caches.

    python3 perfbench/setup_probe.py <workload> <seed>

Prints the seconds from interpreter start-up being done to the workload being
ready for its first timed operation.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS  # noqa: E402

workload = WORKLOADS[sys.argv[1]](int(sys.argv[2]))
workload.warm()
print(repr(time.perf_counter() - START))
