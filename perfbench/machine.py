"""Facts about the machine and the software a benchmark result was taken on."""

from __future__ import annotations

import os
import platform
import sys
from importlib import metadata
from pathlib import Path


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict[str, str]:
    """Cache sizes per level as the kernel lists them for cpu0, e.g. {"L2": "2048K"}."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                sizes[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return sizes


def _git_commit(root: Path) -> str | None:
    """HEAD of ``root`` read from .git without running git; None outside a checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas() -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return {k: deps[k].get("name") for k in ("blas", "lapack")} | {
            "blas_version": deps["blas"].get("version")
        }
    except (TypeError, KeyError):
        return {}


def facts(root: Path) -> dict:
    versions = {"python": sys.version.split()[0]}
    for dist in ("numpy", "scipy", "click"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "versions": versions,
        "blas": _blas(),
        "thread_env": {
            var: os.environ.get(var)
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "git_commit": _git_commit(root),
    }
