"""Run record: the machine and software a benchmark run measured."""

from __future__ import annotations

import os
import platform
from pathlib import Path

import numpy as np
import scipy

import hostspeed


def blas_info() -> dict:
    """The BLAS that numpy calls: vendor, version, the program's and the kernel's threads."""
    info: dict = {"vendor": "unknown", "version": "unknown",
                  "threads": hostspeed.blas_threads(), "kernel_threads": hostspeed.KERNEL_THREADS}
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        info["vendor"], info["version"] = blas.get("name"), blas.get("version")
    except (AttributeError, KeyError):
        pass
    return info


def commit(root: Path) -> str:
    """Commit of the checkout, read from .git when present (not a git call)."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
    except OSError:
        return "unknown"
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.exists():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.exists():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in (root / "src").rglob("*.py"))


def run_record(root: Path) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas_info(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": commit(root),
        "src_lines": src_lines(root),
    }
