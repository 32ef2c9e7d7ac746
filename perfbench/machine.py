"""Facts about the machine a result was measured on (read-only)."""

from __future__ import annotations

import ctypes
import os
import platform
import re
from pathlib import Path

import numpy as np

_BLAS_THREAD_GETTERS = ("scipy_openblas_get_num_threads64_",
                        "openblas_get_num_threads64_",
                        "openblas_get_num_threads",
                        "MKL_Get_Max_Threads")


def _blas_threads() -> int | None:
    "Thread count reported by the BLAS library loaded into this process."
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines()
            if re.search(r"(openblas|mkl_rt)[^/]*\.so", line)}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in _BLAS_THREAD_GETTERS:
            getter = getattr(handle, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def _size_bytes(text: str) -> int:
    match = re.match(r"\s*([\d.]+)\s*([KMG]?)", text)
    if not match:
        return 0
    scale = {"": 1, "K": 1 << 10, "M": 1 << 20, "G": 1 << 30}[match.group(2)]
    return int(float(match.group(1)) * scale)


def _cache_sizes() -> dict[str, int]:
    "L2 and L3 size of one cache instance, from sysfs."
    sizes: dict[str, int] = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = _size_bytes((index / "size").read_text())
        except OSError:
            continue
        if level in ("2", "3") and kind in ("Unified", "Data"):
            sizes[f"l{level}_bytes"] = size
    return sizes


def machine_facts() -> dict:
    nproc = os.cpu_count() or 1
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = _blas_threads()
    facts = {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": min(threads, nproc) if threads else None,
    }
    facts.update(_cache_sizes())
    return facts
