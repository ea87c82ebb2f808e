"""Host facts printed with every result: cores, CPU, cache, BLAS and threads."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy as np
import scipy

#: thread-count and config entry points across OpenBLAS builds
_OPENBLAS_THREADS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads")
_OPENBLAS_CONFIG = ("scipy_openblas_get_config64_", "openblas_get_config64_",
                    "openblas_get_config")


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _llc() -> str:
    """Size of the highest cache level of CPU 0, as the kernel reports it."""
    best = (0, "unknown")
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        best = max(best, (level, f"L{level} {size}"))
    return best[1]


def _openblas() -> tuple[str, int | None]:
    """(config string, thread count) of the OpenBLAS that numpy loaded."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        config, threads = "unknown", None
        for name in _OPENBLAS_CONFIG:
            if hasattr(lib, name):
                fn = getattr(lib, name)
                fn.restype = ctypes.c_char_p
                config = fn().decode()
                break
        for name in _OPENBLAS_THREADS:
            if hasattr(lib, name):
                fn = getattr(lib, name)
                fn.restype = ctypes.c_int
                threads = fn()
                break
        return config, threads
    return "not found", None


def facts(sweep_scales: int = 7) -> dict:
    """Facts that decide how the benchmark's numbers can be compared."""
    nproc = os.cpu_count() or 1
    blas_config, blas_threads = _openblas()
    tfc_threads = os.environ.get("TFC_THREADS")
    # scaling_experiment's documented default: one pool worker per core,
    # capped by TFC_THREADS and by the number of scales
    pool = min(int(tfc_threads) if (tfc_threads or "").isdigit() else nproc, sweep_scales)
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "llc": _llc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas_config,
        "openblas_threads": blas_threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "TFC_THREADS": tfc_threads,
        "sweep_threads": f"{pool} pool workers x {blas_threads} BLAS threads "
                         f"on {nproc} cores",
    }
