"""The thread count of scipy's OpenBLAS, the one BLAS on the operator path.

Every ``tfc`` command runs its BLAS/LAPACK calls on the calling thread
(:func:`one_thread`, entered by ``tfconc.cli.main`` and nowhere else).  At
the sizes the commands meet, a second BLAS thread did not pay on a 2-core
host, and its idle helper spun on the other core: one ``operators``
benchmark pass burned about twice its wall time in CPU.  One thread also
makes the artifacts independent of ``OPENBLAS_NUM_THREADS``.  Library
callers keep whatever count they set.  The count is process-wide, so the
pin is shared and locked: concurrent ``main`` calls in one process keep one
thread until the last of them returns.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import threading
from pathlib import Path
from typing import Callable, NamedTuple


class Handle(NamedTuple):
    """The getter and setter of one OpenBLAS library's thread count."""

    get: Callable[[], int]
    set: Callable[[int], None]


def _libraries():
    """(path, symbol prefix) of each OpenBLAS to try, in order: the wheel's
    ``scipy.libs/libscipy_openblas*.so``, then a system ``libopenblas``."""
    import scipy

    libs = Path(scipy.__file__).resolve().parent.parent / "scipy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so*")):
        yield str(path), "scipy_openblas_"
    import ctypes.util

    system = ctypes.util.find_library("openblas")
    if system:
        yield system, "openblas_"


@functools.cache
def _handle() -> Handle | None:
    """The thread-count entry points of the OpenBLAS scipy calls, looked up
    on first use; None when no library in :func:`_libraries` has them."""
    for path, prefix in _libraries():
        try:
            lib = ctypes.CDLL(path)
            get = getattr(lib, prefix + "get_num_threads")
            put = getattr(lib, prefix + "set_num_threads")
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return Handle(get, put)
    return None


class _Pin:
    """The one-thread setting, shared by nested and concurrent users: the
    count is process-wide, so the first entry saves it and sets 1, and only
    the last exit restores it."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.depth = 0
        self.saved = 1


_PIN = _Pin()


@contextlib.contextmanager
def one_thread():
    """Run the block with scipy's OpenBLAS on one thread, then restore the
    count found on entry, also after an exception.  Nested and concurrent
    uses keep one thread until the last of them exits.  Without an OpenBLAS
    thread-count entry point this does nothing."""
    handle = _handle()
    if handle is None:
        yield
        return
    with _PIN.lock:
        if _PIN.depth == 0:
            _PIN.saved = handle.get()
            handle.set(1)
        _PIN.depth += 1
    try:
        yield
    finally:
        with _PIN.lock:
            _PIN.depth -= 1
            if _PIN.depth == 0:
                handle.set(_PIN.saved)
