"""The thread counts of the OpenBLAS libraries this process has loaded.

numpy maps one OpenBLAS, and scipy maps another once it is imported; each
runs its products on a pool of threads of its own size.  The functions here
find the mapped libraries in /proc/self/maps and read or set their thread
counts through ctypes, loading each entry point once.  Without /proc, or
without an OpenBLAS, there is nothing to read or set.  A search worker pins
the libraries to its share of the cores (_pin_blas_threads), and a score to
one thread while it runs (one_blas_thread): a product's rounding depends on
how many threads share it.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading


def _openblas_libraries() -> list:
    """Paths of the mapped shared libraries whose path names OpenBLAS."""
    try:
        with open("/proc/self/maps") as fh:
            lines = [line for line in fh if "openblas" in line]
    except OSError:     # no /proc: nothing to pin
        return []
    fields = [line.split(None, 5) for line in lines]
    return sorted({f[5].strip() for f in fields if len(f) == 6 and "openblas" in f[5]})


@functools.cache
def _openblas_function(path, verb):
    """The library's {verb}_num_threads entry point: numpy's and scipy's
    prefixed builds first, then a plain OpenBLAS; None when it has none."""
    try:
        lib = ctypes.CDLL(path)
    except OSError:     # mapped, but not a loadable library (e.g. deleted)
        return None
    for name in (f"scipy_openblas_{verb}_num_threads64_", f"scipy_openblas_{verb}_num_threads",
                 f"openblas_{verb}_num_threads64_", f"openblas_{verb}_num_threads"):
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.argtypes = [ctypes.c_int] if verb == "set" else []
            fn.restype = None if verb == "set" else ctypes.c_int
            return fn
    return None


def _openblas_controls() -> list:
    """(get, set) of each loaded OpenBLAS that has both, in library order."""
    pairs = [(_openblas_function(path, "get"), _openblas_function(path, "set"))
             for path in _openblas_libraries()]
    return [pair for pair in pairs if None not in pair]


def _blas_threads() -> list:
    """The thread count each loaded OpenBLAS reports, in library order."""
    return [get() for get, _ in _openblas_controls()]


def _pin_blas_threads(n: int) -> None:
    """Set every loaded OpenBLAS to n threads (a search worker's initializer).

    An OpenBLAS that the worker loads later, as an objective that imports
    scipy does, reads OPENBLAS_NUM_THREADS when it loads, so that is set too.
    """
    os.environ["OPENBLAS_NUM_THREADS"] = str(n)
    for _, set_threads in _openblas_controls():
        set_threads(n)


def _cores() -> int:
    """The number of cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_pin_lock = threading.Lock()
_pin = {"depth": 0, "saved": []}    # open one_blas_thread blocks; (setter, count) to restore


@contextlib.contextmanager
def one_blas_thread():
    """Every loaded OpenBLAS at one thread inside the block, at its own
    count again after it.

    Nested and concurrent blocks share one pin: the first to enter saves
    the counts and the last to leave restores them.
    """
    with _pin_lock:
        if _pin["depth"] == 0:
            _pin["saved"] = [(set_threads, get()) for get, set_threads in _openblas_controls()]
            for set_threads, _ in _pin["saved"]:
                set_threads(1)
        _pin["depth"] += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin["depth"] -= 1
            if _pin["depth"] == 0:
                for set_threads, count in _pin["saved"]:
                    set_threads(count)
