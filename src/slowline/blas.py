"""One BLAS thread for the small-matrix work of the dynamics.

numpy and scipy wheels each bundle their own OpenBLAS.  Threaded OpenBLAS
splits a product among its threads and adds the parts in another order, so
a trace would depend on the thread count; at the 110 x 110 size of the
dynamics the threads only add cost.  ``single_thread`` pins every copy it
finds to one thread and restores their counts when the outermost use ends.
The copies are found on first use, through the thread-control symbols of the
scipy-openblas builds; where there are none it logs that once and changes
nothing.  First use imports scipy.linalg to reach scipy's copy, so both
copies are pinned even in a process that has not yet loaded scipy.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import importlib
import logging
import threading

logger = logging.getLogger(__name__)

# An extension module linked to each bundled OpenBLAS, and the suffix of
# that copy's symbols (numpy's copy uses 64-bit integers).
_LINKED = (("numpy._core._multiarray_umath", "64_"),
           ("scipy.linalg._fblas", ""))

_lock = threading.Lock()
_depth = 0          # single_thread bodies running, in any thread
_saved = []         # (set function, thread count) to restore


@functools.cache
def _controls() -> tuple:
    """(get, set) thread-count functions of every OpenBLAS copy found."""
    found = []
    for module, suffix in _LINKED:
        try:
            lib = ctypes.CDLL(importlib.import_module(module).__file__)
            get = getattr(lib, "scipy_openblas_get_num_threads" + suffix)
            put = getattr(lib, "scipy_openblas_set_num_threads" + suffix)
        except (ImportError, OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        found.append((get, put))
    if not found:
        logger.info("no OpenBLAS thread control found; "
                    "BLAS thread counts are left as they are")
    return tuple(found)


@contextlib.contextmanager
def single_thread():
    """Run the body (or, as a decorator, each call) with every OpenBLAS copy
    found at one thread."""
    global _depth
    with _lock:
        if _depth == 0:
            _saved[:] = [(put, get()) for get, put in _controls()]
            for put, _ in _saved:
                put(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                for put, n in _saved:
                    put(n)
