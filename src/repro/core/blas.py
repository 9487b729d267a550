"""One BLAS thread for an index search.

A search multiplies small matrices: a routed cluster's kernel, a bank's
plane.  OpenBLAS hands each product to a helper thread that then
spin-waits for the next one, so on a small box most of a query's CPU is
that spin, for little wall-clock gain.  Every index search — flat
(:meth:`repro.index.backends.FerexBackend.search`), routed and tiered
— and every served read run under :func:`one_thread`, which caps
OpenBLAS at one thread for the duration of a ``with`` block (or of a
call it decorates), through ``openblas_set_num_threads_local``
(OpenBLAS >= 0.3.27; numpy's bundled build exports it), found among
the process's loaded libraries with ``ctypes``.  Where no loaded
library exports it, the cap does nothing.

OpenBLAS's pthreads build — numpy's wheels — keeps one thread count
per process despite the function's name: while any caller holds the
cap, every product in the process runs on one thread.  The cap is
therefore counted across threads: the first holder saves the count and
sets one, the last one out restores it, so nested and concurrent use
always leave the caller's setting behind.  Work outside a search —
routing's centroid training, a caller's own products — keeps OpenBLAS's
own threading.

Kernel arithmetic is exact (:mod:`repro.core.kernel`), so scores do not
depend on the thread count.
"""

from __future__ import annotations

import ctypes
import threading
from contextlib import contextmanager
from functools import lru_cache
from typing import Callable, Iterator, Optional

SYMBOL = "openblas_set_num_threads_local"

_lock = threading.Lock()
_holders = 0
_saved = 0


@lru_cache(maxsize=None)
def _resolve() -> Optional[Callable[[int], int]]:
    """The first loaded library's :data:`SYMBOL` (takes the new thread
    count, returns the previous one), or ``None``.  Loaded libraries
    are read from ``/proc/self/maps``; elsewhere nothing resolves."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {
                line.split(maxsplit=5)[5].strip()
                for line in maps
                if "blas" in line.lower()
            }
        for path in sorted(paths):
            setter = getattr(ctypes.CDLL(path), SYMBOL, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
                return setter
    except OSError:
        pass
    return None


@contextmanager
def one_thread() -> Iterator[None]:
    """Run the block with OpenBLAS capped at one thread, restoring the
    previous count when the last concurrent holder leaves — also when
    the block raises."""
    global _holders, _saved
    setter = _resolve()
    if setter is None:
        yield
        return
    with _lock:
        if not _holders:
            _saved = setter(1)
        _holders += 1
    try:
        yield
    finally:
        with _lock:
            _holders -= 1
            if not _holders:
                setter(_saved)
