"""Pin every loaded OpenBLAS to one thread while engine threads score or train.

The threaded scoring path runs one micro-batch per thread.  Left alone,
OpenBLAS would also split each GEMM over its own threads, and the two kinds
of thread fight over the same cores: two scoring threads were then no
faster than one.  :func:`single_threaded` finds each OpenBLAS mapped into
the process (numpy and scipy each ship their own), sets it to one thread
for the scope and restores the previous counts when the last of any nested
or concurrent scopes exits.

A BERT label update runs inside the scope from start to end, for a second
reason besides contention: its weight-gradient GEMMs reduce over about a
thousand rows, and OpenBLAS on several threads splits that reduction and
rounds differently.  Pinned, an update's bits depend neither on the CPU
count nor on ``OPENBLAS_NUM_THREADS``.
"""

from __future__ import annotations

import ctypes
import threading
from contextlib import contextmanager
from functools import lru_cache
from typing import Callable, Iterator

from .. import obs

#: (getter, setter) symbol names, tried in order on each mapped library:
#: the scipy-openblas wheels prefix and (for ILP64) suffix their symbols.
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)

Control = tuple[Callable[[], int], Callable[[int], None]]

# Module-level on purpose: a library's thread count is process-wide state,
# so the count of open scopes that hold it at one thread must be too.
_lock = threading.Lock()
_depth = 0
#: (setter, thread count to restore) of each library the open scope pinned.
_saved: list[tuple[Callable[[int], None], int]] = []


def _mapped_openblas() -> list[str]:
    """Paths of the OpenBLAS libraries mapped into this process."""
    try:
        with open("/proc/self/maps") as maps:
            fields = [line.split(maxsplit=5) for line in maps]
    except OSError:
        return []
    paths = {f[5].strip() for f in fields if len(f) == 6 and "openblas" in f[5].lower()}
    return sorted(path for path in paths if path.startswith("/"))


@lru_cache(maxsize=None)
def _control(path: str) -> Control | None:
    try:
        library = ctypes.CDLL(path)  # already mapped: no second copy loads
    except OSError:
        return None
    for get_name, set_name in _SYMBOLS:
        getter = getattr(library, get_name, None)
        setter = getattr(library, set_name, None)
        if getter is not None and setter is not None:
            getter.restype, getter.argtypes = ctypes.c_int, []
            setter.restype, setter.argtypes = None, [ctypes.c_int]
            return getter, setter
    return None


def openblas_controls() -> list[Control]:
    """(get, set) thread-count functions of every mapped OpenBLAS."""
    return [c for c in map(_control, _mapped_openblas()) if c is not None]


@contextmanager
def single_threaded() -> Iterator[bool]:
    """Hold every mapped OpenBLAS at one thread; yields whether any was found.

    Finding none is a degradation, not an error: scores stay exact but the
    scoring threads may contend with BLAS threads.  The outermost scope
    then emits one ``engine.blas_unpinned`` event with the reason.
    """
    global _depth
    with _lock:
        if _depth == 0:
            _saved[:] = [(setter, getter()) for getter, setter in openblas_controls()]
            for setter, _count in _saved:
                setter(1)
            if not _saved:
                obs.event(
                    "engine.blas_unpinned",
                    reason="no OpenBLAS thread control mapped into the process",
                )
        _depth += 1
        pinned = bool(_saved)
    try:
        yield pinned
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                for setter, count in _saved:
                    setter(count)
                _saved.clear()
