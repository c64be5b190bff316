"""Host threading of repro's numerics: CPUs for the pool, one BLAS thread.

Every functional GEMM ends in one BLAS call: ``a @ b`` in
:func:`repro.engine.batched.execute_gemm` and the stacked matmul of
:func:`repro.serve.scheduler.run_batch`.  Both call
:func:`ensure_single_thread_blas` first, which sets every OpenBLAS in the
process, NumPy's among them, to one thread for the rest of the process and
never restores it:

* **Bit-exactness.**  OpenBLAS splits a GEMM differently for different
  thread counts, and the split changes the output bits: with
  scipy-openblas 0.3 on x86-64, a 96x127x127 GEMM gives different bits on
  1 and 2 threads.  A served job must stay bit-exact against a direct
  ``run_gemm`` made at any later point in the process, so the thread count
  is set once and kept.
* **No oversubscription.**  The serving pool runs up to one numerics
  thread per CPU the process may use (:func:`process_cpu_count`); with a
  fleet at least that large, BLAS threads on top of those only contend
  for the same cores.

The setting goes through the thread setter of every OpenBLAS shared
library mapped into the process (found through ``/proc/self/maps``, called
through :mod:`ctypes`), not just the first: a process can map several
(SciPy wheels bundle their own LP64 OpenBLAS next to NumPy's ILP64 one),
and ``/proc/self/maps`` lists them in address order, not by which one
NumPy uses.  NumPy's is always among them, because ``import numpy`` loads
it before repro's first BLAS call.  Where none is found (another BLAS, or
an OS without ``/proc``) nothing is changed and :func:`blas_threads`
returns ``None``.

The cost: every BLAS call in the process, a direct ``run_gemm`` or
``repro run`` included, runs on one core.  That is the right trade for
serving many small GEMMs, where the pool supplies the parallelism, but a
single large GEMM (full Table 3 sizes) loses BLAS's own multi-core
speed-up, roughly the core count.
"""

from __future__ import annotations

import ctypes
import os
import threading
from typing import Callable

#: Symbol prefixes of the OpenBLAS builds NumPy ships with or links against:
#: the scipy-openblas wheels rename their exports, system builds do not.
_PREFIXES = ("scipy_openblas", "openblas")
#: ``64_`` marks the ILP64 (64-bit integer) symbol variants.
_SUFFIXES = ("64_", "")

#: The ``(set_num_threads, get_num_threads)`` pair one OpenBLAS exports.
_ThreadFunctions = tuple[Callable[[int], None], Callable[[], int]]

_lock = threading.Lock()
_pinned = False


def process_cpu_count() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return os.cpu_count() or 1


def _mapped_openblas_paths() -> list[str]:
    """Paths of the OpenBLAS shared libraries mapped into this process."""
    try:
        with open("/proc/self/maps") as maps:
            lines = maps.read().splitlines()
    except OSError:
        return []
    paths: list[str] = []
    for line in lines:
        fields = line.split(maxsplit=5)
        if len(fields) == 6 and "openblas" in os.path.basename(fields[5]).lower():
            if fields[5] not in paths:
                paths.append(fields[5])
    return paths


def _thread_functions(library: ctypes.CDLL) -> _ThreadFunctions | None:
    """The thread setter/getter pair ``library`` exports, if any."""
    for prefix in _PREFIXES:
        for suffix in _SUFFIXES:
            setter = getattr(library, f"{prefix}_set_num_threads{suffix}", None)
            getter = getattr(library, f"{prefix}_get_num_threads{suffix}", None)
            if setter is None or getter is None:
                continue
            setter.argtypes = [ctypes.c_int]
            setter.restype = None
            getter.argtypes = []
            getter.restype = ctypes.c_int
            return setter, getter
    return None


def _openblas_thread_functions() -> list[_ThreadFunctions]:
    """The thread setter/getter pair of every OpenBLAS mapped into the process."""
    functions: list[_ThreadFunctions] = []
    for path in _mapped_openblas_paths():
        try:
            pair = _thread_functions(ctypes.CDLL(path))
        except OSError:
            continue
        if pair is not None:
            functions.append(pair)
    return functions


def blas_threads() -> int | None:
    """Largest thread count among the OpenBLAS libraries mapped now.

    ``None`` when none is found.  After :func:`ensure_single_thread_blas`
    this is 1 unless an OpenBLAS was loaded later than repro's first BLAS
    call (repro's own calls still go through NumPy's, which is set).
    """
    counts = [int(getter()) for _, getter in _openblas_thread_functions()]
    return max(counts, default=None)


def ensure_single_thread_blas() -> None:
    """Set BLAS to one thread for the rest of the process (once; thread-safe).

    Called before each of repro's BLAS calls; after the first it is one
    flag check.  The previous thread count is never restored, because the
    output bits depend on it (see the module docstring).
    """
    global _pinned
    if _pinned:
        return
    with _lock:
        if not _pinned:
            for setter, _ in _openblas_thread_functions():
                setter(1)
            _pinned = True
