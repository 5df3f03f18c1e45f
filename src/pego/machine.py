"""How a pego process uses the CPUs and memory.

Importing this module fixes glibc's allocator policy for the process
(see ``_keep_freed_memory``) and pins numpy's OpenBLAS to one thread
(``set_blas_threads``). ``vit``, ``trainer`` and ``cli`` import it, so
every path that forwards, trains or forks has both in place before its
first thread or worker starts, and the two pools here are the only
parallelism: ``map_threads`` spreads a no-grad forward's chunks over
threads, and ``map_runs`` spreads a grid's independent runs over forked
worker processes. ``thread_budget`` caps both: the CPUs this process may
run on, capped by ``PEGO_THREADS``. Neither pool changes a result, only
the wall-clock time.

``pego.entry`` sets the BLAS vendors' thread variables itself: they
take effect only before numpy loads, which this module imports.
"""

from __future__ import annotations

import ctypes
import functools
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .errors import ConfigError


def _keep_freed_memory() -> None:
    """Keep the memory a training step frees for the next step, and the
    heap of threaded forwards in one arena. Under glibc's adaptive
    thresholds, whether a step's tape is handed back to the system and
    faulted in again next step (about 400 page faults per step on the
    canonical config) depends on how earlier work left the heap; fixed
    thresholds keep it. A thread that allocates would otherwise get an
    arena of its own, whose freed pages the fixed trim threshold then
    keeps as well. Other C libraries are left alone."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
    mallopt(-3, 16 << 20)  # M_MMAP_THRESHOLD
    mallopt(-8, 1)  # M_ARENA_MAX


def _openblas(name: str, restype, argtypes):
    """The function ``name`` of the OpenBLAS bundled with numpy's wheel,
    through ctypes, or None when there is no such library or symbol."""
    libs = sorted(Path(np.__file__).parent.parent.joinpath("numpy.libs").glob("libscipy_openblas*.so*"))
    if not libs:
        return None
    try:
        fn = getattr(ctypes.CDLL(str(libs[0])), name)
    except (AttributeError, OSError):
        return None
    fn.restype, fn.argtypes = restype, argtypes
    return fn


def blas_threads() -> int | None:
    """The number of threads numpy's OpenBLAS uses now, or None when it
    cannot be read."""
    get = _openblas("scipy_openblas_get_num_threads64_", ctypes.c_int, ())
    return None if get is None else get()


def set_blas_threads(n: int) -> None:
    """Let numpy's OpenBLAS use ``n`` threads; nothing happens when its
    thread count cannot be set."""
    put = _openblas("scipy_openblas_set_num_threads64_", None, (ctypes.c_int,))
    if put is not None:
        put(n)


_keep_freed_memory()
set_blas_threads(1)


def cores() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def thread_budget() -> int:
    """Threads a no-grad forward, or workers a grid's pool, may use at
    most: ``cores()`` capped by a positive integer in ASCII digits in
    ``PEGO_THREADS``, read on every call, so a worker's cap holds in it.
    ``map_threads`` uses fewer when it has fewer than ``per_thread``
    items per thread."""
    budget = cores()
    raw = os.environ.get("PEGO_THREADS")
    if raw:
        if not (raw.isascii() and raw.isdigit()) or int(raw) < 1:
            raise ConfigError(f"PEGO_THREADS must be a positive integer, got {raw!r}")
        budget = min(budget, int(raw))
    return budget


def map_threads(fn, items, per_thread: int) -> list:
    """``fn(item)`` per item, in order, spread over
    ``min(thread_budget(), len(items) // per_thread)`` threads of a pool
    made for this call, and on the calling thread when that is 1 or less."""
    threads = min(thread_budget(), len(items) // per_thread)
    if threads <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


# ``task(shared, payload)`` of the grid a pool worker serves, bound by
# ``_start_worker``; None in any other process.
_worker_task = None


def _start_worker(task) -> None:
    # A pool worker's initializer: cap its forwards at one thread and keep
    # the grid's task with its shared inputs for every payload it gets.
    global _worker_task
    os.environ["PEGO_THREADS"] = "1"
    _worker_task = task


def _run_in_worker(payload):
    return _worker_task(payload)


# Grid workers are forked wherever the platform can fork: a worker looks
# ``run_single`` up in ``trainer``'s globals as the parent bound them, which
# only a forked worker inherits (Python 3.14 makes forkserver the default on
# Linux). Elsewhere the pool takes the platform's default start method.
POOL_CONTEXT = multiprocessing.get_context("fork") if "fork" in multiprocessing.get_all_start_methods() else None


def pool_workers(jobs: int, runs: int) -> int:
    """The workers ``map_runs`` forks for ``runs`` runs under ``jobs``,
    1 when it runs them serially. At most one single-threaded worker per
    run and per thread of the budget keeps the cores from
    oversubscription; a lone worker would add only a fork."""
    return max(1, min(jobs, runs, thread_budget()))


def map_runs(task, shared, payloads, jobs: int):
    """``task(shared, payload)`` per payload, yielded in payload order.
    ``shared`` reaches each worker once, through the pool's initializer:
    forked workers inherit it, and only the payloads are pickled per run.
    Runs are independent and deterministic, so the pool only changes
    wall-clock time, never results."""
    call = functools.partial(task, shared)
    workers = pool_workers(jobs, len(payloads))
    if workers == 1:
        yield from map(call, payloads)
        return
    pool = ProcessPoolExecutor(workers, mp_context=POOL_CONTEXT, initializer=_start_worker, initargs=(call,))
    with pool:
        yield from pool.map(_run_in_worker, payloads)


def details(jobs: int, workers: int | None) -> dict:
    """How the run could use the CPUs: cores available, the forward-thread
    budget, the most pool workers ``--jobs`` allows, for a grid the
    workers its pool forked (1 when it ran serially), and numpy's BLAS
    with its live thread count and the OpenBLAS kernel chosen for this
    CPU, which its build configuration may not name (None where
    unreadable)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 prints its config only
        blas = {}
    corename = _openblas("scipy_openblas_get_corename64_", ctypes.c_char_p, ())
    details = {
        "affinity": cores(),
        "forward_budget": thread_budget(),
        "jobs": jobs,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": blas_threads(),
                 "core": None if corename is None else corename().decode()},
    }
    if workers is not None:
        details["workers"] = workers
    return details
