"""How a pego process uses the CPUs and memory.

Importing this module fixes glibc's allocator policy for the process
(see ``_keep_freed_memory``) and pins numpy's OpenBLAS to one thread
(``set_blas_threads``). ``vit``, ``trainer`` and ``cli`` import it, so
every path that forwards, trains or forks has both in place before its
first worker starts, and the two ways of forking here are the only
parallelism: ``map_split`` cuts a whole-dataset no-grad forward's chunks
into slices and forks a child for each slice but the first, which the
calling process computes, and ``map_runs`` spreads a grid's independent
runs over a pool of forked worker processes. ``thread_budget`` caps
both: the CPUs this process may run on, capped by ``PEGO_THREADS``.
Neither changes a result, only the wall-clock time. ``map_runs`` loads
``multiprocessing`` and ``concurrent.futures`` only when it first builds
a pool, so a process that never forks a grid holds neither.

``pego.entry`` sets the BLAS vendors' thread variables itself: they
take effect only before numpy loads, which this module imports.
"""

from __future__ import annotations

import ctypes
import functools
import os
import pickle
import signal
from pathlib import Path

import numpy as np

from .errors import ConfigError


def _keep_freed_memory() -> None:
    """Keep the memory a training step frees for the next step, in one
    arena. Under glibc's adaptive thresholds, whether a step's tape is
    handed back to the system and faulted in again next step (about 400
    page faults per step on the canonical config) depends on how earlier
    work left the heap; fixed thresholds keep it. No pego thread
    computes, but a grid's process pool runs its manager and queue
    threads in the calling process; a thread that allocates would
    otherwise get an arena of its own, whose freed pages the fixed trim
    threshold then keeps as well. Other C libraries are left alone."""
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
    """Processes a no-grad forward's split, or workers a grid's pool, may
    keep busy at most: ``cores()`` capped by a positive integer in ASCII
    digits in ``PEGO_THREADS``, read on every call, so a worker's cap
    holds in it. ``map_split`` uses fewer when it has fewer than
    ``per_worker`` items per worker."""
    budget = cores()
    raw = os.environ.get("PEGO_THREADS")
    if raw:
        if not (raw.isascii() and raw.isdigit()) or int(raw) < 1:
            raise ConfigError(f"PEGO_THREADS must be a positive integer, got {raw!r}")
        budget = min(budget, int(raw))
    return budget


def map_split(fn, items, per_worker: int) -> list:
    """``fn(item)`` per item of the sequence ``items``, in order. With
    ``workers = min(thread_budget(), len(items) // per_worker)`` above 1
    on a platform that forks (``POOL_CONTEXT``), the items are cut into
    ``workers`` contiguous slices: this process computes the first while
    a forked child computes each other one and sends back its pickled
    results, or the exception that stopped it, through a pipe; otherwise
    every item runs here. A child sees memory as it was at the fork and
    its writes die with it, so ``fn`` may only read what it shares, and
    its results must pickle. Every child is reaped before this returns or
    raises, and killed first when its results are no longer wanted."""
    workers = min(thread_budget(), len(items) // per_worker)
    if workers <= 1 or POOL_CONTEXT is None:
        return [fn(item) for item in items]
    cuts = [len(items) * w // workers for w in range(workers + 1)]
    children = []
    try:
        for lo, hi in zip(cuts[1:-1], cuts[2:]):
            children.append(_fork_slice(fn, items[lo:hi]))
        results = [fn(item) for item in items[: cuts[1]]]
        for pid, pipe in children:
            results += _receive(pid, pipe)
        return results
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, pipe in children:
            pipe.close()
            os.waitpid(pid, 0)


def _fork_slice(fn, items):
    """Fork a child that sends ``(True, [fn(item) for item in items])``,
    or ``(False, exception)``, pickled through a pipe, then exits without
    running any of this process's exit handlers; the child's pid and the
    pipe's read end."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        try:
            os.close(read_fd)
            try:
                reply = (True, [fn(item) for item in items])
            except BaseException as exc:
                reply = (False, exc)
            with os.fdopen(write_fd, "wb") as pipe:
                pickle.dump(reply, pipe, pickle.HIGHEST_PROTOCOL)
        finally:
            os._exit(0)
    os.close(write_fd)
    return pid, os.fdopen(read_fd, "rb")


def _receive(pid: int, pipe) -> list:
    """The results the child ``pid`` sent through ``pipe``; its exception
    is raised here."""
    try:
        ok, value = pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):
        raise ChildProcessError(f"forward worker {pid} exited without sending its results") from None
    if not ok:
        raise value
    return value


# ``task(shared, payload)`` of the grid a pool worker serves, bound by
# ``_start_worker``; None in any other process.
_worker_task = None


def _start_worker(task) -> None:
    # A pool worker's initializer: a budget of one keeps its forwards from
    # forking, and the grid's task with its shared inputs is kept for
    # every payload it gets.
    global _worker_task
    os.environ["PEGO_THREADS"] = "1"
    _worker_task = task


def _run_in_worker(payload):
    return _worker_task(payload)


# The start method of a grid's pool, by name. Grid workers are forked
# wherever ``os`` can fork: a worker looks ``run_single`` up in
# ``trainer``'s globals as the parent bound them, which only a forked
# worker inherits (Python 3.14 makes forkserver the default on Linux).
# Elsewhere it is None: the pool takes the platform's default start
# method, and ``map_split``, whose children must inherit the model, runs
# serially.
POOL_CONTEXT = "fork" if hasattr(os, "fork") else None


def pool_workers(jobs: int, runs: int) -> int:
    """The workers ``map_runs`` forks for ``runs`` runs under ``jobs``,
    1 when it runs them serially. At most one single-threaded worker per
    run and per CPU of the budget keeps the cores from
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
    # Imported here: with what they load (socket, subprocess, selectors,
    # queue) they are about 2 MB that only a pool needs.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context(POOL_CONTEXT)
    pool = ProcessPoolExecutor(workers, mp_context=context, initializer=_start_worker, initargs=(call,))
    with pool:
        yield from pool.map(_run_in_worker, payloads)


def details(jobs: int, workers: int | None) -> dict:
    """How the run could use the CPUs: cores available, the forward
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
