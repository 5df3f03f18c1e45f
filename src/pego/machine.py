"""How a pego process uses the CPUs and memory.

Importing this module fixes glibc's allocator policy for the process
(see ``_keep_freed_memory``) and pins numpy's OpenBLAS to one thread
(``set_blas_threads``). ``vit``, ``trainer`` and ``cli`` import it, so
every path that forwards, trains or forks has both in place before its
first child starts. ``map_split`` is the only parallelism: it cuts a
list of independent items into contiguous shares, computes the first in
the calling process and forks a child for each other one. A
whole-dataset no-grad forward splits its chunks with it, and a grid its
runs. ``thread_budget`` caps both: the CPUs this process may run on,
capped by ``PEGO_THREADS``, and 1 inside a share. Neither changes a
result, only the wall-clock time.

``pego.entry`` sets the BLAS vendors' thread variables itself: they
take effect only before numpy loads, which this module imports.
"""

from __future__ import annotations

import ctypes
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
    work left the heap; fixed thresholds keep it. pego starts no thread,
    and one arena keeps any thread a library starts from holding memory
    of its own: a thread that allocates would otherwise get an arena of
    its own, whose freed pages the fixed trim threshold then keeps as
    well. Other C libraries are left alone."""
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


# Grid shares and forward children are forked wherever ``os`` can fork:
# a child reads the model, dataset and ``trainer``'s globals as the
# parent bound them. Elsewhere ``map_split`` runs every item here.
CAN_FORK = hasattr(os, "fork")

# True while this process computes a share of ``map_split``.
_in_share = False


def thread_budget() -> int:
    """Processes ``map_split`` may keep busy at most: 1 inside a share,
    and otherwise ``cores()`` capped by a positive integer in ASCII digits
    in ``PEGO_THREADS``, read on every call."""
    if _in_share:
        return 1
    budget = cores()
    raw = os.environ.get("PEGO_THREADS")
    if raw:
        if not (raw.isascii() and raw.isdigit()) or int(raw) < 1:
            raise ConfigError(f"PEGO_THREADS must be a positive integer, got {raw!r}")
        budget = min(budget, int(raw))
    return budget


def map_split(fn, items, workers: int) -> list:
    """``fn(item)`` per item of the sequence ``items``, in order, in
    ``workers`` processes: pego's one form of parallelism. With
    ``workers`` above 1, on a platform that forks (``CAN_FORK``) and
    outside a share, the items are cut into ``workers`` contiguous
    shares: this process computes the first while a forked child
    computes each other one and replies once, with its pickled results or
    the exception that stopped it, through a pipe; otherwise every item
    runs here. Inside a share, this process's included, ``thread_budget``
    is 1, so a share never forks again. A child sees memory as it was at
    the fork and its writes die with it, so ``fn`` may only read what it
    shares, and its results must pickle. Every child is reaped before
    this returns or raises, and killed first when its results are no
    longer wanted."""
    global _in_share
    if workers <= 1 or _in_share or not CAN_FORK:
        return [fn(item) for item in items]
    cuts = [len(items) * w // workers for w in range(workers + 1)]
    children = []
    _in_share = True
    try:
        for lo, hi in zip(cuts[1:-1], cuts[2:]):
            children.append(_fork_share(fn, items[lo:hi]))
        results = [fn(item) for item in items[: cuts[1]]]
        for pid, pipe in children:
            results += _receive(pid, pipe)
        return results
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        _in_share = False
        for pid, pipe in children:
            pipe.close()
            os.waitpid(pid, 0)


def _fork_share(fn, items):
    """Fork a child that sends ``(True, [fn(item) for item in items])``,
    or ``(False, exception)`` when computing or pickling that fails,
    pickled through a pipe, then exits without running any of this
    process's exit handlers; the child's pid and the pipe's read end."""
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
                reply = pickle.dumps((True, [fn(item) for item in items]), pickle.HIGHEST_PROTOCOL)
            except BaseException as exc:
                reply = pickle.dumps((False, exc), pickle.HIGHEST_PROTOCOL)
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(reply)
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
        raise ChildProcessError(f"worker {pid} exited without sending its results") from None
    if not ok:
        raise value
    return value


def pool_workers(jobs: int, runs: int) -> int:
    """The processes a grid of ``runs`` runs under ``jobs`` computes in,
    the calling process included; 1 when it runs them all here. At most
    one single-threaded process per run and per CPU of the budget keeps
    the cores from oversubscription."""
    return max(1, min(jobs, runs, thread_budget()))


def details(jobs: int, workers: int | None) -> dict:
    """How the run could use the CPUs: cores available, the forward
    budget, the most processes ``--jobs`` allows a grid, for a grid the
    processes it ran in, the calling process included (1 when it ran
    serially), and numpy's BLAS with its live thread count and the
    OpenBLAS kernel chosen for this CPU, which its build configuration
    may not name (None where unreadable)."""
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
