"""Independent tasks on forked worker processes.

:func:`run` puts the tasks, closures over arrays the parent holds, in a
module global before the workers fork, so each child inherits them and is
sent only task indices. Results come back in task order, and the workers are
joined before :func:`run` returns or raises. A task does the arithmetic it
does serially, so its results are the same bits.
"""

from __future__ import annotations

import multiprocessing
import os
import threading

from .errors import UsageError

_tasks = None   # the tasks of the running pool, inherited by its workers


def worker_count(tasks: int, setting: str | None) -> int:
    """Workers for ``tasks`` tasks under ``SHAPEGPLM_THREADS=setting``: unset
    or empty means the CPUs this process may run on (Linux), 1 or less
    serial, and never more than ``tasks``."""
    text = (setting or "").strip()
    if not text:
        workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    else:
        try:
            workers = int(text)
        except ValueError:
            raise UsageError("SHAPEGPLM_THREADS must be a whole number of worker "
                             f"processes, got {text!r}") from None
    return max(1, min(workers, tasks))


def count(tasks: int) -> int:
    """:func:`worker_count` under this process's setting, but 1 inside a
    worker, without ``fork``, or beside other threads (forking a threaded
    process can deadlock)."""
    workers = worker_count(tasks, os.environ.get("SHAPEGPLM_THREADS"))
    if (_tasks is not None or threading.active_count() > 1
            or "fork" not in multiprocessing.get_all_start_methods()):
        return 1
    return workers


def run(tasks: list, workers: int) -> list:
    """``[task() for task in tasks]`` on up to ``workers`` forked processes."""
    global _tasks
    workers = min(workers, len(tasks))
    if workers < 2:
        return [task() for task in tasks]
    from concurrent.futures import ProcessPoolExecutor
    _tasks = tasks
    pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"))
    try:
        return list(pool.map(_run, range(len(tasks))))
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
        _tasks = None


def _run(index: int):
    return _tasks[index]()
