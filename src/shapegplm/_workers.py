"""Independent tasks on forked worker processes.

:func:`run` forks one child per worker, and each child inherits the tasks,
closures over arrays the parent holds, so nothing is sent to it. Task ``i``
runs on worker ``i mod w``, in order. Each worker writes one pickle to its
own pipe, its results or its first failing task's index and error, and
leaves by ``os._exit``. The parent runs no task: it reads every pipe to its
end and reaps every worker before :func:`run` returns or raises. A task does
the arithmetic it does serially, so its results are the same bits.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading

from .errors import UsageError

_worker = False   # True in a forked worker, whose own work stays serial


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
    if _worker or threading.active_count() > 1 or not hasattr(os, "fork"):
        return 1
    return workers


def run(tasks: list, workers: int) -> list:
    """``[task() for task in tasks]`` on up to ``workers`` forked processes.

    A task's error is raised in the parent, that of the lowest task index
    when several workers fail, so it reads as it does serially. A worker that
    exits without a result, killed or crashed, raises a ``RuntimeError``
    naming its exit status before any task error.
    """
    workers = min(workers, len(tasks))
    if workers < 2:
        return [task() for task in tasks]
    pids, pipes, outcomes = [], [], []   # pids until reaped
    try:
        for w in range(workers):
            read, write = os.pipe()
            pipes.append(open(read, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    # a worker holding a pipe's read end could block on its
                    # own pipe forever once this process is gone
                    for pipe in pipes:
                        pipe.close()
                    _work(tasks, w, workers, write)   # never returns
            finally:
                os.close(write)
            pids.append(pid)
        for pipe in pipes:
            try:
                outcome = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):
                outcome = None
            pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pids.pop(0), 0)[1])
            if outcome is None or status != 0:
                raise RuntimeError(f"a worker process exited with status {status} "
                                   "without a result")
            outcomes.append(outcome)
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    failed = [outcome for outcome in outcomes if outcome[0] is not None]
    if failed:
        raise min(failed)[1]   # the lowest task index; no two are equal
    results = [None] * len(tasks)
    for w, (_, part) in enumerate(outcomes):
        results[w::workers] = part
    return results


def _work(tasks: list, w: int, workers: int, write: int):
    """Worker ``w``'s life: run tasks ``w, w + workers, ...``, send ``(None,
    results)`` or ``(index, error)`` of the first that fails, and exit."""
    global _worker
    _worker = True
    status = 1
    try:
        results = []
        outcome = (None, results)
        for i in range(w, len(tasks), workers):
            try:
                results.append(tasks[i]())
            except Exception as err:
                outcome = (i, err)
                break
        with open(write, "wb") as pipe:
            pickle.dump(outcome, pipe, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)
