"""A function of no arguments called in a forked child process.

Worker is the parent's side: it forks a child that calls the function on
the memory it inherits and writes what it returns, pickled, to a pipe, so
the parent can do work of its own meanwhile and read the result back.
Pickling drops an exception's traceback, so each exception in a returned
list carries its formatted traceback as a note.  The child leaves only
through os._exit, so it runs no atexit handler and flushes none of the
stdio buffers it inherited.

While the child lives it runs on one of the parent's usable CPUs and the
parent on the others: a forked child otherwise tends to stay on its
parent's CPU, and the two then share it.  The child takes a CPU other
than the one the parent is running on, so the parent is never moved off
the CPU the scheduler chose for it, where it runs on after the child.
"""

import os
import pickle
import signal
import traceback

from .errors import WorkerError


def _current_cpu() -> int:
    """The CPU the calling thread runs on: field 39 of its stat file, read
    after the command name, which may hold spaces."""
    with open("/proc/thread-self/stat", "rb") as f:
        stat = f.read()
    return int(stat[stat.rindex(b")") + 2:].split()[36])


def _child(out_fd: int, fn) -> None:
    """The forked child's whole life: never returns."""
    code = 1
    try:
        out = fn()
        for item in out if isinstance(out, list) else ():
            if isinstance(item, Exception):
                item.add_note("In the worker process:\n"
                              + "".join(traceback.format_exception(item)).rstrip())
        with open(out_fd, "wb") as f:
            pickle.dump(out, f, protocol=5)
        code = 0
    except BaseException:
        os.write(2, traceback.format_exc().encode())
    finally:
        os._exit(code)


class Worker:
    """One forked child calling fn().

    Used as a context manager: on every exit the child is killed if it
    still runs, and reaped, and the parent's CPU affinity is restored;
    returncode is then the child's exit code (negative: the signal that
    ended it).  A raise while the child is being placed does the same
    before it propagates.
    """

    def __init__(self, fn):
        self._affinity = os.sched_getaffinity(0)
        in_fd, out_fd = os.pipe()
        try:
            self.pid = os.fork()
        except BaseException:
            os.close(in_fd)
            os.close(out_fd)
            raise
        if self.pid == 0:
            os.close(in_fd)
            _child(out_fd, fn)
        os.close(out_fd)
        self._results = open(in_fd, "rb")
        self.returncode = None
        try:
            if len(self._affinity) > 1:
                child = min(self._affinity - {_current_cpu()})
                os.sched_setaffinity(self.pid, {child})
                os.sched_setaffinity(0, self._affinity - {child})
        except BaseException:
            self.__exit__()
            raise

    def _reap(self) -> int:
        if self.returncode is None:
            self.returncode = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        return self.returncode

    def results(self):
        """What fn returned in the child; raises WorkerError if the child
        exits non-zero or its output cannot be read."""
        try:
            out = pickle.load(self._results)
        except Exception as exc:
            raise WorkerError(f"worker exited {self._reap()} without readable results: "
                              f"{type(exc).__name__}: {exc}") from exc
        if self._reap() != 0:
            raise WorkerError(f"worker exited {self.returncode}")
        return out

    def __enter__(self) -> "Worker":
        return self

    def __exit__(self, *exc) -> None:
        try:
            if self.returncode is None:
                os.kill(self.pid, signal.SIGKILL)
                self._reap()
            self._results.close()
        finally:
            os.sched_setaffinity(0, self._affinity)
