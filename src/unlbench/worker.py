"""Unlearning cells in a forked child process.

Worker is the parent's side: it forks a child that runs
unlearning.unlearn_cells on the memory it inherits and writes the list it
returns, pickled, to a pipe, so the parent can run cells of its own
meanwhile and read the results back.  Pickling drops an exception's
traceback, so each exception in that list carries its formatted traceback
as a note.  The child leaves only through os._exit, so it runs no atexit
handler and flushes none of the stdio buffers it inherited.

While the child lives it runs on one of the parent's usable CPUs and the
parent on the others: a forked child otherwise tends to stay on its
parent's CPU, and the two then share it.  The child takes a CPU other
than the one the parent is running on, so the parent is never moved off
the CPU the scheduler chose for it, where it runs on after the child.
"""

import os
import pickle
import signal
import time
import traceback

from .errors import WorkerError
from .unlearning import unlearn_cells


def _current_cpu() -> int:
    """The CPU the calling thread runs on: field 39 of its stat file, read
    after the command name, which may hold spaces."""
    with open("/proc/thread-self/stat", "rb") as f:
        stat = f.read()
    return int(stat[stat.rindex(b")") + 2:].split()[36])


def _child(out_fd: int, theta_o, split, cfgs) -> None:
    """The forked child's whole life: never returns."""
    code = 1
    try:
        t0 = time.perf_counter()
        results = unlearn_cells(theta_o, split, cfgs)
        seconds = time.perf_counter() - t0
        for result in results:
            if isinstance(result, Exception):
                result.add_note("In the worker process:\n"
                                + "".join(traceback.format_exception(result)).rstrip())
        with open(out_fd, "wb") as out:
            pickle.dump((results, seconds), out, protocol=5)
        code = 0
    except BaseException:
        os.write(2, traceback.format_exc().encode())
    finally:
        os._exit(code)


class Worker:
    """One forked child running unlearn_cells(theta_o, split, cfgs).

    Used as a context manager: on every exit the child is killed if it
    still runs, and reaped, and the parent's CPU affinity is restored;
    returncode is then the child's exit code (negative: the signal that
    ended it).  A raise while the child is being placed does the same
    before it propagates.
    """

    def __init__(self, theta_o, split, cfgs):
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
            _child(out_fd, theta_o, split, cfgs)
        os.close(out_fd)
        self._results = open(in_fd, "rb")
        self.returncode = None
        self.seconds = None
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

    def results(self) -> list:
        """The child's list of UnlearnResult or exception per cell, and
        sets seconds to the wall time it spent running them; raises
        WorkerError if it exits non-zero or its output cannot be read."""
        try:
            out, seconds = pickle.load(self._results)
        except Exception as exc:
            raise WorkerError(f"worker exited {self._reap()} without readable results: "
                              f"{type(exc).__name__}: {exc}") from exc
        if self._reap() != 0:
            raise WorkerError(f"worker exited {self.returncode}")
        self.seconds = seconds
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
