"""Unlearning cells in a second process.

    python -m unlbench.worker < cells.pickle > results.pickle

reads (theta_o, split, cfgs) pickled on stdin, runs
unlearning.unlearn_cells on them and writes the list it returns, pickled,
to stdout.  Pickling drops an exception's traceback, so each exception
in that list carries its formatted traceback as a note.  Worker is the
parent's side: it starts the process, streams the input to it from a
helper thread, so the parent can run cells of its own meanwhile, and
reads the results back.
"""

import os
import pickle
import subprocess
import sys
import threading
import traceback
from pathlib import Path

from .errors import WorkerError
from .unlearning import cells_split, unlearn_cells


class Worker:
    """One worker process running unlearn_cells(theta_o, split, cfgs).

    It is sent only the split sets its cells read (cells_split).  Used
    as a context manager: on every exit the process is killed if it still
    runs, and it and the input thread are reaped.
    """

    def __init__(self, theta_o, split, cfgs):
        payload = (theta_o, cells_split(split, cfgs), cfgs)
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        self._proc = subprocess.Popen([sys.executable, "-m", "unlbench.worker"], env=env,
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self._input = threading.Thread(target=self._send, args=(payload,),
                                       name="unlbench-worker-input")
        self._input.start()

    def _send(self, payload) -> None:
        try:
            with self._proc.stdin as pipe:
                # Streamed from the arrays' own buffers: no pickled copy of
                # the split is held in memory.
                pickle.dump(payload, pipe, protocol=5)
        except OSError:
            pass  # the worker has gone; results() reports how it exited

    def results(self) -> list:
        """The worker's list of UnlearnResult or exception per cell; raises
        WorkerError if it exits non-zero or its output cannot be read."""
        try:
            out = pickle.load(self._proc.stdout)
        except Exception as exc:
            code = self._proc.wait()
            raise WorkerError(f"worker exited {code} without readable results: "
                              f"{type(exc).__name__}: {exc}") from exc
        code = self._proc.wait()
        if code != 0:
            raise WorkerError(f"worker exited {code}")
        return out

    def __enter__(self) -> "Worker":
        return self

    def __exit__(self, *exc) -> None:
        if self._proc.poll() is None:
            self._proc.kill()
        self._proc.wait()
        self._input.join()
        self._proc.stdout.close()


def main() -> int:
    theta_o, split, cfgs = pickle.load(sys.stdin.buffer)
    results = unlearn_cells(theta_o, split, cfgs)
    for result in results:
        if isinstance(result, Exception):
            result.add_note("In the worker process:\n"
                            + "".join(traceback.format_exception(result)).rstrip())
    pickle.dump(results, sys.stdout.buffer, protocol=5)
    sys.stdout.buffer.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
