"""Suite-wide checks."""

import os
import signal

import pytest


def reap_children() -> list:
    """Kill every child process of this one that still runs, reap every
    child, running or exited, and return their pids, sorted.  Children are
    read from each thread's /proc/self/task/<tid>/children."""
    pids = set()
    for tid in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{tid}/children") as f:
                pids.update(int(pid) for pid in f.read().split())
        except FileNotFoundError:
            pass  # the thread ended while the tasks were listed
    for pid in sorted(pids):
        os.kill(pid, signal.SIGKILL)  # a no-op on an exited, unreaped child
        os.waitpid(pid, 0)
    return sorted(pids)


@pytest.fixture(autouse=True)
def no_child_left_unreaped():
    """Fail any test that leaves a child process, such as a sweep's forked
    worker, running or unreaped; the children are killed and reaped first,
    so they outlive neither the test nor the suite."""
    yield
    leaked = reap_children()
    if leaked:
        pytest.fail(f"child processes left running or unreaped (now killed and reaped): "
                    f"{leaked}")
