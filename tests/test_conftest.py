"""The suite's own leaked-child guard."""

import os
import time

from conftest import reap_children


def _fork(seconds: float) -> int:
    pid = os.fork()
    if pid == 0:
        try:
            time.sleep(seconds)
        finally:
            os._exit(0)
    return pid


def _reaped(pid: int) -> bool:
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def test_reap_children_kills_and_reaps_a_sleeping_child():
    pid = _fork(60.0)
    t0 = time.perf_counter()
    assert reap_children() == [pid]
    assert time.perf_counter() - t0 < 10.0  # killed, not waited out
    assert _reaped(pid)
    assert reap_children() == []


def test_reap_children_reaps_an_exited_child():
    pid = _fork(0.0)
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:  # until it is a zombie
        with open(f"/proc/{pid}/stat", "rb") as f:
            if f.read().rsplit(b")", 1)[1].split()[0] == b"Z":
                break
        time.sleep(0.01)
    assert reap_children() == [pid]
    assert _reaped(pid)
