"""Suite-wide checks."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_left_unreaped():
    """Fail any test that leaves a child process, such as a sweep's forked
    worker, running or unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return  # no children at all
    pytest.fail(f"a child process was left {'running' if pid == 0 else f'unreaped: {pid}'}")
