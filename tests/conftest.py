"""Suite-wide checks."""

import threading

import pytest


@pytest.fixture(autouse=True)
def no_helper_thread_left():
    """Fail any test that leaves the program's one helper thread, a
    worker's input writer (unlbench-worker-input), alive."""
    yield
    left = [t.name for t in threading.enumerate() if t.name == "unlbench-worker-input"]
    assert not left, f"threads left running: {left}"
