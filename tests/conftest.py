"""Suite-wide checks."""

import threading

import pytest


@pytest.fixture(autouse=True)
def no_helper_thread_left():
    """Fail any test that leaves one of the program's helper threads alive:
    a noise feed's (unlbench-noise) or a worker's input writer."""
    yield
    left = [t.name for t in threading.enumerate() if t.name.startswith("unlbench-")]
    assert not left, f"threads left running: {left}"
