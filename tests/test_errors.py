"""The shared exception types survive pickling, as a worker process's
results need them to."""

import inspect
import pickle

import pytest

from unlbench import errors

CLASSES = [c for _, c in inspect.getmembers(errors, inspect.isclass)
           if c.__module__ == errors.__name__]


def _instance(cls):
    return cls(3) if cls is errors.DivergenceError else cls("what went wrong")


def test_every_error_class_is_covered():
    assert len(CLASSES) == 9 and errors.DivergenceError in CLASSES


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_round_trip_keeps_type_message_and_args(cls):
    exc = _instance(cls)
    back = pickle.loads(pickle.dumps(exc, protocol=5))
    assert type(back) is cls
    assert str(back) == str(exc) and back.args == exc.args


@pytest.mark.parametrize("message", ["", "non-finite values in W1 after step 7"])
def test_divergence_error_keeps_its_step(message):
    exc = errors.DivergenceError(7, message)
    back = pickle.loads(pickle.dumps(exc))
    assert back.step == 7
    assert str(back) == (message or "non-finite loss at training step 7")


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_round_trip_keeps_notes(cls):
    exc = _instance(cls)
    exc.add_note("raised in the worker")
    back = pickle.loads(pickle.dumps(exc, protocol=5))
    assert back.__notes__ == ["raised in the worker"]
