"""Exception types shared across the benchmark.

The CLI maps ConfigError to exit code 1 and every other failure to 2.
"""


class ConfigError(ValueError):
    """A configuration value is missing, malformed, or out of range."""


class ShapeError(ValueError):
    """Array dimensions do not satisfy an operation's contract."""


class NonFiniteError(ShapeError):
    """An input array holds NaN or Inf entries, such as the features of a
    model whose activations overflowed."""


class DegenerateInputError(ValueError):
    """Input is structurally valid but too small or trivial to process."""


class BoundsError(ValueError):
    """A count or index exceeds what the data can provide."""


class LabelError(ValueError):
    """A class label lies outside the model's output range."""


class GenerationError(RuntimeError):
    """Synthetic data generation could not satisfy its constraints."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss or parameter value."""

    def __init__(self, step: int, message: str = ""):
        self.step = step
        super().__init__(message or f"non-finite loss at training step {step}")

    def __reduce__(self):
        # The default rebuilds from args, the message alone, which would
        # pass the message as the step; the state keeps any notes.
        return type(self), (self.step, str(self)), self.__dict__


class WorkerError(RuntimeError):
    """A worker process exited non-zero or wrote output that cannot be read."""
