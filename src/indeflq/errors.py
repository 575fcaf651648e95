"""Exception types shared across the package."""


class IndefLQError(Exception):
    """Base class for all errors raised by this package."""


class ConstraintViolation(IndefLQError):
    """The effective control weight lost uniform positivity.

    Carries the time at which the violation was detected and the offending
    minimal eigenvalue (margin).
    """

    def __init__(self, time, margin, message=None):
        self.time = float(time)
        self.margin = float(margin)
        super().__init__(
            message
            or f"effective control weight not positive at t={self.time:.6g} "
            f"(min eigenvalue {self.margin:.3e})"
        )


class GridMismatch(IndefLQError, ValueError):
    """A path does not match the problem's sample grid or matrix shape.

    Also a ValueError: a wrong shape is a bad input value like any other.
    """


class NumericalOverflow(IndefLQError):
    """A simulated state left the representable range (explosive closed loop)."""


class StepLimit(IndefLQError):
    """The adaptive integrator exhausted its step budget."""


class SpecError(IndefLQError):
    """A problem-specification file failed to parse or validate."""
