"""Exception types shared across the package, each with its CLI exit code."""

__all__ = ["AbflowError", "InvalidParamsError", "SingularPointError", "NumericalError"]


class AbflowError(Exception):
    """Base class for all library errors; only its subclasses are raised."""

    exit_code: int


class InvalidParamsError(AbflowError, ValueError):
    """An input out of its documented range: a flow parameter, a point that
    is not finite, a grid, a circulation circle, a time span, a command
    line."""

    exit_code = 2


class SingularPointError(AbflowError, ValueError):
    """A point within the vortex core, where x*x + y*y is below the smallest
    normal double, or a trajectory start the flow cannot run from."""

    exit_code = 3


class NumericalError(AbflowError, ArithmeticError):
    """A result is not finite in doubles."""

    exit_code = 4
