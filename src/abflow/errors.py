"""Exception types shared across the package."""


class AbflowError(Exception):
    """Base class for all library errors."""


class InvalidParamsError(AbflowError, ValueError):
    """An input out of its documented range: a flow parameter, a grid, a
    circulation circle, a time span, a command line (CLI exit 2)."""


class SingularPointError(AbflowError, ValueError):
    """A point at the vortex core (the origin), where the field diverges, or
    a trajectory start the flow cannot run from (CLI exit 3)."""


class NumericalError(AbflowError, ArithmeticError):
    """A result is not finite in doubles (CLI exit 4)."""
