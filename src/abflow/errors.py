"""Exception types shared across the package."""


class AbflowError(Exception):
    """Base class for all library errors."""


class InvalidParamsError(AbflowError, ValueError):
    """Parameter set violates a documented constraint."""


class SingularPointError(AbflowError, ValueError):
    """Evaluation requested at the vortex core (origin) where the field diverges."""


class InvalidStartError(AbflowError, ValueError):
    """Integration start point lies inside the core exclusion radius."""


class InvalidContourError(AbflowError, ValueError):
    """Polyline or quadrature contour is malformed or out of range."""


class NumericalError(AbflowError, ArithmeticError):
    """A result is not finite in doubles (CLI exit 4)."""
