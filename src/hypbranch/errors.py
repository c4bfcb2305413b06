"""Exception types shared across the library."""


class InvalidParameterError(ValueError):
    """A representation or geometry parameter violates a stated invariant."""


class AssumptionError(InvalidParameterError):
    """A standing assumption (signature bounds, parity) is violated."""


class DivergenceError(ArithmeticError):
    """An integral is requested outside its convergence region."""


class ToleranceError(ArithmeticError):
    """A numeric routine could not meet the requested tolerance."""
