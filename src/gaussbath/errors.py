"""Exception types shared across the package."""


class GaussBathError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParams(GaussBathError, ValueError):
    """A parameter violates its documented domain (negative occupation, dt <= 0, ...)."""


class NonPhysical(GaussBathError):
    """A covariance matrix fails a physicality condition beyond numerical tolerance."""


class DomainError(GaussBathError, ValueError):
    """A value lies outside its domain: an entropy-function argument below 1
    beyond tolerance, or an exact invariant too large for a double."""


class InvalidInput(GaussBathError, ValueError):
    """An operation was called with inputs that make it meaningless (e.g. a
    separable state handed to the sudden-death search)."""
