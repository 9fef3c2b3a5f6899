"""Exception types shared across the package."""


class NahnError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(NahnError, ValueError):
    """Invalid input: a malformed config, bad parameters or bad numerical input."""


class NumericalError(NahnError, RuntimeError):
    """A numerical procedure could not produce a trustworthy result."""


class EigensolverError(NumericalError):
    """The dense eigensolver did not converge."""


class PhaseBoundaryError(NumericalError):
    """The tracked determinant vanished on the momentum loop (exceptional point hit)."""


class ReferenceOnSpectrumError(NumericalError):
    """The reference energy lies on the periodic-boundary spectral curve."""


class OpenTrajectoryError(NumericalError):
    """A band trajectory fails to close over the momentum loop."""


class SingularNetworkError(NumericalError):
    """The admittance matrix is near-singular at the requested drive frequency."""
