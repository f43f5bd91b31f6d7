"""Exception types shared across the package."""


class SignCorrError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(SignCorrError, ValueError):
    """Input fails a structural precondition (shape, finiteness, range)."""


class DegenerateScaleError(SignCorrError, ValueError):
    """A scale estimate is zero or a diagonal entry is not positive."""


class DegenerateDataError(SignCorrError, ValueError):
    """Data admits no meaningful estimate (e.g. a rank-collapsed sign covariance)."""


class RankDeficiencyError(SignCorrError, ValueError):
    """A spectrum has too few nonzero eigenvalues for the requested map."""


class ConvergenceError(SignCorrError, RuntimeError):
    """An iterative routine did not converge within its iteration budget.

    Attributes
    ----------
    iterations : int or None
        Number of update steps performed before giving up.
    residual : float or None
        Last convergence measure (routine-specific).
    last_iterate : ndarray or None
        The final iterate, for diagnosis.
    """

    def __init__(self, message, *, iterations=None, residual=None, last_iterate=None):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual
        self.last_iterate = last_iterate


class QuadratureError(SignCorrError, RuntimeError):
    """``eigenmap.forward``'s sign spectrum drifted from sum one by over 1e-9."""
