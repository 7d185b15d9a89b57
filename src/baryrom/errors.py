"""Exception types shared across the package."""


class BaryromError(Exception):
    """Base class for all library errors."""


class NumericalError(BaryromError):
    """Base class of the numerical failures; the command line exits 3 on them."""


class ShapeMismatchError(BaryromError):
    """Inputs do not share the required array shapes."""


class RankDeficientError(NumericalError):
    """A matrix that must be full column rank is not."""


class SingularOverlapError(NumericalError):
    """The overlap of two subspace representatives is numerically singular."""


class RankTooSmallError(NumericalError):
    """Requested truncation order exceeds the numerical rank of the data."""


class DuplicateNodesError(BaryromError):
    """Interpolation nodes must be pairwise distinct."""


class SingularMassError(NumericalError):
    """The reduced mass matrix is not invertible."""


class ZeroReferenceError(NumericalError):
    """Relative error is undefined against a zero reference field."""


class DivergedSolutionError(NumericalError):
    """Time integration blew past the divergence cap."""


class DataIntegrityError(BaryromError):
    """A file referenced by a manifest is missing or fails its hash check."""


class ConfigError(BaryromError):
    """A configuration file is malformed or inconsistent."""


class NotConvergedError(NumericalError):
    """Fixed-point iteration stopped at max_iter above tolerance.

    Carries the last iterate so callers may opt in to using it anyway.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result
