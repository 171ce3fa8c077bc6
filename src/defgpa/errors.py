"""Exception hierarchy shared by all defgpa modules."""


class DefgpaError(Exception):
    """Base class for all defgpa errors."""


class InvalidMatrix(DefgpaError):
    """Matrix input is non-finite or not symmetric within tolerance."""


class DimensionError(DefgpaError):
    """Incompatible or impossible dimensions."""


class DegenerateInput(DefgpaError):
    """Input carries no usable signal (all-zero matrix, zero-scale shape)."""


class FormatError(DefgpaError):
    """Malformed or inconsistent shape document."""


class UnconstrainedPoint(DefgpaError):
    """A landmark is visible in no shape, so its reference entry is undetermined."""


class DegenerateCenters(DefgpaError):
    """Control centers are collapsed or otherwise unusable for a TPS."""


class InsufficientOverlap(DefgpaError):
    """Fewer than d+1 jointly visible points between two shapes."""


class DegenerateConfiguration(DefgpaError):
    """Point configuration leaves the requested transform undetermined."""


class SingularSystem(DefgpaError):
    """A per-shape normal matrix could not be factorized."""

    def __init__(self, message, shape_index=None):
        super().__init__(message)
        self.shape_index = shape_index


class SingularTransform(DefgpaError):
    """A transform with no usable inverse (non-invertible affine part)."""


def _raised(outcome):
    """An outcome that may be the DefgpaError that stopped it, raised if it is."""
    if isinstance(outcome, DefgpaError):
        raise outcome
    return outcome
