"""Exception hierarchy shared by all cemhelm modules."""


class CemhelmError(Exception):
    """Base class for all cemhelm errors."""


class DimensionMismatch(CemhelmError):
    """Operand shapes are inconsistent."""


class SingularMatrix(CemhelmError):
    """A direct factorization failed (structurally or numerically singular)."""


class SingularSystem(SingularMatrix):
    """The fine-scale discrete system could not be factorized."""


class SingularLocalSystem(SingularMatrix):
    """A constrained patch system is singular (e.g. empty patch interior)."""


class SingularCoarseSystem(SingularMatrix):
    """The coarse multiscale system is singular; usually a resolution or
    oversampling problem.  The message carries a k*H/eps diagnostic."""


class NotPositiveDefinite(CemhelmError):
    """The mass-like matrix of a generalized eigenproblem is not SPD."""


class IndivisibleMesh(CemhelmError):
    """The fine mesh does not nest into the requested coarse mesh."""


class InvalidElement(CemhelmError):
    """A coarse-element id is out of range."""


class MalformedRaster(CemhelmError):
    """A coefficient raster file does not follow the text format."""


class NonPositiveValue(CemhelmError):
    """A coefficient value is zero or negative."""


class MissingRaster(CemhelmError):
    """A model requires a medium/source raster that was not supplied."""


class ZeroReference(CemhelmError):
    """Relative errors are undefined against a zero reference field."""


class IoError(CemhelmError):
    """Reading or writing an artifact file failed."""
