"""Exception and warning types shared across the package."""


class ZetasumsError(Exception):
    """Base class for all package errors."""


class PoleError(ZetasumsError):
    """Evaluation requested at (or too close to) a pole."""


class AccuracyError(ZetasumsError):
    """A series/tail bound exceeded the requested target accuracy."""


class DomainError(ZetasumsError):
    """Arguments outside the documented domain of an operation."""


class RadiusError(ZetasumsError):
    """Sampling circle around or on a zero of the function, or where it is not finite."""


class ConvergenceError(ZetasumsError):
    """Self-validation or iterative refinement failed to converge."""


class NoSignChangeError(ZetasumsError):
    """A root bracket without a sign change was supplied."""


class RangeMismatchError(ZetasumsError):
    """Two zero datasets do not cover a comparable range."""


class EmptyWindowError(ZetasumsError):
    """No translation in the searched interval satisfies the property."""


class OpenContourError(ZetasumsError):
    """A level-curve trace failed to close within the expansion budget."""


class ChecksumError(ZetasumsError):
    """Stored dataset content does not match its manifest checksum."""


class SchemaError(ZetasumsError):
    """Stored dataset file violates the expected schema or ordering."""


class MissedZeroWarning(UserWarning):
    """Observed zero count disagrees with the asymptotic estimate."""


class NonConvergenceWarning(UserWarning):
    """A derivative-zero search did not converge for one triplet."""


class CacheWarning(UserWarning):
    """A cached dataset failed its checks and is being rebuilt."""
