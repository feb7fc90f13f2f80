"""Exception hierarchy shared across the package."""


class BsdecompError(Exception):
    """Base class for all domain errors raised by this package."""


class LengthMismatch(BsdecompError):
    """Two sequences that must have equal length do not."""


class EmptyColumn(BsdecompError):
    """A diagram column in 0..width has no entries."""


class NotADegreeSequence(BsdecompError):
    """A tuple that must be strictly increasing is not."""


class NonPositiveDegree(BsdecompError):
    """A generator degree was < 1."""


class NotWeaklyIncreasing(BsdecompError):
    """Generator degrees that must be weakly increasing are not."""


class UnsupportedCodimension(BsdecompError):
    """An operation was asked for a codimension it is not defined for."""


class RequiresStrictDegrees(BsdecompError):
    """The first-elimination rule needs strictly increasing degrees.

    A repeated degree gives column minima with Betti numbers above 1.
    """


class SizeExceeded(BsdecompError):
    """A shuffle, census, Koszul or tensor size exceeds its cap; every cap is fixed."""


class NotInCone(BsdecompError):
    """The greedy algorithm cannot decompose the diagram.

    Carries the partial decomposition and the residual at the point of
    failure, since the failure point is diagnostic.
    """

    def __init__(self, message, partial=None, residual=None):
        super().__init__(message)
        self.partial = partial
        self.residual = residual


class BettiFormatError(BsdecompError):
    """A BETTI/1 document failed to parse; `line` is 1-based."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
