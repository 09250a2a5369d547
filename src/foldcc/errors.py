"""Exception types shared across the package."""


class FoldccError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(FoldccError):
    """A document does not conform to one of the file formats."""


class NotAComplex(FoldccError):
    """The input violates the cubical complex axioms.

    Carries ``detail``: a pair of offending cubes (two distinct cubes on
    one diagonal or one vertex set) or a single cube (repeated corners).
    """

    def __init__(self, message, detail=None):
        super().__init__(message)
        self.detail = detail


class UnknownVertex(FoldccError):
    pass


class MismatchedBase(FoldccError):
    pass


class NotHomogeneous(FoldccError):
    pass


class NotFCC(FoldccError):
    pass


class NotDim3(FoldccError):
    pass


class BadColorSet(FoldccError):
    pass


class NotClosed(FoldccError):
    pass


class IsCircle(FoldccError):
    pass


class NotConnected(FoldccError):
    pass


class NotSingleClass(FoldccError):
    pass


class PreconditionFailed(FoldccError):
    pass


class ConstructionFailed(FoldccError):
    """A theorem-backed construction produced an invalid object.

    Signals an implementation bug, never a mathematical case.
    """


class BadDimension(FoldccError):
    pass


class BadSpec(FoldccError):
    pass


class BadDims(FoldccError):
    pass


class TooLarge(FoldccError):
    pass
