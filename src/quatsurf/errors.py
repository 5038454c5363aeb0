"""Domain errors shared across the package.

Every error that a caller can trigger through valid API use derives from
:class:`QuatsurfError`, so the command line layer can map the whole family
onto a single machine-readable failure channel.  Division by a zero
quaternion or zero polynomial raises the builtin ``ZeroDivisionError``.
"""


class QuatsurfError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidInput(QuatsurfError):
    """Malformed data: bad JSON structure, bad literals, broken invariants."""


class DegreeTooHigh(QuatsurfError):
    """A polynomial exceeds the degree bound required by the operation."""


class PreconditionDegree(QuatsurfError):
    """A matrix entry has v-degree above 1, so splitting does not apply."""


class NotDegenerate(QuatsurfError):
    """The matrix has full rank, so no rank-one factorization exists.

    ``witness`` names the test that proved it: ``"leading term"`` or
    ``"trailing term"`` when the extreme terms of the pivot identity differ,
    ``"identity"`` when the whole identity decided; None if not given.
    """

    def __init__(self, message: str, witness: str | None = None):
        super().__init__(message)
        self.witness = witness


class NoProgress(QuatsurfError):
    """Splitting a degenerate matrix found no certificate that reproduces it.

    Not expected for valid input: it means no factor pair read off the
    matrix passed the final product check, or a zero entry had both
    neighbors nonzero in a matrix the extreme-term check let through.
    """


class NotTupleShaped(QuatsurfError):
    """The matrix is not Hermitian-with-real-diagonal, so it encodes no 6-tuple."""


class BasePoint(QuatsurfError):
    """The last tuple component vanishes at the requested parameter point."""


class PolePoint(QuatsurfError):
    """Stereographic projection is undefined at the projection pole."""


class DegenerateFamily(QuatsurfError):
    """The quadric is a multiple of the unit-sphere form; no proper surface."""


class TooFewPoints(QuatsurfError):
    """Fewer than five points were supplied, or two of them are equal."""


class UnsupportedFamily(QuatsurfError):
    """The requested operation is not defined for this surface family."""
