"""Exception hierarchy shared by every meshknit module.

All errors raised by the library derive from :class:`MeshknitError`, so
callers (and the command line) can catch one type.  The subclasses exist
because the CLI maps them to distinct exit codes and because tests want
to assert on the precise failure mode.
"""

from __future__ import annotations


class MeshknitError(Exception):
    """Base class for all library errors."""


class FieldMismatchError(MeshknitError):
    """Operands live over different coefficient fields."""


class DimensionError(MeshknitError):
    """Matrix or vector shapes are incompatible."""


class InvalidVertexError(MeshknitError):
    """A vertex label violates the quiver's coordinate rules."""


class QuiverKindError(MeshknitError):
    """An operation was asked of a quiver kind that does not support it."""


class UnsupportedParameterError(MeshknitError):
    """A parameter is outside the modelled range (e.g. tube with n < 3)."""


class WindowError(MeshknitError):
    """A computation needed a vertex outside the working window.

    The offending vertex is stored on the exception so callers can widen
    the window and retry.
    """

    def __init__(self, message: str, vertex=None):
        super().__init__(message)
        self.vertex = vertex


class MixedPathLengthError(MeshknitError):
    """Paths between the requested endpoints do not share one length.

    Raised when a grade is required but not forced by the quiver shape;
    pass an explicit grade to disambiguate.
    """


class DegreeError(MeshknitError):
    """A graded-center degree does not match the required codomain rule."""


class PreconditionError(MeshknitError):
    """A documented precondition of an operation does not hold."""


class InternalCheckError(MeshknitError):
    """Two internal methods that must agree disagreed; carries a witness."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness
