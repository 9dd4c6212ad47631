"""Exception types shared across the package, and the helpers that raise
them for the first offending point of a batch."""

from __future__ import annotations

from typing import Callable

import numpy as np


class EikohelixError(Exception):
    """Base class for all errors raised by this package.

    ``grid_index`` is the flat (C-order) batch index of the first offending
    point when the error comes from a check over a batch of points, else
    None; on a sample grid it is the grid index.
    """

    grid_index: int | None = None


def raise_first(mask, make_error: Callable[[int], EikohelixError]) -> None:
    """Raise ``make_error(i)`` for the first batch index i where ``mask`` holds.

    Does nothing when the mask holds nowhere. The raised error carries
    ``grid_index = i``.
    """
    flat = np.ravel(mask)
    if flat.any():
        i = int(flat.argmax())
        error = make_error(i)
        error.grid_index = i
        raise error


def raise_first_check(masks, make_error: Callable[[int, int], EikohelixError]) -> None:
    """``raise_first`` for the first check j whose mask holds anywhere, with ``make_error(j, i)``;
    ``masks`` stacks the checks' masks, in the order the checks are made, on its first axis."""
    flat = np.reshape(masks, (len(masks), -1))
    j = int(flat.any(axis=1).argmax())
    raise_first(flat[j], lambda i: make_error(j, i))


def value_at(values, i: int) -> float | None:
    """Entry i of a flattened batch as a Python float (None stays None).

    Messages format numbers through this so they read ``0.0``, never a
    numpy repr.
    """
    return None if values is None else float(np.ravel(values)[i])


# ---------------------------------------------------------------- parsing


class DslError(EikohelixError):
    """Base class for expression / spec-document parsing errors.

    ``position`` is a 0-based character offset into the source text when
    known, else None.
    """

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)


class IllegalCharacter(DslError):
    def __init__(self, char: str, position: int):
        self.char = char
        super().__init__(f"illegal character {char!r}", position)


class ExprSyntaxError(DslError):
    pass


class UnknownIdentifier(DslError):
    def __init__(self, name: str, position: int | None = None):
        self.name = name
        super().__init__(f"unknown identifier {name!r}", position)


class CoordOutOfRange(DslError):
    def __init__(self, index: int, dimension: int, position: int | None = None):
        self.index = index
        self.dimension = dimension
        super().__init__(
            f"coordinate x{index} out of range for dimension {dimension}", position
        )


class WrongSymbolKind(DslError):
    pass


class SpecDocumentError(DslError):
    """Base for errors in whole curve-spec documents; carries a line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"{message} (line {line})"
        Exception.__init__(self, message)
        self.position = None


class MissingField(SpecDocumentError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"missing required field {name!r}")


class DimensionMismatch(SpecDocumentError):
    pass


# ---------------------------------------------------------------- evaluation


class EvalError(EikohelixError):
    """Base class for numeric evaluation failures."""


class EvalDomainError(EvalError):
    """sqrt/ln/pow applied outside its real domain."""


class EvalOverflow(EvalError):
    """Evaluation produced a non-finite value."""


class JetDivisionByZero(EvalError):
    """Division by a jet or field value that is exactly zero."""


class EmptyInput(EikohelixError):
    """A reduction was asked of an empty value list."""


# ---------------------------------------------------------------- geometry


class FrameError(EikohelixError):
    """Base class for Frenet-frame construction failures."""

    def __init__(self, message: str, s: float | None = None):
        self.s = None if s is None else float(s)
        if s is not None:
            message = f"{message} (at s = {self.s!r})"
        super().__init__(message)


class NotRegular(FrameError):
    """The curve stops: alpha' = 0, so the frame has no tangent."""


class DegenerateCurve(FrameError):
    """The i-th derivative is linearly dependent on its predecessors."""

    def __init__(self, index: int, s: float | None = None):
        self.index = index
        super().__init__(f"derivative {index} linearly dependent on predecessors", s)


class DegenerateCurvature(FrameError):
    """A curvature the harmonic families divide by is not positive and finite:
    rounding left it <= 0 or nan, or a subnormal speed made it infinite."""


class InsufficientOrder(EikohelixError):
    """A jet does not carry enough derivative coefficients for the operation."""
