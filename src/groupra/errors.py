"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "GroupTableError",
    "NotASubgroupError",
    "NotNormalError",
    "IncompatibleQuotientsError",
    "NotRelatedError",
    "InvalidFrameError",
    "UncheckedFrameError",
    "FrameMismatchError",
    "FrameBuildError",
    "FrameFormatError",
]


class GroupTableError(ValueError):
    """An operation table fails one of the group axioms."""


class NotASubgroupError(ValueError):
    """A candidate subset is not a subgroup; the message names a witness."""


class NotNormalError(ValueError):
    """A subgroup is not normal; the message names a conjugation witness."""


class IncompatibleQuotientsError(ValueError):
    """Two quotients have different orders, so no isomorphism can exist."""


class NotRelatedError(ValueError):
    """The requested pair of group indices lies in different blocks."""


class InvalidFrameError(ValueError):
    """Frame data is structurally broken or fails the frame conditions.

    ``pair`` names a faulty stored record; ``witness`` says why its map is
    not a quotient isomorphism.
    """

    pair: tuple[str, str] | None = None
    witness: str | None = None


class UncheckedFrameError(RuntimeError):
    """An operation required a frame check that has not been run yet."""


class FrameMismatchError(ValueError):
    """Two elements belong to different frames and cannot be combined."""


class FrameBuildError(ValueError):
    """A builder refused its input; the message names the failed condition."""


class FrameFormatError(ValueError):
    """A frame file could not be parsed.

    Carries the 1-based line number of the offending line.
    """

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.reason = message
