"""Shared exception types.

Exit-code mapping used by the CLI: parse/usage problems exit 1, and so does
an ``OSError`` from reading the input file or writing an output file;
:class:`InternalInvariantError` exits 3, :class:`QuadratureError` exits 4.
Exit code 2 is reserved and never returned, so that 3 and 4 keep their
meaning; the shear that would have needed it is always rational (see
``adapted._shear_root``).
"""

from __future__ import annotations


class NRestrictError(Exception):
    """Base class for all package errors."""


class ParseError(NRestrictError):
    """Raised on malformed input expressions; carries a byte offset."""

    def __init__(self, message: str, offset: int | None = None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (at byte {offset})"
        super().__init__(message)


class InternalInvariantError(NRestrictError):
    """A dual-route computation disagreed or an internal assertion failed."""


class QuadratureError(NRestrictError):
    """Oscillatory quadrature could not reach the requested accuracy."""
