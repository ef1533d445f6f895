"""Shared exception types.

Exit-code mapping used by the CLI: parse/usage problems exit 1, and so does
an ``OSError`` from reading the input file or writing an output file;
:class:`AlgebraicRootHalt` exits 2, :class:`InternalInvariantError` exits 3,
:class:`QuadratureError` exits 4.
"""

from __future__ import annotations

from fractions import Fraction


class NRestrictError(Exception):
    """Base class for all package errors."""


class ParseError(NRestrictError):
    """Raised on malformed input expressions; carries a byte offset."""

    def __init__(self, message: str, offset: int | None = None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (at byte {offset})"
        super().__init__(message)


class AlgebraicRootHalt(NRestrictError):
    """A coordinate-change step needs an irrational root coefficient.

    Coefficients are exact rationals only, so the step cannot be performed.
    The halt carries the isolating interval of the offending root and a
    square-free witness polynomial (rational roots divided out) that vanishes
    there.
    """

    def __init__(self, interval: tuple[Fraction, Fraction], factor,
                 multiplicity: int, context: str = ""):
        self.interval = interval
        self.factor = factor
        self.multiplicity = multiplicity
        self.context = context
        lo, hi = interval
        super().__init__(
            f"irrational root in ({lo}, {hi}) of multiplicity {multiplicity}"
            + (f" while {context}" if context else ""))

    def to_json_dict(self) -> dict:
        return {
            "error": "algebraic-root",
            "interval": [str(self.interval[0]), str(self.interval[1])],
            "multiplicity": self.multiplicity,
            "witness_poly": [str(c) for c in self.factor.coeffs],
            "context": self.context,
        }


class InternalInvariantError(NRestrictError):
    """A dual-route computation disagreed or an internal assertion failed."""


class QuadratureError(NRestrictError):
    """Oscillatory quadrature could not reach the requested accuracy."""
