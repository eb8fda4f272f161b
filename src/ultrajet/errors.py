"""Error codes shared across the package.

Every raised error carries a stable ``code`` string so the CLI can map
failures to exit codes and JSON diagnostics without parsing messages.
"""

from __future__ import annotations


class UltrajetError(Exception):
    """Base error with a stable machine-readable code.

    Codes raised on the base class: BAD_INDEX (an index outside the range a
    definition accepts, such as phi_{p,k} with k < 1).
    """

    code = "INTERNAL"

    def __init__(self, message: str, code: str | None = None):
        super().__init__(message)
        if code is not None:
            self.code = code


class SequenceSpecError(UltrajetError):
    """Invalid weight-sequence data.

    Codes: NON_LOGCONVEX, NOT_NORMALIZED, NON_POSITIVE.
    """


class PrefixExhausted(UltrajetError):
    """A counting function was queried beyond the stored prefix."""

    code = "PREFIX_EXHAUSTED"


class QuasianalyticInput(UltrajetError):
    code = "QUASIANALYTIC_INPUT"


class TailUnreliable(UltrajetError):
    code = "TAIL_UNRELIABLE"


class NonincreasingResult(UltrajetError):
    code = "NONINCREASING_RESULT"


class OrderExceeded(UltrajetError):
    code = "ORDER_EXCEEDED"


class PoleOnSet(UltrajetError):
    code = "POLE_ON_SET"


class ConjugateUnbounded(UltrajetError):
    code = "UNBOUNDED"


class CutoffError(UltrajetError):
    """Codes: A_TOO_SMALL, BAD_INDEX (an interpolation order p < 1),
    DEPTH_INSUFFICIENT, NON_POSITIVE (a cutoff with eps <= 0 or t <= 1),
    WIDTH_BUDGET."""


class ExtensionError(UltrajetError):
    """Codes: JET_NOT_IN_CLASS, ROW_CHAIN_UNAVAILABLE, NOT_ADMISSIBLE_IN_SAMPLE,
    COVER_INCOMPLETE, NON_POSITIVE (a cover with d_min <= 0)."""
