"""Error codes shared across the package.

Every raised error carries a stable ``code`` string so the CLI can map
failures to exit codes and JSON diagnostics without parsing messages.
"""

from __future__ import annotations


class UltrajetError(Exception):
    """Base error with a stable machine-readable code.

    Codes raised on the base class: BAD_INDEX (an index outside the range a
    definition accepts, such as phi_{p,k} with k < 1), NON_POSITIVE (an
    argument that must be positive, such as t in h(t)).
    """

    code = "INTERNAL"

    def __init__(self, message: str, code: str | None = None):
        super().__init__(message)
        if code is not None:
            self.code = code


class SequenceSpecError(UltrajetError):
    """Invalid weight-sequence data.

    Codes: NON_LOGCONVEX, NOT_NORMALIZED, NON_POSITIVE, PREFIX_TOO_SHORT (a
    check that needs K >= 8), PREFIX_MISMATCH (two sequences of different K),
    PARAMS_MISMATCH (a matrix whose params and rows differ in number),
    BAD_SPEC (a sequence, weight-function or matrix spec that is not a JSON
    object or has a missing or malformed field).
    """


class JetSpecError(UltrajetError):
    """Invalid compact set or jet data.

    Codes: NON_POSITIVE (an interval of length <= 0), OVERLAP (intervals that
    are not disjoint), EMPTY_SET, BAD_JET_VALUES (values that are not finite
    or not one row of order_cap + 1 per carried point), NOT_CARRIED (an
    anchor that is not a carried point of the jet), UNKNOWN_FAMILY (a jet
    kind ``sample_jet`` does not build), BAD_SPEC (a jet file that is not a
    JSON object, or a table jet without values or order_cap).
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


class ReportError(UltrajetError):
    """Invalid check report data.

    Codes: NO_COUNTEREXAMPLE (a FAILS verdict without a counterexample index).
    """


class SplineError(UltrajetError):
    """Invalid piecewise-polynomial data.

    Codes: BAD_SHAPE (no pieces, or coefficient rows that do not match the
    pieces), NOT_INCREASING (breakpoints that are not finite and strictly
    increasing, given or made by an affine substitution), NON_POSITIVE (an
    affine scale or box width that is not > 0, NaN included).
    """


class CutoffError(UltrajetError):
    """Codes: A_TOO_SMALL, BAD_INDEX (an interpolation order p < 1),
    DEPTH_INSUFFICIENT, NON_POSITIVE (a cutoff with eps <= 0 or t <= 1),
    TOO_MANY_PIECES (a box pass whose input spline exceeds the piece ceiling),
    WIDTH_BUDGET."""


class ExtensionError(UltrajetError):
    """Codes: JET_NOT_IN_CLASS, ROW_CHAIN_UNAVAILABLE, NOT_ADMISSIBLE_IN_SAMPLE,
    COVER_INCOMPLETE, NON_POSITIVE (a cover with d_min <= 0, or an
    ``ExtensionConfig`` field out of range)."""
