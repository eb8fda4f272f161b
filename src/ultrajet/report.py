"""Finite-prefix check reports.

The growth conditions in this package are asymptotic statements; on a
stored prefix we can only report the best witness constant seen so far and
whether it is still growing with the prefix.  A check therefore returns a
:class:`CheckReport` with one of four verdicts:

* ``HOLDS_UP_TO_K`` -- witness stabilized on the prefix and stayed below the
  configured cap,
* ``FAILS`` -- the witness kept growing from the half prefix to the full
  prefix (divergence trend) or blew past the hard cap,
* ``INCONCLUSIVE`` -- neither pattern is clear,
* ``NOT_WITNESSED_IN_SAMPLE`` -- an existential search over a sampled family
  found no witness (never a proof of failure).

There is one trend rule, :func:`trend_verdict`, on the (half-prefix max, full
max) pair that :func:`log_witness_maxima` takes from any block of witnesses.

A witness is a log, ``CheckReport.log_witness``: the trend rule's full-prefix
max, or log c where a check's witness is a plain positive number c (a
lambda, a partial sum, an A).  It is never exponentiated, because the
witnesses of rows built from weight functions reach e^16000.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ReportError

HOLDS = "HOLDS_UP_TO_K"
FAILS = "FAILS"
INCONCLUSIVE = "INCONCLUSIVE"
NOT_WITNESSED = "NOT_WITNESSED_IN_SAMPLE"

# Hard cap on any reported witness constant, in natural log.  Witnesses past
# exp(60) ~ 1e26 are treated as failures even when the trend test is mute.
LOG_WITNESS_CAP = 60.0

# Trend thresholds: growth of the log-witness from the half prefix to the
# full prefix.  Stable witnesses stay below GROW_HOLDS; diverging families
# (q-Gevrey, the omega_s rows) grow by at least ~log 2 per prefix doubling,
# so the FAILS threshold sits safely below that.
GROW_HOLDS = math.log(1.25)
GROW_FAILS = math.log(1.75)


@dataclass(frozen=True)
class CheckReport:
    verdict: str
    prefix_K: int
    log_witness: float | None = None
    counterexample_index: int | None = None
    note: str = ""
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.verdict == FAILS and self.counterexample_index is None:
            raise ReportError("FAILS verdict requires a counterexample index",
                              "NO_COUNTEREXAMPLE")

    @property
    def holds(self) -> bool:
        return self.verdict == HOLDS

    def to_dict(self) -> dict:
        out = {
            "verdict": self.verdict,
            "log_witness": self.log_witness,
            "counterexample_index": self.counterexample_index,
            "prefix_K": self.prefix_K,
        }
        if self.note:
            out["note"] = self.note
        if self.details:
            out["details"] = self.details
        return out


def log_witness_maxima(log_w) -> tuple[np.ndarray, np.ndarray]:
    """(half-prefix max, full max) along the last axis of ``log_w``, skipping
    non-finite entries: the half prefix of n finite entries is the first
    max(1, n // 2).  A row with none gives -inf twice, read as INCONCLUSIVE."""
    finite = np.isfinite(log_w)
    if finite.all():  # the same rule on views: no block-sized temporaries
        return (np.max(log_w[..., :max(1, log_w.shape[-1] // 2)], axis=-1),
                np.max(log_w, axis=-1))
    rank = np.cumsum(finite, axis=-1)
    w = np.where(finite, log_w, -np.inf)
    half = rank <= np.maximum(1, rank[..., -1:] // 2)
    return np.max(np.where(half, w, -np.inf), axis=-1), np.max(w, axis=-1)


def trend_verdict(m_half, m_full):
    """FAILS when the full-prefix max passes the hard cap or grows from the
    half-prefix max by GROW_FAILS, HOLDS when it grows by at most GROW_HOLDS,
    else INCONCLUSIVE; elementwise on arrays, a str on scalars."""
    with np.errstate(invalid="ignore"):
        growth = np.subtract(m_full, m_half)
        v = np.where((m_full > LOG_WITNESS_CAP) | (growth >= GROW_FAILS), FAILS,
                     np.where(growth <= GROW_HOLDS, HOLDS, INCONCLUSIVE))
    return v if v.ndim else str(v)


def report_from_log_witnesses(log_w: np.ndarray, prefix_K: int, note: str = "") -> CheckReport:
    """Verdict for a `lhs <= C * rhs` condition from per-index log witnesses.

    ``log_w[i]`` is the log of the smallest constant validating the condition
    at index ``i`` (ordered by index).  The verdict is :func:`trend_verdict`
    of its :func:`log_witness_maxima`; a failure names the first finite index
    that reaches both the capped full max and the half max plus GROW_FAILS / 2.
    """
    log_w = np.asarray(log_w, dtype=float)
    log_w = log_w[np.isfinite(log_w)]
    if log_w.size == 0:
        return CheckReport(INCONCLUSIVE, prefix_K, note=note or "no finite witnesses")
    m_half, m_full = (float(m) for m in log_witness_maxima(log_w))
    over = np.flatnonzero(log_w > max(m_half + GROW_FAILS / 2, min(m_full, LOG_WITNESS_CAP)) - 1e-12)
    return report_from_prefix_witnesses(m_half, m_full, prefix_K,
                                        int(over[0]) + 1 if over.size else log_w.size, note)


def report_from_prefix_witnesses(log_w_half: float, log_w_full: float, prefix_K: int,
                                 counterexample_index: int | None = None,
                                 note: str = "") -> CheckReport:
    """Report of the trend rule on a (half-prefix, full-prefix) witness pair."""
    verdict = trend_verdict(log_w_half, log_w_full)
    idx = None if verdict != FAILS else (
        prefix_K if counterexample_index is None else counterexample_index)
    return CheckReport(verdict, prefix_K, float(log_w_full), idx,
                       note, {"log_witness_growth": log_w_full - log_w_half})


def log_bound_tally(log_lhs, log_rhs) -> dict:
    """The one tally of a bound lhs <= rhs spot-checked over an entry set,
    from the logs of both sides (the caller takes them): ``checked`` entries,
    ``violations`` where log lhs > log rhs + 1e-9, and ``max_log_margin``, the
    largest log lhs - log rhs (-inf over no entries)."""
    margin = np.subtract(log_lhs, log_rhs)
    return {"violations": int(np.count_nonzero(log_lhs > np.add(log_rhs, 1e-9))),
            "max_log_margin": float(np.max(margin, initial=-np.inf)),
            "checked": int(margin.size)}


def verdicts_agree(reports) -> bool:
    """True when every report in an equivalence group carries the same verdict."""
    vs = {r.verdict for r in reports}
    return len(vs) == 1
