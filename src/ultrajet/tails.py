"""Tail estimation for sums over a stored prefix, in the log domain.

The descendant construction and every decision check need values of
``sum_{j >= k} 1/nu_j`` while only ``j <= K`` is stored.  One path serves
every row: it reads log 1/nu_j and returns logs, since rows from weight
functions carry 1/nu_j far below double range.  Two estimators cover the
sequences we meet:

* power-law fit ``log(1/nu_j) ~ log a - b log j + sum_q c_q j^{-q}`` on the
  tail half of the prefix, summed past K with Hurwitz zeta values (after
  expanding the exponential of the correction series to matching order);
  :func:`hurwitz_zeta` computes them scaled, so the sum's log needs no
  double of a;
* a geometric bracket from the last quotient, for super-power decay where
  the log-log fit has no meaning.

The estimator is chosen by fit quality; the returned error bar combines the
model-order and window sensitivities and is empirically conservative.

There is one :class:`SuffixSums` per row, ``WeightSequence.tail``, computed
once and read by every caller; computing it never raises.  A caller that needs
a small tail calls ``require_reliable``, which judges it against the one cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import TailUnreliable

FIT_ORDERS = 4
RESID_GOOD = 1e-7
TAIL_REL_CAP = 0.01  # the one cap: largest tail bound / partial sum


# B_2j / (2j)! for j = 1..8, the Euler-Maclaurin coefficients of hurwitz_zeta
_EM_COEFFS = tuple(float(Fraction(b) / math.factorial(2 * j)) for j, b in enumerate(
    ["1/6", "-1/30", "1/42", "-1/30", "5/66", "-691/2730", "7/6", "-3617/510"], 1))


def hurwitz_zeta(s, a: float) -> np.ndarray:
    """Scaled Hurwitz zeta a^s zeta(s, a) = sum_{n >= 0} (1 + n/a)^-s, entry
    by entry of s: near 1 for any s, where zeta(s, a) leaves double range.

    Every entry of ``s`` must exceed 1 and ``a >= 1``.  For each entry the
    first N = max(0, ceil(s - a) + 10) terms are summed directly, smallest
    first; the rest is a^s times the Euler-Maclaurin tail at x = a + N,
    x^(1-s)/(s-1) + x^-s/2 + sum_j B_2j/(2j)! s(s+1)...(s+2j-2) x^(-s-2j+1),
    j = 1..8.  The result is within 3e-15 relative for s <= 60 (within
    5e-16 for s <= 12), and every entry equals its one-element call bit for
    bit.
    """
    s = np.asarray(s, dtype=float)
    n = np.maximum(0.0, np.ceil(s - a) + 10.0)
    x = a + n
    # rows are the terms n = max N, ..., 1, 0, zeroed where n >= the entry's
    # own N (row max N always); accumulate adds them strictly in this order,
    # so the zeros ahead of an entry's terms leave its sum unchanged
    m = np.arange(np.max(n), -1.0, -1.0)
    rows = np.where(np.less.outer(m, n), np.power.outer((a + m) / a, -s), 0.0)
    direct = np.add.accumulate(rows, axis=0)[-1]
    x_s = (x / a) ** -s
    # the Bernoulli sum by Horner's rule, smallest term first: term j + 1 is
    # term j times (s + 2j - 1)(s + 2j) / x^2
    tail = _EM_COEFFS[-1]
    for j in range(len(_EM_COEFFS) - 1, 0, -1):
        tail = _EM_COEFFS[j - 1] + (s + (2 * j - 1)) * (s + 2 * j) / (x * x) * tail
    return direct + (x * x_s / (s - 1.0) + (0.5 * x_s + s * x_s / x * tail))


@dataclass(frozen=True)
class TailEstimate:
    log_beyond: float      # log of the estimate of sum_{j > K} of the sequence
    log_err: float         # log of the absolute uncertainty of the estimate
    method: str            # "powerlaw" | "geometric" | "none"


_NO_TAIL = TailEstimate(-math.inf, math.inf, "none")


def _powerlaw_fit(log_vals: np.ndarray, K: int, orders: int, lo_frac: float):
    """(log of the fitted sum past K, max residual on the window), or None:
    log a - b log(K+1) + log sum_q e_q (K+1)^-q a^s zeta(s, K+1), s = b + q."""
    j = np.arange(1, K + 1, dtype=float)
    w = slice(int(lo_frac * K), K)
    jw = j[w]
    yw = log_vals[w]
    cols = [np.ones_like(jw), np.log(jw)] + [(K / jw) ** q for q in range(1, orders + 1)]
    X = np.stack(cols, axis=1)
    coef, *_ = np.linalg.lstsq(X, yw, rcond=None)
    resid = float(np.abs(X @ coef - yw).max())
    b = -coef[1]
    if not np.isfinite(b) or b <= 1.05:
        return None
    # c[q]: coefficient of j^-q; exponential expansion to the same order
    c = np.zeros(orders + 1)
    for q in range(1, orders + 1):
        c[q] = coef[2 + q - 1] * K ** q
    e = np.zeros(orders + 1)
    e[0] = 1.0
    for n in range(1, orders + 1):
        e[n] = sum(m * c[m] * e[n - m] for m in range(1, n + 1)) / n
    if np.max(np.abs(e[1:]) * (1.0 / K) ** np.arange(1, orders + 1)) > 0.5:
        return None  # corrections too large on the window: not power-law data
    q = np.arange(orders + 1)
    z = hurwitz_zeta(b + q, K + 1)
    scaled = sum(float(e[i]) * float(z[i]) * (K + 1.0) ** -i for i in q)
    if not np.isfinite(scaled) or scaled <= 0:
        return None
    return coef[0] - b * math.log(K + 1.0) + math.log(scaled), resid


def estimate_tail(log_vals: np.ndarray) -> TailEstimate:
    """Estimate sum_{j > K} v_j from log v_1..log v_K of a decaying sequence;
    a zero term (log -inf) in the second half, where the rules read, leaves
    it without a tail model."""
    log_vals = np.asarray(log_vals, dtype=float)
    K = len(log_vals)
    if K < 16 or not np.all(np.isfinite(log_vals[K // 2:])):
        return _NO_TAIL

    main, alt1, alt2 = (_powerlaw_fit(log_vals, K, orders, frac) for orders, frac in
                        [(FIT_ORDERS, 0.5), (FIT_ORDERS - 1, 0.5), (FIT_ORDERS, 0.75)])
    if main is not None and main[1] < RESID_GOOD:
        log_est, resid = main
        spread = sum(abs(math.expm1(a[0] - log_est)) for a in (alt1, alt2) if a is not None)
        rel_err = 4.0 * spread + 3.0 * resid + 1e-15
        return TailEstimate(float(log_est), float(log_est + math.log(rel_err)), "powerlaw")
    steps = np.diff(log_vals[-9:])
    if np.all(steps < math.log(0.999)):
        # quotients of a log-convex nu give decreasing ratios: geometric sum
        # with the last ratio r is an upper bracket, one extra term the lower
        log_r = float(steps[-1])
        log_geo = float(log_vals[-1]) + log_r - math.log1p(-math.exp(log_r))
        return TailEstimate(log_geo, log_geo + log_r, "geometric")
    return _NO_TAIL


@dataclass(frozen=True)
class SuffixSums:
    """The suffix sums of one row and the tail estimate they carry."""

    log_T: np.ndarray      # log sum_{j >= k} v_j, k = 1..K (index 0 is k = 1)
    est: TailEstimate

    def __post_init__(self):
        self.log_T.flags.writeable = False  # a row's one tail, shared by its readers

    def require_reliable(self, tag: str) -> None:
        """Raise TAIL_UNRELIABLE, naming the row ``tag``, when the tail bound
        (estimate plus error bar, infinite without a tail model) exceeds
        ``TAIL_REL_CAP`` times the partial sum."""
        log_bound = np.logaddexp(self.est.log_beyond, self.est.log_err)
        if log_bound > math.log(TAIL_REL_CAP) + self.log_T[0]:
            raise TailUnreliable(
                f"{tag}: tail bound {np.exp(log_bound):.3e} exceeds {TAIL_REL_CAP:.0%} "
                f"of partial sum 1/nu {np.exp(self.log_T[0]):.3e}")


def log_suffix_sums(log_vals: np.ndarray) -> SuffixSums:
    """Suffix sums ``T_k = sum_{j >= k} v_j`` of v = exp(log_vals): the
    prefix's running sums, accumulated in logs from the end, plus the tail
    past the prefix from :func:`estimate_tail`; never raises."""
    est = estimate_tail(log_vals)
    log_T = np.logaddexp(np.logaddexp.accumulate(log_vals[::-1])[::-1], est.log_beyond)
    return SuffixSums(log_T, est)
