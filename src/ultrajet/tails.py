"""Tail estimation for sums over a stored prefix.

The descendant construction and every decision check need values of
``sum_{j >= k} 1/nu_j`` while only ``j <= K`` is stored.  Two estimators
cover the sequences we meet:

* power-law fit ``log(1/nu_j) ~ log a - b log j + sum_q c_q j^{-q}`` on the
  tail half of the prefix, summed past K with Hurwitz zeta values (after
  expanding the exponential of the correction series to matching order);
  :func:`hurwitz_zeta` computes them in NumPy, a short direct sum closed
  by the Euler-Maclaurin formula with the Bernoulli numbers B_2..B_16;
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
_LOG_DOUBLE_MAX = math.log(np.finfo(float).max)


# B_2j / (2j)! for j = 1..8, the Euler-Maclaurin coefficients of hurwitz_zeta
_EM_COEFFS = tuple(float(Fraction(b) / math.factorial(2 * j)) for j, b in enumerate(
    ["1/6", "-1/30", "1/42", "-1/30", "5/66", "-691/2730", "7/6", "-3617/510"], 1))


def hurwitz_zeta(s, a: float) -> np.ndarray:
    """Hurwitz zeta(s, a) = sum_{n >= 0} (a + n)^-s, entry by entry of s.

    Every entry of ``s`` must exceed 1 and ``a >= 1``.  For each entry the
    first N = max(0, ceil(s - a) + 10) terms are summed directly, smallest
    first; the rest is the Euler-Maclaurin tail at x = a + N,
    x^(1-s)/(s-1) + x^-s/2 + sum_j B_2j/(2j)! s(s+1)...(s+2j-2) x^(-s-2j+1),
    j = 1..8.  The result is within 3e-15 relative of zeta for s <= 60
    (within 5e-16 for s <= 12), and every entry equals its one-element call
    bit for bit.
    """
    s = np.asarray(s, dtype=float)
    n = np.maximum(0.0, np.ceil(s - a) + 10.0)
    x = a + n
    # rows are the terms n = max N, ..., 1, 0, zeroed where n >= the entry's
    # own N (row max N always); accumulate adds them strictly in this order,
    # so the zeros ahead of an entry's terms leave its sum unchanged
    m = np.arange(np.max(n), -1.0, -1.0)
    rows = np.where(np.less.outer(m, n), np.power.outer(a + m, -s), 0.0)
    direct = np.add.accumulate(rows, axis=0)[-1]
    x_s = x ** -s
    # the Bernoulli sum by Horner's rule, smallest term first: term j + 1 is
    # term j times (s + 2j - 1)(s + 2j) / x^2
    tail = _EM_COEFFS[-1]
    for j in range(len(_EM_COEFFS) - 1, 0, -1):
        tail = _EM_COEFFS[j - 1] + (s + (2 * j - 1)) * (s + 2 * j) / (x * x) * tail
    return direct + (x * x_s / (s - 1.0) + (0.5 * x_s + s * x_s / x * tail))


@dataclass(frozen=True)
class TailEstimate:
    beyond: float          # estimate of sum_{j > K} of the sequence
    err_bar: float         # absolute uncertainty of `beyond`
    method: str            # "powerlaw" | "geometric" | "none"
    fitted_decay: float    # exponent b of j^-b, or +inf for geometric


def _powerlaw_fit(vals: np.ndarray, K: int, orders: int, lo_frac: float):
    j = np.arange(1, K + 1, dtype=float)
    w = slice(int(lo_frac * K), K)
    jw = j[w]
    yw = np.log(vals[w])
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
    if coef[0] > _LOG_DOUBLE_MAX:
        return None  # the fitted amplitude a leaves double range
    a = math.exp(coef[0])
    z = hurwitz_zeta(b + np.arange(orders + 1), K + 1)
    est = a * sum(float(e[q]) * float(z[q]) for q in range(0, orders + 1))
    if not np.isfinite(est) or est < 0:
        return None
    return est, resid


def estimate_tail(vals: np.ndarray, *, positive: bool = True) -> TailEstimate:
    """Estimate sum_{j > K} v_j from samples v_1..v_K of a decaying sequence."""
    vals = np.asarray(vals, dtype=float)
    K = len(vals)
    if K < 16 or np.any(vals <= 0):
        return TailEstimate(0.0, float("inf"), "none", float("nan"))

    fits = {}
    for orders, frac in [(FIT_ORDERS, 0.5), (FIT_ORDERS - 1, 0.5), (FIT_ORDERS, 0.75)]:
        fits[(orders, frac)] = _powerlaw_fit(vals, K, orders, frac)
    main = fits[(FIT_ORDERS, 0.5)]

    ratios = vals[-8:] / vals[-9:-1]
    r = float(ratios[-1])
    geo_ok = np.all(ratios < 0.999) and r < 0.999
    geo = vals[-1] * r / (1.0 - r) if geo_ok else float("inf")

    if main is not None and main[1] < RESID_GOOD:
        est, resid = main
        alt1 = fits[(FIT_ORDERS - 1, 0.5)]
        alt2 = fits[(FIT_ORDERS, 0.75)]
        spread = sum(abs(est - a[0]) for a in (alt1, alt2) if a is not None)
        err = 4.0 * spread + 3.0 * resid * est + 1e-15 * est
        return TailEstimate(float(est), float(err), "powerlaw",
                            float(-np.log(vals[-1] / vals[-2]) / np.log(K / (K - 1.0))))
    if geo_ok:
        # quotients of a log-convex nu give decreasing ratios: geometric sum
        # with the last ratio is an upper bracket, one extra term the lower
        lo = vals[-1] * r
        return TailEstimate(float(geo), float(abs(geo - lo)), "geometric", float("inf"))
    return TailEstimate(0.0, float("inf"), "none", float("nan"))


@dataclass(frozen=True)
class SuffixSums:
    """The suffix sums of one row and the tail estimate they carry."""

    log_T: np.ndarray      # log sum_{j >= k} v_j, k = 1..K (index 0 is k = 1)
    est: TailEstimate
    bound: float           # tail estimate plus its error bar (inf: no decay found)
    total: float           # the partial sum the bound is judged against

    def __post_init__(self):
        self.log_T.flags.writeable = False  # a row's one tail, shared by its readers

    def require_reliable(self, tag: str) -> None:
        """Raise TAIL_UNRELIABLE, naming the row ``tag``, when the tail bound
        exceeds ``TAIL_REL_CAP`` times the partial sum."""
        if math.isinf(self.bound):
            raise TailUnreliable(f"{tag}: no decay detected in deep-underflow regime for sum 1/nu")
        if self.bound > TAIL_REL_CAP * self.total:
            raise TailUnreliable(
                f"{tag}: tail bound {self.bound:.3e} exceeds {TAIL_REL_CAP:.0%} "
                f"of partial sum 1/nu {self.total:.3e}")


def log_suffix_sums(log_vals: np.ndarray) -> SuffixSums:
    """Suffix sums ``T_k = sum_{j >= k} v_j`` of v = exp(log_vals), with the
    estimated tail past the prefix, in the log domain; never raises.

    Values within double range are summed directly and the tail comes from
    :func:`estimate_tail`; otherwise the running sums accumulate with
    logaddexp and the tail past the prefix is bounded geometrically from the
    last log-decrements.
    """
    log_vals = np.asarray(log_vals, dtype=float)
    if np.min(log_vals) > -700.0:
        vals = np.exp(log_vals)
        est = estimate_tail(vals)
        finite = np.isfinite(est.err_bar)
        beyond = est.beyond if finite else 0.0
        suffix = np.cumsum(vals[::-1])[::-1] + beyond
        # undetectable decay: treat the last term as the scale of the tail
        bound = beyond + est.err_bar if finite else vals[-1] * len(vals)
        return SuffixSums(np.log(suffix), est, float(bound), float(suffix[0]))
    steps = np.diff(log_vals[-8:])
    q = float(np.exp(steps[-1]))
    if np.any(steps > -1e-12) or q >= 0.999:
        log_beyond = float(log_vals[-1])  # crude: one more comparable term
        est = TailEstimate(0.0, float("inf"), "none", float("nan"))
    else:
        log_beyond = (float(log_vals[-1] + math.log(q / (1.0 - q)))
                      if q > 0.0 else -math.inf)
        est = TailEstimate(0.0, 0.0, "geometric-log", float("inf"))
    rev = np.concatenate([[log_beyond], log_vals[::-1]])
    log_T = np.logaddexp.accumulate(rev)[1:][::-1]
    return SuffixSums(log_T, est, est.beyond + est.err_bar, float(np.exp(log_T[0])))
