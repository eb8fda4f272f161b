"""Controlled-derivative cutoff functions as exact splines.

A cutoff phi_{eps,t} is an iterated box-convolution of an indicator: the
box widths come from a two-regime sequence alpha_k^p ((2p)^k up to order p,
then a multiple of the growth row), chosen so that the width sum stays
below 1 and the k-th derivative is bounded by eps^k Ndot_k over the
h-function of the descendant at scale eps (t - 1).

The bump depends on eps only through the order p of its interpolation
sequence (:func:`cutoff_order`): two cutoffs with equal p, t and requested
smoothness are the same spline, so callers building many of them key their
cache on p.

Everything is verified numerically after construction; the constants
(A, delta, B) are searched or computed, never assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..descend import Descendant
from ..errors import CutoffError
from ..report import log_bound_tally
from ..seqcalc import WeightSequence, log_h_assoc
from .ppoly import PiecewisePolynomial, indicator

WIDTH_FLOOR_REL = 1e-14
CONV_DEPTH = 24          # most box passes of one cutoff
# Largest spline a box pass may convolve: in the lattice regime of low orders
# p each pass roughly doubles the pieces, so a full-depth build runs out of
# memory long before its last pass.
MAX_CUTOFF_PIECES = 1 << 16


@dataclass(frozen=True)
class AlphaSequence:
    p: int
    A: float
    log_alpha: np.ndarray      # indices 0..n
    ratio_sum: float           # sum_k alpha_k / alpha_{k+1} incl. tail bound
    valid: bool

    def widths(self, upto: int) -> np.ndarray:
        """d_k = alpha_{k-1}/alpha_k for k = 1..upto."""
        la = self.log_alpha
        n = min(upto, len(la) - 1)
        return np.exp(np.maximum(la[:n] - la[1 : n + 1], -745.0))


def _ratio_sums(D: Descendant, Ndot: WeightSequence, p: np.ndarray,
                A: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(log alpha, ratio sum, valid) of the order-p interpolation sequences
    with constant A, one of each per entry of p >= 1.

    alpha_k = (2p)^k for k <= p and (A / sigma*_{p+1})^k Ndot_k beyond, for
    k = 0..n with n = min(K_eff, Ndot.K) - 1.  The ratio sum is
    sum_{k>=0} alpha_k / alpha_{k+1}: the stored k < n, then
    sigma*_{p+1} / A times the growth row's tail sum_{j > n} 1/nudot_j,
    read from ``Ndot.tail``; a sequence is valid when it is at most 1.
    Every entry is the same float expression whatever the rows beside it.
    """
    n = min(D.K_eff, Ndot.K) - 1
    p_used = np.minimum(p, n - 1)
    k = np.arange(n + 1, dtype=float)
    log_sig_star_next = D.log_sigma_star[p_used]   # sigma*_{p+1} (0-based index p)
    log_2p = np.array([math.log(2.0 * q) for q in p.tolist()])
    log_alpha = np.where(k <= p_used[:, None], k * log_2p[:, None],
                         k * (math.log(A) - log_sig_star_next)[:, None] + Ndot.log_M[: n + 1])
    ratios = np.exp(log_alpha[:, :-1] - log_alpha[:, 1:])
    tail = [math.exp(v) for v in (log_sig_star_next - math.log(A) + Ndot.tail.log_T[n]).tolist()]
    total = np.sum(ratios, axis=1) + tail
    return log_alpha, total, total <= 1.0 + 1e-12


def alpha_sequence(D: Descendant, Ndot: WeightSequence, p: int,
                   A: float) -> AlphaSequence:
    """The order-p interpolation sequence of :func:`_ratio_sums` with
    constant A."""
    if p < 1:
        raise CutoffError(f"alpha_sequence needs p >= 1, got {p}", code="BAD_INDEX")
    log_alpha, total, valid = _ratio_sums(D, Ndot, np.array([p]), A)
    return AlphaSequence(p, A, log_alpha[0], float(total[0]), bool(valid[0]))


@dataclass(frozen=True)
class CutoffFamily:
    """Shared data for all cutoffs built from one (descendant, growth row) pair."""

    D: Descendant              # descendant of the regularity row
    Ndot: WeightSequence       # growth row appearing in the derivative bounds
    A: float
    delta: float               # 1 / h_s(1/3)
    B: float                   # 1 / (6 delta A)
    p_cap: int                 # largest order p at which A was validated

    def log_h_small_s(self, log_t: float) -> float:
        return log_h_assoc(self.D.small_s, log_t)

    def log_derivative_bound(self, epsilon: float, t: float, k: int) -> float:
        """log of eps^k Ndot_k / h_s(B eps (t-1))."""
        log_nd = float(self.Ndot.log_M[k])
        return (k * math.log(epsilon) + log_nd
                - self.log_h_small_s(math.log(self.B) + math.log(epsilon)
                                     + math.log(t - 1.0)))


def make_cutoff_family(D: Descendant, Ndot: WeightSequence) -> CutoffFamily:
    """Search the smallest power-of-two A validating the ratio-sum bound at
    every order p = 1..p_cap, p_cap = min(K_eff - 2, 64), each A one
    :func:`_ratio_sums` over all the orders, then freeze delta and B.
    :func:`build_cutoff` never uses an order above p_cap.  The ratio sums
    read ``Ndot.tail``, which must pass ``require_reliable``."""
    Ndot.tail.require_reliable(Ndot.family_tag)
    p_cap = min(D.K_eff - 2, 64)
    orders = np.arange(1, p_cap + 1)
    A = 1.0
    for _ in range(60):
        if np.all(_ratio_sums(D, Ndot, orders, A)[2]):
            break
        A *= 2.0
    else:
        raise CutoffError("no A up to 2^60 validates the ratio sum", code="A_TOO_SMALL")
    delta = math.exp(-log_h_assoc(D.small_s, -math.log(3.0)))
    B = 1.0 / (6.0 * delta * A)
    return CutoffFamily(D, Ndot, A, delta, B, p_cap)


@dataclass(frozen=True)
class CutoffResult:
    pp: PiecewisePolynomial
    epsilon: float
    t: float
    p: int
    n_convolutions: int
    widths: np.ndarray


def cutoff_order(fam: CutoffFamily, epsilon: float, t: float) -> int:
    """The order p of the interpolation sequence of phi_{eps,t}: the largest
    with sigma*_p <= 2A / (eps (t-1) / delta), clamped to 1..p_cap.

    Raises ``CutoffError`` NON_POSITIVE unless eps > 0 and t > 1.
    """
    if not (epsilon > 0.0 and t > 1.0):
        raise CutoffError(f"cutoff needs epsilon > 0 and t > 1, got "
                          f"epsilon={epsilon}, t={t}", code="NON_POSITIVE")
    eta_t = epsilon * (t - 1.0) / fam.delta
    log_bound = math.log(2.0 * fam.A) - math.log(eta_t)
    if log_bound < 0.0:
        return 1        # eta past the top of the scale: reuse the coarsest bump
    p = int(np.searchsorted(fam.D.log_sigma_star, log_bound, side="right"))
    return max(1, min(p, fam.p_cap))


def build_cutoff(fam: CutoffFamily, epsilon: float, t: float,
                 min_smoothness: int | None = None) -> CutoffResult:
    """phi_{eps,t}: 1 on [-1, 1], 0 outside (-t, t), derivative bounds per
    the family.

    The box widths are the alpha quotients of order p = :func:`cutoff_order`
    scaled by (t - 1), so eps enters only through p.  Convolutions stop at
    ``CONV_DEPTH`` or when widths fall below representable spacing; the
    declared smoothness order is the number of convolutions minus one, and
    callers needing derivative orders beyond that get DEPTH_INSUFFICIENT.
    A box pass whose input has more than ``MAX_CUTOFF_PIECES`` pieces raises
    TOO_MANY_PIECES instead of running.
    """
    p = cutoff_order(fam, epsilon, t)
    # Convolutions beyond the claimed smoothness only shrink the derivative
    # bounds we never assert; stopping there keeps the piece count linear in
    # the lattice regime and geometric only over claimed orders.
    depth_cap = CONV_DEPTH if min_smoothness is None else min(
        CONV_DEPTH, max(min_smoothness + 1, 2))
    lam = t - 1.0
    alpha = alpha_sequence(fam.D, fam.Ndot, p, fam.A)
    if not alpha.valid:
        raise CutoffError(f"ratio sum {alpha.ratio_sum:.4f} > 1 at p={p}, A={fam.A}",
                          code="A_TOO_SMALL")
    widths = lam * alpha.widths(depth_cap)
    if float(np.sum(widths)) > lam * (1.0 + 1e-9):
        raise CutoffError(
            f"width sum {np.sum(widths):.4f} exceeds budget t-1 = {lam:.4f}",
            code="WIDTH_BUDGET")
    floor = WIDTH_FLOOR_REL * 2.0 * t
    usable = int(np.argmax(widths < floor)) if np.any(widths < floor) else len(widths)
    if usable == 0:
        raise CutoffError("first box width below representable spacing",
                          code="DEPTH_INSUFFICIENT")
    n = usable
    if min_smoothness is not None and n - 1 < min_smoothness:
        raise CutoffError(
            f"only {n} convolutions representable (smoothness {n - 1} < "
            f"{min_smoothness}); enlarge CONV_DEPTH or lower the requested order",
            code="DEPTH_INSUFFICIENT")
    c0 = 0.5 * (t + 1.0)
    pp = indicator(-c0, c0)
    for i, w in enumerate(widths[:n]):
        if len(pp.coeffs) > MAX_CUTOFF_PIECES:
            raise CutoffError(
                f"cutoff of order p={p} has {len(pp.coeffs)} pieces before box pass "
                f"{i + 1} of {n}, over the ceiling of {MAX_CUTOFF_PIECES}; pass "
                f"min_smoothness to stop at the orders you check", code="TOO_MANY_PIECES")
        pp = pp.convolve_box(float(w))
    lo, hi = pp.span
    if not (-t - 1e-9 <= lo and hi <= t + 1e-9):
        raise CutoffError("support escaped (-t, t)", code="WIDTH_BUDGET")
    return CutoffResult(pp, epsilon, t, p, n, widths[:n])


def verify_cutoff(fam: CutoffFamily, res: CutoffResult, orders) -> dict:
    """Range, plateau, support, and derivative-bound checks at 1000 even
    probes over (-t - 1/4, t + 1/4), 250 seeded uniform ones in (-t, t), and
    -1, 0, 1, -t, t.

    Derivative bounds are compared in the log domain (the right-hand side
    routinely exceeds double range) by :func:`~ultrajet.report.log_bound_tally`,
    one tally per order.
    """
    t = res.t
    xs = np.concatenate([np.linspace(-t - 0.25, t + 0.25, 1000),
                         np.random.default_rng(0).uniform(-t, t, 250), [-1.0, 0.0, 1.0, -t, t]])
    checked = [k for k in orders if k <= res.n_convolutions - 1]
    vals, *derivs = res.pp(xs, order=[0] + checked)
    out = {
        "range_ok": bool(np.all(vals >= -1e-12) and np.all(vals <= 1.0 + 1e-12)),
        "plateau_ok": bool(np.all(np.abs(vals[np.abs(xs) <= 1.0] - 1.0) <= 1e-12)),
        "support_ok": bool(np.all(np.abs(vals[np.abs(xs) >= t]) <= 1e-12)),
        "orders": {},
    }
    sup = res.pp.support()
    out["support_window"] = sup
    out["support_exact"] = bool(sup[0] >= -t - 1e-12 and sup[1] <= t + 1e-12)
    dvals = dict(zip(checked, derivs))
    for k in orders:
        if k not in dvals:
            out["orders"][k] = {"checked": False, "reason": "beyond smoothness order"}
            continue
        out["orders"][k] = {**log_bound_tally(np.log(np.maximum(np.abs(dvals[k]), 1e-300)),
                                              fam.log_derivative_bound(res.epsilon, t, k)),
                            "checked": True}
    out["bound_ok"] = all(o.get("violations", 1) == 0
                          for o in out["orders"].values() if o["checked"])
    return out
