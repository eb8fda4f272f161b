"""Weight sequences and their associated functions.

A weight sequence M is a positive log-convex sequence with M_0 = 1 whose
quotients mu_k = M_k / M_{k-1} increase from mu_0 = 1.  Everything is stored
and manipulated in the log domain: rows derived from weight functions reach
log M_k ~ 1e4 on a K = 512 prefix, far past double range.

Associated objects: h(t) = inf_k M_k t^k, the counting functions Gamma and
Sigma, and omega(t) = int_0^t Sigma(u)/u du, together with the growth checks
(moderate growth, mixed growth, non-quasianalyticity, equivalence).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import PrefixExhausted, SequenceSpecError, UltrajetError
from .report import (CheckReport, FAILS, HOLDS, INCONCLUSIVE,
                     report_from_log_witnesses, report_from_prefix_witnesses)
from .tails import SuffixSums, log_suffix_sums

# Relative slack for monotonicity of quotients; absorbs rounding in rows that
# come out of numerical Young conjugation.
MU_MONOTONE_TOL = 1e-9

# log k! for k < len: entry k is the rounded log of the exact integer k!
_LOG_FACTORIAL = np.zeros(1)


def log_factorial(k):
    """log k! for an int or an int array of k >= 0 (a float, or an array of
    k's shape).

    Reads a module table that grows to the largest k asked for.  Entry k is
    ``math.log(math.factorial(k))``, within 1.3 ulp of log k! for k < 4100;
    ``math.lgamma(k + 1)`` is off by up to 3.2 ulp (at k = 2).
    """
    global _LOG_FACTORIAL
    try:
        out = _LOG_FACTORIAL[k]
    except IndexError:
        n, top = len(_LOG_FACTORIAL), int(np.max(k))
        f = math.factorial(n - 1)
        grown = []
        for i in range(n, top + 1):
            f *= i
            grown.append(math.log(f))
        _LOG_FACTORIAL = np.concatenate([_LOG_FACTORIAL, grown])
        out = _LOG_FACTORIAL[k]
    return out if isinstance(out, np.ndarray) else float(out)


@dataclass(frozen=True)
class WeightSequence:
    """Finite prefix of a weight sequence, in log domain.

    ``log_M[k] = log M_k`` for ``0 <= k <= K`` with ``log_M[0] = 0``.
    """

    log_M: np.ndarray
    family_tag: str = "table"

    def __post_init__(self):
        arr = np.asarray(self.log_M, dtype=float)
        arr.flags.writeable = False
        object.__setattr__(self, "log_M", arr)

    @property
    def K(self) -> int:
        return len(self.log_M) - 1

    @functools.cached_property
    def log_mu(self) -> np.ndarray:
        """log mu_k for k = 1..K (index 0 of the array is k = 1), computed
        once and read-only, as ``log_M`` is."""
        arr = np.diff(self.log_M)
        arr.flags.writeable = False
        return arr

    @functools.cached_property
    def tail(self) -> SuffixSums:
        """The one tail of this row, sum_{j >= k} 1/mu_j for k = 1..K, computed
        on first use and read by every check."""
        return log_suffix_sums(-self.log_mu)

    @functools.cached_property
    def nonquasianalytic(self) -> CheckReport:
        """The one non-quasianalyticity report of this row
        (:func:`check_nonquasianalytic`), computed on first use and read by
        every check."""
        return check_nonquasianalytic(self)

    @property
    def log_m_small(self) -> np.ndarray:
        """log m_k with m_k = M_k / k!."""
        return self.log_M - log_factorial(np.arange(self.K + 1))

    def truncated(self, K_new: int) -> "WeightSequence":
        if K_new > self.K:
            raise PrefixExhausted(f"prefix has K={self.K}, asked for {K_new}")
        return WeightSequence(self.log_M[: K_new + 1].copy(), self.family_tag)

    def scaled(self, c: float) -> "WeightSequence":
        """The sequence c^k M_k (quotients shift by the constant factor c)."""
        k = np.arange(self.K + 1)
        return WeightSequence(self.log_M + k * math.log(c),
                              f"{self.family_tag}*scale({c:g})")

    def weight_trend_ok(self) -> bool:
        """Prefix trend for M_k^{1/k} -> infinity (reported, never enforced)."""
        k = np.arange(1, self.K + 1)
        root = self.log_M[1:] / k
        return root[-1] >= root[max(0, len(root) // 8)] + math.log(4.0)


def from_log_quotients(log_mu: np.ndarray, family_tag: str) -> WeightSequence:
    log_M = np.concatenate([[0.0], np.cumsum(log_mu)])
    return WeightSequence(log_M, family_tag)


def make_sequence(spec, K: int | None = None) -> WeightSequence:
    """Build a validated WeightSequence from a family descriptor.

    ``spec`` is a dict ``{"family": ..., "params": {...}, "K": int}`` (a
    WeightSequence is returned as it is).  Raises SequenceSpecError BAD_SPEC
    when the spec or its params is not a dict, or a family parameter is
    missing or malformed.
    """
    if isinstance(spec, WeightSequence):
        return spec
    if not isinstance(spec, dict) or not isinstance(spec.get("params", {}), dict):
        raise SequenceSpecError(f"unsupported sequence spec: {spec!r}", code="BAD_SPEC")
    family = spec.get("family")
    params = spec.get("params", {})
    K = int(spec.get("K", K if K is not None else 512))
    if K < 2:
        raise SequenceSpecError("prefix length K must be >= 2", code="NON_POSITIVE")
    k = np.arange(K + 1, dtype=float)
    try:
        if family == "gevrey":
            s = float(params["s"])
            log_M = s * log_factorial(np.arange(K + 1))
            tag = f"gevrey({s:g})"
        elif family == "qgevrey":
            q = float(params["q"])
            if q <= 1:
                raise SequenceSpecError("qgevrey needs q > 1", code="NON_POSITIVE")
            log_M = (k ** 2) * math.log(q)
            tag = f"qgevrey({q:g})"
        elif family == "powerlog":
            A = float(params["A"])
            p = float(params["p"])
            if A <= 1 or p < 1:
                raise SequenceSpecError("powerlog needs A > 1, p >= 1", code="NON_POSITIVE")
            log_M = (k ** p) * math.log(A)
            tag = f"powerlog({A:g},{p:g})"
        elif family == "table":
            logs = params.get("log_values")
            if logs is not None:
                log_M = np.asarray(logs, dtype=float)
            else:
                vals = np.asarray(params["values"], dtype=float)
                if np.any(vals <= 0) or not np.all(np.isfinite(vals)):
                    bad = int(np.nonzero(~(vals > 0) | ~np.isfinite(vals))[0][0])
                    raise SequenceSpecError(f"non-positive table entry at k={bad}",
                                            code="NON_POSITIVE")
                log_M = np.log(vals)
            tag = "table"
        else:
            raise SequenceSpecError(f"unknown family {family!r}", code="NON_POSITIVE")
    except (KeyError, TypeError, ValueError) as exc:
        raise SequenceSpecError(f"bad {family} params: {type(exc).__name__} {exc}",
                                code="BAD_SPEC") from exc
    return validate_sequence(log_M, tag)


def validate_sequence(log_M: np.ndarray, family_tag: str) -> WeightSequence:
    log_M = np.asarray(log_M, dtype=float)
    if not np.all(np.isfinite(log_M)):
        raise SequenceSpecError("log M contains non-finite entries", code="NON_POSITIVE")
    if abs(log_M[0]) > 1e-12:
        raise SequenceSpecError("M_0 must be 1", code="NOT_NORMALIZED")
    log_mu = np.diff(log_M)
    scale = np.maximum(1.0, np.abs(log_mu[:-1]))
    drops = log_mu[1:] - log_mu[:-1] < -MU_MONOTONE_TOL * scale
    if log_mu.size and log_mu[0] < -MU_MONOTONE_TOL:
        raise SequenceSpecError("mu_1 < mu_0 = 1", code="NON_LOGCONVEX")
    if np.any(drops):
        k = int(np.nonzero(drops)[0][0]) + 2
        raise SequenceSpecError(f"quotients decrease at k={k}", code="NON_LOGCONVEX")
    return WeightSequence(log_M, family_tag)


# -- associated functions ----------------------------------------------------

# Entries of the (points x K+1) term table that log_h_assoc builds at once.
_LOG_H_BLOCK = 1 << 14


def _log_terms(M: WeightSequence, log_t) -> np.ndarray:
    """log(M_k t^k) for k = 0..K, one row per entry of ``log_t`` (a single
    row for a scalar); t = 0 (log t = -inf) has no finite terms."""
    lt = np.asarray(log_t, dtype=float)
    if not np.all(lt > -math.inf):
        raise UltrajetError(f"h needs t > 0, got log t = {log_t}", code="NON_POSITIVE")
    return M.log_M + np.arange(M.K + 1) * lt[..., None]


def log_h_assoc(M: WeightSequence, log_t):
    """log h(t) at ``log_t = log t``, a scalar (a float is returned) or an
    array (an array of its shape); raises ``UltrajetError`` NON_POSITIVE at
    log t = -inf.

    Points are taken in blocks of at most ``_LOG_H_BLOCK`` table entries, so
    a long grid never holds the whole (points x K+1) term table.
    """
    lt = np.asarray(log_t, dtype=float)
    flat = lt.reshape(-1)
    out = np.empty(len(flat))
    step = max(1, _LOG_H_BLOCK // (M.K + 1))
    for i in range(0, len(flat), step):
        out[i: i + step] = np.min(_log_terms(M, flat[i: i + step]), axis=1)
    return float(out[0]) if lt.ndim == 0 else out.reshape(lt.shape)


def _prefix_count(M: WeightSequence, n, log_t, past_edge, edge: str):
    """The counts ``n`` at ``log_t`` (an int for a scalar).  A count equal to
    K is exactly the past-the-prefix case: such entries read ``past_edge``,
    or else ``PrefixExhausted`` names the first of them."""
    n = np.asarray(n)
    at_edge = n == M.K
    if at_edge.any():
        if past_edge is None:
            first = float(np.ravel(log_t)[np.argmax(at_edge.ravel())])
            raise PrefixExhausted(f"{edge} (K={M.K}, log t={first:g})")
        n = np.where(at_edge, past_edge, n)
    return int(n) if n.ndim == 0 else n


def gamma_count(M: WeightSequence, log_t, past_edge: int | None = None):
    """Gamma(t) = min{k : mu_{k+1} >= 1/t}, the index attaining h(t), at
    ``log_t = log t`` (a scalar, or an array: an array of its shape).

    At exact quotient points mu_{k+1} = 1/t the tie resolves downward (the
    smallest minimizing index), matched by a relative tolerance.  Past the
    prefix, -log t > log mu_K (and log t = -inf), the count is K: such
    entries raise ``PrefixExhausted`` or read ``past_edge``.
    """
    target = -np.asarray(log_t, dtype=float)  # log(1/t)
    with np.errstate(invalid="ignore"):       # log t = -inf gives nan: past the edge
        target = target - 1e-12 * np.maximum(1.0, np.abs(target))
    return _prefix_count(M, np.searchsorted(M.log_mu, target, side="left"),
                         log_t, past_edge, "mu_K < 1/t")


def sigma_count(M: WeightSequence, log_t):
    """Sigma(t) = #{k >= 1 : mu_k <= t} = max{k : mu_k <= t}, at
    ``log_t = log t`` (a scalar, or an array: an array of its shape).

    Is 0 at log t = -inf.  Past the prefix, log t >= log mu_K, the count is
    K, and ``PrefixExhausted`` is raised.
    """
    return _prefix_count(M, np.searchsorted(M.log_mu, log_t, side="right"),
                         log_t, None, "t >= mu_K")


def omega_assoc(M: WeightSequence, log_t):
    """omega(t) = sum over mu_k <= t of log(t / mu_k) = n log t - sum_{k<=n}
    log mu_k with n = Sigma(t), at ``log_t = log t`` (a scalar, or an array:
    an array of its shape).  Is 0 at log t = -inf; raises ``PrefixExhausted``
    where :func:`sigma_count` does."""
    lt = np.asarray(log_t, dtype=float)
    n = np.asarray(sigma_count(M, lt))
    om = n * np.where(n > 0, lt, 0.0) - M.log_M[n]    # n = 0 reads 0, even at -inf
    return float(om) if om.ndim == 0 else om


# -- growth checks -----------------------------------------------------------

def _pairwise_log_witness(log_top: np.ndarray, log_pair: np.ndarray,
                          j_min: int) -> np.ndarray:
    """For condition T_{j+k} <= C^{j+k} P_j P_k: per-total-order log witness.

    Entry ``i`` (total order n = i + 2) is max over j + k = n, j_min <= j <= k,
    of ``(log T_n - log P_j - log P_k) / n``.
    """
    K = len(log_top) - 1
    out = np.full(K - 1, -np.inf)
    for n in range(2, K + 1):
        j = np.arange(j_min, n // 2 + 1)
        w = (log_top[n] - log_pair[j] - log_pair[n - j]) / n
        out[n - 2] = float(np.max(w))
    return out


def log_quotient_doubling(M: WeightSequence, Mdot: WeightSequence) -> np.ndarray:
    """log mu_{2k} - log mudot_k for k = 1..M.K // 2: the log witnesses of
    the quotient doubling mu_{2k} <= C mudot_k.  Read by L2.2-3 and L2.2-4
    (Mdot = M), by (2.11), and by the hypothesis of Lemma 4.2-6."""
    kk = np.arange(1, M.K // 2 + 1)
    return M.log_mu[2 * kk - 1] - Mdot.log_mu[kk - 1]


def check_moderate_growth(M: WeightSequence) -> dict[str, CheckReport]:
    """The six equivalent moderate-growth conditions, checked independently.

    Returns a map from condition id ``L2.2-0`` .. ``L2.2-5`` to a report.
    The verdicts are expected to agree on every builtin family; callers
    should treat disagreement as a diagnostic, not resolve it.
    """
    if M.K < 8:
        raise SequenceSpecError(f"moderate growth check needs K >= 8, got K = {M.K}",
                                code="PREFIX_TOO_SHORT")
    K = M.K
    reports: dict[str, CheckReport] = {}

    reports["L2.2-0"] = report_from_log_witnesses(
        _pairwise_log_witness(M.log_m_small, M.log_m_small, 1), K,
        note="m_{j+k} <= C^{j+k} m_j m_k")
    reports["L2.2-1"] = report_from_log_witnesses(
        _pairwise_log_witness(M.log_M, M.log_M, 1), K, note="M_{j+k} <= C^{j+k} M_j M_k")

    k = np.arange(1, K + 1)
    w2 = M.log_mu - M.log_M[1:] / k
    reports["L2.2-2"] = report_from_log_witnesses(w2, K, note="mu_k <= C M_k^{1/k}")

    w3 = log_quotient_doubling(M, M)
    reports["L2.2-3"] = report_from_log_witnesses(w3, K, note="mu_{2k} <= C mu_k")

    # (4): 2 Sigma(t) <= Sigma(Ct).  Binding t are the quotient points, and
    # Sigma(C mu_k) >= 2k exactly when C mu_k >= mu_{2k}: the smallest
    # admissible C at t = mu_k is mu_{2k} / mu_k, the witness of (3).
    reports["L2.2-4"] = report_from_log_witnesses(w3, K, note="2 Sigma(t) <= Sigma(Ct)")

    reports["L2.2-5"] = _check_omega_doubling(M)
    return reports


def _check_omega_doubling(M: WeightSequence) -> CheckReport:
    """Condition (5): exists C with 2 omega(t) <= omega(Ct) + C for all t.

    The witness at prefix K' is the smallest log C on a half-unit grid that
    validates the inequality at every quotient point t = mu_k, k <= K', with
    C t inside the prefix (C t < mu_K, where omega is evaluated honestly);
    trend semantics then compare the half and full prefix witnesses.  The
    grid stops at the first C >= 2 max omega(t), where the inequality holds
    at every t because omega >= 0.
    """
    K = M.K
    edge = M.log_mu[-1]

    def smallest_logC(upto: int) -> float:
        lt = M.log_mu[:upto]
        lt = lt[lt < edge]            # C >= 1: only these t can have C t inside
        om = omega_assoc(M, lt)
        logC = 0.0
        while math.exp(logC) < 2 * np.max(om, initial=0.0):
            inside = lt + logC < edge  # none inside: vacuous, trend/cap decides
            if not np.any(2 * om[inside] > omega_assoc(M, lt[inside] + logC)
                          + math.exp(logC)):
                break
            logC += 0.5
        return logC

    return report_from_prefix_witnesses(smallest_logC(K // 2), smallest_logC(K), K,
                                        note="2 omega(t) <= omega(Ct) + C")


def check_mixed_growth(M: WeightSequence, Mdot: WeightSequence) -> dict[str, CheckReport]:
    """Mixed growth of a pair: mu_{2k} <= C mudot_k and its consequences.

    Reports the witnesses for the quotient condition, for the two-sequence
    moderate-growth inequality M_{k+j} <= C^{k+j} Mdot_j Mdot_k, for the
    h-function form h_M(t) <= h_Mdot(Ct)^2, and the lambda < 1 of the
    counting-function form 2 Gamma_Mdot(t) <= Gamma_M(lambda t).
    """
    if M.K != Mdot.K:
        raise SequenceSpecError(f"sequences must share prefix length, got K = {M.K} "
                                f"and {Mdot.K}", code="PREFIX_MISMATCH")
    K = M.K
    rep11 = report_from_log_witnesses(log_quotient_doubling(M, Mdot), K,
                                      note="mu_{2k} <= C mudot_k")

    # (2.14): M_{k+j} <= C^{k+j} Mdot_j Mdot_k, per total order
    out = _pairwise_log_witness(M.log_M, Mdot.log_M, 0)
    rep14 = report_from_log_witnesses(out, K, note="M_{k+j} <= C^{k+j} Mdot_j Mdot_k")

    # (2.12): h_M(t) <= h_Mdot(Ct)^2 on each prefix's own grid of t; the
    # witness is log C rounded up to a half-unit grid, infinite from 1400 on
    def logC_12(upto_K: int) -> float:
        c = math.ceil(2.0 * h_power_log_constant(
            M.truncated(upto_K), Mdot.truncated(upto_K), 2)) / 2.0
        return c if c < 1400.0 else float("inf")

    rep12 = report_from_prefix_witnesses(
        logC_12(K // 2), logC_12(K), K,
        counterexample_index=K, note="h_M(t) <= h_Mdot(Ct)^2")

    # (2.13): lambda < 1 with 2 Gamma_Mdot(t) <= Gamma_M(lambda t)
    lam, checked_k = gamma_doubling_lambda(M, Mdot)
    note13 = "2 Gamma_Mdot(t) <= Gamma_M(lambda t)"
    if lam is None:
        rep13 = CheckReport(FAILS, K, counterexample_index=K,
                            note=f"no lambda in {{2^-1..2^-29}} validates {note13}")
    elif checked_k == 0:
        rep13 = CheckReport(INCONCLUSIVE, K,
                            note=note13 + "; lambda t leaves the prefix at the "
                                          "first binding t, nothing checked",
                            details={"checked_k": 0})
    else:
        rep13 = CheckReport(HOLDS, K, log_witness=math.log(lam),
                            note=note13 + "; witness is lambda",
                            details={"checked_k": checked_k})
    return {"2.11": rep11, "2.12": rep12, "2.13": rep13, "2.14": rep14}


def h_power_log_constant(M: WeightSequence, N: WeightSequence, n: int) -> float:
    """Smallest log C >= 0 with log h_M(t) <= n log h_N(C t) + 1e-9 at 48
    values of log t evenly spaced from -0.9 log mu_K (of ``M``) to -1e-3.

    No search: x -> log h_N(e^x) = min_k (log N_k + k x) is concave and
    nondecreasing, so log h_N(e^x) >= y exactly when
    x >= max_{k >= 1} (y - log N_k) / k (the k = 0 term 0 >= y holds because
    h_M <= 1).  The answer is the largest such x - log t over the grid.
    """
    lt = np.linspace(-0.9 * float(M.log_mu[-1]), -1e-3, 48)
    y = (log_h_assoc(M, lt) - 1e-9) / n
    x_star = np.max((y[:, None] - N.log_M[1:]) / np.arange(1, N.K + 1), axis=1)
    return max(0.0, float(np.max(x_star - lt)))


def gamma_doubling_lambda(M: WeightSequence,
                          Mdot: WeightSequence) -> tuple[float | None, int]:
    """Largest lambda in {2^-1, ..., 2^-29} with
    2 Gamma_Mdot(t) <= Gamma_M(lambda t), and the number of binding t checked.

    The binding t sit just above 1/mudot_k, where Gamma_Mdot jumps to k, for
    k = 1..K-1.  For each lambda they are checked in order up to the first
    one whose lambda t falls off M's stored prefix.  Returns
    ``(lambda, checked_k)``; ``checked_k == 0`` means lambda t fell off at
    the first binding t, so nothing was checked, and ``(None, 0)`` means
    every lambda failed a checked t.
    """
    k1 = np.arange(1, Mdot.K)
    for e in range(1, 30):
        lam = 2.0 ** -e
        g = gamma_count(M, (-Mdot.log_mu[:-1] + 1e-12) + math.log(lam), past_edge=M.K)
        past = g == M.K
        n = int(np.argmax(past)) if past.any() else len(k1)
        if np.all(2 * k1[:n] <= g[:n]):
            return lam, n
    return None, 0


def check_nonquasianalytic(N: WeightSequence) -> CheckReport:
    """Convergence trend for sum_k 1/nu_k.

    Log-log slope of 1/nu_k over the tail half of the prefix: slope <= -1.1
    reports HOLDS (witness: the partial sum), slope >= -1.0 reports FAILS, in
    between is INCONCLUSIVE.  A prefix cannot prove convergence; thresholds
    are part of the contract.
    """
    if N.K < 8:
        raise SequenceSpecError(f"non-quasianalyticity check needs K >= 8, got K = {N.K}",
                                code="PREFIX_TOO_SHORT")
    K = N.K
    k = np.arange(1, K + 1)
    log_inv = -N.log_mu  # log(1/nu_k)
    w = slice(K // 2 - 1, K)
    x = np.log(k[w])
    y = log_inv[w]
    slope = float(np.polyfit(x, y, 1)[0])
    log_partial = float(np.logaddexp.reduce(log_inv))
    if slope <= -1.1:
        return CheckReport(HOLDS, K, log_witness=log_partial,
                           note=f"tail slope {slope:.3f} <= -1.1; witness is the partial sum")
    if slope >= -1.0:
        return CheckReport(FAILS, K, log_witness=log_partial,
                           counterexample_index=K,
                           note=f"tail slope {slope:.3f} >= -1.0 (divergence trend)")
    return CheckReport(INCONCLUSIVE, K, log_witness=log_partial,
                       note=f"tail slope {slope:.3f} in (-1.1, -1.0)")


def check_equivalence(M: WeightSequence, N: WeightSequence) -> dict[str, CheckReport]:
    """Witnesses for M_k^{1/k} <= C N_k^{1/k} in both directions.

    Also reports the stronger quotient relation mu ~ nu; equivalence of the
    root sequences follows from it.
    """
    if M.K != N.K:
        raise SequenceSpecError(f"sequences must share prefix length, got K = {M.K} "
                                f"and {N.K}", code="PREFIX_MISMATCH")
    K = M.K
    k = np.arange(1, K + 1)
    fwd = (M.log_M[1:] - N.log_M[1:]) / k
    bwd = -fwd
    rep_f = report_from_log_witnesses(fwd, K, note="M_k^{1/k} <= C N_k^{1/k}")
    rep_b = report_from_log_witnesses(bwd, K, note="N_k^{1/k} <= C M_k^{1/k}")
    qf = report_from_log_witnesses(M.log_mu - N.log_mu, K, note="mu_k <= C nu_k")
    qb = report_from_log_witnesses(N.log_mu - M.log_mu, K, note="nu_k <= C mu_k")
    both = HOLDS if rep_f.holds and rep_b.holds else (
        FAILS if FAILS in (rep_f.verdict, rep_b.verdict) else INCONCLUSIVE)
    idx = [r.counterexample_index for r in (rep_f, rep_b)
           if r.counterexample_index is not None]
    summary = CheckReport(
        both, K,
        log_witness=max(0.0 if r.log_witness is None else r.log_witness
                        for r in (rep_f, rep_b)),
        counterexample_index=idx[0] if both == FAILS else None,
        note="equivalence M^{1/k} ~ N^{1/k}")
    return {"forward": rep_f, "backward": rep_b,
            "quotient_forward": qf, "quotient_backward": qb,
            "equivalent": summary}


# -- convenience builders used across tests and the CLI ----------------------

def gevrey(s: float, K: int = 512) -> WeightSequence:
    return make_sequence({"family": "gevrey", "params": {"s": s}, "K": K})


def qgevrey(q: float, K: int = 512) -> WeightSequence:
    return make_sequence({"family": "qgevrey", "params": {"q": q}, "K": K})


def powerlog(A: float, p: float, K: int = 512) -> WeightSequence:
    return make_sequence({"family": "powerlog", "params": {"A": A, "p": p}, "K": K})
