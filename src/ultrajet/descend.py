"""The descendant of a non-quasianalytic weight sequence.

Given increasing positive nu with nu_0 = 1 and sum 1/nu_k < infinity, set

    tau_k = k/nu_k + sum_{j >= k} 1/nu_j,      sigma_k = tau_1 k / tau_k.

sigma is the descendant of nu: the largest sequence with sigma <~ nu and
tail sum <~ k/sigma_k.  Its starred quotients sigma*_k = sigma_k / k are
increasing from 1, so s_k = sigma*_1 ... sigma*_k is itself a weight
sequence and carries the h / Gamma / Sigma machinery used by the cutoff and
extension constructions.

Rows derived from weight functions push tau far below double range within a
few dozen indices, so the whole construction runs in the log domain.
Quotient regularity (4.3), equivalent to sigma_{k+1} <~ sigma_k, is
``check_43``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonincreasingResult, PrefixExhausted, QuasianalyticInput
from .report import CheckReport, FAILS, HOLDS, report_from_log_witnesses
from .seqcalc import WeightSequence, from_log_quotients, log_quotient_doubling
from .tails import estimate_tail


@dataclass(frozen=True)
class Descendant:
    """Descendant data for a prefix k = 1..K_eff (index 0 of arrays is k=1)."""

    source_tag: str
    log_tau: np.ndarray        # log tau_k
    log_sigma: np.ndarray      # log sigma_k
    log_sigma_star: np.ndarray

    @property
    def K_eff(self) -> int:
        return len(self.log_tau)

    @functools.cached_property
    def small_s(self) -> WeightSequence:
        """s with S_k = k! s_k; quotients are sigma*_k (>= 1, increasing)."""
        return from_log_quotients(self.log_sigma_star, f"desc-s({self.source_tag})")

    @functools.cached_property
    def big_S(self) -> WeightSequence:
        """S_k = sigma_1 ... sigma_k as a weight sequence."""
        return from_log_quotients(self.log_sigma, f"desc-S({self.source_tag})")


def descend(N: WeightSequence, K_eff: int | None = None) -> Descendant:
    """Descendant of N on the first K_eff indices (default K/2).

    Tail sums are the row's one ``N.tail``, which must pass the one cap
    (``require_reliable``).
    """
    nq = N.nonquasianalytic
    if nq.verdict != HOLDS:
        raise QuasianalyticInput(
            f"{N.family_tag}: non-quasianalyticity verdict {nq.verdict}")
    K = N.K
    if K_eff is None:
        K_eff = K // 2
    if K_eff > K:
        raise PrefixExhausted(f"descendant on k <= {K_eff} needs K >= K_eff (K={K})")
    N.tail.require_reliable(N.family_tag)
    k = np.arange(1, K_eff + 1, dtype=float)
    log_k_over_nu = np.log(k) - N.log_mu[:K_eff]
    log_tau = np.logaddexp(log_k_over_nu, N.tail.log_T[:K_eff])
    log_sigma = log_tau[0] + np.log(k) - log_tau
    log_sigma_star = log_tau[0] - log_tau
    return Descendant(N.family_tag, log_tau, log_sigma, log_sigma_star)


def check_lemma42(N: WeightSequence, D: Descendant,
                  Ndot: WeightSequence | None = None,
                  Ddot: Descendant | None = None) -> dict[str, CheckReport]:
    """Per-item verification of the descendant's properties.

    (1) sigma <~ nu; (2) tail <~ k/sigma_k; (3) sigma* >= 1 increasing;
    (4) sigma_{k+1} <~ sigma_k iff the quotient-regularity inequality, both
    sides evaluated and compared; (5) maximality probed with scaled
    candidates c * sigma; (6) nu_{2k} <~ nudot_k implies
    sigma_{2k} <~ sigmadot_k, when a second sequence is supplied.
    """
    K_eff = D.K_eff
    out: dict[str, CheckReport] = {}
    log_nu = N.log_mu[:K_eff]  # log nu_k (quotients), k=1..K_eff

    out["4.2-1"] = report_from_log_witnesses(D.log_sigma - log_nu, K_eff,
                                             note="sigma_k <= C nu_k")

    k = np.arange(1, K_eff + 1, dtype=float)
    w2 = N.tail.log_T[:K_eff] - np.log(k) + D.log_sigma
    out["4.2-2"] = report_from_log_witnesses(w2, K_eff,
                                             note="sum_{j>=k} 1/nu_j <= C k/sigma_k")

    d_star = np.diff(D.log_sigma_star)
    mono = np.all(d_star >= -1e-12) and D.log_sigma_star[0] >= -1e-12
    grows = D.log_sigma_star[-1] - D.log_sigma_star[0] > math.log(4.0)
    out["4.2-3"] = CheckReport(
        HOLDS if (mono and grows) else FAILS, K_eff,
        log_witness=float(D.log_sigma_star[-1]),
        counterexample_index=None if (mono and grows) else int(np.argmin(d_star)) + 1,
        note="sigma*_k >= 1 increasing (trend to infinity)")

    lhs = report_from_log_witnesses(np.diff(D.log_sigma), K_eff,
                                    note="sigma_{k+1} <= C sigma_k")
    rhs = check_43(N, K_eff=K_eff)
    agree = lhs.verdict == rhs.verdict
    out["4.2-4"] = CheckReport(
        lhs.verdict if agree else FAILS, K_eff,
        log_witness=lhs.log_witness,
        counterexample_index=lhs.counterexample_index if agree else K_eff,
        note=("sigma_{k+1} <~ sigma_k equivalent to quotient regularity; "
              f"direct={lhs.verdict}, via-(4.3)={rhs.verdict}"),
        details={"direct": lhs.to_dict(), "via_43": rhs.to_dict()})

    out["4.2-5"] = maximality_probe(N, D)

    if Ndot is not None:
        if Ddot is None:
            Ddot = descend(Ndot, K_eff=D.K_eff)
        half = K_eff // 2
        kk = np.arange(1, half + 1)
        hyp = report_from_log_witnesses(
            log_quotient_doubling(N, Ndot)[:half], K_eff,
            note="hypothesis nu_{2k} <= C nudot_k")
        con = report_from_log_witnesses(
            D.log_sigma[2 * kk - 1] - Ddot.log_sigma[kk - 1], K_eff,
            note="conclusion sigma_{2k} <= C sigmadot_k")
        ok = (not hyp.holds) or con.holds
        out["4.2-6"] = CheckReport(
            HOLDS if ok else FAILS, K_eff,
            log_witness=con.log_witness,
            counterexample_index=None if ok else K_eff,
            note="nu_{2k} <~ nudot_k implies sigma_{2k} <~ sigmadot_k",
            details={"hypothesis": hyp.to_dict(), "conclusion": con.to_dict()})
    return out


def check_43(N: WeightSequence, K_eff: int | None = None) -> CheckReport:
    """Quotient regularity: nu_{k+1}/nu_k <= (C+1) + C nu*_{k+1} sum_{j>k} 1/nu_j.

    The smallest admissible C per index solves the inequality directly; the
    report carries the prefix max with trend semantics.
    """
    if N.nonquasianalytic.verdict == FAILS:
        raise QuasianalyticInput(f"{N.family_tag} is quasianalytic (trend)")
    K = N.K
    if K_eff is None:
        K_eff = K // 2
    k = np.arange(1, K_eff, dtype=float)       # condition at k -> k+1
    log_ratio_m1 = _log_expm1(N.log_mu[1:K_eff] - N.log_mu[:K_eff - 1])
    log_nu_star_next = N.log_mu[1:K_eff] - np.log(k + 1.0)   # nu_{k+1} / (k+1)
    log_denom = np.logaddexp(0.0, log_nu_star_next + N.tail.log_T[1:K_eff])
    return report_from_log_witnesses(
        log_ratio_m1 - log_denom, K_eff,
        note="quotient regularity (4.3); witness is the smallest validating C")


def _log_expm1(x: np.ndarray) -> np.ndarray:
    """log(e^x - 1) for x >= 0, stable for both tiny and huge x."""
    x = np.asarray(x, dtype=float)
    out = np.where(x > 30.0, x, np.log(np.maximum(np.expm1(np.minimum(x, 30.0)),
                                                  1e-300)))
    return out


def maximality_probe(N: WeightSequence, D: Descendant,
                     factors=(2.0, 4.0, 8.0)) -> CheckReport:
    """Falsification test of maximality.

    Every scaled candidate mu = c sigma must break (1) or (2) at the
    witnesses recorded for sigma itself; a candidate passing both would
    dominate the descendant, contradicting maximality.
    """
    K_eff = D.K_eff
    log_nu = N.log_mu[:K_eff]
    log_T = N.tail.log_T
    log_k = np.log(np.arange(1, K_eff + 1, dtype=float))
    logW1 = float(np.max(D.log_sigma - log_nu))
    logW2 = float(np.max(log_T[:K_eff] + D.log_sigma - log_k))
    survivors = []
    for c in factors:
        cond1 = np.all(math.log(c) + D.log_sigma <= logW1 + log_nu + 1e-9)
        cond2 = np.all(log_T[:K_eff] + D.log_sigma - log_k + math.log(c)
                       <= logW2 + 1e-9)
        if cond1 and cond2:
            survivors.append(c)
    if survivors:
        return CheckReport(FAILS, K_eff, log_witness=math.log(survivors[0]),
                           counterexample_index=1,
                           note=f"candidates {survivors} pass (1) and (2): maximality broken")
    return CheckReport(HOLDS, K_eff,
                       log_witness=max(logW1, logW2),
                       note="no scaled candidate dominates the descendant")


def recover_predecessor(sigma: np.ndarray, *, source_tag: str = "recovered") -> WeightSequence:
    """A predecessor nu whose descendant is the given sigma.

    sigma is given for k = 1..P with sigma_1 = 1 and sigma*_k = sigma_k/k
    increasing.  The difference identity tau_k - tau_{k+1} =
    (k+1)(1/nu_k - 1/nu_{k+1}) determines nu up to the value of 1/nu_1;
    anchoring the recursion at infinity (1/nu_k -> 0) makes tau_k =
    k/nu_k + sum_{j>=k} 1/nu_j hold exactly, and the scale T = tau_1 is then
    fixed by requiring sum_{k>=1} 1/nu_k = 1.  Returns nu as a
    WeightSequence table (nu_0 = 1 prepended).

    The construction: with B_k = 1/sigma*_k (decreasing from B_1 = 1) and
    d_m = (B_m - B_{m+1})/(m+1),

        1/nu_k = T sum_{m >= k} d_m,   G = sum_{m>=1} d_m,   T = 1/(1 - G),

    which gives sum 1/nu = T (1 - G) = 1 and descendant exactly sigma.
    """
    sigma = np.asarray(sigma, dtype=float)
    P = len(sigma)
    k = np.arange(1, P + 1, dtype=float)
    if abs(sigma[0] - 1.0) > 1e-9:
        raise NonincreasingResult("sigma_1 must be 1")
    sig_star = sigma / k
    if np.any(np.diff(sig_star) < -1e-12) or sig_star[-1] < 4.0 * sig_star[0]:
        raise NonincreasingResult(
            "sigma*_k must increase without bound (descendant shape)")
    B = 1.0 / sig_star
    d = (B[:-1] - B[1:]) / (k[:-1] + 1.0)
    if np.any(d < -1e-15):
        raise NonincreasingResult("sigma* not increasing: negative recursion steps")
    d = np.maximum(d, 0.0)
    # tail of sum d_m beyond the prefix
    with np.errstate(divide="ignore"):  # a flat step of sigma* gives d_m = 0
        d_tail = math.exp(estimate_tail(np.log(d)).log_beyond)  # 0 without a tail model
    G = float(np.sum(d) + d_tail)
    if not 0.0 < G < 0.5 + 1e-12:
        raise NonincreasingResult(f"recursion mass G = {G:.6f} outside (0, 1/2]")
    T = 1.0 / (1.0 - G)
    inv_nu = T * (np.concatenate([np.cumsum(d[::-1])[::-1], [0.0]]) + d_tail)
    if inv_nu[-1] <= 0 or np.any(np.diff(inv_nu) > 1e-15):
        raise NonincreasingResult("recovered nu not increasing")
    # nu are the quotients of the returned sequence (nu_0 = 1)
    return from_log_quotients(-np.log(inv_nu), f"{source_tag}-predecessor")
