"""Decision procedures for the Whitney extension property.

The extension property of a weight matrix reduces to the tail-domination
condition: for each row N there is a row Ndot with

    sum_{l >= k} 1/nudot_l  <=  C k / nu_k.

This module evaluates that condition (5.19), its phi_{p,k}-weakening (5.18)
and their classical single-pair form (1.4, 5.19's witness for one pair) on
stored prefixes, from each row's one tail, ``WeightSequence.tail``.  Root
domination (5.17) is Def 4.6 item 4 of admissibility.  The one entry point,
:func:`decide_extension_property`, computes them and the Lemma 5.10
agreement.  Quotient regularity (4.3) is ``descend.check_43``.

phi_{p,k} = sup_{j<k} (M_k / (p^k Ndot_j))^{1/(k-j)} is found by a peak
search over j: its log is the slope from (j, log Ndot_j) to
(k, log M_k - k log p), and over a log-convex row that slope is unimodal in
j.  A row whose log nudot drops anywhere in the prefix is not log-convex
and keeps the whole window j < k (see :func:`log_phi_pk_all`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ExtensionError, PrefixExhausted, QuasianalyticInput
from .report import CheckReport, FAILS, HOLDS, report_from_log_witnesses
from .seqcalc import WeightSequence
from .weightfunc import (WeightMatrix, best_partners, check_admissible_matrix,
                         check_omega_nonquasianalytic, existential_verdict)

P_GRID_DEFAULT = (1, 2, 4, 8, 16)
# entries j < k formed at once where a whole window is max-reduced
_WINDOW_BLOCK = 1 << 18


@dataclass(frozen=True)
class ExtensionVerdict:
    condition_id: str
    verdict: CheckReport
    witnessing_row_pairs: tuple
    log_witnesses: dict       # "i->j" (5.18: "i->j,p=p") -> the pair's log witness

    def to_dict(self) -> dict:
        return {
            "condition_id": self.condition_id,
            "verdict": self.verdict.to_dict(),
            "witnessing_row_pairs": list(self.witnessing_row_pairs),
            "log_witnesses": self.log_witnesses,
        }


def check_14(M: WeightSequence, N: WeightSequence) -> CheckReport:
    """Classical pair condition: sum_{l>=k} N_{l-1}/N_l <= C k M_{k-1}/M_k,
    5.19's pair witness on N's one tail."""
    nq = N.nonquasianalytic
    if nq.verdict != HOLDS:
        raise QuasianalyticInput(f"{N.family_tag}: verdict {nq.verdict}")
    N.tail.require_reliable(N.family_tag)
    K = min(M.K, N.K)
    return report_from_log_witnesses(_pair_tail_witness(M, N.tail.log_T, K), K,
                                     note="sum_{l>=k} 1/nu_l <= C k/mu_k")


def log_phi_pk_all(M: WeightSequence, N, p_grid, K_eff: int) -> np.ndarray:
    """log phi_{p,k} for every p in ``p_grid`` and k = 1..K_eff, as a
    (len(p_grid), K_eff) array.  ``N`` may also be a list of sequences (the
    rows of a matrix): the result is then one such array per row of ``N``,
    of shape (len(N), len(p_grid), K_eff).

    Entry (k, j) is g(j) = (A - log N_j) / (k - j) with A = log M_k - k log p,
    the slope from (j, log N_j) to (k, A), and log phi_{p,k} is its max over
    j < k.  g(j) is the mean of log nu_{j+1} and g(j + 1), weighted 1 and
    k - j - 1, so g(j + 1) >= g(j) iff log nu_{j+1} <= g(j + 1).  When log N
    is convex (log nu nondecreasing) the set where g falls is therefore a
    suffix: g is unimodal in j, and the max is found by a peak search,
    vectorised over (row of N, p, k).  The right end j = k - 1 is the peak
    when g(k - 1) >= g(k - 2); the other entries bisect [0, k - 2] for the
    first j where g falls.  The value returned is the scalar definition's
    IEEE expression at the peak found.

    Each computed g is within E = eps (|g| + K_eff max|log nu|) of a unimodal
    sequence: eps |g| from rounding the subtraction and the division, the
    rest from rounding the stored row about a convex one.  So a peak whose
    two neighbours both lie more than 4 E below it (twice the 2 E the
    argument needs) is the float max.  An entry whose neighbour does not,
    and every entry of a row whose log nu drops anywhere in the prefix (not
    log-convex), take the max over the whole window j < k.  Either way the
    table equals the scalar definition bit for bit.
    """
    rows = [N] if isinstance(N, WeightSequence) else N
    _require_prefix(K_eff, min(M.K, min(n.K for n in rows) + 1), "phi_{p,k}")
    n_pk = len(p_grid) * K_eff
    col = np.arange(K_eff)
    A = np.array([M.log_M[1:K_eff + 1] - (col + 1) * math.log(p) for p in p_grid])
    log_N = np.array([n.log_M[:K_eff] for n in rows]).reshape(len(rows), K_eff)
    log_nu = np.diff(log_N, axis=1, prepend=0.0)  # column j >= 1: log nu_j
    convex = np.all(np.diff(log_nu[:, 1:], axis=1) >= 0, axis=1)
    scale = K_eff * np.max(np.abs(log_nu[:, 1:]), axis=1, initial=0.0)
    # entry e = (row r of N, p, k) in C order has its A at A.flat[e % n_pk]
    # and its log N_j at flat_N[r K_eff + j]; the chord through (j - 1,
    # log N_{j-1}) and (j, log N_j) is flat_cut + x flat_nu there
    flat_N, flat_nu = log_N.ravel(), log_nu.ravel()
    flat_cut = (log_N - col * log_nu).ravel()

    def entries(e):
        r, q = np.divmod(e, n_pk)
        return A.flat[q], r * K_eff, q % K_eff + 1

    def g(a, base, k, j):
        return (a - flat_N[base + j]) / (k - j)

    v = (A - log_N[:, None, :]).ravel()  # g(k - 1)
    nb = np.full((len(rows), len(p_grid), K_eff), -np.inf)
    nb[..., 1:] = (A[:, 1:] - log_N[:, None, :-1]) / 2  # g(k - 2)
    nb = nb.ravel()
    in_convex = np.repeat(convex, n_pk)
    s = np.flatnonzero(~(v >= nb) & in_convex)
    if len(s):
        a, base, k = entries(s)
        t, top, x = np.zeros(len(s), dtype=int), k - 1, k.astype(float)
        for step in 1 << np.arange(int(top.max()).bit_length())[::-1]:
            i = np.minimum(t + step, top)  # g(i) >= g(i - 1): chord i at x = k <= A
            t = np.where(flat_cut[base + i] + x * flat_nu[base + i] <= a, i, t)
        v[s] = g(a, base, k, t)
        nb[s] = np.maximum(
            np.where(t > 0, g(a, base, k, np.maximum(t - 1, 0)), -np.inf),
            np.where(t < top, g(a, base, k, np.minimum(t + 1, top)), -np.inf))
    eps = np.finfo(float).eps
    exact = v - nb > 4 * eps * (np.abs(v) + np.repeat(scale, n_pk))
    whole = np.flatnonzero(~(exact & in_convex))
    block = max(1, _WINDOW_BLOCK // max(K_eff, 1))
    for i in range(0, len(whole), block):
        w = whole[i:i + block]
        a, base, k = entries(w)
        starts = np.cumsum(k) - k
        j = np.arange(starts[-1] + k[-1]) - np.repeat(starts, k)
        buf = np.repeat(a, k) - flat_N[np.repeat(base, k) + j]
        buf /= np.repeat(k, k) - j
        v[w] = np.maximum.reduceat(buf, starts)
    out = v.reshape(len(rows), len(p_grid), K_eff)
    return out[0] if isinstance(N, WeightSequence) else out


def _require_prefix(K_eff: int, K: int, what: str) -> None:
    if K_eff > K:
        raise PrefixExhausted(f"{what} on k <= {K_eff} needs K >= K_eff (K={K})")


def _pair_tail_witness(N: WeightSequence, log_T_dot: np.ndarray,
                       K_eff: int) -> np.ndarray:
    """Log witnesses of sum_{l>=k} 1/nudot_l <= C k/nu_k on the prefix, from
    the partner's ``log_T_dot = Ndot.tail.log_T`` or a stack of such rows."""
    k = np.arange(1, K_eff + 1, dtype=float)
    return log_T_dot[..., :K_eff] + N.log_mu[:K_eff] - np.log(k)


def check_519(mat: WeightMatrix, K_eff: int | None = None) -> ExtensionVerdict:
    """For each row N, find a sampled row Ndot with tail <~ k/nu_k."""
    K_eff = K_eff or mat.K // 2
    _require_prefix(K_eff, mat.K, "5.19")
    rows = mat.rows
    tails = np.array([nd.tail.log_T for nd in rows])
    partners = best_partners((_pair_tail_witness(N, tails, K_eff) for N in rows), K_eff)
    rep = existential_verdict(partners, len(rows), K_eff,
                              "sum_{l>=k} 1/nudot_l <= C k/nu_k per row")
    return ExtensionVerdict(
        "5.19", rep, tuple((i, j) for i, (j, _) in partners.items()),
        {f"{i}->{j}": r.log_witness for i, (j, r) in partners.items()})


def check_518(mat: WeightMatrix, p_grid=P_GRID_DEFAULT,
              K_eff: int | None = None) -> ExtensionVerdict:
    """phi-weakened condition: tail of Ndot dominated by k / phi_{p,k}^{N,Ndot}.

    One :func:`log_phi_pk_all` call per row N covers every Ndot and the
    whole p grid, reduced before the next row's; each row takes the smallest
    witness over all (Ndot, p), ties to the smallest Ndot, then smallest p.
    """
    K_eff = K_eff or mat.K // 2
    _require_prefix(K_eff, mat.K, "5.18")
    rows = mat.rows
    n = len(rows)
    tails = np.array([nd.tail.log_T[:K_eff] for nd in rows])[:, None, :]
    log_k = np.log(np.arange(1, K_eff + 1, dtype=float))
    partners = best_partners(
        ((log_phi_pk_all(N, rows, p_grid, K_eff) + tails - log_k).reshape(-1, K_eff)
         for N in rows),
        K_eff, labels=[(j, p) for j in range(n) for p in p_grid])
    rep = existential_verdict(partners, n, K_eff,
                              "sum_{l>=k} 1/nudot_l <= C k/phi_{p,k} per row")
    return ExtensionVerdict(
        "5.18", rep, tuple((i, j, p) for i, ((j, p), _) in partners.items()),
        {f"{i}->{j},p={p}": r.log_witness for i, ((j, p), r) in partners.items()})


def decide_extension_property(mat: WeightMatrix, *, weight_function=None,
                              require_admissible: bool = True) -> dict:
    """Extension-property verdict for a sampled weight matrix.

    The headline verdict is the per-row tail condition (5.19); for matrices
    derived from a weight function the cross-parameter form and the averaged
    integral condition are reported alongside and do not move the headline.
    Admissibility is checked first with sampling semantics: conditions
    (1)-(3) failing is an error, or with ``require_admissible=False`` an
    UNDECIDED_IN_SAMPLE verdict whose ``warning`` names them; existential
    conditions missing witnesses only for a suffix of rows is reported but
    tolerated (sampling boundary).
    """
    adm = check_admissible_matrix(mat)
    hard_bad = [cid for cid in ("4.6-1", "4.6-2", "4.6-3")
                if adm[cid].verdict == FAILS]
    if hard_bad and require_admissible:
        raise ExtensionError(f"matrix not admissible in sample: {hard_bad} fail",
                             code="NOT_ADMISSIBLE_IN_SAMPLE")
    verdicts = {"admissibility": {k: v.to_dict() for k, v in adm.items()}}
    v18, v19 = check_518(mat), check_519(mat)
    verdicts["5.19"] = v19.to_dict()
    verdicts["5.18"] = v18.to_dict()
    # Lemma 5.10: 5.18 and 5.19 agree under root domination (5.17 = 4.6-4)
    verdicts["lemma_5.10_agree"] = (adm["4.6-4"].verdict != HOLDS
                                    or v18.verdict.verdict == v19.verdict.verdict)
    headline = v19.verdict.verdict
    if weight_function is not None:
        cor = check_omega_nonquasianalytic(weight_function)
        verdicts["cor5.13-2"] = v19.to_dict()  # same condition, per-parameter form
        verdicts["cor5.13-3"] = {k: v.to_dict() for k, v in cor.items()}
    if hard_bad:
        headline = None
        verdicts["warning"] = (f"admissibility {hard_bad} fails in sample: the "
                               "tail conditions decide nothing for this matrix")
    verdicts["extension_property"] = ("YES" if headline == HOLDS else
                                      "NO" if headline == FAILS else
                                      "UNDECIDED_IN_SAMPLE")
    if headline == FAILS:
        verdicts["warning"] = ("prefix verdict only: necessity of the tail "
                               "condition is asymptotic")
    return verdicts
