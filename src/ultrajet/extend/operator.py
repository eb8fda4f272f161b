"""Partition of unity and the constructive extension operator.

The partition telescopes scaled cutoffs over a Whitney cover, each function
formed on its own support from the few cutoffs that meet it.  The extension
glues per-interval Taylor polynomials of the jet, with per-interval degree
driven by the counting function of the descendant at scale L * distance, as
one sum of local terms over the union of their breakpoints.  Everything is
assembled as exact splines and then verified at probe points: boundary
matching, the growth bound of the output row, and the two Taylor estimates
that power the construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..descend import Descendant, descend
from ..errors import ExtensionError
from ..jets import (Jet, doubling_constants, fit_jet_constants, taylor_coeffs_local,
                    taylor_values)
from ..report import HOLDS, log_bound_tally, log_witness_maxima, trend_verdict
from ..seqcalc import (WeightSequence, gamma_count, gamma_doubling_lambda,
                       h_power_log_constant, log_factorial, log_h_assoc)
from ..weightfunc import WeightMatrix, domination_table
from .cover import OVERLAP_C, WhitneyCover1D, whitney_cover
from .cutoffs import CONV_DEPTH, CutoffFamily, build_cutoff, cutoff_order, make_cutoff_family
from .ppoly import (PiecewisePolynomial, SplineBatch, batch_cut, batch_product, batch_sum,
                    constant_on, stack, stacked_values, taylor_shift)


# -- partition of unity --------------------------------------------------------

@dataclass(frozen=True)
class Partition:
    cover: WhitneyCover1D
    epsilon: float
    phis: SplineBatch             # one spline per ball, in ball order
    fam: CutoffFamily
    B1: float
    lemma410_A: float
    landing_small_s: WeightSequence


def partition_of_unity(cover: WhitneyCover1D, fam: CutoffFamily, epsilon: float,
                       min_smoothness: int | None = None,
                       landing: tuple | None = None) -> Partition:
    """Telescoped family phi_i = psi_i prod_{k<i} (1 - psi_k).

    psi_i is the family cutoff at epsilon r_i / n0 rescaled to the ball.
    The cutoff depends on epsilon r_i / n0 only through its order, so one
    is built per order.  Each phi_i is formed on its own support: psi_i,
    clipped where it leaves the working domain, then phi_i <- phi_i -
    phi_i psi_k for each earlier k whose span meets psi_i's, k ascending
    (1 - psi_k is 1 elsewhere).  The cover has bounded overlap, so each
    phi_i has at most n0 - 1 such k, and no spline spans the whole working
    domain.  The phi_i are one :class:`SplineBatch` from start to end: one
    affine pass makes every psi_i, one product clips them, and round r is
    one :func:`~ultrajet.extend.ppoly.batch_cut` over all the balls with an
    r-th such k, the k found from the sorted spans.

    ``landing`` is (s_land, A, B1): the landing row of Lemma 4.10 and
    :func:`lemma410_B1` for it; by default the family's own small row.
    """
    lo_w, hi_w = cover.working
    cx, r = np.reshape(cover.balls, (-1, 2)).T
    eps = (epsilon * r / cover.n0).tolist()
    orders = [cutoff_order(fam, e, OVERLAP_C) for e in eps]
    keys = list(dict.fromkeys(orders))      # the orders, first seen first
    psi = stack([build_cutoff(fam, eps[orders.index(p)], OVERLAP_C,
                              min_smoothness=min_smoothness).pp for p in keys]
                ).take([keys.index(p) for p in orders]).compose_affine(cx, r)
    lo, hi = psi.spans
    clip = np.flatnonzero((lo < lo_w) | (hi > hi_w))
    phi = batch_product(psi, constant_on(lo_w, hi_w), clip, np.zeros(clip.size, dtype=np.intp))
    ball, prev, rank = _earlier_overlaps(lo, hi)
    for k in range(rank.max(initial=-1) + 1):
        phi = batch_cut(phi, psi, ball[rank == k], prev[rank == k])
    land, A410, B1 = landing or (fam.D.small_s, *lemma410_B1(fam, fam.D.small_s, cover))
    return Partition(cover, epsilon, phi.trimmed(), fam, B1, A410, land)


def _earlier_overlaps(lo: np.ndarray, hi: np.ndarray):
    """(i, k, rank): the pairs k < i of spans (lo, hi) that meet
    (lo_k < hi_i and hi_k > lo_i), ordered by i then k, and the rank of k
    among the k of its i.

    In order of lo, the spans meeting span j from its right are the ones that
    follow it up to the last with lo < hi_j: each of them starts in
    [lo_j, hi_j).  So the pairs are one ragged range per span.
    """
    n = len(lo)
    order = np.argsort(lo, kind="stable")
    reach = np.searchsorted(lo[order], hi[order]) - np.arange(n) - 1
    at = np.repeat(np.arange(n), reach)
    mate = at + 1 + np.arange(len(at)) - np.repeat(np.cumsum(reach) - reach, reach)
    a, b = order[at], order[mate]
    i, k = np.maximum(a, b), np.minimum(a, b)
    o = np.argsort(i * n + k)
    i, k = i[o], k[o]
    return i, k, np.arange(len(i)) - np.searchsorted(i, i)


def h_power_constant(s_num: WeightSequence, s_den: WeightSequence, n: int) -> float:
    """Smallest power-of-two C <= 2^59 with h_num(t) <= h_den(C t)^n on the
    grid of :func:`~ultrajet.seqcalc.h_power_log_constant`."""
    e = math.ceil(h_power_log_constant(s_num, s_den, n) / math.log(2.0))
    if e > 59:
        raise ExtensionError(f"no C up to 2^59 satisfies h_num(t) <= h_den(C t)^{n}",
                             code="ROW_CHAIN_UNAVAILABLE")
    return 2.0 ** e


def lemma410_B1(fam: CutoffFamily, s_land: WeightSequence,
                cover: WhitneyCover1D) -> tuple[float, float]:
    """(A, B1): A of Lemma 4.10, h_s(t) <= h_(s_land)(A t)^{n0}, and the
    partition's derivative-bound scale B1 = B (c - 1) / (A n0 b)."""
    A = h_power_constant(fam.D.small_s, s_land, cover.n0)
    return A, fam.B * (OVERLAP_C - 1.0) / (A * cover.n0 * cover.b)


def verify_partition(part: Partition, orders=(0, 1, 2, 3, 4)) -> dict:
    """Sum-to-one, range, support containment, and the derivative bound
    |phi_i^(b)| <= eps^b Ndot_b / h(B1 eps d(x)) in log domain, on 1000
    even probes of the working domain.

    One stacked evaluation (:func:`~ultrajet.extend.ppoly.stacked_values`)
    of the partition's batch reads every phi_i at the probes inside its
    span, all orders at once, and log h is taken once per probe with
    d(x) > 0 before it.  The bound of order k <= smoothness order + 1 is one
    :func:`~ultrajet.report.log_bound_tally` per block of (phi_i, probe)
    pairs, over the probes off E inside phi_i's support; violations add up
    and margins take their max, so no (probes x balls) table is held.
    """
    cov = part.cover
    lo, hi = cov.working
    xs = np.linspace(lo, hi, 1000)
    d_all = cov.E.distance(xs)
    pos = d_all > 0
    log_nd = part.fam.Ndot.log_M
    log_b1_eps = math.log(part.B1) + math.log(part.epsilon)
    log_h = np.zeros(len(xs))
    log_h[pos] = log_h_assoc(part.landing_small_s, log_b1_eps + _math_log(d_all[pos]))

    cx, r = np.reshape(cov.balls, (-1, 2)).T
    slo, shi = part.phis.supports()
    top = np.maximum(part.phis.smoothness, 0) + 1
    evaluated = [0] + [k for k in orders if k > 0]
    s = np.zeros(len(xs))
    range_ok = True
    worst = {k: -math.inf for k in orders}
    viol = {k: 0 for k in orders}
    for ball, j, vals in stacked_values(part.phis, xs, evaluated):
        np.add.at(s, j, vals[0])
        range_ok &= bool(np.all((vals[0] >= -1e-12) & (vals[0] <= 1 + 1e-12)))
        sel = (xs[j] > slo[ball]) & (xs[j] < shi[ball]) & pos[j]
        for k, v in zip(evaluated, vals):
            if k not in worst:
                continue
            e = sel & (k <= top[ball])
            t = log_bound_tally(np.log(np.maximum(np.abs(v[e]), 1e-300)),
                                k * math.log(part.epsilon) + log_nd[k] - log_h[j[e]])
            viol[k] += t["violations"]
            worst[k] = max(worst[k], t["max_log_margin"])
    covered = cov.covers(xs) & (d_all >= cov.d_min)
    return {
        "sum_max_err": float(np.max(np.abs(s[covered] - 1.0))) if np.any(covered) else 0.0,
        "range_ok": range_ok,
        "support_ok": bool(np.all((slo >= cx - cov.c * r - 1e-12)
                                  & (shi <= cx + cov.c * r + 1e-12))),
        "bound_violations": viol,
        "bound_margins": worst,
        "bound_ok": all(n == 0 for n in viol.values()),
    }


def _math_log(x) -> np.ndarray:
    """math.log entry by entry: NumPy's vector log can round the last bit
    differently, and these logs feed reported margins and Taylor degrees."""
    return np.array([math.log(v) for v in np.ravel(x).tolist()])


# -- the extension operator ------------------------------------------------------

DEG_FLOOR = 4                    # smallest per-ball Taylor degree
L_CAP = 2.0 ** 20                # the doubling search for L stops here
PROBE_SEED = 0                   # seeds the random probes of the checks


@dataclass(frozen=True)
class ExtensionConfig:
    L: float | None = None          # None: searched from the fitted rho
    epsilon: float | None = None    # None: L * b * D / B1
    d_min: float = 1e-6
    p_max_eval: int = 8
    base_row: int = 0

    def __post_init__(self):
        """Raises ExtensionError NON_POSITIVE unless L and epsilon are None
        or > 0, d_min > 0, and p_max_eval and base_row >= 0."""
        for name, rule, ok in (
                ("L", "> 0", self.L is None or self.L > 0),
                ("epsilon", "> 0", self.epsilon is None or self.epsilon > 0),
                ("d_min", "> 0", self.d_min > 0),
                ("p_max_eval", ">= 0", self.p_max_eval >= 0),
                ("base_row", ">= 0", self.base_row >= 0)):
            if not ok:
                raise ExtensionError(f"{name} must be {rule}, got {getattr(self, name)}",
                                     code="NON_POSITIVE")


@dataclass(frozen=True)
class RowChain:
    ddot: WeightSequence
    indices: tuple
    S: Descendant
    S_dot: Descendant
    S_ddot: Descendant


@dataclass(frozen=True)
class ExtensionResult:
    f: PiecewisePolynomial
    cover: WhitneyCover1D
    partition: Partition
    degrees: tuple
    constants: dict
    verification: dict
    chain: RowChain
    jet: Jet
    coefficients_dropped: int     # coefficients of f zeroed by its chop


def select_row_chain(mat: WeightMatrix, base_row: int, K_eff: int) -> RowChain:
    """base -> dot -> ddot with root domination and quotient doubling.

    Each link j satisfies nu_k <= C Nj_k^{1/k} and nu_{2k} <= C nuj_k on the
    prefix; singleton matrices link to themselves when they have moderate
    growth.  Raises ROW_CHAIN_UNAVAILABLE when the sample cannot provide the
    links.
    """
    root, dbl = (trend_verdict(*log_witness_maxima(domination_table(mat, item))) == HOLDS
                 for item in (4, 5))

    def find_link(i: int) -> int:
        for j in range(i, len(mat.rows)):
            if root[i, j] and dbl[i, j]:
                return j
        raise ExtensionError(
            f"no sampled row dominates row {i} (need root and doubling links)",
            code="ROW_CHAIN_UNAVAILABLE")

    i0 = base_row
    i1 = find_link(i0)
    i2 = find_link(i1)
    desc = {i: descend(mat.rows[i], K_eff=K_eff) for i in dict.fromkeys((i0, i1, i2))}
    return RowChain(mat.rows[i2], (i0, i1, i2),
                    desc[i0], desc[i1], desc[i2])


def fit_rho(F: Jet, D: Descendant) -> tuple[float, float]:
    """(C, rho) of :func:`~ultrajet.jets.fit_jet_constants` for the
    starred-form jet bounds.  Raises JET_NOT_IN_CLASS when the fit's order
    trend says no rho can bound the jet."""
    fit = fit_jet_constants(F, D.small_s)
    if fit.not_in_class:
        raise ExtensionError(f"jet norm diverges (order slope {fit.order_slope:.2f})",
                             code="JET_NOT_IN_CLASS")
    return fit.C, fit.rho


def search_lambda(S: Descendant, S_dot: Descendant) -> float:
    """lambda < 1 with 2 Gamma_sdot(t) <= Gamma_s(lambda t) on the prefix
    (:func:`~ultrajet.seqcalc.gamma_doubling_lambda` on the small rows)."""
    lam, checked_k = gamma_doubling_lambda(S.small_s, S_dot.small_s)
    if lam is None:
        raise ExtensionError("no lambda in 2^-1..2^-29 doubles the counting function",
                             code="ROW_CHAIN_UNAVAILABLE")
    if checked_k == 0:
        raise ExtensionError("lambda t leaves the prefix at the first binding t: "
                             "no lambda is checked", code="ROW_CHAIN_UNAVAILABLE")
    return lam


def taylor_degree(S_dot: Descendant, L: float, dists, cap: int) -> np.ndarray:
    """Taylor degree min(max(2 Gamma(L d), DEG_FLOOR), cap) at each distance
    d in ``dists``, with Gamma the counting function of S_dot's small row;
    past Gamma's prefix edge, Gamma reads K - 1."""
    sd = S_dot.small_s
    log_Ld = math.log(L) + _math_log(dists)
    g = gamma_count(sd, log_Ld, past_edge=sd.K - 1)
    return np.minimum(np.maximum(2 * g, DEG_FLOOR), cap)


def extend_jet(F: Jet, mat: WeightMatrix, cfg: ExtensionConfig = ExtensionConfig()) -> ExtensionResult:
    """Whitney extension of an ultradifferentiable jet through a weight matrix.

    Builds the cover and partition, assembles
    f = sum_i phi_i T_{xhat_i}^{p_i} F + (1 - sum phi_i) T_nearest F
    inside the distance-1/2 neighborhood of E (a global cutoff kills the
    rest), chops each row of f to the coefficients that matter for orders
    up to ``cfg.p_max_eval``, and verifies boundary matching, the output
    growth bound, and the two Taylor estimates at probe points.
    """
    K_eff = mat.K // 2
    chain = select_row_chain(mat, cfg.base_row, K_eff)
    C_fit, rho_fit = fit_rho(F, chain.S)

    lam = search_lambda(chain.S, chain.S_dot)
    Dconst = h_power_constant(chain.S_dot.small_s, chain.S_ddot.small_s, 2)
    half = chain.S.K_eff // 2 - 1
    kk = np.arange(1, half)
    log_s, log_sd = chain.S.small_s.log_M, chain.S_dot.small_s.log_M
    Bconst = float(np.exp(np.max(
        (log_s[2 * kk + 1] - 2.0 * log_sd[kk]) / (2 * kk + 1))))

    cover = whitney_cover(F.E, d_min=cfg.d_min)
    fam = make_cutoff_family(chain.S_dot, chain.ddot)

    D1 = 4.0 / lam
    L = cfg.L if cfg.L is not None else max(D1 * max(rho_fit, 1.0), 1.0)
    while True:
        checks = _check_taylor_estimates(F, chain, C_fit, L, cover, cfg)
        if checks["5.4"]["violations"] == 0 and checks["5.5"]["violations"] == 0:
            break
        if cfg.L is not None or L >= L_CAP:
            break
        L *= 2.0

    land = chain.S_ddot.small_s
    A410, B1 = lemma410_B1(fam, land, cover)
    epsilon = cfg.epsilon if cfg.epsilon is not None else max(
        L * cover.b * Dconst / B1, 1e-6)
    part = partition_of_unity(cover, fam, epsilon,
                              min_smoothness=min(cfg.p_max_eval, CONV_DEPTH - 2),
                              landing=(land, A410, B1))

    # Stable assembly: with base the nearest-anchor Taylor field (degree as
    # at d_min),
    #   f  =  base + sum_i phi_i (T_i - base)
    # is sum_i phi_i T_i where sum(phi) is 1 (the covered set) and base where
    # it is 0.  This form subtracts Taylor polynomials before multiplying by
    # the partition, whose derivatives near E are huge and cancel only
    # analytically; forming the differences first keeps evaluation noise at
    # the scale of the Whitney increments.  The nonzero T_i - base are one
    # batch, the terms phi_i (T_i - base) one product with the partition's,
    # and f one sum over the union of breakpoints, in ball order.
    # Ball i is anchored at the carried point nearest to its nearest point
    # of E, with the degree at its distance to E; the base field's is at d_min.
    cap = F.order_cap
    p_col = int(taylor_degree(chain.S_dot, L, [cfg.d_min], cap)[0])
    base, anchors, cuts = _taylor_field(F, p_col, cover.working)
    xhat, dist = F.E.nearest([cx for cx, _ in cover.balls])
    ball_anchors = _nearest(anchors, xhat)
    degrees = taylor_degree(chain.S_dot, L, dist, cap).tolist()
    terms = [base]
    used, diffs = _taylor_differences(F, ball_anchors, np.asarray(degrees), anchors, cuts,
                                      p_col, *part.phis.supports())
    if used.size:
        at = np.arange(len(used))
        terms.append(batch_product(part.phis.take(used), diffs, at, at).trimmed())
    terms = stack(terms)
    f_inner = batch_sum(terms, np.zeros(len(terms), dtype=np.intp), 1).spline()
    gcut = _global_cutoff(F.E, fam, epsilon, cfg)
    # chopped before any check, so every gate sees the spline that is returned
    full = (f_inner * gcut).trimmed()
    f = full.chopped(cfg.p_max_eval)

    constants = {
        "C": C_fit, "rho": rho_fit, "L": L, "epsilon": epsilon,
        "lambda": lam, "D": Dconst, "B_split": Bconst, "B1": part.B1,
        "D1": D1, "A": fam.A, "delta": fam.delta, "B": fam.B,
        "a": cover.a, "b": cover.b, "n0": cover.n0, "c": cover.c,
        "rows": chain.indices, "deg_floor": DEG_FLOOR,
        "degree_cap_hit": bool(any(d >= cap for d in degrees)),
    }
    verification = {
        "taylor_estimates": checks,
        "partition": verify_partition(part, orders=range(0, min(4, cfg.p_max_eval) + 1)),
        "boundary": _boundary_match(f, F, cfg),
        "growth": _growth_fit(f, chain.ddot, cfg),
        "assembly_consistency": _assembly_consistency(
            f, part, F, anchors, ball_anchors, degrees, p_col, gcut),
    }
    return ExtensionResult(f, cover, part, tuple(degrees), constants,
                           verification, chain, F,
                           int(np.sum(full.row_degrees() - f.row_degrees())))


def _taylor_field(F: Jet, p_col: int, working):
    """Nearest-carried-anchor Taylor polynomial of F of degree ``p_col`` over
    the working domain (pieces split at anchor midpoints), as a batch of
    one, with the anchors and cuts."""
    lo_w, hi_w = working
    anchors = F.carried()
    cuts = np.concatenate([[lo_w], 0.5 * (anchors[1:] + anchors[:-1]), [hi_w]])
    keep = cuts[1:] > cuts[:-1]
    u, a = cuts[:-1][keep], anchors[keep]
    field = SplineBatch.of_pieces(np.zeros(len(u), dtype=np.intp), u, cuts[1:][keep],
                                  taylor_shift(taylor_coeffs_local(F, a, p_col), u - a),
                                  np.array([10 ** 6]))
    return field, anchors, cuts


def _taylor_differences(F: Jet, a, p, anchors, cuts, p_col: int, slo, shi):
    """(used, diffs): the balls i where T_{a_i}^{p_i} F - base field is not
    zero on [slo_i, shi_i], and that difference on the pieces the cuts make
    there, one :class:`SplineBatch` in the order of used (None if none).

    Coefficients are differenced about a_i before any re-anchoring, so
    pieces where the summand equals the base contribute exact zeros instead
    of shift-path rounding residue (which the huge partition derivatives
    would otherwise amplify).  Column k of T_a^p F is F^k(a)/k! whatever p
    is, so one table at the top degree, masked past each p_i, serves every
    ball; rows are re-anchored at their ball's own width max(p_i, p_col) + 1.
    """
    # ball i meets the cells [cuts[k], cuts[k + 1]], k0_i <= k < k0_i + n_i
    k0 = np.searchsorted(cuts, slo, side="right") - 1
    n = np.searchsorted(cuts, shi, side="left") - k0
    ball = np.repeat(np.arange(len(a)), n)
    k = np.repeat(k0 - np.cumsum(n) + n, n) + np.arange(len(ball))
    u, v = np.maximum(cuts[k], slo[ball]), np.minimum(cuts[k + 1], shi[ball])
    j = np.clip(np.searchsorted(cuts, 0.5 * (u + v), side="right") - 1, 0, len(anchors) - 1)
    same = (anchors[j] == a[ball]) & (p[ball] == p_col)
    used = np.flatnonzero(np.bincount(ball[(u < v) & ~same], minlength=len(a)))
    if not used.size:
        return used, None
    keep = (u < v) & np.isin(ball, used)
    ball, u, v, j, same = ball[keep], u[keep], v[keep], j[keep], same[keep]
    a_i, a_b, p_i = a[ball], anchors[j], p[ball]
    width = np.maximum(p_i, p_col) + 1
    c_b = np.zeros((len(ball), width.max()))
    c_b[:, : p_col + 1] = taylor_shift(taylor_coeffs_local(F, a_b, p_col), a_i - a_b)
    diff = np.where(np.arange(c_b.shape[1]) <= p_i[:, None],
                    taylor_coeffs_local(F, a_i, c_b.shape[1] - 1), 0.0) - c_b
    diff[same] = 0.0
    for w in np.unique(width):
        diff[width == w, :w] = taylor_shift(diff[width == w, :w], (u - a_i)[width == w])
    return used, SplineBatch.of_pieces(np.searchsorted(used, ball), u, v, diff,
                                       np.full(len(used), 10 ** 6))


def _global_cutoff(E, fam: CutoffFamily, epsilon: float,
                   cfg: ExtensionConfig) -> PiecewisePolynomial:
    """1 on {d <= 1/2}, 0 outside {d < 1}, from the same cutoff machinery:
    one cutoff per run of E's components, padded by 1/2, with gaps <= 1,
    all rescaled to their runs in one pass and added in one sum."""
    merged = []
    for lo, hi in (E.components + [-0.5, 0.5]).tolist():
        if merged and lo <= merged[-1][1] + 1.0:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    lo, hi = np.array(merged).T
    R = 0.5 * (hi - lo)
    zetas = stack([build_cutoff(fam, epsilon, (r + 0.49) / r,
                                min_smoothness=min(cfg.p_max_eval, CONV_DEPTH - 2)).pp
                   for r in R.tolist()]).compose_affine(0.5 * (lo + hi), R)
    return batch_sum(zetas, np.zeros(len(R), dtype=np.intp), 1).spline()


def _check_taylor_estimates(F: Jet, chain: RowChain, C: float, L: float,
                            cover: WhitneyCover1D, cfg: ExtensionConfig) -> dict:
    """Spot checks of the Taylor estimates 5.4 and 5.5 at 60 seeded uniform
    probes x of the working domain.

    The entries are (x off E, order k <= min(p, p_max_eval)), with xhat the
    point of E nearest x, d = |x - xhat| and p the Taylor degree at d; T is
    the k-th derivative at x of F's degree-p Taylor polynomial at xhat.
    5.4 bounds |T| by C (2L)^(k+1) S_k on every entry, and 5.5 bounds
    |T - F^k(xhat)| by C (2L)^(k+1) k! s_(k+1) d on the entries with k < p.
    Each is one :func:`~ultrajet.report.log_bound_tally`, of logs taken by
    ``math.log`` entry by entry.
    """
    xs = np.random.default_rng(PROBE_SEED).uniform(*cover.working, 60)
    xhat, dist = F.E.nearest(xs)
    off_E = dist > 0
    if C == 0.0 or not np.any(off_E):
        return {cid: log_bound_tally(np.zeros(0), np.zeros(0)) for cid in ("5.4", "5.5")}
    xs, xhat, dist = xs[off_E], xhat[off_E], dist[off_E]
    degs = taylor_degree(chain.S_dot, L, dist, F.order_cap)
    n_k = np.minimum(degs, cfg.p_max_eval) + 1
    at = np.repeat(np.arange(len(xs)), n_k)
    pk = np.arange(len(at)) - np.repeat(np.cumsum(n_k) - n_k, n_k)
    pa = xhat[at]
    vals = taylor_values(F, pa, degs[at], xs[at], pk)
    rhs = math.log(C) + (pk + 1) * math.log(2 * L)
    low = pk < degs[at]                     # the 5.5 entries
    k = pk[low]
    return {
        "5.4": log_bound_tally(_math_log(np.maximum(np.abs(vals), 1e-300)),
                               rhs + chain.S.big_S.log_M[pk]),
        "5.5": log_bound_tally(
            _math_log(np.maximum(np.abs(vals[low] - F.values[F.rows(pa[low]), k]), 1e-300)),
            rhs[low] + log_factorial(k) + chain.S.small_s.log_M[k + 1]
            + _math_log(np.maximum(dist[at][low], 1e-300))),
    }


def check_taylor_difference_bound(F: Jet, D: Descendant, a1: float, a2: float,
                                  p: int, k: int, x: float, C: float,
                                  rho: float) -> tuple[float, float]:
    """``(log lhs, log rhs)`` of the two-anchor Taylor difference estimate
    (n = 1); log lhs is -inf where the two Taylor polynomials agree at x."""
    v1, v2 = taylor_values(F, [a1, a2], p, x, k)
    lhs = abs(v1 - v2)
    base = abs(a1 - x) + abs(a1 - a2)
    log_rhs = (math.log(max(C, 1e-300)) + (p + 1) * math.log(2 * rho)
               + log_factorial(k) + D.small_s.log_M[p + 1]
               + (p + 1 - k) * math.log(max(base, 1e-300)))
    return (math.log(lhs) if lhs > 0.0 else -math.inf), float(log_rhs)


def _boundary_match(f: PiecewisePolynomial, F: Jet, cfg: ExtensionConfig) -> dict:
    """f^{(k)} along dyadic probe ladders, at distances 1.28e-2 2^-j for
    j < 12 on both sides of each isolated point of E, against the jet.

    The ladder starts inside the zone where the per-interval Taylor degrees
    have saturated; farther out, degree transitions legitimately produce
    large intermediate derivatives (allowed by the growth bound), which are
    reported separately as the transition-zone maximum at distance ~ 0.1.
    """
    d = 1.28e-2 * 2.0 ** -np.arange(12)
    orders = range(0, cfg.p_max_eval + 1)
    pts = np.array(F.E.points)[:, None]
    vals = f(np.concatenate([pts + d, pts - d, pts + 0.1], axis=1).ravel(),
             order=orders).reshape(len(orders), len(pts), 2 * len(d) + 1)
    Fa = F.values[F.rows(pts[:, 0]), :len(orders)].T[:, :, None]
    errs = np.maximum(np.abs(vals[..., :len(d)] - Fa), np.abs(vals[..., len(d):-1] - Fa))
    dec = np.all(errs[..., 1:] <= errs[..., :-1] * 1.10 + 1e-12, axis=-1)
    return {"points": {a: {k: {"errors": errs[k, i].tolist(), "monotone": bool(dec[k, i])}
                           for k in orders} for i, a in enumerate(F.E.points)},
            "monotone_ok": bool(np.all(dec)),
            "final_max_err": float(np.max(errs[..., -1], initial=0.0)),
            "transition_zone_max": float(np.max(np.abs(vals[..., -1:] - Fa), initial=0.0))}


def _growth_fit(f: PiecewisePolynomial, out_row: WeightSequence, cfg: ExtensionConfig) -> dict:
    """(C', rho') with |f^{(k)}| <= C' rho'^k N_k at 400 even and 200 seeded
    probes, by :func:`~ultrajet.jets.doubling_constants` with no floor."""
    xs = np.concatenate([np.linspace(*f.span, 400),
                         np.random.default_rng(PROBE_SEED + 1).uniform(*f.span, 200)])
    m = np.max(np.abs(f(xs, order=range(0, cfg.p_max_eval + 1))), axis=1)
    k = np.flatnonzero(m > 0)
    log_C, log_rho = doubling_constants(k, _math_log(m[k]) - out_row.log_M[k])
    return {"C_prime": math.exp(log_C), "rho_prime": math.exp(log_rho),
            "finite": bool(log_C < np.inf and log_rho < np.inf)}


def _nearest(carried: np.ndarray, x):
    """The carried point nearest to each x, ties to the first."""
    return carried[np.argmin(np.abs(np.subtract.outer(x, carried)), axis=-1)]


def _assembly_consistency(f, part: Partition, F: Jet, carried: np.ndarray,
                          anchors: np.ndarray, degrees, p_col: int, gcut) -> dict:
    """The spline f must reproduce the defining sum evaluated directly;
    ``carried`` is ``F.carried()``, and ``anchors``, ``degrees`` and
    ``p_col`` are the per-ball anchors and degrees and the base field's
    degree the assembly used.  The partition's batch is read by one stacked
    evaluation at the sorted probes, each probe's terms added in ball order."""
    xs = np.random.default_rng(PROBE_SEED + 2).uniform(*part.cover.working, 200)
    srt = np.argsort(xs)
    base = taylor_values(F, _nearest(carried, xs), p_col, xs, 0)
    direct = base.copy()
    for ball, j, (v,) in stacked_values(part.phis, xs[srt], [0]):
        nz = v != 0.0
        bi, pi = ball[nz], srt[j[nz]]
        terms = v[nz] * (taylor_values(F, anchors[bi], np.asarray(degrees)[bi], xs[pi], 0)
                         - base[pi])
        # unbuffered adds in pair order: each probe's sum runs in ball order
        np.add.at(direct, pi, terms)
    direct *= gcut(xs)
    return {"max_abs_gap": float(np.max(np.abs(direct - f(xs)), initial=0.0))}
