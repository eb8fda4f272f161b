"""Weight functions, Young conjugates, and associated weight matrices.

A weight function omega is a continuous increasing gauge vanishing on
[0, 1] whose composition phi(y) = omega(e^y) is convex.  Its Young
conjugate phi*(x) = sup_y (xy - phi(y)) generates a one-parameter family of
weight sequences log W_k^x = phi*(x k) / x, the associated weight matrix.

phi* is exact for both kinds, with no search: the family
omega_s(t) = max(0, (log t)^s) has phi_s*(x) = C_s x^r with r = s/(s-1) and
C_s = (s-1) s^{-r}, and a table's phi is piecewise linear, so its conjugate
is a maximum over the knots.

So are the weight-function conditions of Braun-Meise-Taylor (1990) and
Bonet-Braun-Meise-Taylor (1991): int_1^inf omega(t)/t^2 dt and the averaged
bound have closed forms for both kinds (:func:`check_omega_nonquasianalytic`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .descend import check_43
from .errors import ConjugateUnbounded, SequenceSpecError
from .report import (CheckReport, FAILS, HOLDS, INCONCLUSIVE, NOT_WITNESSED,
                     log_witness_maxima, report_from_log_witnesses, trend_verdict)
from .seqcalc import validate_sequence

# Default parameter grid; geometric so that the (x, 4x) pairs needed by the
# matrix moderate-growth condition are always present.
DEFAULT_PARAMS = tuple(2.0 ** j for j in range(-3, 7))


@dataclass(frozen=True)
class WeightFunction:
    """Evaluatable weight function, computed on y = log t: ``phi(y)`` is
    omega(e^y), and ``w(t)`` is phi(log t)."""

    kind: str                 # "omega_s" | "table"
    s: float | None = None
    table_log_t: np.ndarray | None = None
    table_w: np.ndarray | None = None

    @property
    def tag(self) -> str:
        if self.kind == "omega_s":
            return f"omega_s({self.s:g})"
        return "omega_table"

    @property
    def last_slope(self) -> float:
        """Slope of a table's last segment in log t: phi's slope past the table."""
        return float((self.table_w[-1] - self.table_w[-2])
                     / (self.table_log_t[-1] - self.table_log_t[-2]))

    def __call__(self, t):
        """omega(t) = phi(log t)."""
        with np.errstate(divide="ignore"):  # t = 0: log t = -inf, omega 0
            return self.phi(np.log(np.asarray(t, dtype=float)))

    def phi(self, y):
        """phi(y) = omega(e^y); y may be any real, or -inf."""
        y = np.asarray(y, dtype=float)
        if self.kind == "omega_s":
            out = np.where(y > 0.0, np.power(np.maximum(y, 0.0), self.s), 0.0)
            return out if out.shape else float(out)
        # monotone piecewise-linear interpolation in y; linear
        # extrapolation with the last segment's slope past the table
        out = np.interp(y, self.table_log_t, self.table_w)
        right = y > self.table_log_t[-1]
        if np.any(right):
            out = np.where(right, self.table_w[-1]
                           + self.last_slope * (y - self.table_log_t[-1]), out)
        return out if out.shape else float(out)


def omega_s(s: float) -> WeightFunction:
    s = float(s)
    if not (1.0 < s < math.inf):
        raise SequenceSpecError(f"omega_s needs a finite s > 1, got {s!r}",
                                code="NON_POSITIVE")
    return WeightFunction("omega_s", s=s)


def omega_table(points) -> WeightFunction:
    """Weight function interpolating ``(t, omega(t))`` knots linearly in
    log t; phi must be convex, so the slopes in log t may not drop.

    omega vanishes on [0, 1]: a knot with t <= 1 and omega > 0 raises
    NOT_NORMALIZED, and the knots with t <= 1 are replaced by (1, 0), so
    phi(y) = 0 for y <= 0.  Every t and omega must be finite, and some omega
    positive (NON_POSITIVE otherwise).
    """
    pts = sorted((float(t), float(v)) for t, v in points)
    t = np.array([p[0] for p in pts])
    v = np.array([p[1] for p in pts])
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v)) and np.any(v > 0)) \
            or np.any(t <= 0) or np.any(np.diff(t) <= 0) or np.any(v < 0) \
            or np.any(np.diff(v) < 0):
        raise SequenceSpecError("omega table must be finite, nondecreasing and not "
                                "all 0, with distinct t > 0", code="NON_POSITIVE")
    if np.any(v[t <= 1.0] > 0.0):
        raise SequenceSpecError("omega must vanish on [0, 1]: the table has omega > 0 "
                                f"at t = {t[(t <= 1.0) & (v > 0.0)][0]:.6g}",
                                code="NOT_NORMALIZED")
    t, v = np.append(1.0, t[t > 1.0]), np.append(0.0, v[t > 1.0])
    log_t = np.log(t)
    slope = np.diff(v) / np.diff(log_t)
    drops = np.flatnonzero(slope[1:] < slope[:-1] - 1e-9 * np.maximum(1.0, slope[:-1]))
    if drops.size:
        i = int(drops[0]) + 1
        raise SequenceSpecError(
            f"omega table is not convex in log t: its slope drops from "
            f"{slope[i - 1]:.6g} to {slope[i]:.6g} at knot t = {t[i]:.6g}",
            code="NON_LOGCONVEX")
    return WeightFunction("table", table_log_t=log_t, table_w=v)


def young_conjugate(w: WeightFunction, x):
    """phi*(x) = sup_{y >= 0} (x y - phi(y)), exactly, for a float or, entry
    by entry, for an array of x >= 0.

    omega_s: the closed form C_s x^r.  A table: phi is linear between its
    knots and past the last one, so the sup is the largest x y - phi(y) over
    its knots (the first is y = 0, where phi vanishes, so it is >= 0), and
    it is infinite for x above ``last_slope`` (``ConjugateUnbounded``).
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise SequenceSpecError("young_conjugate needs x >= 0", code="NON_POSITIVE")
    if w.kind == "omega_s":
        r = w.s / (w.s - 1.0)
        out = (w.s - 1.0) * w.s ** (-r) * np.power(x, r)
    else:
        if np.any(x > w.last_slope):
            raise ConjugateUnbounded(f"phi*(x) is infinite for x > {w.last_slope:.6g}, "
                                     f"the slope of phi past the table; got x = {x.max():g}")
        y = w.table_log_t
        out = np.max(np.multiply.outer(x, y) - w.table_w, axis=-1)
    return float(out) if x.ndim == 0 else out


@dataclass(frozen=True)
class WeightMatrix:
    """Parameter-indexed, pointwise-ordered family of weight sequences."""

    params: tuple
    rows: tuple            # of WeightSequence, same order as params
    origin: str = "manual"

    def __post_init__(self):
        if len(self.params) != len(self.rows):
            raise SequenceSpecError(f"matrix has {len(self.rows)} rows but "
                                    f"{len(self.params)} params", code="PARAMS_MISMATCH")
        if list(self.params) != sorted(self.params) or len(set(self.params)) != len(self.params):
            raise SequenceSpecError("matrix params must be strictly increasing",
                                    code="NON_POSITIVE")
        Ks = {r.K for r in self.rows}
        if len(Ks) != 1:
            raise SequenceSpecError("matrix rows must share prefix length",
                                    code="NON_POSITIVE")

    @property
    def K(self) -> int:
        return self.rows[0].K

    def __len__(self) -> int:
        return len(self.rows)


def associated_matrix(w: WeightFunction, params=DEFAULT_PARAMS, K: int = 512) -> WeightMatrix:
    """Rows log W_k^x = phi*(x k) / x for each parameter x, from the exact
    :func:`young_conjugate`; the rows inherit log-convexity from convexity
    of phi*.
    """
    params = tuple(sorted(float(p) for p in params))
    k = np.arange(K + 1, dtype=float)
    # phi is linear past the table, so phi*(x k) is finite iff x k <= its slope
    if w.kind == "table" and params[-1] * K > w.last_slope:
        raise ConjugateUnbounded(
            f"phi*(x k) is infinite for x k > {w.last_slope:.6g}, the slope of phi "
            f"past the table's last log t = {w.table_log_t[-1]:.6g}; at K = {K} "
            f"x must be <= {w.last_slope / K:.6g}, got x = {params[-1]:g}")
    rows = [validate_sequence(young_conjugate(w, x * k) / x, f"{w.tag}|x={x:g}")
            for x in params]
    return WeightMatrix(params, tuple(rows), origin=w.tag)


def matrix_from_rows(rows, params=None, origin: str = "manual") -> WeightMatrix:
    rows = tuple(rows)
    if params is None:
        params = tuple(range(1, len(rows) + 1))
    return WeightMatrix(tuple(float(p) for p in params), rows, origin=origin)


# -- admissibility (Def of an admissible matrix) ------------------------------

def check_admissible_matrix(mat: WeightMatrix) -> dict[str, CheckReport]:
    """Five admissibility conditions on a sampled matrix.

    (1) pairwise quotient comparability; (2) non-quasianalyticity per row;
    (3) the quotient-regularity condition (4.3) per row that (2) does not
    fail; (4) for each row N some row Ndot with nu_k <= C Ndot_k^{1/k};
    (5) for each row some Ndot with nu_{2k} <= C nudot_k.  Existential clauses search the sample only:
    a missing witness is NOT_WITNESSED_IN_SAMPLE, never a disproof.
    """
    K, n = mat.K, len(mat.rows)
    out: dict[str, CheckReport] = {}

    # (1): each pair i < j keeps the holding direction with the smaller
    # witness (ties to i -> j), else j -> i.  The report is the first FAILS
    # pair in (i, j) order, else the first INCONCLUSIVE one, else the largest
    # witness; only that pair gets a report.
    pair = CheckReport(HOLDS, K, log_witness=0.0)  # a single row
    if n > 1:
        table = domination_table(mat, 1)
        m_half, m_full = log_witness_maxima(table)
        verdict = trend_verdict(m_half, m_full)
        held = verdict == HOLDS
        i, j = np.triu_indices(n, 1)
        fwd = held[i, j] & (~held[j, i] | (m_full[i, j] <= m_full[j, i]))
        a, b = np.where(fwd, i, j), np.where(fwd, j, i)
        bad = [np.flatnonzero(verdict[a, b] == v) for v in (FAILS, INCONCLUSIVE)]
        pick = next((v[0] for v in bad if v.size), np.argmax(m_full[a, b]))
        pair = report_from_log_witnesses(table[a[pick], b[pick]], K)
    out["4.6-1"] = CheckReport(pair.verdict, K, pair.log_witness,
                               pair.counterexample_index, "pairwise quotient comparability")

    # (2) and (3) report the first FAILS row, else the first other row that
    # does not hold, as (1) does
    nq = [r.nonquasianalytic for r in mat.rows]
    out["4.6-2"] = _first_bad(nq) or CheckReport(
        HOLDS, K, log_witness=max(r.log_witness for r in nq),
        note="non-quasianalytic per row")

    # (4.3) presumes a non-quasianalytic row: the rows failing (2) are skipped
    skipped = [i for i, r in enumerate(nq) if r.verdict == FAILS]
    c43 = [check_43(r) for r, q in zip(mat.rows, nq) if q.verdict != FAILS]
    out["4.6-3"] = _first_bad(c43) or CheckReport(
        HOLDS if c43 else INCONCLUSIVE, K,
        log_witness=max((r.log_witness for r in c43), default=None),
        note="quotient regularity (4.3) per row")
    if skipped:
        out["4.6-3"] = replace(out["4.6-3"], note=out["4.6-3"].note
                               + f"; skipped quasianalytic rows {skipped}")

    out["4.6-4"] = existential_verdict(
        best_partners(domination_table(mat, 4), K), n, K,
        "nu_k <= C Ndot_k^{1/k} for some sampled row")
    out["4.6-5"] = existential_verdict(
        best_partners(domination_table(mat, 5), K), n, K,
        "nu_{2k} <= C nudot_k for some sampled row")
    return out


def _first_bad(reports) -> CheckReport | None:
    """The first FAILS report, else the first that does not hold, else None."""
    bad = [r for r in reports if r.verdict != HOLDS]
    return next((r for r in bad if r.verdict == FAILS), bad[0] if bad else None)


def domination_table(mat: WeightMatrix, item: int) -> np.ndarray:
    """(rows, rows, k) log witnesses of Def 4.6 item 1 (mu_k <= C mudot_k,
    k <= K), item 4 (nu_k <= C Ndot_k^{1/k}, k <= K) or item 5
    (nu_{2k} <= C nudot_k, k <= K/2): entry ``[i, j]`` is N = row i against
    Ndot = row j."""
    log_M = np.array([r.log_M for r in mat.rows])
    log_mu = np.array([r.log_mu for r in mat.rows])
    if item == 1:
        return log_mu[:, None] - log_mu[None]
    if item == 4:
        return log_mu[:, None] - (log_M[:, 1:] / np.arange(1, mat.K + 1))[None]
    kk = np.arange(1, mat.K // 2 + 1)
    return (log_M[:, 2 * kk] - log_M[:, 2 * kk - 1])[:, None] - log_mu[None, :, kk - 1]


def best_partners(log_w, K: int, labels=None) -> dict:
    """Row i -> ``(label, report)`` of the holding entry of ``log_w[i]`` with
    the smallest witness, ties to the first; rows with no holding entry are
    left out.  ``log_w`` yields one (entries, k) block of log witnesses per
    row, an array or a generator; ``labels`` name a block's entries (default:
    their index).  Each block is reduced once by :func:`log_witness_maxima`
    and only the chosen entry gets a report.
    """
    out = {}
    for i, block in enumerate(log_w):
        m_half, m_full = log_witness_maxima(block)
        held = np.flatnonzero(trend_verdict(m_half, m_full) == HOLDS)
        if held.size:
            j = int(held[np.argmin(m_full[held])])
            out[i] = (j if labels is None else labels[j],
                      report_from_log_witnesses(block[j], K))
    return out


def existential_verdict(partners: dict, n_rows: int, K: int, note: str) -> CheckReport:
    """Verdict of "each row has a sampled partner" from :func:`best_partners`.

    HOLDS with the worst partner witness when every row has a partner or the
    rows without one form a suffix of the parameter order (the sampling
    boundary: their partners sit past the sampled grid).  Otherwise
    NOT_WITNESSED_IN_SAMPLE, never a disproof.
    """
    if not partners:
        return CheckReport(NOT_WITNESSED, K, note=note + "; no row witnessed")
    missing = [i for i in range(n_rows) if i not in partners]
    worst = max(rep.log_witness for _, rep in partners.values())
    detail = {str(i): {"partner": lab, "log_witness": rep.log_witness}
              for i, (lab, rep) in partners.items()}
    if missing != list(range(n_rows - len(missing), n_rows)):
        return CheckReport(
            NOT_WITNESSED, K, log_witness=worst,
            note=note + f"; unwitnessed sampled rows {missing}",
            details={"witnessed": detail, "unwitnessed_rows": missing})
    note_sfx = (f"; top rows {missing} lack partners in the sample "
                "(sampling boundary)") if missing else ""
    return CheckReport(HOLDS, K, log_witness=worst, note=note + note_sfx,
                       details={"witnessed": detail, "boundary_rows": missing})


# a table's integral counts as converged once phi's extrapolation past the
# last knot adds less than this
_TAIL_TOL = 1e-8


def _table_integrals(w: WeightFunction):
    """int phi(y) e^{-y} dy over each knot interval of a table, where phi =
    phi_i + beta_i (y - y_i) integrates to (phi_i + beta_i) e^{-y_i} -
    (phi_{i+1} + beta_i) e^{-y_{i+1}}, and over [y_n, inf), past the table."""
    y, v = w.table_log_t, w.table_w
    beta = np.diff(v) / np.diff(y)
    e = np.exp(-y)
    pieces = (v[:-1] + beta) * e[:-1] - (v[1:] + beta) * e[1:]
    return pieces, float((v[-1] + w.last_slope) * e[-1])


def check_omega_nonquasianalytic(w: WeightFunction) -> dict[str, CheckReport]:
    """Integral non-quasianalyticity of omega and the averaged bound, exactly.

    With t = e^y both are int phi(a + u) e^{-u} du over u >= 0, phi = omega o
    exp: ``integral`` is int_1^inf omega(t)/t^2 dt (a = 0), and ``averaged``
    bounds int_1^inf omega(t y)/y^2 dy (a = log t) by A omega(t) + B for
    every t, with witness log A and (A, B) in ``details``.

    * omega_s: the integral is Gamma(s+1), and (a + u)^s <= 2^{s-1}(a^s + u^s)
      gives A = 2^{s-1}, B = 2^{s-1} Gamma(s+1).  Both HOLD, with
      ``prefix_K`` 0: nothing is sampled.
    * A table (``prefix_K`` its knot count): the verdict rests on what phi's
      linear extrapolation adds past the last knot.  It HOLDS when that is
      below 1e-8, FAILS (at the last knot) when omega(t)/t > 0 does not fall
      over the last two knots, as omega then grows at least like t, and is
      INCONCLUSIVE otherwise.  phi is convex with slope at most
      ``last_slope``, so int phi(a + u) e^{-u} du <= phi(a) + last_slope:
      A = 1 and B = ``last_slope``, with the integral's verdict.
    """
    if w.kind == "omega_s":
        n, verdict, note, details = 0, HOLDS, "= Gamma(s+1)", {}
        log_total, log_A = math.lgamma(w.s + 1.0), (w.s - 1.0) * math.log(2.0)
        with np.errstate(over="ignore"):  # A and B are inf past double range
            A = float(np.exp2(w.s - 1.0))
        B = A * (math.gamma(w.s + 1.0) if w.s < 170.0 else math.inf)
    else:
        pieces, tail = _table_integrals(w)
        total = float(np.sum(pieces)) + tail
        n, details = len(w.table_log_t), {"remainder": tail}
        log_total = math.log(total) if total > 0.0 else -math.inf
        log_A, A, B = 0.0, 1.0, w.last_slope
        (y0, y1), (v0, v1) = w.table_log_t[-2:], w.table_w[-2:]
        if tail < _TAIL_TOL:
            verdict, note = HOLDS, "converged"
        elif v0 > 0.0 and v1 * math.exp(y0 - y1) >= v0:
            verdict, note = FAILS, "diverges: omega(t)/t does not fall at the last knot"
        else:
            verdict, note = INCONCLUSIVE, (f"unresolved: past the last knot, t = "
                                           f"{math.exp(y1):.6g}, phi adds {tail:.3g}")
    last = n - 1 if verdict == FAILS else None
    return {
        "integral": CheckReport(verdict, n, log_witness=log_total, counterexample_index=last,
                                note="int_1^inf omega(t)/t^2 dt " + note, details=details),
        "averaged": CheckReport(
            verdict, n, log_witness=log_A, counterexample_index=last,
            note=f"int omega(ty)/y^2 dy <= A omega(t) + B with A={A:g}, B={B:.3g}",
            details={"A": A, "B": B})}
