"""Compact 1D sets, Whitney jets, Taylor maps, and jet-norm fitting.

A jet on a compact set E prescribes derivative values F^k(a) for each
carried point a and order k <= order_cap.  Interval components of E carry
their data on a sample grid; everything downstream treats carried points
only, and reports on sets with interval components say so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import JetSpecError, OrderExceeded, PoleOnSet
from .seqcalc import WeightSequence, log_factorial

INTERVAL_GRID_FRACTION = 1.0 / 64.0


@dataclass(frozen=True)
class CompactSet1D:
    """Finite union of points and closed intervals on the line."""

    points: tuple = ()
    intervals: tuple = ()      # of (lo, hi) pairs, disjoint

    def __post_init__(self):
        pts = tuple(sorted(set(float(p) for p in self.points)))
        ivs = tuple(sorted((float(a), float(b)) for a, b in self.intervals))
        for a, b in ivs:
            if b <= a:
                raise JetSpecError(f"interval [{a}, {b}] must have positive length",
                                   code="NON_POSITIVE")
        for (a1, b1), (a2, b2) in zip(ivs[:-1], ivs[1:]):
            if a2 <= b1:
                raise JetSpecError(f"intervals [{a1}, {b1}] and [{a2}, {b2}] must be "
                                   "disjoint", code="OVERLAP")
        pts = tuple(p for p in pts
                    if not any(a <= p <= b for a, b in ivs))
        if not pts and not ivs:
            raise JetSpecError("empty compact set", code="EMPTY_SET")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "intervals", ivs)

    @property
    def hull(self) -> tuple[float, float]:
        lo = min([p for p in self.points] + [a for a, _ in self.intervals])
        hi = max([p for p in self.points] + [b for _, b in self.intervals])
        return lo, hi

    @property
    def has_intervals(self) -> bool:
        return bool(self.intervals)

    def carried_points(self) -> np.ndarray:
        """Points plus interval sample grids (spacing len/64)."""
        out = list(self.points)
        for a, b in self.intervals:
            n = max(2, int(round(1.0 / INTERVAL_GRID_FRACTION)) + 1)
            out.extend(np.linspace(a, b, n))
        return np.unique(np.asarray(out, dtype=float))

    def nearest_point(self, x: float) -> tuple[float, float]:
        """(xhat, d) with xhat in E at distance d; ties to the smaller point."""
        x = float(x)
        best: tuple[float, float] | None = None
        for a, b in self.intervals:
            cand = min(max(x, a), b)
            d = abs(x - cand)
            if best is None or d < best[1] - 1e-18 or (abs(d - best[1]) <= 1e-18 and cand < best[0]):
                best = (cand, d)
        for p in self.points:
            d = abs(x - p)
            if best is None or d < best[1] - 1e-18 or (abs(d - best[1]) <= 1e-18 and p < best[0]):
                best = (p, d)
        return best

    def distance(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        d = np.full_like(x, np.inf)
        for a, b in self.intervals:
            d = np.minimum(d, np.abs(x - np.clip(x, a, b)))
        for p in self.points:
            d = np.minimum(d, np.abs(x - p))
        return d

    def gaps(self, lo: float, hi: float):
        """Open intervals of [lo, hi] \\ E, with flags for E-adjacent ends."""
        comps = [(p, p) for p in self.points] + list(self.intervals)
        comps.sort()
        out = []
        prev = lo
        prev_is_e = False
        for a, b in comps:
            if a > prev:
                out.append((prev, a, prev_is_e, True))
            prev = max(prev, b)
            prev_is_e = True
        if hi > prev:
            out.append((prev, hi, prev_is_e, False))
        return out


@dataclass(frozen=True)
class Jet:
    """Derivative data F^k(a), 0 <= k <= order_cap, at each carried point."""

    E: CompactSet1D
    order_cap: int
    values: dict                # carried point -> np.ndarray of length order_cap+1
    label: str = "jet"

    def __post_init__(self):
        pts = self.E.carried_points()
        vals = {}
        for p in pts:
            v = np.asarray(self.values[float(p)], dtype=float)
            if len(v) != self.order_cap + 1 or not np.all(np.isfinite(v)):
                raise JetSpecError(f"jet values at {p} must be finite of length cap+1",
                                   code="BAD_JET_VALUES")
            vals[float(p)] = v
        object.__setattr__(self, "values", vals)

    def carried(self) -> np.ndarray:
        return self.E.carried_points()

    def value(self, a: float, k: int) -> float:
        if k > self.order_cap:
            raise OrderExceeded(f"order {k} exceeds cap {self.order_cap}")
        return float(self.values[float(a)][k])


def taylor_coeffs_local(F: Jet, a: float, p: int) -> np.ndarray:
    """Coefficients of T_a^p F in powers of (x - a)."""
    if p > F.order_cap:
        raise OrderExceeded(f"degree {p} exceeds jet cap {F.order_cap}")
    v = F.values[float(a)]
    return v[: p + 1] * np.exp(-log_factorial(np.arange(p + 1)))


def taylor_values(F: Jet, anchors, p, xs, order) -> np.ndarray:
    """(d/dx)^order of T_a^p F at x for each entry of the broadcast
    arguments (anchors a are carried points), evaluated stably about a:
    sum_{k >= order} F^k(a) (x - a)^{k-order} / (k-order)!, 0 when p < order.

    Entries with the same number of terms p + 1 - order share one row-wise
    ``np.sum`` over their terms, so each equals the one-entry call bit for
    bit.
    """
    a, p, x, order = np.broadcast_arrays(np.asarray(anchors, dtype=float),
                                         np.asarray(p), np.asarray(xs, dtype=float),
                                         np.asarray(order))
    if np.any(p > F.order_cap):
        raise OrderExceeded(f"degree {int(np.max(p))} exceeds jet cap {F.order_cap}")
    uniq, which = np.unique(a, return_inverse=True)
    V = np.array([F.values[float(u)] for u in uniq]).reshape(len(uniq), F.order_cap + 1)
    which = which.reshape(a.shape)
    n_terms = p + 1 - order
    out = np.zeros(a.shape)
    for n in np.unique(n_terms[n_terms > 0]):
        sel = n_terms == n
        j = np.arange(n)
        terms = (V[which[sel][:, None], order[sel][:, None] + j]
                 * np.power((x[sel] - a[sel])[:, None], j) * np.exp(-log_factorial(j)))
        out[sel] = np.sum(terms, axis=-1)
    return out


def remainder_table(F: Jet) -> tuple[np.ndarray, np.ndarray]:
    """``(R, dist)`` over the ordered pairs i = (a, b), a != b, of carried
    points (a, then b, in carried order): ``R[i, p, k]`` = (R_a^p F)^k(b) =
    F^k(b) - sum_{j <= p-k} (b-a)^j / j! F^{k+j}(a) for k <= p < order_cap
    (0 for k > p), the sum one ``np.sum`` over its p - k + 1 terms, and
    ``dist[i]`` = |b - a|."""
    cap = F.order_cap
    pts = F.carried()
    V = np.array([F.values[float(a)] for a in pts])
    ia, ib = np.nonzero(~np.eye(len(pts), dtype=bool))
    d = pts[ib] - pts[ia]
    R = np.zeros((len(d), cap, cap))
    for n in range(1, cap + 1):             # n = p - k + 1 terms, k = 0..cap-n
        j = np.arange(n)
        k = np.arange(cap - n + 1)
        terms = (np.lib.stride_tricks.sliding_window_view(V[ia, :cap], n, axis=1)
                 * np.power(d[:, None], j)[:, None, :] * np.exp(-log_factorial(j)))
        R[:, k + n - 1, k] = V[ib, : cap - n + 1] - np.sum(terms, axis=-1)
    return R, np.abs(d)


def _log_order_weights(F: Jet, cap: int, log_W: np.ndarray, log_Wr: np.ndarray,
                       log_kfac: np.ndarray) -> np.ndarray:
    """Rho-free log weight per order n = 0..cap of F's jet-norm constraints,
    -inf where all are 0: the larger of max_a log|F^n(a)| - log_W[n] and
    max over pairs and k of log|(R_a^{n-1} F)^k(b)| - (n - k) log|b - a|
    + log_kfac[n-1, k] - log_Wr[n]."""
    V = np.array([F.values[float(a)][: cap + 1] for a in F.carried()])
    R, dist = remainder_table(F)
    R = R[:, :cap, :cap]
    k = np.arange(cap)
    with np.errstate(divide="ignore"):
        w = np.max(np.log(np.abs(V)), axis=0) - log_W[: cap + 1]
        # reduced in place: the table is the only array of its size
        np.log(np.abs(R, out=R), out=R)
        log_d = np.log(dist)[:, None]
        for p in range(cap):
            R[:, p] -= (p + 1 - k) * log_d
        log_r = np.max(R, axis=0, initial=-np.inf)
    w[1:] = np.maximum(w[1:], np.max(log_r + log_kfac, axis=1, initial=-np.inf)
                       - log_Wr[1: cap + 1])
    return w


def grid_constants(orders, log_w, rho_grid,
                   log_floor: float = -math.inf) -> tuple[np.ndarray, int]:
    """C(rho) = exp max(log_floor, max_n (log_w_n - n log rho)) on an
    increasing rho grid (clamped at e^700), and the index of the first rho
    whose C is at most twice the last C.  An exact tie C = 2 C_last falls
    either way with the rounding of exp."""
    log_rho = np.array([math.log(r) for r in rho_grid])
    log_C = np.max(np.asarray(log_w, dtype=float) - np.outer(log_rho, orders),
                   axis=1, initial=log_floor)
    # scalar math.exp: which way an exact tie falls depends on its rounding
    C = np.array([math.exp(x) for x in np.minimum(log_C, 700.0)])
    return C, int(np.argmax(C <= 2.0 * C[-1]))


@dataclass(frozen=True)
class JetNormProfile:
    rho_grid: np.ndarray
    C_of_rho: np.ndarray
    verdict_rho: float | None
    not_in_class_trend: bool
    order_requirement_slope: float
    sampled_semantics: bool     # True when E has interval components


def jet_norm_profile(F: Jet, M: WeightSequence, rho_grid=None) -> JetNormProfile:
    """Fit the smallest C per rho for the two jet-norm constraint families.

    Order-0 constraints bound |F^k(a)| by C rho^k M_k; remainder constraints
    bound |(R_a^p F)^k(b)| by C rho^{p+1} M_{p+1} |b-a|^{p+1-k}/(p+1-k)!.
    The NOT_IN_CLASS trend fires when the per-order requirement
    r_k = (sup_a |F^k(a)| / M_k)^{1/k} keeps growing across the top half of
    stored orders: no rho in any grid can flatten such a profile.
    """
    if rho_grid is None:
        rho_grid = np.array([2.0 ** j for j in range(-4, 11)])
    rho_grid = np.asarray(sorted(float(r) for r in rho_grid))
    cap = F.order_cap

    # bounds of aggregate order n: |F^n(a)| and the remainders with p + 1 = n
    p = np.arange(cap)[:, None]
    k = np.arange(cap)[None, :]
    per_order = _log_order_weights(F, cap, M.log_M, M.log_M,
                                   log_factorial(np.maximum(p + 1 - k, 0)))
    orders = np.nonzero(np.isfinite(per_order))[0]
    log_w = per_order[orders]
    C_of_rho, i = grid_constants(orders, log_w, rho_grid)

    # per-order requirement trend over the top half of populated orders >= 1:
    # the class is hopeless when the rho each order demands keeps growing.
    # Requirements below 1 are noise-floor artifacts, not growth.
    pos = orders >= 1
    slope = 0.0
    trend = False
    if np.count_nonzero(pos) >= 4:
        log_r_k = log_w[pos] / orders[pos]
        top = orders[pos] >= max(2, orders[pos].max() // 2)
        if np.count_nonzero(top) >= 3:
            x = np.log(orders[pos][top].astype(float))
            y = log_r_k[top]
            slope = float(np.polyfit(x, y, 1)[0])
            trend = slope >= 0.5 and bool(np.max(y) >= 0.0)
    verdict_rho = None if trend else float(rho_grid[i])
    return JetNormProfile(rho_grid, C_of_rho, verdict_rho, trend, slope,
                          F.E.has_intervals)


def fit_jet_constants(F: Jet, s: WeightSequence,
                      rho_grid) -> tuple[np.ndarray, int]:
    """Smallest C >= 1 for the starred-form bounds at each grid rho, and the
    index of the grid rho :func:`grid_constants` picks.

    These are the bounds the extension estimates consume:
    |F^k(a)| <= C rho^k S_k and
    |(R_a^p F)^k(b)| <= C rho^{p+1} k! s_{p+1} |b-a|^{p+1-k},
    with S_k = k! s_k and ``s`` the descendant's small row (quotients
    sigma*_k).
    """
    log_s = s.log_M
    k = np.arange(len(log_s))
    cap = min(F.order_cap, len(log_s) - 2)
    log_kfac = log_factorial(k)
    log_w = _log_order_weights(F, cap, log_s + log_kfac, log_s, -log_kfac[:cap])
    return grid_constants(k[: cap + 1], log_w, rho_grid, log_floor=0.0)


# -- builtin analytic jets ----------------------------------------------------

def sample_jet(f_spec, E: CompactSet1D, p_max: int = 16) -> Jet:
    """Jet of a builtin analytic function: exact derivative recurrences only.

    ``f_spec``: ``{"kind": "exp"}``, ``{"kind": "sin"}``,
    ``{"kind": "polynomial", "coeffs": [...]}`` (ascending powers), or
    ``{"kind": "rational", "num": [...], "den": [...]}``.
    """
    kind = f_spec["kind"] if isinstance(f_spec, dict) else str(f_spec)
    pts = E.carried_points()
    vals = {}
    if kind == "exp":
        for a in pts:
            vals[float(a)] = np.full(p_max + 1, math.exp(a))
        label = "exp"
    elif kind == "sin":
        for a in pts:
            cyc = [math.sin(a), math.cos(a), -math.sin(a), -math.cos(a)]
            vals[float(a)] = np.array([cyc[k % 4] for k in range(p_max + 1)])
        label = "sin"
    elif kind == "polynomial":
        c = np.asarray(f_spec["coeffs"], dtype=float)
        for a in pts:
            vals[float(a)] = _poly_derivs(c, a, p_max)
        label = f"poly(deg {len(c) - 1})"
    elif kind == "rational":
        num = np.asarray(f_spec["num"], dtype=float)
        den = np.asarray(f_spec["den"], dtype=float)
        _check_poles(den, E)
        for a in pts:
            vals[float(a)] = _rational_derivs(num, den, a, p_max)
        label = "rational"
    else:
        raise JetSpecError(f"unknown jet family {kind!r}", code="UNKNOWN_FAMILY")
    return Jet(E, p_max, vals, label=label)


def table_jet(E: CompactSet1D, per_point_values, p_max: int) -> Jet:
    vals = {float(a): np.asarray(v, dtype=float)
            for a, v in per_point_values.items()}
    return Jet(E, p_max, vals, label="table")


def _poly_derivs(coeffs: np.ndarray, a: float, p_max: int) -> np.ndarray:
    out = np.zeros(p_max + 1)
    c = coeffs.astype(float)
    for k in range(p_max + 1):
        out[k] = _poly_eval(c, a)
        c = c[1:] * np.arange(1, len(c))
        if len(c) == 0:
            break
    return out


def _poly_eval(c: np.ndarray, x: float) -> float:
    r = 0.0
    for cc in c[::-1]:
        r = r * x + cc
    return r


def _poly_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.convolve(a, b)


def _poly_deriv(a: np.ndarray) -> np.ndarray:
    if len(a) <= 1:
        return np.zeros(1)
    return a[1:] * np.arange(1, len(a))


def _rational_derivs(num: np.ndarray, den: np.ndarray, a: float, p_max: int) -> np.ndarray:
    """f^{(k)} = P_k / Q^{k+1} with P_{k+1} = P_k' Q - (k+1) P_k Q'."""
    out = np.zeros(p_max + 1)
    P = num.astype(float)
    Qp = _poly_deriv(den)
    qa = _poly_eval(den, a)
    for k in range(p_max + 1):
        out[k] = _poly_eval(P, a) / qa ** (k + 1)
        P = _poly_add(_poly_mul(_poly_deriv(P), den), -(k + 1) * _poly_mul(P, Qp))
    return out


def _poly_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n = max(len(a), len(b))
    out = np.zeros(n)
    out[: len(a)] += a
    out[: len(b)] += b
    return out


def _check_poles(den: np.ndarray, E: CompactSet1D) -> None:
    lo, hi = E.hull
    pad = 1e-9 * max(1.0, hi - lo)
    roots = np.roots(den[::-1])
    for r in roots:
        if abs(r.imag) < 1e-9 and lo - pad <= r.real <= hi + pad:
            raise PoleOnSet(f"denominator root {r.real:.6g} inside hull [{lo}, {hi}]")
    grid = np.linspace(lo, hi, 512)
    if np.min(np.abs([_poly_eval(den, x) for x in grid])) < 1e-12:
        raise PoleOnSet("denominator vanishes on the hull grid")
