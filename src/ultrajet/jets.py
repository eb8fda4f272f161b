"""Compact 1D sets, Whitney jets, Taylor maps, and jet-norm fitting.

A jet on a compact set E prescribes derivative values F^k(a) for each
carried point a and order k <= order_cap.  Interval components of E carry
their data on a sample grid; everything downstream treats carried points
only.  The jet norm (values and Whitney remainders, weighted by a row) is
reduced once per jet, weight-free, and :func:`fit_jet_constants` weights it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as poly

from .errors import JetSpecError, OrderExceeded, PoleOnSet
from .seqcalc import WeightSequence, log_factorial

INTERVAL_GRID_FRACTION = 1.0 / 64.0


@dataclass(frozen=True, init=False, eq=False)
class CompactSet1D:
    """Finite union of points and closed intervals on the line.

    Stored once as its components: a sorted read-only (m, 2) array of
    disjoint [lo, hi] rows, a point p being the row [p, p].  A point inside
    an interval is dropped.
    """

    components: np.ndarray

    def __init__(self, points=(), intervals=()):
        pts = sorted(set(float(p) for p in points))
        ivs = sorted((float(a), float(b)) for a, b in intervals)
        for a, b in ivs:
            if b <= a:
                raise JetSpecError(f"interval [{a}, {b}] must have positive length",
                                   code="NON_POSITIVE")
        for (a1, b1), (a2, b2) in zip(ivs[:-1], ivs[1:]):
            if a2 <= b1:
                raise JetSpecError(f"intervals [{a1}, {b1}] and [{a2}, {b2}] must be "
                                   "disjoint", code="OVERLAP")
        comps = sorted([(p, p) for p in pts if not any(a <= p <= b for a, b in ivs)]
                       + ivs)
        if not comps:
            raise JetSpecError("empty compact set", code="EMPTY_SET")
        comps = np.array(comps, dtype=float)
        comps.flags.writeable = False
        object.__setattr__(self, "components", comps)

    @property
    def points(self) -> tuple:
        return tuple(lo for lo, hi in self.components.tolist() if lo == hi)

    @property
    def intervals(self) -> tuple:
        return tuple((lo, hi) for lo, hi in self.components.tolist() if lo < hi)

    @property
    def hull(self) -> tuple[float, float]:
        return float(self.components[0, 0]), float(self.components[-1, 1])

    def carried_points(self) -> np.ndarray:
        """Points plus interval sample grids (spacing len/64)."""
        n = max(2, int(round(1.0 / INTERVAL_GRID_FRACTION)) + 1)
        return np.unique(np.concatenate([[lo] if lo == hi else np.linspace(lo, hi, n)
                                         for lo, hi in self.components]))

    def nearest(self, x) -> tuple[np.ndarray, np.ndarray]:
        """(xhat, d) for each x: xhat in E at the distance d of x to E; ties
        go to the smaller point."""
        x = np.atleast_1d(np.asarray(x, dtype=float))[:, None]
        cand = np.clip(x, self.components[:, 0], self.components[:, 1])
        d = np.abs(x - cand)
        at = np.arange(len(x)), np.argmin(d, axis=1)   # the first of equal minima
        return cand[at], d[at]

    def distance(self, x) -> np.ndarray:
        return self.nearest(x)[1]

    def gaps(self, lo: float, hi: float):
        """Open intervals of [lo, hi] \\ E, with flags for E-adjacent ends."""
        out = []
        prev = lo
        prev_is_e = False
        for a, b in self.components.tolist():
            if a > prev:
                out.append((prev, a, prev_is_e, True))
            prev = max(prev, b)
            prev_is_e = True
        if hi > prev:
            out.append((prev, hi, prev_is_e, False))
        return out


@dataclass(frozen=True)
class Jet:
    """Derivative data F^k(a), 0 <= k <= order_cap, at each carried point:
    ``values`` is a read-only (carried points, order_cap + 1) array whose
    row i holds the point ``carried()[i]``."""

    E: CompactSet1D
    order_cap: int
    values: np.ndarray
    label: str = "jet"

    def __post_init__(self):
        pts = self.E.carried_points()
        pts.flags.writeable = False
        shape = (len(pts), self.order_cap + 1)
        try:
            v = np.array(self.values, dtype=float)
        except (TypeError, ValueError):     # ragged rows, or not numbers
            v = None
        if v is None or v.shape != shape or not np.all(np.isfinite(v)):
            raise JetSpecError(f"jet values must be a finite {shape} array: one row of "
                               "order_cap + 1 values per carried point",
                               code="BAD_JET_VALUES")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "_carried", pts)

    def carried(self) -> np.ndarray:
        """The carried points, ascending (read-only)."""
        return self._carried

    def rows(self, points) -> np.ndarray:
        """The row of ``values`` of each point; JetSpecError NOT_CARRIED for a
        point the jet does not carry."""
        pts = self._carried
        x = np.asarray(points, dtype=float)
        i = np.minimum(np.searchsorted(pts, x), len(pts) - 1)
        off = pts[i] != x
        if np.any(off):
            raise JetSpecError(f"{float(x[off].flat[0])!r} is not a carried point of "
                               "the jet", code="NOT_CARRIED")
        return i

    @functools.cached_property
    def log_norm_terms(self) -> tuple[np.ndarray, np.ndarray]:
        """The weight-free reduction of the jet norm, computed once per jet:
        ``(log_v, log_r)`` with log_v[n] = max_a log|F^n(a)|, n <= order_cap,
        and log_r[p, k] = max over pairs of carried points of
        log|(R_a^p F)^k(b)| - (p + 1 - k) log|b - a|, k, p < order_cap
        (-inf where every term is 0, so for every k > p)."""
        R, dist = remainder_table(self)
        k = np.arange(self.order_cap)
        with np.errstate(divide="ignore"):
            log_v = np.max(np.log(np.abs(self.values)), axis=0)
            # reduced in place: the table is the only array of its size
            np.log(np.abs(R, out=R), out=R)
            log_d = np.log(dist)[:, None]
            for p in range(self.order_cap):
                R[:, p] -= (p + 1 - k) * log_d
        return log_v, np.max(R, axis=0, initial=-np.inf)


def taylor_coeffs_local(F: Jet, a, p: int) -> np.ndarray:
    """Coefficients of T_a^p F in powers of (x - a), one row per anchor
    (shape ``np.shape(a) + (p + 1,)``)."""
    if p > F.order_cap:
        raise OrderExceeded(f"degree {p} exceeds jet cap {F.order_cap}")
    return F.values[F.rows(a), : p + 1] * np.exp(-log_factorial(np.arange(p + 1)))


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
    which = F.rows(a)
    n_terms = p + 1 - order
    out = np.zeros(a.shape)
    for n in np.unique(n_terms[n_terms > 0]):
        sel = n_terms == n
        j = np.arange(n)
        terms = (F.values[which[sel][:, None], order[sel][:, None] + j]
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
    V = F.values
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


def doubling_constants(orders, log_w, log_floor: float = -math.inf) -> tuple[float, float]:
    """``(log C, log rho)`` for w_n <= C rho^n, n in ``orders``: rho is the
    smallest with C(rho) = exp max(log_floor, max_n (log w_n - n log rho)) at
    most 2 C_inf, C_inf = exp max(log_floor, log w_0).  A maximum of lines in
    log rho, so exactly log rho = max_{n >= 1} (log w_n - log 2 C_inf) / n
    (-inf if no order n >= 1 is finite), and C = 2 C_inf if one binds."""
    n = np.asarray(orders)
    log_w = np.asarray(log_w, dtype=float)
    log_c_inf = float(np.max(log_w[n == 0], initial=log_floor))
    live = (n >= 1) & (log_w > -np.inf)
    n, log_w = n[live], log_w[live]
    log_rho = float(np.max((log_w - math.log(2.0) - log_c_inf) / n, initial=-np.inf))
    return float(np.max(log_w - n * log_rho, initial=log_c_inf)), log_rho


@dataclass(frozen=True)
class JetFit:
    """The jet norm against one small row s: (C, rho) by
    :func:`doubling_constants`, and the class trend."""

    C: float
    rho: float
    order_slope: float     # of log r_n against log n, top half of populated orders
    not_in_class: bool     # the rho each order demands keeps growing


def fit_jet_constants(F: Jet, s: WeightSequence) -> JetFit:
    """The constants (C >= 1, rho) of :func:`doubling_constants` for the
    starred-form bounds, and the class trend.

    These are the bounds the extension estimates consume:
    |F^k(a)| <= C rho^k S_k and
    |(R_a^p F)^k(b)| <= C rho^{p+1} k! s_{p+1} |b-a|^{p+1-k},
    with S_k = k! s_k and ``s`` the descendant's small row (quotients
    sigma*_k).  Both read the jet's one :attr:`Jet.log_norm_terms`.

    The trend: with log w_n the largest log weight of order n (over the
    values of order n and the remainders with p + 1 = n), the per-order
    requirement log r_n = log w_n / n is fitted against log n over the top
    half of the populated orders n >= 1.  A slope >= 0.5 with max log r_n >= 0
    means no rho can flatten the profile: ``not_in_class``.
    Requirements below 1 are noise-floor artifacts, not growth.
    """
    log_s = s.log_M
    k = np.arange(len(log_s))
    cap = min(F.order_cap, len(log_s) - 2)
    log_kfac = log_factorial(k)
    log_v, log_r = F.log_norm_terms
    log_w = log_v[: cap + 1] - (log_s + log_kfac)[: cap + 1]
    log_w[1:] = np.maximum(log_w[1:], np.max(log_r[:cap, :cap] - log_kfac[:cap], axis=1,
                                             initial=-np.inf) - log_s[1: cap + 1])
    log_C, log_rho = doubling_constants(k[: cap + 1], log_w, log_floor=0.0)

    orders = np.flatnonzero(np.isfinite(log_w) & (k[: cap + 1] >= 1))
    slope = 0.0
    trend = False
    if len(orders) >= 4:
        top = orders[orders >= max(2, orders.max() // 2)]
        if len(top) >= 3:
            y = log_w[top] / top
            slope = float(np.polyfit(np.log(top.astype(float)), y, 1)[0])
            trend = slope >= 0.5 and bool(np.max(y) >= 0.0)
    return JetFit(math.exp(log_C), math.exp(log_rho), slope, trend)


# -- builtin analytic jets ----------------------------------------------------

def sample_jet(f_spec, E: CompactSet1D, p_max: int = 16) -> Jet:
    """Jet of a builtin analytic function: exact derivative recurrences only.

    ``f_spec``: ``{"kind": "exp"}``, ``{"kind": "sin"}``,
    ``{"kind": "polynomial", "coeffs": [...]}`` (ascending powers), or
    ``{"kind": "rational", "num": [...], "den": [...]}``.
    """
    kind = f_spec["kind"] if isinstance(f_spec, dict) else str(f_spec)
    pts = E.carried_points()
    if kind == "exp":
        vals = [[math.exp(a)] * (p_max + 1) for a in pts]
        label = "exp"
    elif kind == "sin":
        vals = [np.resize([math.sin(a), math.cos(a), -math.sin(a), -math.cos(a)],
                          p_max + 1) for a in pts]
        label = "sin"
    elif kind == "polynomial":
        c = np.asarray(f_spec["coeffs"], dtype=float)
        vals = np.array([poly.polyval(pts, poly.polyder(c, k)) for k in range(p_max + 1)]).T
        label = f"poly(deg {len(c) - 1})"
    elif kind == "rational":
        num = np.asarray(f_spec["num"], dtype=float)
        den = np.asarray(f_spec["den"], dtype=float)
        _check_poles(den, E)
        vals = [_rational_derivs(num, den, a, p_max) for a in pts.tolist()]
        label = "rational"
    else:
        raise JetSpecError(f"unknown jet family {kind!r}", code="UNKNOWN_FAMILY")
    return Jet(E, p_max, vals, label=label)


def table_jet(E: CompactSet1D, per_point_values: dict, p_max: int) -> Jet:
    """Jet from a dict carried point -> its order_cap + 1 values."""
    try:
        vals = [per_point_values[a] for a in E.carried_points().tolist()]
    except KeyError as err:
        raise JetSpecError(f"no jet values for carried point {err.args[0]!r}",
                           code="BAD_JET_VALUES") from None
    return Jet(E, p_max, vals, label="table")


def _rational_derivs(num: np.ndarray, den: np.ndarray, a: float, p_max: int) -> list:
    """f^{(k)}(a) = P_k(a) / Q(a)^{k+1}, k = 0..p_max, with
    P_{k+1} = P_k' Q - (k+1) P_k Q'.  Q(a)^{k+1} is a scalar power: NumPy's
    vector power can round the last bit differently."""
    qa, dq = float(poly.polyval(a, den)), poly.polyder(den)
    out, pk = [], num
    for k in range(p_max + 1):
        out.append(poly.polyval(a, pk) / qa ** (k + 1))
        pk = poly.polysub(poly.polymul(poly.polyder(pk), den), (k + 1) * poly.polymul(pk, dq))
    return out


def _check_poles(den: np.ndarray, E: CompactSet1D) -> None:
    lo, hi = E.hull
    pad = 1e-9 * max(1.0, hi - lo)
    roots = np.roots(den[::-1])
    for r in roots:
        if abs(r.imag) < 1e-9 and lo - pad <= r.real <= hi + pad:
            raise PoleOnSet(f"denominator root {r.real:.6g} inside hull [{lo}, {hi}]")
    grid = np.linspace(lo, hi, 512)
    if np.min(np.abs(poly.polyval(grid, den))) < 1e-12:
        raise PoleOnSet("denominator vanishes on the hull grid")
