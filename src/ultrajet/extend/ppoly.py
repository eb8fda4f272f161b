"""Exact piecewise-polynomial calculus.

Carrier for cutoffs, partition functions, and the assembled extension.
A spline is ``breakpoints`` (n+1 increasing floats) and one float array
``coeffs`` of shape (n, degree+1): row i holds the coefficients of piece i
in powers of (x - breakpoints[i]), so every row is anchored at its left
breakpoint, and ``degree`` is the last column that is nonzero in some row.
The function is zero outside the breakpoint span.  All operations (sum,
product, derivative, affine substitution, convolution with a normalized
box) are array expressions over the rows, exact up to float rounding.
``chopped`` drops, row by row, the trailing coefficients that lie below
rounding for every derivative order up to a given one; ``row_degrees``
then reads each row's own degree off ``coeffs``.

Box convolution is the workhorse: convolving with width-d boxes raises the
max piece degree by one and the smoothness order by one per pass, which is
how the bump functions acquire their controlled derivatives.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ..errors import SplineError

DEDUP_REL_TOL = 1e-12
CHOP_REL_TOL = 1e-16


@functools.lru_cache(maxsize=None)
def _binomials(m: int) -> np.ndarray:
    """Read-only table B[j, i] = binom(j, i) for 0 <= i, j < m."""
    B = np.array([[math.comb(j, i) for i in range(m)] for j in range(m)], dtype=float)
    B.flags.writeable = False
    return B


def taylor_shift(rows, h) -> np.ndarray:
    """Each row of coefficients re-anchored h to the right.

    sum_j a_j (x - t0)^j = sum_i b_i (x - (t0 + h))^i, row by row, with h a
    scalar or one value per row.  Synthetic division runs only on the rows
    with h != 0; the others are copied unchanged.

    Synthetic division is m - 1 Horner passes over the m coefficients, pass
    i updating c_j += h c_{j+1} for j = m-2 down to i.  Entry (pass i, j)
    needs only (i, j+1) and (i-1, j), so the entries of one anti-diagonal
    i + (m-2-j) = t are independent, and the passes run as m - 1 slice
    updates: step t = 0..m-2 is c[m-2-t : m-1] += h c[m-1-t : m], whose
    right side is read whole before any entry is written.  Each entry gets
    the same multiply and add as pass by pass, so the result is bit for bit
    the same.
    """
    out = np.array(rows, dtype=float, ndmin=2)
    _shift_in_place(out, np.broadcast_to(np.asarray(h, dtype=float), out.shape[:1]))
    return out


def _shift_in_place(c: np.ndarray, h: np.ndarray) -> None:
    """:func:`taylor_shift` of the rows of c by h, written into c."""
    m = c.shape[1]
    moved = np.flatnonzero(h != 0.0)
    if not moved.size or m < 2:
        return
    rows = slice(None) if moved.size == len(c) else moved
    ct, hm = c[rows].T.copy(), h[rows]
    for t in range(m - 1):
        ct[m - 2 - t: m - 1] += hm * ct[m - 1 - t:]
    c[rows] = ct.T


def _divided_shift(rows, h_minus, d: float) -> np.ndarray:
    """Per row, coefficients of (p shifted by h_minus + d) - (p shifted by
    h_minus), all divided by d, formed without the 1/d cancellation.

    Uses (h2^n - h1^n)/d = sum_l h2^{n-1-l} h1^l with h2 = h_minus + d.
    """
    a = np.array(rows, dtype=float, ndmin=2)
    m = a.shape[1]
    h1 = np.broadcast_to(np.asarray(h_minus, dtype=float), a.shape[:1])
    h2 = h1 + d
    B = _binomials(m)
    out = np.zeros_like(a)
    acc = np.zeros(len(a))      # (h2^n - h1^n) / d, built incrementally
    p2 = np.ones(len(a))        # h2^(n-1)
    for n in range(1, m):
        acc = acc * h1 + p2
        p2 = p2 * h2
        # column i gains binom(i+n, i) (h2^n - h1^n)/d a_{i+n}
        out[:, : m - n] += np.diagonal(B, -n) * acc[:, None] * a[:, n:]
    return out


def _falling_factorials(order: int, m: int) -> np.ndarray:
    """j!/(j - order)! for j = order..m-1: d^order/dx^order of x^j is that
    times x^(j - order)."""
    return np.array([math.perm(j, order) for j in range(order, m)], dtype=float)


def _derivative_rows(c: np.ndarray, order: int) -> np.ndarray:
    """Coefficient rows of the order-th derivative of each piece."""
    m = c.shape[1]
    if order == 0:
        return c
    if order >= m:
        return np.zeros((len(c), 1))
    return c[:, order:] * _falling_factorials(order, m)


def _horner(c: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Row r of c evaluated at xi[r] (local coordinates)."""
    r = np.zeros(len(xi))
    for col in c.T[::-1]:
        r = r * xi + col
    return r


@dataclass(frozen=True)
class PiecewisePolynomial:
    breakpoints: np.ndarray
    coeffs: np.ndarray       # (pieces, degree + 1), row i anchored at breakpoints[i]
    smoothness_order: int = -1   # continuous derivatives guaranteed by construction

    def __post_init__(self):
        b = np.asarray(self.breakpoints, dtype=float)
        b.flags.writeable = False
        object.__setattr__(self, "breakpoints", b)
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim != 2 or c.shape[1] == 0 or len(b) != len(c) + 1:
            raise SplineError(f"need one coefficient row per piece: {len(b)} "
                              f"breakpoints, coefficients of shape {c.shape}",
                              code="BAD_SHAPE")
        if np.any(np.diff(b) <= 0):
            raise SplineError("breakpoints must be strictly increasing",
                              code="NOT_INCREASING")
        # trailing all-zero columns, checked from the right
        m = c.shape[1]
        while m > 1 and not c[:, m - 1].any():
            m -= 1
        c = c[:, :m]
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    # -- basic queries --------------------------------------------------------

    @property
    def span(self) -> tuple[float, float]:
        return float(self.breakpoints[0]), float(self.breakpoints[-1])

    @property
    def degree(self) -> int:
        return self.coeffs.shape[1] - 1

    def row_degrees(self) -> np.ndarray:
        """Last nonzero column of each row; 0 for a zero row."""
        nz = self.coeffs != 0.0
        return np.where(nz.any(axis=1), self.degree - np.argmax(nz[:, ::-1], axis=1), 0)

    def _nonzero_rows(self) -> np.ndarray:
        return np.flatnonzero(np.any(self.coeffs != 0.0, axis=1))

    def support(self) -> tuple[float, float]:
        """Smallest breakpoint window outside which all pieces are zero."""
        nz = self._nonzero_rows()
        b = self.breakpoints
        if not nz.size:
            return float(b[0]), float(b[0])
        return float(b[nz[0]]), float(b[nz[-1] + 1])

    def __call__(self, x, order=0):
        """Derivative of the given order at x, zero outside the span.

        ``order`` may be a sequence: one piece lookup then serves every
        order, and the result has one row per order (one value per order
        for scalar x), each bit for bit the single-order call.
        """
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        orders = np.atleast_1d(order)
        b = self.breakpoints
        # the right endpoint belongs to the last piece
        idx = np.clip(np.searchsorted(b, x_arr, side="right") - 1, 0, len(self.coeffs) - 1)
        inside = (x_arr >= b[0]) & (x_arr <= b[-1])
        idx = idx[inside]
        c, xi = self.coeffs[idx], x_arr[inside] - b[idx]
        out = np.zeros((len(orders),) + x_arr.shape)
        for r, k in enumerate(orders):
            out[r, inside] = _horner(_derivative_rows(c, k), xi)
        if np.ndim(order) == 0:
            out = out[0]
            return out if np.ndim(x) else float(out[0])
        return out if np.ndim(x) else out[:, 0]

    def derivative(self, order: int = 1) -> "PiecewisePolynomial":
        return PiecewisePolynomial(self.breakpoints,
                                   _derivative_rows(self.coeffs, order),
                                   max(-1, self.smoothness_order - order))

    def _piece_integral_terms(self) -> np.ndarray:
        """Entry (i, j) is c_ij w_i^(j+1) / (j+1), w_i the width of piece i."""
        j1 = np.arange(1, self.coeffs.shape[1] + 1)
        return self.coeffs * np.diff(self.breakpoints)[:, None] ** j1 / j1

    def integral(self) -> float:
        return math.fsum(self._piece_integral_terms().ravel())

    def antiderivative_parts(self):
        """Antiderivative coefficient rows and the total integral.

        Returns ((pieces, degree + 2) array with the accumulated constant in
        column 0, total); the antiderivative is continuous, zero at the left
        end of the span.
        """
        c = self.coeffs
        parts = np.zeros((len(c), c.shape[1] + 1))
        parts[:, 1:] = c / np.arange(1, c.shape[1] + 1)
        running = 0.0
        comp = 0.0  # compensated summation of the running constant
        for i, terms in enumerate(self._piece_integral_terms()):
            parts[i, 0] = running
            y = math.fsum(terms) - comp
            t = running + y
            comp = (t - running) - y
            running = t
        return parts, running

    # -- algebra ---------------------------------------------------------------

    def _rows_at(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """For each piece [u, v], the row of self's piece that contains its
        midpoint, re-anchored at u; zero rows for midpoints outside
        [first breakpoint, last breakpoint).  The midpoint, not u, picks the
        row, so a breakpoint of self merged into u takes the row past it.

        The pieces must be increasing (merged breakpoints and ``restrict``
        cuts are): one ``searchsorted`` on the midpoints finds the window
        inside the span, and only those rows are gathered and shifted.
        """
        b = self.breakpoints
        mid = 0.5 * (u + v)
        lo, hi = np.searchsorted(mid, b[[0, -1]])
        i = np.searchsorted(b, mid[lo:hi], side="right") - 1
        inner = self.coeffs[i]
        _shift_in_place(inner, u[lo:hi] - b[i])
        if hi - lo == len(u):
            return inner
        rows = np.zeros((len(u), self.coeffs.shape[1]))
        rows[lo:hi] = inner
        return rows

    def translate(self, c: float) -> "PiecewisePolynomial":
        return PiecewisePolynomial(self.breakpoints + c, self.coeffs,
                                   self.smoothness_order)

    def compose_affine(self, center: float, scale: float) -> "PiecewisePolynomial":
        """g(x) = f((x - center)/scale) for scale > 0."""
        if scale <= 0:
            raise SplineError(f"scale must be positive, got {scale}", code="NON_POSITIVE")
        return PiecewisePolynomial(center + scale * self.breakpoints,
                                   self.coeffs * scale ** -np.arange(self.degree + 1),
                                   self.smoothness_order)

    def __mul__(self, other):
        if np.isscalar(other):
            return PiecewisePolynomial(self.breakpoints, self.coeffs * float(other),
                                       self.smoothness_order)
        return _product(self, other)

    __rmul__ = __mul__

    def __add__(self, other):
        return spline_sum((self, other))

    def __sub__(self, other):
        return spline_sum((self, other * -1.0))

    def convolve_box(self, d: float) -> "PiecewisePolynomial":
        """Exact convolution with the normalized box of width d.

        g(x) = (F(x + d/2) - F(x - d/2)) / d with F the antiderivative.
        Raises the max piece degree and smoothness order by one.  When both
        endpoints land in the same antiderivative piece the difference is
        formed by divided differences, avoiding the 1/d cancellation that
        would otherwise erode plateaus of iterated convolutions.
        """
        if d <= 0:
            raise SplineError(f"box width must be positive, got {d}", code="NON_POSITIVE")
        b = self.breakpoints
        n = len(b) - 1
        parts, total = self.antiderivative_parts()
        new_b = _dedup(np.concatenate([b - d / 2.0, b + d / 2.0]))
        u = new_b[:-1]
        mid = 0.5 * (u + new_b[1:])

        def locate(s):
            """Antiderivative piece at mid + s: -1 left of the span, n right."""
            y = mid + s
            i = np.clip(np.searchsorted(b, y, side="right") - 1, 0, n - 1)
            return np.where(y <= b[0], -1, np.where(y >= b[-1], n, i))

        ip, im = locate(d / 2.0), locate(-d / 2.0)
        same = (ip == im) & (ip >= 0) & (ip < n)
        out = np.empty((len(u), parts.shape[1]))
        i = ip[same]
        out[same] = _divided_shift(parts[i], (u[same] - b[i]) - d / 2.0, d)

        def anti_rows(idx, s):
            """Antiderivative re-anchored at u + s on the rows not in ``same``."""
            idx, uu = idx[~same], u[~same]
            inner = (idx >= 0) & (idx < n)
            rows = np.zeros((len(idx), parts.shape[1]))
            k = idx[inner]
            rows[inner] = taylor_shift(parts[k], (uu[inner] - b[k]) + s)
            rows[idx >= n, 0] = total
            return rows

        out[~same] = (anti_rows(ip, d / 2.0) - anti_rows(im, -d / 2.0)) / d
        return PiecewisePolynomial(new_b, out, self.smoothness_order + 1)

    def seam_gaps(self, order: int | None = None) -> np.ndarray:
        """Max |left - right| mismatch at interior breakpoints for derivative
        orders 0..order (defaults to the declared smoothness order)."""
        if order is None:
            order = max(self.smoothness_order, 0)
        gaps = np.zeros(order + 1)
        if len(self.coeffs) < 2:
            return gaps
        w = np.diff(self.breakpoints)[:-1]
        for q in range(order + 1):
            dq = _derivative_rows(self.coeffs, q)
            gaps[q] = np.max(np.abs(_horner(dq[:-1], w) - dq[1:, 0]))
        return gaps

    def trimmed(self) -> "PiecewisePolynomial":
        """Drop identically-zero pieces at both ends (zero-outside semantics
        make them redundant); interior zero pieces are kept."""
        nz = self._nonzero_rows()
        b = self.breakpoints
        if not nz.size:
            return PiecewisePolynomial(b[:2], np.zeros((1, 1)), self.smoothness_order)
        lo, hi = nz[0], nz[-1]
        return PiecewisePolynomial(b[lo: hi + 2], self.coeffs[lo: hi + 1],
                                   self.smoothness_order)

    def chopped(self, max_order: int) -> "PiecewisePolynomial":
        """Each row cut after its last coefficient that matters for some
        derivative order r <= max_order.

        On a piece of width h, c_k contributes at most |c_k| h^k k!/(k-r)!
        to h^r f^(r).  c_k matters for r when that term is nonzero and at
        least CHOP_REL_TOL times the row's largest term for r.  Every
        coefficient past the last one that matters is zeroed; interior
        coefficients are kept whatever their size.  Judging at r = 0 alone
        would not do: a coefficient negligible for f can dominate f^(r).
        """
        c = self.coeffs
        m = c.shape[1]
        k = np.arange(m)
        # one line per power k, one column per piece: the reductions run
        # across pieces, not along short rows
        scaled = np.abs(c.T.copy()) * np.diff(self.breakpoints) ** k[:, None]
        matters = np.zeros(scaled.shape, dtype=bool)
        for r in range(min(max_order, m - 1) + 1):
            t = scaled[r:] * _falling_factorials(r, m)[:, None]
            # t >= the smallest positive float is t > 0
            matters[r:] |= t >= np.maximum(CHOP_REL_TOL * t.max(axis=0),
                                           np.finfo(float).smallest_subnormal)
        last = np.where(matters.any(axis=0), m - 1 - np.argmax(matters[::-1], axis=0), -1)
        return PiecewisePolynomial(self.breakpoints, np.where(k <= last[:, None], c, 0.0),
                                   self.smoothness_order)

    def restrict(self, lo: float, hi: float) -> "PiecewisePolynomial":
        """Restriction to [lo, hi] (zero outside is preserved by convention)."""
        b = self.breakpoints
        cuts = np.unique(np.concatenate([[lo, hi], b[(b > lo) & (b < hi)]]))
        return PiecewisePolynomial(cuts, self._rows_at(cuts[:-1], cuts[1:]),
                                   self.smoothness_order)


def _dedup(pts: np.ndarray) -> np.ndarray:
    """Sorted pts, dropping each point within DEDUP_REL_TOL * span of the
    last point kept before it.

    Each pass recomputes every decision from the previous pass's kept set;
    a decision depends only on earlier points, so the passes settle on the
    left-to-right greedy result.
    """
    pts = np.sort(np.asarray(pts, dtype=float))
    tol = DEDUP_REL_TOL * max(pts[-1] - pts[0], 1e-300)
    idx = np.arange(len(pts))
    keep = np.ones(len(pts), dtype=bool)
    while True:
        last_kept = np.maximum.accumulate(np.where(keep, idx, 0))[:-1]
        new = np.concatenate([[True], pts[1:] - pts[last_kept] > tol])
        if np.array_equal(new, keep):
            return pts[keep]
        keep = new


def _mul_rows(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Row-by-row product of the polynomials in a and c."""
    if a.shape[1] < c.shape[1]:
        a, c = c, a
    out = np.zeros((len(a), a.shape[1] + c.shape[1] - 1))
    for j, col in enumerate(c.T):
        out[:, j: j + a.shape[1]] += a * col[:, None]
    return out


def _product(f: PiecewisePolynomial, g: PiecewisePolynomial) -> PiecewisePolynomial:
    b = _dedup(np.concatenate([f.breakpoints, g.breakpoints]))
    sm = min(f.smoothness_order, g.smoothness_order)
    # the product is zero unless a piece's midpoint is inside both spans
    lo, hi = max(f.span[0], g.span[0]), min(f.span[1], g.span[1])
    mid = 0.5 * (b[:-1] + b[1:])
    inside = np.flatnonzero((mid >= lo) & (mid < hi))
    if not inside.size:
        return PiecewisePolynomial(b[:2], np.zeros((1, 1)), sm)
    b = b[inside[0]: inside[-1] + 2]
    u, v = b[:-1], b[1:]
    return PiecewisePolynomial(b, _mul_rows(f._rows_at(u, v), g._rows_at(u, v)), sm)


def spline_sum(parts) -> PiecewisePolynomial:
    """The sum of the splines in the sequence ``parts`` over their merged
    breakpoints.

    One ``_dedup`` merges every breakpoint, so its tolerance is relative to
    the union span.  Each part is re-anchored only on the pieces whose
    midpoints lie inside its own span, and each piece adds the parts that
    cover it in the order given.
    """
    b = _dedup(np.concatenate([p.breakpoints for p in parts]))
    u, v = b[:-1], b[1:]
    mid = 0.5 * (u + v)
    out = np.zeros((len(u), max(p.coeffs.shape[1] for p in parts)))
    for p in parts:
        lo, hi = np.searchsorted(mid, p.breakpoints[[0, -1]])
        rows = p._rows_at(u[lo:hi], v[lo:hi])
        out[lo:hi, : rows.shape[1]] += rows
    return PiecewisePolynomial(b, out, min(p.smoothness_order for p in parts))


def indicator(lo: float, hi: float) -> PiecewisePolynomial:
    return PiecewisePolynomial(np.array([lo, hi]), np.ones((1, 1)), -1)


def constant_on(lo: float, hi: float, value: float = 1.0,
                smoothness: int = 10 ** 6) -> PiecewisePolynomial:
    return PiecewisePolynomial(np.array([lo, hi]), np.full((1, 1), value), smoothness)

