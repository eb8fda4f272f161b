"""Exact piecewise-polynomial calculus.

Carrier for cutoffs, partition functions, and the assembled extension.
There is one spline type, :class:`SplineBatch`: splines side by side, their
breakpoints one after another, their coefficient rows one after another
(zero-padded to the widest), and each spline's own width and smoothness
order.  Row i of a spline holds the coefficients of its piece i in powers of
(x - breakpoints[i]), so every row is anchored at its left breakpoint, and a
spline is zero outside its breakpoint span.  A single spline,
:class:`PiecewisePolynomial`, is a batch of one, built from its (n+1
increasing) breakpoints and (n x degree+1) coefficient rows, with ``degree``
the last column that is nonzero in some row; each of its operations is the
batch kernel of the same name run on it.

Every operation is an array pass over all the splines of a batch, exact up
to float rounding: evaluation (:func:`stacked_values`, the one piece lookup
and Horner pass), derivative, antiderivative, affine substitution,
convolution with a normalized box, the chop, the seam check, the products
(:func:`batch_product`) and differences a - a b (:func:`batch_cut`) of
given pairs of splines, the sum (:func:`batch_sum`) and the trim.  Each
spline keeps its own merged breakpoints, with a merge tolerance from its
own union span, and its own operand order in the row products, so it gets
bit for bit what it gets alone.  ``chopped`` drops, row by row, the
trailing coefficients that lie below rounding for every derivative order up
to a given one; ``row_degrees`` then reads each row's own degree off
``coeffs``.  Each operation keeps to the one cap of ``_BATCH_ENTRIES``
coefficients a pass on its own: products and cuts run in passes of about
that many, sums and stacked evaluations gather at most that many at a time.

Box convolution is the workhorse: convolving with width-d boxes raises the
max piece degree by one and the smoothness order by one per pass, which is
how the bump functions acquire their controlled derivatives.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

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


def _divided_shift(rows, h_minus, d) -> np.ndarray:
    """Per row, coefficients of (p shifted by h_minus + d) - (p shifted by
    h_minus), all divided by d (a scalar or one value per row), formed
    without the 1/d cancellation.

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


def _row_degrees(c: np.ndarray) -> np.ndarray:
    """Last nonzero column of each row of c; 0 for a zero row."""
    nz = c != 0.0
    return np.where(nz.any(axis=1), c.shape[1] - 1 - np.argmax(nz[:, ::-1], axis=1), 0)


_BATCH_ENTRIES = 1 << 14    # coefficients (rows x columns) one pass gathers at a time


def _block(width: int) -> int:
    """Rows of the given width that one pass gathers at a time."""
    return max(1, _BATCH_ENTRIES // width)


def _ragged_arange(first: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """first[s], first[s] + 1, ..., first[s] + counts[s] - 1 for each s in
    turn."""
    ends = np.cumsum(counts)
    return np.repeat(first - ends + counts, counts) + np.arange(ends[-1] if len(ends) else 0)


def _keys(seg, values) -> np.ndarray:
    """The complex keys seg + i values.  NumPy orders complex numbers by real
    part, then imaginary part: by segment, then value."""
    keys = np.empty(len(values), dtype=complex)
    keys.real, keys.imag = seg, values
    return keys


def _count_before(b, b_seg, q, q_seg, side: str) -> np.ndarray:
    """For each q[j], the entries of b (sorted by segment, then value) in a
    segment before q_seg[j], plus those of segment q_seg[j] that are <= q[j]
    (side "right") or < q[j] (side "left"): ``np.searchsorted`` of q[j] in
    its own segment, offset by the segment's start."""
    return np.searchsorted(_keys(b_seg, b), _keys(q_seg, q), side=side)


def _dedup(pts: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Mask of the points kept when each segment pts[starts[s]:starts[s+1]]
    (sorted) drops each point within DEDUP_REL_TOL * (the segment's span) of
    the last point kept before it.

    Each pass recomputes every decision from the previous pass's kept set;
    a decision depends only on earlier points of its segment, whose first
    point is always kept, so the passes settle on the left-to-right greedy
    result.
    """
    tol = np.repeat(DEDUP_REL_TOL * np.maximum(pts[starts[1:] - 1] - pts[starts[:-1]], 1e-300),
                    np.diff(starts))
    idx = np.arange(len(pts))
    head = np.zeros(len(pts), dtype=bool)
    head[starts[:-1]] = True
    keep = np.ones(len(pts), dtype=bool)
    while True:
        last_kept = np.maximum.accumulate(np.where(keep, idx, 0))[:-1]
        new = head.copy()
        new[1:] |= pts[1:] - pts[last_kept] > tol[1:]
        if np.array_equal(new, keep):
            return keep
        keep = new


def _merged(points: np.ndarray, seg: np.ndarray, n: int):
    """Segment by segment (0..n-1), ``points`` sorted and merged by _dedup:
    the merged points, the segment of each, and the index of the left point
    of each merged piece (two consecutive points of one segment).  One
    stable sort of the keys merges already sorted runs in linear time."""
    order = np.argsort(_keys(seg, points), kind="stable")
    pts, seg = points[order], seg[order]
    keep = _dedup(pts, np.concatenate([[0], np.cumsum(np.bincount(seg, minlength=n))]))
    pts, seg = pts[keep], seg[keep]
    return pts, seg, np.flatnonzero(seg[:-1] == seg[1:])


def _check_increasing(b: np.ndarray, seg: np.ndarray) -> None:
    """Raises NOT_INCREASING unless the breakpoints b are finite and those of
    each spline (seg) strictly increasing."""
    if not (np.all(np.isfinite(b)) and np.all((np.diff(b) > 0) | (np.diff(seg) != 0))):
        raise SplineError("breakpoints must be finite and strictly increasing",
                          code="NOT_INCREASING")


def _batch(breakpoints: np.ndarray, seg: np.ndarray, coeffs: np.ndarray,
           smoothness: np.ndarray) -> "SplineBatch":
    """The batch with these breakpoints (spline seg[j] owns breakpoints[j];
    seg sorted, every spline with two or more) and coefficient rows, each
    spline's width read off its rows."""
    n = len(smoothness)
    starts = np.concatenate([[0], np.cumsum(np.bincount(seg, minlength=n))])
    widths = np.maximum.reduceat(_row_degrees(coeffs) + 1, starts[:-1] - np.arange(n))
    return SplineBatch(breakpoints, starts, coeffs[:, : widths.max()], widths, smoothness)


@dataclass(frozen=True)
class SplineBatch:
    """Splines side by side.

    Spline s has the breakpoints ``breakpoints[starts[s]:starts[s+1]]`` and
    the coefficient rows ``starts[s] - s`` to ``starts[s+1] - s - 1`` of
    ``coeffs``, zero-padded on the right to the widest spline;
    ``widths[s]`` is the column count of spline s alone (its degree plus
    one) and ``smoothness[s]`` its smoothness order.
    """
    breakpoints: np.ndarray
    starts: np.ndarray
    coeffs: np.ndarray
    widths: np.ndarray
    smoothness: np.ndarray

    @staticmethod
    def of_pieces(seg, u, v, coeffs, smoothness) -> "SplineBatch":
        """Spline s has the pieces [u[j], v[j]] and rows coeffs[j] with seg[j] =
        s (seg sorted, pieces adjacent and in order), laid out as
        :func:`stack` lays out splines: own trailing zero columns dropped,
        padded with zeros."""
        ends = np.flatnonzero(np.r_[seg[1:] != seg[:-1], True]) + 1
        out = _batch(np.insert(u, ends, v[ends - 1]), np.insert(seg, ends, seg[ends - 1]),
                     coeffs, smoothness)
        padded = np.arange(out.coeffs.shape[1]) >= out.widths[seg][:, None]
        return replace(out, coeffs=np.where(padded, 0.0, out.coeffs))

    def __len__(self) -> int:
        return len(self.starts) - 1

    def _segments(self) -> np.ndarray:
        """The spline of each breakpoint."""
        return np.repeat(np.arange(len(self)), np.diff(self.starts))

    def _row_segments(self) -> np.ndarray:
        """The spline of each coefficient row."""
        return np.repeat(np.arange(len(self)), np.diff(self.starts) - 1)

    def _piece_widths(self) -> np.ndarray:
        """The width of each row's piece."""
        left = np.arange(len(self.coeffs)) + self._row_segments()
        return self.breakpoints[left + 1] - self.breakpoints[left]

    def _at_or_left(self, x: np.ndarray, seg: np.ndarray) -> np.ndarray:
        """For each x[j], the index of the last breakpoint of spline seg[j]
        at or left of it (one before the spline's first if none is).  Only
        the splines from seg's least to its greatest are searched."""
        if not len(seg):
            return np.zeros(0, dtype=np.intp)
        s0, s1 = seg.min(), seg.max() + 1
        lo, hi = self.starts[s0], self.starts[s1]
        b_seg = s0 if s1 == s0 + 1 else np.repeat(np.arange(s0, s1),
                                                  np.diff(self.starts[s0: s1 + 1]))
        return lo - 1 + _count_before(self.breakpoints[lo:hi], b_seg, x, seg, "right")

    def _values(self, seg: np.ndarray, x: np.ndarray, orders) -> np.ndarray:
        """values[r, j]: the orders[r]-th derivative of spline seg[j] at x[j],
        each x[j] inside its spline's span.  One piece lookup serves every
        order, and each order is one Horner pass."""
        # the right endpoint belongs to the last piece
        i = np.minimum(self._at_or_left(x, seg), self.starts[seg + 1] - 2)
        c, xi = self.coeffs[i - seg], x - self.breakpoints[i]
        return np.array([_horner(_derivative_rows(c, k), xi) for k in orders])

    @property
    def spans(self) -> tuple[np.ndarray, np.ndarray]:
        return self.breakpoints[self.starts[:-1]], self.breakpoints[self.starts[1:] - 1]

    def take(self, idx) -> "SplineBatch":
        """The splines idx, in that order."""
        return _gather([self], np.zeros(len(idx), dtype=np.intp), np.asarray(idx, dtype=np.intp))

    def spline(self) -> "PiecewisePolynomial":
        """This batch of one as a :class:`PiecewisePolynomial`, sharing its arrays."""
        f = object.__new__(PiecewisePolynomial)
        SplineBatch.__init__(f, self.breakpoints, self.starts, self.coeffs[:, : self.widths[0]],
                             self.widths, self.smoothness)
        return f

    def splines(self) -> tuple:
        """The splines, each a PiecewisePolynomial."""
        return tuple(self.take([s]).spline() for s in range(len(self)))

    def row_degrees(self) -> np.ndarray:
        """Last nonzero column of each row; 0 for a zero row."""
        return _row_degrees(self.coeffs)

    def derivative(self, order: int = 1) -> "SplineBatch":
        """Each spline's derivative of the given order."""
        return _batch(self.breakpoints, self._segments(), _derivative_rows(self.coeffs, order),
                      np.maximum(self.smoothness - order, -1))

    def antiderivative_parts(self) -> tuple[np.ndarray, np.ndarray]:
        """(parts, totals): row r of parts is the antiderivative of row r, one
        column longer, with the integral of its spline's earlier pieces in
        column 0 (each piece's the ``math.fsum`` of c_j w^(j+1) / (j+1), added
        up with compensated summation); totals[s] is spline s's integral."""
        c = self.coeffs
        j1 = np.arange(1, c.shape[1] + 1)
        parts = np.zeros((len(c), c.shape[1] + 1))
        parts[:, 1:] = c / j1
        pieces = [math.fsum(t) for t in (c * self._piece_widths()[:, None] ** j1 / j1).tolist()]
        first = (self.starts - np.arange(len(self) + 1)).tolist()
        constants, totals = [], []
        for a, z in zip(first, first[1:]):
            running = comp = 0.0
            for p in pieces[a:z]:
                constants.append(running)
                y = p - comp
                t = running + y
                comp = (t - running) - y
                running = t
            totals.append(running)
        parts[:, 0] = constants
        return parts, np.array(totals)

    def compose_affine(self, centers: np.ndarray, scales: np.ndarray) -> "SplineBatch":
        """Spline s becomes f_s((x - centers[s]) / scales[s]): breakpoints
        c + r b, and row coefficient k times r^-k.  Raises NON_POSITIVE unless
        every scale is > 0, NOT_INCREASING unless the breakpoints stay so."""
        if not np.all(scales > 0):
            raise SplineError(f"scale must be positive, got {scales[~(scales > 0)][0]}",
                              code="NON_POSITIVE")
        seg = self._segments()
        b = centers[seg] + scales[seg] * self.breakpoints
        _check_increasing(b, seg)
        m = self.coeffs.shape[1]
        powers = np.where(np.arange(m) < self.widths[:, None],
                          scales[:, None] ** -np.arange(m), 1.0)
        return _batch(b, seg, self.coeffs * powers[self._row_segments()], self.smoothness)

    def convolve_box(self, d: np.ndarray) -> "SplineBatch":
        """Spline s convolved exactly with the normalized box of width d[s].

        g(x) = (F(x + d/2) - F(x - d/2)) / d with F the antiderivative.
        Raises the max piece degree and smoothness order by one.  When both
        endpoints land in the same antiderivative piece the difference is
        formed by divided differences, avoiding the 1/d cancellation that
        would otherwise erode plateaus of iterated convolutions.  Raises
        NON_POSITIVE unless every width is > 0.
        """
        if not np.all(d > 0):
            raise SplineError(f"box width must be positive, got {d[~(d > 0)][0]}",
                              code="NON_POSITIVE")
        b, s = self.breakpoints, self._segments()
        parts, total = SplineBatch.antiderivative_parts(self)
        parts += 0.0    # no -0.0: shifts over a narrower spline's padding would make some +0.0
        half = d / 2.0
        new_b, new_s, left = _merged(np.concatenate([b - half[s], b + half[s]]),
                                     np.concatenate([s, s]), len(self))
        u, ps = new_b[left], new_s[left]
        mid, hp = 0.5 * (u + new_b[left + 1]), half[ps]
        # the antiderivative row at each window end, mid + d/2 then mid - d/2:
        # -1 left of its spline's span, -2 right of it
        y, ys = np.concatenate([mid + hp, mid + -hp]), np.concatenate([ps, ps])
        r = np.where(y <= b[self.starts[ys]], -1, np.where(
            y >= b[self.starts[ys + 1] - 1], -2, self._at_or_left(y, ys) - ys))
        ip, im = r[: len(u)], r[len(u):]
        same = (ip == im) & (ip >= 0)
        out = np.empty((len(u), parts.shape[1]))
        i, pn = ip[same], ps[same]
        out[same] = _divided_shift(parts[i], (u[same] - b[i + pn]) - hp[same], d[pn])
        # elsewhere the antiderivative re-anchored at u + d/2 less that at u - d/2
        at = np.concatenate([~same, ~same])
        r, ys, u, h = r[at], ys[at], np.concatenate([u, u])[at], np.concatenate([hp, -hp])[at]
        rows = np.zeros((len(r), parts.shape[1]))
        inner = r >= 0
        k = r[inner]
        rows[inner] = taylor_shift(parts[k], (u[inner] - b[k + ys[inner]]) + h[inner])
        rows[r == -2, 0] = total[ys[r == -2]]
        n = len(r) // 2
        out[~same] = (rows[:n] - rows[n:]) / d[ys[:n]][:, None]
        return _batch(new_b, new_s, out, self.smoothness + 1)

    def seam_gaps(self, order: int | None = None) -> np.ndarray:
        """Row s: max |left - right| mismatch at the interior breakpoints of
        spline s for derivative orders 0..order, by default each spline's
        min(smoothness order, degree).  Derivative rows are formed only up to
        the batch's degree, and the orders past a spline's own read 0."""
        deg = self.widths - 1
        top = (np.minimum(np.maximum(self.smoothness, 0), deg) if order is None
               else np.full(len(self), order))
        gaps = np.zeros((len(self), top.max() + 1))
        rs = self._row_segments()
        seam = np.flatnonzero(rs[:-1] == rs[1:])     # each row that has a next in its spline
        w = self._piece_widths()[seam]
        for q in range(min(top.max(), deg.max()) + 1):
            dq = _derivative_rows(self.coeffs, q)
            np.maximum.at(gaps[:, q], rs[seam], np.abs(_horner(dq[seam], w) - dq[seam + 1, 0]))
        gaps[np.arange(gaps.shape[1]) > top[:, None]] = 0.0
        return gaps

    def _nonzero_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(first, last, any): each spline's first and last row that is not
        all zero, and whether it has one (if not, first = last = its first
        row)."""
        first = self.starts[:-1] - np.arange(len(self))
        r = np.arange(len(self.coeffs))
        nz = np.any(self.coeffs != 0.0, axis=1)
        lo = np.minimum.reduceat(np.where(nz, r, len(r)), first)
        hi = np.maximum.reduceat(np.where(nz, r, -1), first)
        has = hi >= 0
        return np.where(has, lo, first), np.where(has, hi, first), has

    def supports(self) -> tuple[np.ndarray, np.ndarray]:
        """Each spline's smallest breakpoint window outside which all its
        pieces are zero; (first, first breakpoint) for a zero spline."""
        lo, hi, has = self._nonzero_rows()
        s = np.arange(len(self))
        b = self.breakpoints
        return b[lo + s], np.where(has, b[hi + s + 1], b[lo + s])

    def trimmed(self) -> "SplineBatch":
        """Each spline with its leading and trailing zero pieces dropped; a
        zero spline is kept as one zero piece on its first two breakpoints."""
        lo, hi, has = self._nonzero_rows()
        count = hi - lo + 1
        n = len(self)
        coeffs = self.coeffs[_ragged_arange(lo, count)]
        coeffs[np.repeat(~has, count)] = 0.0
        return _batch(self.breakpoints[_ragged_arange(lo + np.arange(n), count + 1)],
                      np.repeat(np.arange(n), count + 1), coeffs, self.smoothness)

    def chopped(self, max_order: int) -> "SplineBatch":
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
        scaled = np.abs(c.T.copy()) * self._piece_widths() ** k[:, None]
        matters = np.zeros(scaled.shape, dtype=bool)
        for r in range(min(max_order, m - 1) + 1):
            t = scaled[r:] * _falling_factorials(r, m)[:, None]
            # t >= the smallest positive float is t > 0
            matters[r:] |= t >= np.maximum(CHOP_REL_TOL * t.max(axis=0),
                                           np.finfo(float).smallest_subnormal)
        last = np.where(matters.any(axis=0), m - 1 - np.argmax(matters[::-1], axis=0), -1)
        return _batch(self.breakpoints, self._segments(), np.where(k <= last[:, None], c, 0.0),
                      self.smoothness)


class PiecewisePolynomial(SplineBatch):
    """One spline: the batch of one with these breakpoints and (pieces x
    degree+1) coefficient rows, trailing zero columns dropped, and the
    continuous derivatives its construction guarantees.  Each method is the
    batch kernel of its name, on scalars where that takes one per spline."""

    def __init__(self, breakpoints, coeffs, smoothness_order: int = -1):
        b, c = np.asarray(breakpoints, dtype=float), np.asarray(coeffs, dtype=float)
        if c.ndim != 2 or 0 in c.shape or len(b) != len(c) + 1:
            raise SplineError(f"need one coefficient row per piece: {len(b)} "
                              f"breakpoints, coefficients of shape {c.shape}",
                              code="BAD_SHAPE")
        _check_increasing(b, np.zeros(len(b)))
        c = c[:, : _row_degrees(c).max() + 1]
        b.flags.writeable = c.flags.writeable = False
        super().__init__(b, np.array([0, len(b)]), c, np.array([c.shape[1]]),
                         np.array([smoothness_order]))

    @property
    def span(self) -> tuple[float, float]:
        return float(self.breakpoints[0]), float(self.breakpoints[-1])

    @property
    def degree(self) -> int:
        return self.coeffs.shape[1] - 1

    @property
    def smoothness_order(self) -> int:
        return int(self.smoothness[0])

    def support(self) -> tuple[float, float]:
        """Smallest breakpoint window outside which all pieces are zero."""
        lo, hi = self.supports()
        return float(lo[0]), float(hi[0])

    def __call__(self, x, order=0):
        """Derivative of the given order at x, zero outside the span.

        ``order`` may be a sequence: one piece lookup then serves every
        order, and the result has one row per order (one value per order
        for scalar x), each bit for bit the single-order call.
        """
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        orders = np.atleast_1d(order)
        inside = (x_arr >= self.breakpoints[0]) & (x_arr <= self.breakpoints[-1])
        out = np.zeros((len(orders),) + x_arr.shape)
        out[:, inside] = self._values(np.zeros(np.count_nonzero(inside), dtype=np.intp),
                                      x_arr[inside], orders)
        if np.ndim(order) == 0:
            out = out[0]
            return out if np.ndim(x) else float(out[0])
        return out if np.ndim(x) else out[:, 0]

    def derivative(self, order: int = 1) -> "PiecewisePolynomial":
        return SplineBatch.derivative(self, order).spline()

    def integral(self) -> float:
        return self.antiderivative_parts()[1]

    def antiderivative_parts(self):
        parts, total = SplineBatch.antiderivative_parts(self)
        return parts, float(total[0])

    def translate(self, c: float) -> "PiecewisePolynomial":
        return self.compose_affine(c, 1.0)

    def compose_affine(self, center: float, scale: float) -> "PiecewisePolynomial":
        """g(x) = f((x - center)/scale) for scale > 0."""
        return SplineBatch.compose_affine(self, np.array([center], dtype=float),
                                          np.array([scale], dtype=float)).spline()

    def __mul__(self, other):
        if np.isscalar(other):
            return _batch(self.breakpoints, self._segments(), self.coeffs * float(other),
                          self.smoothness).spline()
        return _product_pass(self, other).spline()

    __rmul__ = __mul__

    def __add__(self, other):
        return batch_sum(stack([self, other]), np.zeros(2, dtype=np.intp), 1).spline()

    def __sub__(self, other):
        return self + other * -1.0

    def convolve_box(self, d: float) -> "PiecewisePolynomial":
        return SplineBatch.convolve_box(self, np.array([d], dtype=float)).spline()

    def seam_gaps(self, order: int | None = None) -> np.ndarray:
        return SplineBatch.seam_gaps(self, order)[0]

    def trimmed(self) -> "PiecewisePolynomial":
        return SplineBatch.trimmed(self).spline()

    def chopped(self, max_order: int) -> "PiecewisePolynomial":
        return SplineBatch.chopped(self, max_order).spline()

    def restrict(self, lo: float, hi: float) -> "PiecewisePolynomial":
        """f on [lo, hi], zero outside."""
        return self * constant_on(lo, hi)


def stack(batches) -> SplineBatch:
    """The splines of the batches one after another."""
    return _gather(batches, np.repeat(np.arange(len(batches)), [len(b) for b in batches]),
                   np.concatenate([np.arange(len(b)) for b in batches]))


def _rows_at(f: SplineBatch, seg: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """For each piece [u, v] of spline seg of f (pieces sorted by spline,
    then u), the row of that spline's piece that contains the midpoint,
    re-anchored at u; zero rows for midpoints outside [first breakpoint,
    last breakpoint).  The midpoint, not u, picks the row, so a breakpoint
    merged into u takes the row past it.  Only the rows inside are gathered
    and shifted."""
    j = f._at_or_left(0.5 * (u + v), seg)
    inside = (j >= f.starts[seg]) & (j < f.starts[seg + 1] - 1)
    if inside.all():
        rows = f.coeffs[j - seg]
        _shift_in_place(rows, u - f.breakpoints[j])
        return rows
    rows = np.zeros((len(u), f.coeffs.shape[1]))
    j, seg = j[inside], seg[inside]
    inner = f.coeffs[j - seg]
    _shift_in_place(inner, u[inside] - f.breakpoints[j])
    rows[inside] = inner
    return rows


def _mul_rows(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Row-by-row product of the polynomials in a and c, each entry summed
    over the columns of c in order."""
    out = np.zeros((len(a), a.shape[1] + c.shape[1] - 1))
    for j, col in enumerate(c.T):
        out[:, j: j + a.shape[1]] += a * col[:, None]
    return out


def _gather(sources, src, idx) -> SplineBatch:
    """Spline s is spline idx[s] of sources[src[s]], zero-padded to the widest:
    one copy into place per source (read in place, with no temporary copy of
    its rows, if given whole, in order)."""
    n_b = np.empty(len(src), dtype=np.intp)
    for t, f in enumerate(sources):
        n_b[src == t] = np.diff(f.starts)[idx[src == t]]
    starts = np.concatenate([[0], np.cumsum(n_b)])
    out = SplineBatch(np.empty(starts[-1]), starts,
                      np.zeros((starts[-1] - len(src), max(f.coeffs.shape[1] for f in sources))),
                      np.empty_like(n_b), np.empty_like(n_b))
    for t, f in enumerate(sources):
        s = np.flatnonzero(src == t)
        j, n = idx[s], n_b[s]
        b_at, c_at = (slice(None), slice(None)) if np.array_equal(j, np.arange(len(f))) else (
            _ragged_arange(f.starts[j], n), _ragged_arange(f.starts[j] - j, n - 1))
        out.breakpoints[_ragged_arange(starts[s], n)] = f.breakpoints[b_at]
        out.coeffs[_ragged_arange(starts[s] - s, n - 1), : f.coeffs.shape[1]] = f.coeffs[c_at]
        out.widths[s], out.smoothness[s] = f.widths[j], f.smoothness[j]
    return out


def _replaced(op, a: SplineBatch, b: SplineBatch, i, k) -> SplineBatch:
    """a with its spline i[j] replaced by op(a_i, b_k), k = k[j] (the i
    distinct), op run on consecutive pairs, a new pass at each multiple of
    _BATCH_ENTRIES coefficients (rows times a's padded width) of the a_i."""
    i, k = np.asarray(i, dtype=np.intp), np.asarray(k, dtype=np.intp)
    if not i.size:
        return a
    sizes = (np.diff(a.starts)[i] - 1) * a.coeffs.shape[1]
    run = (np.cumsum(sizes) - sizes) // _BATCH_ENTRIES
    passes = np.split(np.arange(len(i)), np.flatnonzero(np.diff(run)) + 1)
    src, at = np.zeros(len(a), dtype=np.intp), np.arange(len(a))
    src[i] = 1 + np.repeat(np.arange(len(passes)), [len(p) for p in passes])
    at[i] = np.concatenate([p - p[0] for p in passes])
    return _gather([a] + [op(a.take(i[p]), b.take(k[p])) for p in passes], src, at)


def batch_product(f: SplineBatch, g: SplineBatch, i, k) -> SplineBatch:
    """f with its spline i[j] replaced by f_i g_k for k = k[j] (the i
    distinct): over their merged breakpoints, stored only where a piece's
    midpoint is inside both spans (one zero piece where none is)."""
    return _replaced(_product_pass, f, g, i, k)


def _product_pass(f: SplineBatch, g: SplineBatch) -> SplineBatch:
    """Spline s is f_s g_s, as :func:`batch_product` forms it."""
    n = len(f)
    b, seg, left = _merged(np.concatenate([f.breakpoints, g.breakpoints]),
                           np.concatenate([f._segments(), g._segments()]), n)
    u, v, ps = b[left], b[left + 1], seg[left]
    mid = 0.5 * (u + v)
    (f0, f1), (g0, g1) = f.spans, g.spans
    # zero unless a piece's midpoint is inside both spans
    inside = (mid >= np.maximum(f0, g0)[ps]) & (mid < np.minimum(f1, g1)[ps])
    empty = np.bincount(ps[inside], minlength=n) == 0
    # an empty product is one zero piece on the first two merged points
    keep = inside | (empty[ps] & np.r_[True, ps[1:] != ps[:-1]])
    lk, sk = left[keep], ps[keep]
    ends = np.sort(np.concatenate([lk, lk[np.r_[sk[1:] != sk[:-1], True]] + 1]))
    # a kept piece outside a span reads a zero row there, so its products are +0.0
    fr, gr = _rows_at(f, sk, u[keep], v[keep]), _rows_at(g, sk, u[keep], v[keep])
    # each pair sums over the columns of its narrower operand (g on a tie)
    swap = (f.widths < g.widths)[sk]
    if swap.all():
        fr, gr = gr, fr
    elif swap.any():
        w = max(fr.shape[1], gr.shape[1])
        fr, gr = (np.pad(r, ((0, 0), (0, w - r.shape[1]))) for r in (fr, gr))
        fr, gr = np.where(swap[:, None], gr, fr), np.where(swap[:, None], fr, gr)
    return _batch(b[ends], seg[ends], _mul_rows(fr, gr), np.minimum(f.smoothness, g.smoothness))


def batch_sum(parts: SplineBatch, group, n: int) -> SplineBatch:
    """Spline k is the sum of the parts with group == k (each k has one or
    more) over their merged breakpoints.

    Each part is re-anchored only on the pieces whose midpoints lie inside
    its own span, and each piece adds the parts that cover it in batch
    order.
    """
    group = np.asarray(group, dtype=np.intp)
    b, seg, left = _merged(parts.breakpoints, group[parts._segments()], n)
    u, v, ps = b[left], b[left + 1], seg[left]
    mid = 0.5 * (u + v)
    # each part's window of merged pieces, by midpoint
    lo, hi = (_count_before(mid, ps, ends, group, "left") for ends in parts.spans)
    part = np.repeat(np.arange(len(group)), hi - lo)
    piece = _ragged_arange(lo, hi - lo)
    by_group = np.argsort(group, kind="stable")
    rank = np.empty(len(group), dtype=np.intp)
    rank[by_group] = np.arange(len(group)) - np.searchsorted(group[by_group], group[by_group])
    # a run of pairs of one rank holds each piece at most once: one update
    # per such run within each block of pairs, in batch order
    block = _block(parts.coeffs.shape[1])
    cuts = np.union1d(np.flatnonzero(np.diff(rank[part])) + 1,
                      np.arange(0, len(part), block)).tolist()
    out = np.zeros((len(left), parts.coeffs.shape[1]))
    for s, e in zip(cuts, cuts[1:] + [len(part)]):
        if s % block == 0:
            a, z = s, min(s + block, len(part))
            rows = _rows_at(parts, part[a:z], u[piece[a:z]], v[piece[a:z]])
        out[piece[s:e]] += rows[s - a: e - a]
    smooth = np.full(n, np.iinfo(np.intp).max)
    np.minimum.at(smooth, group, parts.smoothness)
    return _batch(b, seg, out, smooth)


def batch_cut(a: SplineBatch, b: SplineBatch, i, k) -> SplineBatch:
    """a with its spline i[j] replaced by a_i - a_i b_k for k = k[j] (the i
    distinct), as ``a - a * b`` forms it."""
    return _replaced(_cut_pass, a, b, i, k)


def _cut_pass(a: SplineBatch, b: SplineBatch) -> SplineBatch:
    """Spline s is a_s - a_s b_s."""
    parts = stack([a, _product_pass(a, b)])
    parts.coeffs[len(a.coeffs):] *= -1.0     # the fresh copy of a b becomes -a b
    return batch_sum(parts, np.tile(np.arange(len(a)), 2), len(a))


def stacked_values(f: SplineBatch, xs: np.ndarray, orders):
    """Each spline's derivatives of the given orders at the probes of the
    increasing grid xs inside its span.

    Yields blocks of (spline, probe) pairs, spline by spline and probes
    increasing: (spline, probe index, values), values[r] the orders[r]-th
    derivative at each pair.
    """
    lo, hi = f.spans
    first = np.searchsorted(xs, lo, side="left")
    count = np.searchsorted(xs, hi, side="right") - first
    spline, probe = np.repeat(np.arange(len(f)), count), _ragged_arange(first, count)
    block = _block(f.coeffs.shape[1])
    for a in range(0, len(spline), block):
        s, j = spline[a: a + block], probe[a: a + block]
        yield s, j, f._values(s, xs[j], orders)


def indicator(lo: float, hi: float) -> PiecewisePolynomial:
    return PiecewisePolynomial(np.array([lo, hi]), np.ones((1, 1)), -1)


def constant_on(lo: float, hi: float, value: float = 1.0,
                smoothness: int = 10 ** 6) -> PiecewisePolynomial:
    return PiecewisePolynomial(np.array([lo, hi]), np.full((1, 1), value), smoothness)
