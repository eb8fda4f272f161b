import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ultrajet.errors import SplineError
from ultrajet.extend import extend_jet, ppoly


def from_poly(coeffs_about_a, a, lo, hi):
    """One-piece spline on [lo, hi] from coefficients about the point a."""
    return ppoly.PiecewisePolynomial(np.array([lo, hi]),
                                     ppoly.taylor_shift(coeffs_about_a, lo - a), 10 ** 6)


@pytest.fixture
def trapezoid():
    return ppoly.indicator(-1.5, 1.5).convolve_box(1.0)


class TestBasics:
    def test_indicator_eval(self):
        f = ppoly.indicator(0.0, 2.0)
        assert f(1.0) == 1.0 and f(-0.5) == 0.0 and f(2.5) == 0.0
        # a spline is a batch of one, and so is what its operations return
        for g in (f, f + f, f.convolve_box(0.5), ppoly.stack([f, f]).take([1]).spline()):
            assert isinstance(g, ppoly.PiecewisePolynomial) and len(g) == 1

    def test_trapezoid_values(self, trapezoid):
        xs = np.array([-2.1, -2.0, -1.5, -1.0, 0.0, 1.0, 1.5, 2.0, 2.1])
        assert np.allclose(trapezoid(xs), [0, 0, 0.5, 1, 1, 1, 0.5, 0, 0])

    def test_integral_preserved_by_convolution(self, trapezoid):
        assert trapezoid.integral() == pytest.approx(3.0, abs=1e-12)
        deeper = trapezoid.convolve_box(0.25).convolve_box(0.125)
        assert deeper.integral() == pytest.approx(3.0, abs=1e-12)

    def test_each_convolution_raises_degree_and_smoothness(self):
        f = ppoly.indicator(-1.0, 1.0)
        for n in range(1, 5):
            f = f.convolve_box(0.5 ** n)
            assert f.degree == n
            assert f.smoothness_order == n - 1

    def test_plateau_exact_after_deep_convolution(self):
        f = ppoly.indicator(-2.0, 2.0)
        for n in range(1, 13):
            f = f.convolve_box(0.1 / 2 ** n)
        xs = np.linspace(-1.5, 1.5, 101)
        assert np.max(np.abs(f(xs) - 1.0)) == 0.0

    def test_seam_continuity(self, trapezoid):
        g = trapezoid.convolve_box(0.5)
        gaps = g.seam_gaps()
        assert np.all(gaps < 1e-12)

    def test_seam_gaps_stop_at_the_degree(self):
        # constant_on declares smoothness 10**6: only order 0 has a seam row
        f = ppoly.constant_on(0.0, 1.0) + ppoly.constant_on(1.0, 2.0, 2.0)
        assert f.seam_gaps().tolist() == [1.0]
        assert f.seam_gaps(3).tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_derivative_vs_finite_differences(self, trapezoid):
        g = trapezoid.convolve_box(0.5).convolve_box(0.25)
        h = 1e-4
        xs = np.linspace(-2.4, 2.4, 47)
        num = (g(xs + h) - g(xs - h)) / (2 * h)
        assert np.max(np.abs(num - g(xs, order=1))) < 1e-5

    def test_support_window(self, trapezoid):
        assert trapezoid.support() == (-2.0, 2.0)


class TestAlgebra:
    def test_product_values(self):
        a = from_poly([1.0, 2.0], 0.0, -1.0, 1.0)
        b = from_poly([0.0, 0.0, 1.0], 0.0, 0.0, 2.0)
        p = a * b
        assert p(0.5) == pytest.approx(2.0 * 0.25)
        assert p(-0.5) == 0.0  # outside b's support
        assert p(1.5) == 0.0   # outside a's support

    def test_sum_values(self):
        a = from_poly([1.0], 0.0, -1.0, 1.0)
        b = from_poly([2.0], 0.0, 0.5, 2.0)
        s = a + b
        assert s(0.0) == 1.0 and s(0.75) == 3.0 and s(1.5) == 2.0

    def test_compose_affine(self, trapezoid):
        g = trapezoid.compose_affine(3.0, 2.0)
        assert g(3.0) == 1.0 and g(1.0) == 1.0 and g(-1.0) == 0.0
        xs = np.linspace(-2, 8, 400)
        ref = trapezoid((xs - 3.0) / 2.0)
        assert np.allclose(g(xs), ref, atol=1e-12)

    def test_scalar_multiplication(self, trapezoid):
        assert (2.5 * trapezoid)(0.0) == pytest.approx(2.5)

    def test_shift_poly_roundtrip(self):
        c = np.array([1.0, -2.0, 0.5, 3.0])
        back = ppoly.taylor_shift(ppoly.taylor_shift([c], 0.7), -0.7)[0]
        assert np.allclose(back, c, atol=1e-12)

    def test_trimmed(self):
        f = ppoly.PiecewisePolynomial(
            np.array([0.0, 1.0, 2.0, 3.0]),
            (np.zeros(1), np.array([2.0]), np.zeros(1)), 0)
        t = f.trimmed()
        assert t.span == (1.0, 2.0)
        assert t(1.5) == 2.0

    def test_restrict(self, trapezoid):
        r = trapezoid.restrict(-0.5, 0.5)
        assert r(0.0) == 1.0 and r(0.9) == 0.0

    @given(h=st.floats(min_value=-2, max_value=2),
           x=st.floats(min_value=-3, max_value=3))
    @settings(max_examples=200, deadline=None)
    def test_shift_invariance(self, h, x):
        c = np.array([0.3, 1.0, -0.25, 0.05])
        val_orig = sum(cc * (x - 0.0) ** j for j, cc in enumerate(c))
        shifted = ppoly.taylor_shift([c], h)[0]
        val_shift = sum(cc * (x - h) ** j for j, cc in enumerate(shifted))
        assert val_shift == pytest.approx(val_orig, rel=1e-9, abs=1e-9)


class TestDividedShift:
    def test_matches_plain_difference(self):
        c = np.array([0.5, 1.5, -0.7, 0.2, 0.04])
        h1, d = 0.3, 0.05
        direct = (ppoly.taylor_shift([c], -(h1 + d)) - ppoly.taylor_shift([c], -h1))[0] / d
        # _divided_shift computes coefficients of [p(h1+d+xi) - p(h1+xi)]/d
        dd = ppoly._divided_shift([c], h1, d)[0]
        xs = np.linspace(-0.2, 0.2, 9)
        for x in xs:
            lhs = sum(cc * x ** j for j, cc in enumerate(dd))
            rhs = (sum(cc * (h1 + d + x) ** j for j, cc in enumerate(c))
                   - sum(cc * (h1 + x) ** j for j, cc in enumerate(c))) / d
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)

    def test_no_cancellation_for_tiny_width(self):
        # linear piece: result must be the exact slope even for width 1e-9
        c = np.array([5.0, 1.0])
        dd = ppoly._divided_shift([c], 0.25, 1e-9)[0]
        assert dd[0] == pytest.approx(1.0, rel=1e-14)


def _reference(b, c, x, order=0):
    """Piece-by-piece evaluation with numpy.polynomial, zero outside the span."""
    out = np.zeros(len(x))
    for i, xv in enumerate(x):
        if b[0] <= xv <= b[-1]:
            j = min(int(np.searchsorted(b, xv, side="right")) - 1, len(c) - 1)
            coef = np.polynomial.polynomial.polyder(c[j], order) if order else c[j]
            out[i] = np.polynomial.polynomial.polyval(xv - b[j], coef)
    return out


@st.composite
def splines(draw):
    n = draw(st.integers(2, 6))
    deg = draw(st.integers(0, 5))
    start = draw(st.floats(-2.0, -1.0))
    widths = draw(st.lists(st.floats(0.01, 0.5), min_size=n, max_size=n))
    b = start + np.concatenate([[0.0], np.cumsum(widths)])
    c = draw(st.lists(st.floats(-1.0, 1.0), min_size=n * (deg + 1),
                      max_size=n * (deg + 1)))
    return ppoly.PiecewisePolynomial(b, np.reshape(c, (n, deg + 1)), 0)


@st.composite
def spline_pairs(draw):
    """(f, g): g drawn on its own, or on a run of f's breakpoints each moved
    by 0 or by far less than the merge tolerance, so that merging drops
    breakpoints of either operand, span ends included."""
    f = draw(splines())
    if draw(st.booleans()):
        return f, draw(splines())
    b = f.breakpoints
    i = draw(st.integers(0, len(b) - 2))
    j = draw(st.integers(i + 2, len(b)))
    moves = draw(st.lists(st.sampled_from([0.0, 2.8e-305, 3e-15, -3e-15, 1e-13, -1e-13]),
                          min_size=j - i, max_size=j - i))
    deg = draw(st.integers(0, 5))
    c = draw(st.lists(st.floats(-1.0, 1.0), min_size=(j - i - 1) * (deg + 1),
                      max_size=(j - i - 1) * (deg + 1)))
    g = ppoly.PiecewisePolynomial(b[i:j] + np.array(moves),
                                  np.reshape(c, (j - i - 1, deg + 1)), 0)
    return (f, g) if draw(st.booleans()) else (g, f)


def _majorant(f, x):
    """sum_j |c_ij| (x - b_i)^j: the scale of the rounding in f(x)."""
    return ppoly.PiecewisePolynomial(f.breakpoints, np.abs(f.coeffs))(x)


class TestArrayOperations:
    @given(fg=spline_pairs(), seed=st.integers(0, 2 ** 32 - 1),
           lo=st.floats(-2.0, 0.0), hi=st.floats(0.5, 2.0),
           center=st.floats(-1.0, 1.0), scale=st.floats(0.25, 4.0))
    @settings(max_examples=150, deadline=None)
    def test_random_splines_match_pointwise(self, fg, seed, lo, hi, center, scale):
        # breakpoints of f and g closer than the merge tolerance are merged,
        # so the probes keep 1e-6 away from every breakpoint
        f, g = fg
        x = np.random.default_rng(seed).uniform(-2.5, 2.5, 50)
        cuts = np.concatenate([f.breakpoints, g.breakpoints, [lo, hi]])
        x = x[np.min(np.abs(x[:, None] - cuts[None, :]), axis=1) > 1e-6]
        fx, gx = _reference(f.breakpoints, f.coeffs, x), _reference(g.breakpoints, g.coeffs, x)
        tol = 1e-12 * (_majorant(f, x) + 1.0) * (_majorant(g, x) + 1.0)
        assert np.all(np.abs((f * g)(x) - fx * gx) <= tol)
        assert np.all(np.abs((f + g)(x) - (fx + gx)) <= tol)
        assert np.all(np.abs((f - g)(x) - (fx - gx)) <= tol)
        inside = (x > lo) & (x < hi)
        assert np.all(np.abs(f.restrict(lo, hi)(x) - np.where(inside, fx, 0.0)) <= tol)
        df = _reference(f.breakpoints, f.coeffs, x, order=1)
        dtol = 1e-12 * (5.0 * _majorant(f, x) + 1.0)
        assert np.all(np.abs(f.derivative()(x) - df) <= dtol)
        assert np.all(np.abs(f(x, order=1) - df) <= dtol)
        y = (x - center) / scale
        y_ok = np.min(np.abs(y[:, None] - f.breakpoints[None, :]), axis=1) > 1e-6
        ref = _reference(f.breakpoints, f.coeffs, y[y_ok])
        err = np.abs(f.compose_affine(center, scale)(x[y_ok]) - ref)
        assert np.all(err <= 1e-12 * (_majorant(f, y[y_ok]) + 1.0))

    def test_degree_ignores_trailing_zero_columns(self):
        f = ppoly.PiecewisePolynomial(np.array([0.0, 1.0, 2.0]),
                                      np.array([[1.0, 2.0, 0.0, 0.0], [3.0, 0.0, 0.0, 0.0]]))
        assert f.degree == 1 and f.coeffs.shape == (2, 2)
        q = from_poly([1.0, 0.0, 1.0], 0.0, -1.0, 1.0)
        assert (q - q).degree == 0
        assert (q + from_poly([0.0, 0.0, -1.0], 0.0, -1.0, 1.0)).degree == 0

    def test_product_stores_only_the_overlap(self, trapezoid):
        prod = ppoly.constant_on(-5.0, 5.0) - trapezoid.compose_affine(-2.0, 1.0)
        psi = trapezoid.compose_affine(2.0, 0.5)
        p = psi * prod
        assert p.span == (1.0, 3.0)
        merged = np.union1d(prod.breakpoints, psi.breakpoints)
        assert len(p.coeffs) == np.count_nonzero((merged >= 1.0) & (merged < 3.0))
        xs = np.linspace(-5.0, 5.0, 301)
        assert np.allclose(p(xs), psi(xs) * prod(xs), atol=1e-14)

    def test_product_keeps_piece_with_merged_overlap_end(self):
        # g's breakpoint 1 - 1e-13 absorbs f's right end 1 (dedup tolerance):
        # the merged piece [1 - 1e-13, 2] lies past f's span but for the
        # 1e-13 sliver, so the product ends at 1 - 1e-13 and reads 0 past it
        f = ppoly.constant_on(0.0, 1.0)
        g = ppoly.PiecewisePolynomial(np.array([-1.0, 1.0 - 1e-13, 2.0]),
                                      np.array([[2.0], [3.0]]))
        p = f * g
        assert p.span == (0.0, 1.0 - 1e-13)
        assert p(0.5) == 2.0 and p(1.0 - 2e-13) == 2.0 and p(1.5) == 0.0

    @pytest.mark.parametrize("op, f_value", [
        (lambda f, g: f + g, 0.0), (lambda f, g: g - f, 0.0), (lambda f, g: f * g, 1.0)],
        ids=["sum", "difference", "product"])
    def test_merged_breakpoint_takes_the_row_past_it(self, op, f_value):
        # g's breakpoint 2.8e-305 is merged into f's 0 (dedup tolerance); the
        # merged piece [0, 1] is g's second piece but for a 2.8e-305 sliver
        f = ppoly.PiecewisePolynomial(np.array([-1.0, 0.0, 1.0]), np.full((2, 1), f_value))
        g = ppoly.PiecewisePolynomial(np.array([-1.0, 2.8e-305, 1.0]),
                                      np.array([[0.0], [1.0]]))
        h = op(f, g)
        assert h.breakpoints.tolist() == [-1.0, 0.0, 1.0]
        assert h(-0.5) == 0.0 and h(0.5) == 1.0 and h(1.0) == 1.0


class TestCodedErrors:
    @pytest.mark.parametrize("build, code", [
        (lambda: ppoly.PiecewisePolynomial(np.array([0.0, 1.0, 2.0]), np.ones((1, 2))),
         "BAD_SHAPE"),
        (lambda: ppoly.PiecewisePolynomial(np.array([0.0]), np.ones((0, 1))), "BAD_SHAPE"),
        (lambda: ppoly.PiecewisePolynomial(np.array([0.0, 1.0, 1.0]), np.ones((2, 1))),
         "NOT_INCREASING"),
        (lambda: ppoly.PiecewisePolynomial([0.0, math.nan, 1.0], np.ones((2, 1))),
         "NOT_INCREASING"),
        (lambda: ppoly.PiecewisePolynomial([0.0, math.inf], np.ones((1, 1))), "NOT_INCREASING"),
        (lambda: ppoly.PiecewisePolynomial([-math.inf, 0.0], np.ones((1, 1))),
         "NOT_INCREASING"),
        (lambda: ppoly.indicator(0.0, 1.0).compose_affine(math.nan, 1.0), "NOT_INCREASING"),
        (lambda: ppoly.indicator(0.0, 1.0).compose_affine(0.5, 0.0), "NON_POSITIVE"),
        (lambda: ppoly.indicator(0.0, 1.0).compose_affine(0.5, math.nan), "NON_POSITIVE"),
        (lambda: ppoly.stack([ppoly.indicator(0.0, 1.0)] * 2).compose_affine(
            np.zeros(2), np.array([1.0, 0.0])), "NON_POSITIVE"),
        (lambda: ppoly.stack([ppoly.indicator(0.0, 1.0)] * 2).compose_affine(
            np.zeros(2), np.array([-1.0, 1.0])), "NON_POSITIVE"),
        (lambda: ppoly.stack([ppoly.indicator(0.0, 1.0)] * 2).compose_affine(
            np.zeros(2), np.array([1.0, math.nan])), "NON_POSITIVE"),
        (lambda: ppoly.indicator(0.0, 1.0).convolve_box(-0.25), "NON_POSITIVE"),
        (lambda: ppoly.indicator(0.0, 1.0).convolve_box(0.0), "NON_POSITIVE"),
        (lambda: ppoly.indicator(0.0, 1.0).convolve_box(math.nan), "NON_POSITIVE"),
    ], ids=["shape", "no-pieces", "breakpoints", "nan-breakpoint", "inf-breakpoint",
            "minus-inf-breakpoint", "nan-center", "scale", "nan-scale", "batch-zero-scale",
            "batch-negative-scale", "batch-nan-scale", "box-width", "zero-box-width",
            "nan-box-width"])
    def test_bad_input_is_coded(self, build, code):
        with pytest.raises(SplineError) as err:
            build()
        assert err.value.code == code


# -- reference kernels: the pass-by-pass forms the array kernels must match bit for bit

def reference_taylor_shift(rows, h):
    """Synthetic division pass by pass: pass i sets c_j += h c_{j+1} for
    j = m-2 down to i, on the rows with h != 0."""
    out = np.array(rows, dtype=float, ndmin=2)
    h = np.broadcast_to(np.asarray(h, dtype=float), out.shape[:1])
    moved = np.flatnonzero(h != 0.0)
    m = out.shape[1]
    if moved.size and m > 1:
        c = out[moved].T.copy()
        hm = h[moved]
        for i in range(m - 1):
            for j in range(m - 2, i - 1, -1):
                c[j] += hm * c[j + 1]
        out[moved] = c.T
    return out


def reference_rows_at(f, u, v):
    """Every piece [u, v] looked up (clipped) at its midpoint and shifted to
    u, rows whose midpoint is outside the span zeroed."""
    b = f.breakpoints
    mid = 0.5 * (u + v)
    i = np.clip(np.searchsorted(b, mid, side="right") - 1, 0, len(f.coeffs) - 1)
    outside = (mid < b[0]) | (mid >= b[-1])
    rows = reference_taylor_shift(f.coeffs[i], np.where(outside, 0.0, u - b[i]))
    rows[outside] = 0.0
    return rows


def reference_derivative_rows(c, order):
    """Coefficient rows of the order-th derivative: c_j j!/(j - order)!."""
    m = c.shape[1]
    if order >= m:
        return np.zeros((len(c), 1))
    if order:
        return c[:, order:] * np.array([math.perm(j, order) for j in range(order, m)],
                                       dtype=float)
    return c


def reference_horner(c, xi):
    """Row r of c at xi[r], Horner over the columns."""
    r = np.zeros(len(xi))
    for col in c.T[::-1]:
        r = r * xi + col
    return r


def reference_call(f, x, order=0):
    """One evaluation per order: derivative rows of every piece, gathered,
    then Horner over the columns."""
    if np.ndim(order):
        return np.array([reference_call(f, x, k) for k in order]).reshape(
            (len(order),) + np.shape(x))
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    b, c = f.breakpoints, f.coeffs
    idx = np.clip(np.searchsorted(b, x_arr, side="right") - 1, 0, len(c) - 1)
    inside = (x_arr >= b[0]) & (x_arr <= b[-1])
    idx = idx[inside]
    out = np.zeros_like(x_arr)
    out[inside] = reference_horner(reference_derivative_rows(c, order)[idx],
                                   x_arr[inside] - b[idx])
    return out if np.ndim(x) else float(out[0])


def reference_convolve_box(f, d):
    """The box convolution of one spline, pass by pass: the antiderivative
    piece by piece with a compensated running constant, the breakpoints
    b -+ d/2 merged as ``reference_dedup`` merges them, and each new piece's
    antiderivative difference, by divided differences where both window
    ends fall in one antiderivative piece."""
    b, c = f.breakpoints, f.coeffs
    n, m = c.shape
    j1 = np.arange(1, m + 1)
    parts = np.zeros((n, m + 1))
    running = comp = 0.0
    for i in range(n):
        parts[i, 0] = running
        parts[i, 1:] = c[i] / j1
        y = math.fsum(c[i] * (b[i + 1] - b[i]) ** j1 / j1) - comp
        t = running + y
        comp = (t - running) - y
        running = t
    parts += 0.0    # no -0.0: the kernel's padded shifts would make some +0.0

    def locate(y):
        """Antiderivative piece at y: -1 left of the span, n right."""
        return -1 if y <= b[0] else n if y >= b[-1] else int(np.searchsorted(b, y, "right")) - 1

    def anti(i, u, s):
        """Antiderivative piece i re-anchored at u + s."""
        row = np.zeros(m + 1)
        if i >= n:
            row[0] = running
        elif i >= 0:
            row = reference_taylor_shift([parts[i]], (u - b[i]) + s)[0]
        return row

    new_b = reference_dedup(np.concatenate([b - d / 2.0, b + d / 2.0]))
    out = np.zeros((len(new_b) - 1, m + 1))
    for p, (u, v) in enumerate(zip(new_b[:-1].tolist(), new_b[1:].tolist())):
        mid = 0.5 * (u + v)
        ip, im = locate(mid + d / 2.0), locate(mid + -d / 2.0)
        if ip == im and 0 <= ip < n:
            out[p] = ppoly._divided_shift([parts[ip]], (u - b[ip]) - d / 2.0, d)[0]
        else:
            out[p] = (anti(ip, u, d / 2.0) - anti(im, u, -d / 2.0)) / d
    return ppoly.PiecewisePolynomial(new_b, out, f.smoothness_order + 1)


def reference_seam_gaps(f, order=None):
    """The seam check of one spline, order by order: each piece but the last
    evaluated at its right end against the next piece's constant, for orders
    up to min(smoothness order, degree) by default."""
    if order is None:
        order = min(max(f.smoothness_order, 0), f.degree)
    gaps = np.zeros(order + 1)
    if len(f.coeffs) > 1:
        w = np.diff(f.breakpoints)[:-1]
        for q in range(order + 1):
            dq = reference_derivative_rows(f.coeffs, q)
            gaps[q] = np.max(np.abs(reference_horner(dq[:-1], w) - dq[1:, 0]))
    return gaps


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _coefficients(rng, shape):
    """Signed mantissas in [-1, 1) times powers of ten in 1e-30..1e30."""
    return rng.uniform(-1.0, 1.0, shape) * 10.0 ** rng.integers(-30, 31, shape)


@st.composite
def increasing_splines(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 8))
    m = draw(st.integers(1, 12))
    b = np.cumsum(np.concatenate([[rng.uniform(-2.0, 0.0)], rng.uniform(0.05, 0.6, n)]))
    return ppoly.PiecewisePolynomial(b, rng.uniform(-2.0, 2.0, (n, m)), 0), rng


class TestKernelsBitIdentical:
    @given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 35),
           n=st.integers(0, 60), h_kind=st.sampled_from(["mixed", "all-zero", "scalar"]))
    @settings(max_examples=150, deadline=None)
    def test_taylor_shift_matches_pass_by_pass(self, seed, m, n, h_kind):
        rng = np.random.default_rng(seed)
        rows = _coefficients(rng, (n, m))
        if h_kind == "scalar":
            h = float(rng.uniform(-4.0, 4.0))
        else:
            h = rng.uniform(-4.0, 4.0, n) * (rng.random(n) < 0.7)
            if h_kind == "all-zero":
                h[:] = 0.0
        assert _same_bits(ppoly.taylor_shift(rows, h), reference_taylor_shift(rows, h))

    def test_taylor_shift_single_row_and_no_rows(self):
        c = np.array([1.0, -2.0, 0.5, 3.0, 1e-30, -7e29])
        assert _same_bits(ppoly.taylor_shift(c, 0.37), reference_taylor_shift(c, 0.37))
        empty = np.zeros((0, 5))
        assert ppoly.taylor_shift(empty, np.zeros(0)).shape == (0, 5)

    @given(case=increasing_splines(), n_u=st.integers(0, 40))
    @settings(max_examples=150, deadline=None)
    def test_rows_at_matches_clip_and_where(self, case, n_u):
        f, rng = case
        b = f.breakpoints
        # left of, right of, exactly at and just off the span ends and
        # breakpoints, so midpoints and left ends fall in different pieces
        near = rng.choice(b, min(n_u, len(b)))
        pts = np.unique(np.concatenate([rng.uniform(b[0] - 1.0, b[-1] + 1.0, n_u),
                                        near, near + 1e-13, near - 1e-13,
                                        [b[-1]] if n_u % 2 else [], [b[0] - 2.0]]))
        u, v = pts[:-1], pts[1:]
        assert _same_bits(ppoly._rows_at(f, np.zeros(len(u), dtype=np.intp), u, v),
                          reference_rows_at(f, u, v))

    @given(case=increasing_splines(), n_x=st.integers(1, 30),
           orders=st.lists(st.integers(0, 15), min_size=1, max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_multi_order_call_matches_per_order(self, case, n_x, orders):
        f, rng = case
        b = f.breakpoints
        x = np.concatenate([rng.uniform(b[0] - 0.5, b[-1] + 0.5, n_x), b[[0, -1]]])
        per_order = np.array([f(x, order=k) for k in orders])
        assert _same_bits(f(x, order=orders), per_order)
        assert _same_bits(per_order, reference_call(f, x, orders))
        x0 = float(x[0])
        assert _same_bits(f(x0, order=orders), np.array([f(x0, order=k) for k in orders]))
        assert _same_bits(f(x0, order=orders), reference_call(f, x0, orders))
        assert f(x0, order=orders[0]) == reference_call(f, x0, orders[0])


def reference_chopped(f, max_order):
    """The chop rule coefficient by coefficient: cut each row after its last
    c_k with |c_k| h^k k!/(k-r)! nonzero and >= CHOP_REL_TOL x the row's
    largest such term, for some r <= max_order."""
    out = np.zeros_like(f.coeffs)
    for i, row in enumerate(f.coeffs):
        h = f.breakpoints[i + 1] - f.breakpoints[i]
        last = -1
        for r in range(max_order + 1):
            terms = [abs(row[k]) * h ** k * float(math.perm(k, r)) for k in range(len(row))]
            top = max(terms)
            last = max([last] + [k for k in range(r, len(row))
                                 if terms[k] > 0.0 and terms[k] >= ppoly.CHOP_REL_TOL * top])
        out[i, : last + 1] = row[: last + 1]
    return out


@st.composite
def wide_range_splines(draw):
    """Splines whose coefficients span 1e-30..1e30, so rows do get chopped.
    Zero coefficients are +0.0, the zero the chop writes."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 8))
    m = draw(st.integers(1, 16))
    b = np.cumsum(np.concatenate([[rng.uniform(-2.0, 0.0)],
                                  10.0 ** rng.uniform(-6.0, 0.5, n)]))
    c = np.where(rng.random((n, m)) < 0.8, _coefficients(rng, (n, m)), 0.0)
    return ppoly.PiecewisePolynomial(b, c, 0)


class TestChopped:
    @given(f=wide_range_splines(), max_order=st.integers(0, 20))
    @settings(max_examples=200, deadline=None)
    def test_matches_rule_idempotent_never_raises_degree(self, f, max_order):
        g = f.chopped(max_order)
        assert np.array_equal(g.breakpoints, f.breakpoints)
        ref = reference_chopped(f, max_order)
        assert _same_bits(g.coeffs, ref[:, : g.coeffs.shape[1]])
        assert not ref[:, g.coeffs.shape[1]:].any()
        assert _same_bits(g.chopped(max_order).coeffs, g.coeffs)
        assert np.all(g.row_degrees() <= f.row_degrees())
        # a row with no negligible coefficient, even at r = 0, is kept whole
        h = np.diff(f.breakpoints)[:, None]
        t = np.abs(f.coeffs) * h ** np.arange(f.degree + 1)
        top = t.max(axis=1, keepdims=True)
        whole = np.all((f.coeffs == 0.0) | (t >= ppoly.CHOP_REL_TOL * top), axis=1)
        assert _same_bits(g.coeffs[whole], f.coeffs[whole, : g.coeffs.shape[1]])
        assert not f.coeffs[whole, g.coeffs.shape[1]:].any()

    def test_rule_is_per_derivative_order(self):
        # c2 is 1e-20 of c0, but it is all of f'' and most of f'
        f = ppoly.PiecewisePolynomial(np.array([0.0, 1.0]), np.array([[1.0, 0.0, 1e-20]]))
        assert f.chopped(0).degree == 0
        assert _same_bits(f.chopped(1).coeffs, f.coeffs)
        assert f.chopped(0)(0.5, order=0) == 1.0

    def test_interior_coefficients_are_kept(self):
        f = ppoly.PiecewisePolynomial(np.array([0.0, 1.0, 2.0]),
                                      np.array([[1.0, 1e-30, 1.0, 1e-30], [0.0, 0.0, 0.0, 0.0]]))
        g = f.chopped(2)
        assert _same_bits(g.coeffs, np.array([[1.0, 1e-30, 1.0], [0.0, 0.0, 0.0]]))
        assert g.row_degrees().tolist() == [2, 0]

    def test_row_degrees(self):
        f = ppoly.PiecewisePolynomial(np.arange(4.0), np.array(
            [[1.0, 0.0, 2.0, 0.0], [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, -0.5]]))
        assert f.row_degrees().tolist() == [2, 0, 3]
        assert ppoly.indicator(0.0, 1.0).row_degrees().tolist() == [0]


def reference_batch_rows_at(f, seg, u, v):
    """The batch row lookup, spline by spline through ``reference_rows_at``."""
    rows = np.zeros((len(u), f.coeffs.shape[1]))
    for s, spline in enumerate(f.splines()):
        at = seg == s
        if at.any():
            r = reference_rows_at(spline, u[at], v[at])
            rows[at, : r.shape[1]] = r
    return rows


def reference_stacked_values(f, xs, orders):
    """The stacked evaluation, spline by spline through ``reference_call``."""
    for s, spline in enumerate(f.splines()):
        j = np.flatnonzero((xs >= spline.breakpoints[0]) & (xs <= spline.breakpoints[-1]))
        if j.size:
            yield np.full(j.size, s), j, reference_call(spline, xs[j], orders)


def test_extension_with_reference_kernels_is_identical(extension_case, monkeypatch):
    """The whole extension, rebuilt with the pass-by-pass kernels, gives the
    same spline and verification: catches a ``_rows_at`` caller whose u is
    not increasing, and a cutoff or chop that differs from its one-spline
    reference."""
    inputs, res = extension_case
    for kernel, ref in ((ppoly.taylor_shift, reference_taylor_shift),
                        (ppoly.stacked_values, reference_stacked_values)):
        for mod in [mod for name, mod in list(sys.modules.items())
                    if name.startswith("ultrajet")
                    and getattr(mod, kernel.__name__, None) is kernel]:
            monkeypatch.setattr(mod, kernel.__name__, ref)
    monkeypatch.setattr(ppoly, "_rows_at", reference_batch_rows_at)
    monkeypatch.setattr(ppoly.PiecewisePolynomial, "__call__", reference_call)
    monkeypatch.setattr(ppoly.PiecewisePolynomial, "chopped", lambda f, max_order: (
        ppoly.PiecewisePolynomial(f.breakpoints, reference_chopped(f, max_order),
                                  f.smoothness_order)))
    monkeypatch.setattr(ppoly.PiecewisePolynomial, "convolve_box", reference_convolve_box)
    ref = extend_jet(*inputs)
    assert np.array_equal(ref.f.breakpoints, res.f.breakpoints)
    assert np.array_equal(ref.f.coeffs, res.f.coeffs)
    assert ref.verification == res.verification


# -- batches: each spline of a batch gets what the one-spline reference gives it

def reference_dedup(pts):
    """Sorted pts, left to right, dropping each point within DEDUP_REL_TOL *
    span of the last point kept."""
    pts = np.sort(np.asarray(pts, dtype=float))
    tol = ppoly.DEDUP_REL_TOL * max(pts[-1] - pts[0], 1e-300)
    kept = [pts[0]]
    for x in pts[1:]:
        if x - kept[-1] > tol:
            kept.append(x)
    return np.array(kept)


def reference_mul_rows(a, c):
    """Row products summed over the columns of the narrower operand."""
    if a.shape[1] < c.shape[1]:
        a, c = c, a
    out = np.zeros((len(a), a.shape[1] + c.shape[1] - 1))
    for j in range(c.shape[1]):
        out[:, j: j + a.shape[1]] += a * c[:, j: j + 1]
    return out


def reference_product(f, g):
    b = reference_dedup(np.concatenate([f.breakpoints, g.breakpoints]))
    sm = min(f.smoothness_order, g.smoothness_order)
    lo, hi = max(f.span[0], g.span[0]), min(f.span[1], g.span[1])
    mid = 0.5 * (b[:-1] + b[1:])
    inside = np.flatnonzero((mid >= lo) & (mid < hi))
    if not inside.size:
        return ppoly.PiecewisePolynomial(b[:2], np.zeros((1, 1)), sm)
    b = b[inside[0]: inside[-1] + 2]
    u, v = b[:-1], b[1:]
    return ppoly.PiecewisePolynomial(
        b, reference_mul_rows(reference_rows_at(f, u, v), reference_rows_at(g, u, v)), sm)


def reference_sum(parts):
    b = reference_dedup(np.concatenate([p.breakpoints for p in parts]))
    u, v = b[:-1], b[1:]
    mid = 0.5 * (u + v)
    out = np.zeros((len(u), max(p.coeffs.shape[1] for p in parts)))
    for p in parts:
        inside = (mid >= p.breakpoints[0]) & (mid < p.breakpoints[-1])
        rows = reference_rows_at(p, u[inside], v[inside])
        out[inside, : rows.shape[1]] += rows
    return ppoly.PiecewisePolynomial(b, out, min(p.smoothness_order for p in parts))


def _same_spline(f, g) -> bool:
    return (_same_bits(f.breakpoints, g.breakpoints) and _same_bits(f.coeffs, g.coeffs)
            and f.smoothness_order == g.smoothness_order)


class TestBatches:
    @given(pairs=st.lists(spline_pairs(), min_size=1, max_size=6), data=st.data(),
           entries=st.sampled_from([2, 16, ppoly._BATCH_ENTRIES]))
    @settings(max_examples=120, deadline=None)
    def test_product_and_cut_match_one_pair_references(self, pairs, data, entries):
        fs, gs = zip(*pairs)
        a, b = ppoly.stack(fs), ppoly.stack(gs)
        # the splines i of a, in any order, each paired with a spline k of b
        i = data.draw(st.lists(st.integers(0, len(fs) - 1), min_size=1, unique=True))
        k = data.draw(st.lists(st.integers(0, len(fs) - 1), min_size=len(i), max_size=len(i)))
        with mock.patch.object(ppoly, "_BATCH_ENTRIES", entries):
            products = ppoly.batch_product(a, b, i, k).splines()
            cuts = ppoly.batch_cut(a, b, i, k).splines()
        mate = dict(zip(i, k))
        for s, (p, c, f) in enumerate(zip(products, cuts, fs)):
            if s not in mate:           # not replaced
                assert _same_spline(p, f) and _same_spline(c, f)
                continue
            g = gs[mate[s]]
            assert _same_spline(p, reference_product(f, g))
            assert _same_spline(p, f * g)
            assert _same_spline(c, reference_sum([f, reference_product(f, g) * -1.0]))
            assert _same_spline(c, f - f * g)

    @given(parts=st.lists(splines(), min_size=1, max_size=8), data=st.data(),
           entries=st.sampled_from([2, 16, ppoly._BATCH_ENTRIES]))
    @settings(max_examples=120, deadline=None)
    def test_sum_matches_per_group_reference(self, parts, data, entries):
        n = data.draw(st.integers(1, len(parts)))
        group = data.draw(st.permutations(list(range(n)) + data.draw(
            st.lists(st.integers(0, n - 1), min_size=len(parts) - n, max_size=len(parts) - n))))
        with mock.patch.object(ppoly, "_BATCH_ENTRIES", entries):
            sums = ppoly.batch_sum(ppoly.stack(parts), group, n).splines()
        for k, s in enumerate(sums):
            mine = [p for p, g in zip(parts, group) if g == k]
            assert _same_spline(s, reference_sum(mine))
        assert _same_spline(parts[0] + parts[-1], reference_sum([parts[0], parts[-1]]))

    @given(cases=st.lists(increasing_splines(), min_size=1, max_size=5),
           n_x=st.integers(0, 30), entries=st.sampled_from([3, 7, ppoly._BATCH_ENTRIES]))
    @settings(max_examples=120, deadline=None)
    def test_stacked_values_match_call(self, cases, n_x, entries):
        fs = [f for f, _ in cases]
        rng = cases[0][1]
        b = np.concatenate([f.breakpoints for f in fs])
        # every breakpoint (span ends included), just beside them, and between
        xs = np.unique(np.concatenate([b, b + 1e-13, b - 1e-13,
                                       rng.uniform(b.min() - 0.5, b.max() + 0.5, n_x)]))
        orders = range(6)
        got = [[] for _ in fs]
        with mock.patch.object(ppoly, "_BATCH_ENTRIES", entries):
            for s, j, vals in ppoly.stacked_values(ppoly.stack(fs), xs, orders):
                for spline in np.unique(s):
                    got[spline].append((j[s == spline], vals[:, s == spline]))
        for f, blocks in zip(fs, got):
            j = np.concatenate([jb for jb, _ in blocks])
            inside = np.flatnonzero((xs >= f.breakpoints[0]) & (xs <= f.breakpoints[-1]))
            assert np.array_equal(j, inside)
            vals = np.concatenate([vb for _, vb in blocks], axis=1)
            assert _same_bits(vals, f(xs[j], order=orders))

    def test_trimmed_and_supports_match_each_spline(self):
        fs = [ppoly.PiecewisePolynomial(np.arange(5.0), np.array(rows, dtype=float), 2)
              for rows in ([[0.0], [1.0], [0.0], [0.0]], [[0.0], [0.0], [0.0], [0.0]],
                           [[1.0, 2.0], [0.0, 0.0], [0.0, 3.0], [0.0, 0.0]])]
        batch = ppoly.stack(fs)
        for f, t in zip(fs, batch.trimmed().splines()):
            assert _same_spline(t, f.trimmed())
        lo, hi = batch.supports()
        assert list(zip(lo.tolist(), hi.tolist())) == [f.support() for f in fs]

    @given(rng=st.integers(0, 2 ** 32 - 1).map(np.random.default_rng),
           order=st.integers(0, 14), entries=st.sampled_from([3, 7, ppoly._BATCH_ENTRIES]))
    @settings(max_examples=120, deadline=None)
    def test_kernels_match_one_spline_references(self, rng, order, entries):
        # 1-6 splines of their own piece counts, widths and smoothness orders
        fs = []
        for _ in range(int(rng.integers(1, 7))):
            n, m = int(rng.integers(1, 9)), int(rng.integers(1, 13))
            b = np.cumsum(np.concatenate([[rng.uniform(-2.0, 0.0)],
                                          10.0 ** rng.uniform(-3.0, 0.0, n)]))
            c = np.where(rng.random((n, m)) < 0.8, _coefficients(rng, (n, m)),
                         rng.choice([0.0, -0.0], (n, m)))
            fs.append(ppoly.PiecewisePolynomial(b, c, int(rng.integers(-1, 14))))
        batch = ppoly.stack(fs)
        d = 10.0 ** rng.uniform(-3.0, 0.5, len(fs))
        b = np.concatenate([f.breakpoints for f in fs])
        xs = np.unique(np.concatenate([b, b + 1e-13,
                                       rng.uniform(b.min() - 0.5, b.max() + 0.5, 30)]))
        orders = [0, order, 1]
        with mock.patch.object(ppoly, "_BATCH_ENTRIES", entries):
            blocks = list(ppoly.stacked_values(batch, xs, orders))
        s, j = (np.concatenate([blk[i] for blk in blocks]) for i in (0, 1))
        vals = np.concatenate([blk[2] for blk in blocks], axis=1)
        degrees = np.split(batch.row_degrees(), np.cumsum([len(f.coeffs) for f in fs])[:-1])
        gaps, gaps_to = batch.seam_gaps(), batch.seam_gaps(order)
        kernels = zip(batch.derivative(order).splines(), batch.chopped(order).splines(),
                      batch.convolve_box(d).splines())
        for k, (f, w, (df, ch, conv)) in enumerate(zip(fs, d, kernels)):
            at = s == k
            assert np.array_equal(j[at], np.flatnonzero((xs >= f.span[0]) & (xs <= f.span[1])))
            assert _same_bits(vals[:, at], reference_call(f, xs[j[at]], orders))
            assert _same_spline(df, ppoly.PiecewisePolynomial(
                f.breakpoints, reference_derivative_rows(f.coeffs, order),
                max(-1, f.smoothness_order - order)))
            assert _same_spline(ch, ppoly.PiecewisePolynomial(
                f.breakpoints, reference_chopped(f, order), f.smoothness_order))
            assert _same_spline(conv, reference_convolve_box(f, float(w)))
            assert degrees[k].tolist() == [max([i for i, v in enumerate(row) if v != 0.0],
                                               default=0) for row in f.coeffs.tolist()]
            ref = reference_seam_gaps(f)
            assert _same_bits(gaps[k, : len(ref)], ref) and not gaps[k, len(ref):].any()
            assert _same_bits(gaps_to[k], reference_seam_gaps(f, order))
