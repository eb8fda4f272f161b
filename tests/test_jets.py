import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ultrajet import jets
from ultrajet import seqcalc as sq
from ultrajet.descend import descend
from ultrajet.errors import JetSpecError, OrderExceeded, PoleOnSet


def _remainder(F, a, b, p, k=0):
    """(R_a^p F)^k(b) = F^k(b) - sum_{j <= p-k} (b-a)^j / j! F^{k+j}(a), the
    sum as one np.sum over its p - k + 1 terms: the scalar form of
    jets.remainder_table."""
    if p > F.order_cap or k > p:
        raise OrderExceeded(f"remainder orders (p={p}, k={k}) exceed cap {F.order_cap}")
    j = np.arange(0, p - k + 1)
    va = F.values[F.rows(a)][k: p + 1]
    return float(F.values[F.rows(b), k]
                 - np.sum(va * np.power(b - a, j) * np.exp(-sq.log_factorial(j))))


@pytest.fixture(scope="module")
def two_points():
    return jets.CompactSet1D(points=(0.0, 1.0))


@pytest.fixture(scope="module")
def exp_jet(two_points):
    return jets.sample_jet({"kind": "exp"}, two_points, p_max=12)


FAMILIES = {
    "exp": {"kind": "exp"},
    "sin": {"kind": "sin"},
    "polynomial": {"kind": "polynomial", "coeffs": [1.0, -2.0, 0.5, 3.0, -0.25]},
    "rational": {"kind": "rational", "num": [1.0, 0.5], "den": [5.0, 0.0, 1.0]},
}


class TestCompactSet:
    def test_nearest_basic(self, two_points):
        xhat, d = two_points.nearest(0.3)
        assert (xhat[0], d[0]) == (0.0, 0.3)

    def test_nearest_tie_smaller(self, two_points):
        xhat, d = two_points.nearest(0.5)
        assert xhat[0] == 0.0 and d[0] == 0.5

    def test_nearest_with_interval(self):
        E = jets.CompactSet1D(points=(2.0,), intervals=((0.0, 1.0),))
        xhat, d = E.nearest([1.4, 0.7])
        assert xhat[0] == 1.0 and d[0] == pytest.approx(0.4)
        assert xhat[1] == 0.7 and d[1] == 0.0

    @given(points=st.lists(st.floats(-4.0, 4.0), max_size=5),
           intervals=st.lists(st.tuples(st.floats(-4.0, 4.0), st.floats(0.01, 1.0)),
                              max_size=3),
           xs=st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=20),
           snap=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_nearest_is_brute_force_argmin(self, points, intervals, xs, snap):
        """nearest equals a scalar search over the components for the least
        |x - clip(x, lo, hi)|, keeping the first (smaller) one on a tie."""
        ivs, hi = [], -math.inf
        for lo, width in sorted(intervals):
            if lo > hi:
                ivs.append((lo, lo + width))
                hi = lo + width
        if not points and not ivs:
            points = [0.0]
        E = jets.CompactSet1D(points=tuple(points), intervals=tuple(ivs))
        comps = E.components
        if snap:    # midpoints of the gaps: exact ties where they are representable
            xs = xs + (0.5 * (comps[1:, 0] + comps[:-1, 1])).tolist()
        xhat, d = E.nearest(xs)
        for x, xh, dist in zip(xs, xhat, d):
            best = None
            for lo, hi in comps.tolist():
                c = min(max(x, lo), hi)
                if best is None or abs(x - c) < best[1]:
                    best = (c, abs(x - c))
            assert (xh, dist) == best
        assert np.array_equal(E.distance(xs), d)

    def test_gaps(self, two_points):
        gaps = two_points.gaps(-2.0, 3.0)
        assert gaps == [(-2.0, 0.0, False, True), (0.0, 1.0, True, True),
                        (1.0, 3.0, True, False)]

    def test_empty_rejected(self):
        with pytest.raises(JetSpecError) as err:
            jets.CompactSet1D()
        assert err.value.code == "EMPTY_SET"

    @pytest.mark.parametrize("build, code", [
        (lambda: jets.CompactSet1D(intervals=((1.0, 1.0),)), "NON_POSITIVE"),
        (lambda: jets.CompactSet1D(intervals=((0.0, 1.0), (1.0, 2.0))), "OVERLAP"),
        (lambda: jets.Jet(jets.CompactSet1D(points=(0.0,)), 2, [[1.0, 2.0]]),
         "BAD_JET_VALUES"),
        (lambda: jets.Jet(jets.CompactSet1D(points=(0.0,)), 1, [[1.0, math.nan]]),
         "BAD_JET_VALUES"),
        (lambda: jets.Jet(jets.CompactSet1D(points=(0.0, 1.0)), 1, [[1.0, 2.0], [1.0]]),
         "BAD_JET_VALUES"),
        (lambda: jets.sample_jet({"kind": "bessel"}, jets.CompactSet1D(points=(0.0,))),
         "UNKNOWN_FAMILY"),
    ])
    def test_bad_input_is_coded(self, build, code):
        with pytest.raises(JetSpecError) as err:
            build()
        assert err.value.code == code

    def test_anchor_not_carried(self, exp_jet):
        for call in (lambda: exp_jet.rows(0.5),
                     lambda: jets.taylor_coeffs_local(exp_jet, 0.5, 3),
                     lambda: jets.taylor_values(exp_jet, [0.0, 0.5], 3, 0.2, 0)):
            with pytest.raises(JetSpecError) as err:
                call()
            assert err.value.code == "NOT_CARRIED"
        assert exp_jet.values[exp_jet.rows(1.0), 2] == math.e


class TestTaylorRemainder:
    def test_remainder_poly_zero(self, two_points):
        F = jets.sample_jet({"kind": "polynomial", "coeffs": [1, 2, 3]}, two_points, 8)
        for p in (2, 3, 7):
            assert _remainder(F, 0.0, 1.0, p, 0) == pytest.approx(0.0, abs=1e-12)

    def test_remainder_same_point(self, exp_jet):
        assert _remainder(exp_jet, 0.0, 0.0, 5, 2) == 0.0

    def test_remainder_exp_value(self, exp_jet):
        expect = math.e - sum(1.0 / math.factorial(j) for j in range(5))
        assert _remainder(exp_jet, 0.0, 1.0, 4, 0) == pytest.approx(expect, rel=1e-12)

    def test_remainder_order_exceeded(self, exp_jet):
        with pytest.raises(OrderExceeded):
            _remainder(exp_jet, 0.0, 1.0, 13, 0)

    def test_duality_with_taylor_derivative(self, exp_jet):
        for (a, b, p, k) in [(0.0, 1.0, 5, 2), (1.0, 0.0, 7, 0), (0.0, 1.0, 3, 3)]:
            lhs = _remainder(exp_jet, a, b, p, k)
            rhs = (exp_jet.values[exp_jet.rows(b), k]
                   - float(jets.taylor_values(exp_jet, a, p, b, k)))
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_classical_remainder_magnitude(self, exp_jet):
        # |R_a^p(b)| <= max|f^(p+1)| |b-a|^{p+1} / (p+1)! with max over hull
        for p in range(0, 11):
            r = _remainder(exp_jet, 0.0, 1.0, p, 0)
            assert abs(r) <= math.e / math.factorial(p + 1) + 1e-12


class TestSampleJet:
    def test_exp_constant_jet(self):
        E = jets.CompactSet1D(points=(0.0,))
        F = jets.sample_jet({"kind": "exp"}, E, 6)
        assert np.allclose(F.values[F.rows(0.0)], 1.0)

    def test_sin_cycle_exact(self):
        E = jets.CompactSet1D(points=(0.0,))
        F = jets.sample_jet({"kind": "sin"}, E, 7)
        assert np.array_equal(F.values[F.rows(0.0)], [0, 1, 0, -1, 0, 1, 0, -1])

    def test_poly_x2(self, two_points):
        F = jets.sample_jet({"kind": "polynomial", "coeffs": [0, 0, 1]}, two_points, 4)
        assert np.allclose(F.values[F.rows(0.0)], [0, 0, 2, 0, 0])
        assert np.allclose(F.values[F.rows(1.0)], [1, 2, 2, 0, 0])

    def test_rational_derivatives(self, two_points):
        F = jets.sample_jet({"kind": "rational", "num": [1.0], "den": [1.0, 0.0, 1.0]},
                            two_points, 6)
        assert np.allclose(F.values[F.rows(0.0)], [1, 0, -2, 0, 24, 0, -720])

    def test_pole_detected(self, two_points):
        with pytest.raises(PoleOnSet):
            jets.sample_jet({"kind": "rational", "num": [1.0], "den": [-0.25, 0, 1.0]},
                            two_points, 4)


# the small row s_k = 1: the fit's value bounds are then C rho^k k!
S_KFAC = sq.from_log_quotients(np.zeros(64), "s=1")


class TestNormProfile:
    """The one jet-norm fit, :func:`jets.fit_jet_constants`."""

    def test_exp_constants(self, exp_jet):
        # C_inf = e (the value at 1); the bounds hold at rho = 1 with C = e,
        # so the doubling rho is at most 1
        fit = jets.fit_jet_constants(exp_jet, S_KFAC)
        assert fit.C == pytest.approx(2.0 * math.e, rel=1e-12)
        assert 0.0 < fit.rho <= 1.0
        assert not fit.not_in_class

    def test_zero_jet(self, two_points):
        zero = jets.table_jet(two_points, {0.0: np.zeros(13), 1.0: np.zeros(13)}, 12)
        fit = jets.fit_jet_constants(zero, S_KFAC)
        assert (fit.C, fit.rho) == (1.0, 0.0)     # the fit's floor, no order binds
        assert not fit.not_in_class and fit.order_slope == 0.0

    def test_scaling_linear(self, exp_jet, combine):
        F3 = combine(exp_jet, exp_jet, 3.0, 0.0)
        # remainders far below the values carry the rounding of their
        # cancellation, about 1e-8 relative for exp on {0, 1}
        for got, base in zip(F3.log_norm_terms, exp_jet.log_norm_terms):
            np.testing.assert_allclose(got, base + math.log(3.0), rtol=0, atol=1e-6)

    def test_factorial_squared_not_in_class(self):
        E = jets.CompactSet1D(points=(0.0,))
        bad = jets.table_jet(E, {0.0: [math.factorial(k) ** 2 for k in range(13)]}, 12)
        fit = jets.fit_jet_constants(bad, S_KFAC)
        assert fit.not_in_class and fit.order_slope >= 0.5

    @given(c=st.floats(min_value=-4, max_value=4),
           x=st.floats(min_value=-1, max_value=2))
    @settings(max_examples=100, deadline=None)
    def test_taylor_linearity(self, c, x, two_points, exp_jet, combine):
        Fp = jets.sample_jet({"kind": "polynomial", "coeffs": [0, 0, 1]},
                             two_points, 12)
        Fc = combine(exp_jet, Fp, 1.0, c)
        lhs = jets.taylor_values(Fc, 0.0, 6, x, 1)
        rhs = (jets.taylor_values(exp_jet, 0.0, 6, x, 1)
               + c * jets.taylor_values(Fp, 0.0, 6, x, 1))
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


class TestRemainderTable:
    @given(family=st.sampled_from(sorted(FAMILIES)),
           cap=st.integers(min_value=1, max_value=12),
           points=st.lists(st.floats(min_value=-3.0, max_value=3.0),
                           min_size=2, max_size=5, unique=True),
           interval=st.one_of(st.none(), st.tuples(
               st.floats(min_value=-4.0, max_value=2.0),
               st.floats(min_value=0.01, max_value=2.0))))
    @settings(max_examples=40, deadline=None)
    def test_entries_equal_scalar_remainder(self, family, cap, points, interval):
        """Every entry of the checked pairs equals _remainder() exactly; sets
        with an interval (66+ carried points) check about 150 pairs."""
        ivs = () if interval is None else ((interval[0], interval[0] + interval[1]),)
        E = jets.CompactSet1D(points=tuple(points), intervals=ivs)
        F = jets.sample_jet(FAMILIES[family], E, cap)
        R, dist = jets.remainder_table(F)
        pts = F.carried()
        pairs = [(a, b) for a in pts for b in pts if a != b]
        assert R.shape == (len(pairs), cap, cap)
        for i in range(0, len(pairs), max(1, len(pairs) // 150)):
            a, b = pairs[i]
            assert dist[i] == abs(b - a)
            for p in range(cap):
                for k in range(cap):
                    expect = _remainder(F, a, b, p, k) if k <= p else 0.0
                    assert R[i, p, k] == expect

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_fit_jet_constants_brute_force(self, family):
        E = jets.CompactSet1D(points=(-0.6, 0.25, 1.0))
        F = jets.sample_jet(FAMILIES[family], E, 8)
        D = descend(sq.gevrey(2, K=64), K_eff=32)
        fit = jets.fit_jet_constants(F, D.small_s)

        log_s = np.concatenate([[0.0], np.cumsum(D.log_sigma_star)])
        cap = min(F.order_cap, len(log_s) - 2)
        pts = F.carried()

        def log_C(lr):
            """log C(rho) at log rho = lr: max(0, each value and remainder ratio)."""
            best = 0.0
            for a in pts:
                for k in range(cap + 1):
                    v = F.values[F.rows(a), k]
                    if v != 0.0:
                        best = max(best, math.log(abs(v)) - k * lr - log_s[k]
                                   - math.lgamma(k + 1))
                for b in pts:
                    if a == b:
                        continue
                    for p in range(cap):
                        for k in range(p + 1):
                            r = _remainder(F, a, b, p, k)
                            if r != 0.0:
                                best = max(best, math.log(abs(r)) - (p + 1) * lr
                                           - math.lgamma(k + 1) - log_s[p + 1]
                                           - (p + 1 - k) * math.log(abs(b - a)))
            return best

        log_2c_inf = math.log(2.0 * max(1.0, np.max(np.abs(F.values[:, 0]))))
        lr = math.log(fit.rho)
        assert math.log(fit.C) == pytest.approx(log_C(lr), rel=0, abs=1e-12)
        assert math.log(fit.C) == pytest.approx(log_2c_inf, rel=0, abs=1e-12)
        assert log_C(lr + math.log1p(-1e-9)) > log_2c_inf


class TestDoublingConstants:
    @given(terms=st.lists(st.tuples(st.integers(min_value=0, max_value=30),
                                    st.one_of(st.just(-math.inf),
                                              st.floats(min_value=-50, max_value=50))),
                          max_size=12),
           log_floor=st.one_of(st.just(-math.inf), st.floats(min_value=-20, max_value=20)))
    @settings(max_examples=300, deadline=None)
    def test_rule(self, terms, log_floor):
        """rho* is the smallest rho with C(rho) <= 2 C_inf: C(rho*) <= 2 C_inf
        and C(rho* (1 - 1e-9)) > 2 C_inf, with C(rho) and C_inf computed
        here from their definitions."""
        log_C, log_rho = jets.doubling_constants([n for n, _ in terms],
                                                 [w for _, w in terms], log_floor)
        log_c_inf = max([log_floor] + [w for n, w in terms if n == 0])
        live = [(n, w) for n, w in terms if n >= 1 and w > -math.inf]

        def log_C_at(lr):
            return max([log_c_inf] + [w - n * lr for n, w in live])

        if not live:                         # no order n >= 1: rho* = 0
            assert (log_C, log_rho) == (log_c_inf, -math.inf)
        elif log_c_inf == -math.inf:         # C(rho) > 0 = 2 C_inf for every rho
            assert (log_C, log_rho) == (-math.inf, math.inf)
        else:
            log_2c_inf = log_c_inf + math.log(2.0)
            assert log_C == log_C_at(log_rho)
            assert log_C_at(log_rho) <= log_2c_inf + math.log1p(1e-12)
            assert log_C_at(log_rho + math.log1p(-1e-9)) > log_2c_inf


def _scalar_taylor(F, a, p, x, order):
    """(d/dx)^order T_a^p F (x) as one np.sum over its p + 1 - order terms."""
    j = np.arange(0, p + 1 - order)
    if len(j) == 0:
        return 0.0
    terms = (F.values[F.rows(a)][order: p + 1] * np.power(x - a, j)
             * np.exp(-sq.log_factorial(j)))
    return float(np.sum(terms))


class TestTaylorValues:
    @given(family=st.sampled_from(["exp", "sin", "polynomial"]),
           cap=st.integers(min_value=0, max_value=16),
           points=st.lists(st.floats(min_value=-3.0, max_value=3.0),
                           min_size=1, max_size=4, unique=True),
           with_interval=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_entries_equal_scalar_formula(self, family, cap, points, with_interval, seed):
        ivs = ((3.5, 4.0),) if with_interval else ()
        F = jets.sample_jet(FAMILIES[family], jets.CompactSet1D(points=tuple(points),
                                                                  intervals=ivs), cap)
        rng = np.random.default_rng(seed)
        n = 200
        a = rng.choice(F.carried(), n)              # mixed anchors
        p = rng.integers(0, cap + 1, n)
        order = rng.integers(0, p + 2)              # order p + 1: no terms
        x = a + rng.uniform(-2.0, 2.0, n)
        vals = jets.taylor_values(F, a, p, x, order)
        assert vals.shape == (n,)
        for i in range(n):
            expect = _scalar_taylor(F, a[i], int(p[i]), float(x[i]), int(order[i]))
            assert vals[i] == expect and math.copysign(1.0, vals[i]) == math.copysign(1.0, expect)
            assert jets.taylor_values(F, a[i], int(p[i]), float(x[i]), int(order[i])) == expect

    def test_broadcast_and_empty_range(self, exp_jet):
        xs = np.linspace(-1.0, 2.0, 7)
        vals = jets.taylor_values(exp_jet, 0.0, 5, xs, 2)
        assert np.array_equal(vals, [_scalar_taylor(exp_jet, 0.0, 5, x, 2) for x in xs])
        assert np.array_equal(jets.taylor_values(exp_jet, 1.0, 3, xs, 4), np.zeros(7))
        assert jets.taylor_values(exp_jet, 1.0, 3, 0.5, 4) == 0.0
        # closed forms: T^0 of exp, T^2 of exp at 1, and T^3 of x^3 is x^3
        assert jets.taylor_values(exp_jet, 0.0, 0, 5.0, 0) == 1.0
        assert jets.taylor_values(exp_jet, 0.0, 2, 1.0, 0) == 2.5
        cube = jets.sample_jet({"kind": "polynomial", "coeffs": [0, 0, 0, 1]},
                               jets.CompactSet1D(points=(0.0,)), 8)
        xs = np.array([-1.3, 0.4, 2.0])
        assert jets.taylor_values(cube, 0.0, 3, xs, 0) == pytest.approx(xs ** 3, rel=1e-13)

    def test_order_exceeded(self, exp_jet):
        with pytest.raises(OrderExceeded):
            jets.taylor_values(exp_jet, [0.0, 1.0], [3, 13], 0.5, 0)
