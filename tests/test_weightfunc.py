import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import gammaincc

from ultrajet import descend
from ultrajet import seqcalc as sq
from ultrajet import serial
from ultrajet import weightfunc as wf
from ultrajet.errors import ConjugateUnbounded, SequenceSpecError
from ultrajet.report import (FAILS, HOLDS, INCONCLUSIVE, NOT_WITNESSED,
                             report_from_log_witnesses)


def _pointwise_ordered(mat, tol=1e-9):
    """Each row's log M and log mu lie below the next row's, within ``tol``."""
    return all(np.all(a.log_M <= b.log_M + tol) and np.all(a.log_mu <= b.log_mu + tol)
               for a, b in zip(mat.rows[:-1], mat.rows[1:]))


# bracket width, relative to max(1, y), at which the oracle's search stops
_ORACLE_REL_TOL = 1e-10


def _young_conjugate_oracle(w, x):
    """phi*(x) by numerical search on one x: bracket doubling, then ternary
    steps; valid for a convex phi, whose conjugand is concave."""
    if x == 0.0:
        return 0.0
    f = lambda y: x * y - float(w.phi(y))
    y_hi = 1.0
    while f(2.0 * y_hi) >= f(y_hi):
        y_hi *= 2.0
    y_hi, y_lo = 2.0 * y_hi, 0.0
    while y_hi - y_lo > _ORACLE_REL_TOL * max(1.0, y_hi):
        m1 = y_lo + (y_hi - y_lo) / 3.0
        m2 = y_hi - (y_hi - y_lo) / 3.0
        if f(m1) < f(m2):
            y_lo = m1
        else:
            y_hi = m2
    return max(0.0, f(0.5 * (y_lo + y_hi)))


class TestYoungConjugate:
    def test_omega2_closed_form_points(self):
        w = wf.omega_s(2)
        assert wf.young_conjugate(w, 2.0) == pytest.approx(1.0, abs=1e-9)
        assert wf.young_conjugate(w, 4.0) == pytest.approx(4.0, abs=1e-9)
        assert wf.young_conjugate(w, 0.0) == 0.0

    def test_brute_force_grid_max(self):
        # oracle: dense grid max of 4y - y^2
        w = wf.omega_s(2)
        ys = np.linspace(0, 10, 200_001)
        assert wf.young_conjugate(w, 4.0) == pytest.approx(
            float(np.max(4.0 * ys - ys ** 2)), abs=1e-8)

    @pytest.mark.parametrize("s", [1.5, 2.0, 2.5, 3.0])
    def test_closed_form_agreement(self, s):
        w = wf.omega_s(s)
        for x in np.geomspace(0.1, 50, 30):
            assert wf.young_conjugate(w, float(x)) == pytest.approx(
                _young_conjugate_oracle(w, float(x)), rel=1e-12)

    def test_unbounded_for_slow_table(self):
        # omega ~ log t: phi linear, conjugate diverges past the slope
        w = wf.omega_table([(1.0, 0.0), (math.e, 1.0), (math.e ** 4, 4.0),
                            (math.e ** 8, 8.0)])
        with pytest.raises(ConjugateUnbounded):
            wf.young_conjugate(w, 5.0)

    def test_finite_at_the_last_slope(self):
        # phi = 3 + 2 (y - 2) past the last knot: at x = 2, x y - phi(y) is
        # 0 at y = 0 and 1 from y = 1 on
        w = wf.omega_table([(1, 0), (math.e, 1), (math.e ** 2, 3)])
        assert wf.young_conjugate(w, w.last_slope) == pytest.approx(1.0, rel=1e-15)

    def test_table_must_be_convex_in_log_t(self):
        # slopes 2, 1, 3 in log t: phi bends down at the knot t = e
        with pytest.raises(SequenceSpecError, match=r"slope drops from 2 to 1 at "
                                                    r"knot t = 2\.71828") as exc:
            wf.omega_table([(1.0, 0.0), (math.e, 2.0), (math.e ** 2, 3.0),
                            (math.e ** 3, 6.0)])
        assert exc.value.code == "NON_LOGCONVEX"

    def test_table_vanishes_on_the_unit_interval(self):
        # knots from log t = 0.5 gain the knot (1, 0): phi(0) = 0, not the
        # first knot's value held to the left
        w = wf.omega_table([(math.exp(u), u ** 2.2) for u in np.linspace(0.5, 40, 60)])
        assert w.phi(0.0) == 0.0 and w.phi(-3.0) == 0.0 and w(0.5) == 0.0
        assert (w.table_log_t[0], w.table_w[0]) == (0.0, 0.0)
        assert wf.young_conjugate(w, 0.0) == 0.0
        with pytest.raises(SequenceSpecError, match=r"at t = 0\.5") as exc:
            wf.omega_table([(0.5, 0.1), (math.e, 1.0), (math.e ** 2, 3.0)])
        assert exc.value.code == "NOT_NORMALIZED"

    def test_negative_x_is_coded(self):
        with pytest.raises(SequenceSpecError) as exc:
            wf.young_conjugate(wf.omega_s(2), np.array([1.0, -0.5]))
        assert exc.value.code == "NON_POSITIVE"

    @pytest.mark.parametrize("w", [
        wf.omega_s(2), wf.omega_s(2.6),
        wf.omega_table([(1.0, 0.0)] + [(math.exp(u), u ** 2)
                                       for u in np.linspace(0.05, 40, 300)])],
        ids=["omega_2", "omega_2.6", "table"])
    def test_array_form_matches_scalar_form(self, w):
        xs = np.concatenate([[0.0], np.geomspace(0.01, 60, 97)]).reshape(7, 14)
        batch = wf.young_conjugate(w, xs)
        assert batch.shape == xs.shape
        scalar = np.array([wf.young_conjugate(w, float(x)) for x in xs.ravel()])
        if w.kind == "table":
            # phi is linear between knots: a y grid holding every knot gives
            # the exact max (past the last knot the conjugand falls, x < 80)
            ys = np.union1d(np.linspace(0.0, w.table_log_t[-1], 20_001), w.table_log_t)
            oracle = np.maximum(0.0, np.max(np.multiply.outer(xs.ravel(), ys)
                                            - w.phi(ys), axis=1))
        else:
            oracle = np.array([_young_conjugate_oracle(w, float(x)) for x in xs.ravel()])
        assert np.allclose(batch.ravel(), scalar, rtol=1e-12, atol=0.0)
        assert np.allclose(batch.ravel(), oracle, rtol=1e-12, atol=0.0)
        assert batch[0, 0] == 0.0

    @given(x=st.floats(min_value=0.01, max_value=30.0),
           y=st.floats(min_value=0.0, max_value=60.0))
    @settings(max_examples=200, deadline=None)
    def test_fenchel_inequality(self, x, y):
        w = wf.omega_s(2)
        assert x * y <= float(w.phi(y)) + wf.young_conjugate(w, x) + 1e-7


class TestMatrix:
    def test_closed_form_w2(self, omega2_matrix):
        i = omega2_matrix.params.index(1.0)
        assert math.exp(omega2_matrix.rows[i].log_M[2]) == pytest.approx(math.e)

    def test_rows_pointwise_ordered(self, omega2_matrix):
        assert _pointwise_ordered(omega2_matrix)

    def test_lemma_2_6_pairs(self, omega2_matrix):
        mat = omega2_matrix
        for i, x in enumerate(mat.params):
            if 4 * x not in mat.params:
                continue
            j = mat.params.index(4 * x)
            a, b = mat.rows[i], mat.rows[j]
            for k in range(2, mat.K // 2):
                assert a.log_mu[2 * k - 1] <= b.log_mu[k - 1] + 1e-9

    def test_eq_3_4_some_H(self, omega2_matrix):
        # rho^k W^x <= C W^{Hx} for rho = 2 and some H <= 64 in the grid
        mat = omega2_matrix
        k = np.arange(mat.K + 1)
        for i, x in enumerate(mat.params[:4]):
            found = False
            for H in (2, 4, 8, 16, 32, 64):
                if H * x not in mat.params:
                    continue
                j = mat.params.index(H * x)
                gap = k * math.log(2) + mat.rows[i].log_M - mat.rows[j].log_M
                if np.max(gap) < 60:
                    found = True
                    break
            assert found, f"no H works for x={x}"

    def test_prop_5_14_item3_exact(self):
        # theta_{k+1}^{s,rho} <= (W_k^{s,6 rho})^{1/k}
        for rho in (0.5, 1.0, 2.0, 4.0):
            mat = wf.associated_matrix(wf.omega_s(2), params=[rho, 6 * rho], K=256)
            row, row6 = mat.rows
            for k in range(1, 257):
                assert row.log_mu[k] <= row6.log_M[k] / k + 1e-9 if k < 256 else True

    def test_eq_5_20_power_gaps(self):
        for r in (1.1, 1.5, 2.0):
            k = np.arange(1, 513, dtype=float)
            gaps = (k + 1) ** r - k ** r
            assert np.all(r * k ** (r - 1) <= gaps + 1e-12)
            assert np.all(gaps <= r * (k + 1) ** (r - 1) + 1e-12)

    def test_table_based_matrix(self):
        w = wf.omega_table([(1.0, 0.0)] + [(math.exp(u), u ** 2)
                                           for u in np.linspace(0.05, 40, 300)])
        mat = wf.associated_matrix(w, params=[0.5, 1.0, 2.0], K=32)
        assert _pointwise_ordered(mat)

    def test_params_and_rows_must_match(self):
        g2, g3 = sq.gevrey(2, K=16), sq.gevrey(3, K=16)
        with pytest.raises(SequenceSpecError, match="2 rows but 1 params") as exc:
            wf.matrix_from_rows([g2, g3], params=[1.0])
        assert exc.value.code == "PARAMS_MISMATCH"
        spec = {"kind": "rows", "K": 16, "params": [1.0, 2.0, 3.0],
                "rows": [{"family": "gevrey", "params": {"s": s}} for s in (2, 3)]}
        with pytest.raises(SequenceSpecError) as exc:
            serial.matrix_from_spec(spec)
        assert exc.value.code == "PARAMS_MISMATCH"

    def test_table_past_its_slope_is_named(self):
        # omega = (log t)^2.2 on 60 knots up to log t = 40: phi's last slope
        # is 182.2, so at K = 128 only x <= 1.42 has a finite phi*(x k)
        w = wf.omega_table([(math.exp(u), u ** 2.2) for u in np.linspace(0.5, 40, 60)])
        assert w.last_slope == pytest.approx(182.19, abs=0.01)
        with pytest.raises(ConjugateUnbounded,
                           match=r"x k > 182\.187, the slope of phi past the table's "
                                 r"last log t = 40; at K = 128 x must be <= 1\.42333, "
                                 r"got x = 64"):
            wf.associated_matrix(w, K=128)
        params = [0.125, 0.25, 0.5, 1.0]
        mat = wf.associated_matrix(w, params=params, K=128)
        assert len(mat.rows) == 4 and _pointwise_ordered(mat)
        k = np.arange(129, dtype=float)
        for x, row in zip(params, mat.rows):
            assert np.allclose(row.log_M, wf.young_conjugate(w, x * k) / x,
                               rtol=1e-9, atol=1e-12)


def _comparability_oracle(rows, K):
    """Def 4.6 item 1 pair by pair: both directions' reports, the holding one
    with the smaller witness, ties to i -> j, else j -> i."""
    out = {}
    for i, a in enumerate(rows):
        for j in range(i + 1, len(rows)):
            fwd = report_from_log_witnesses(a.log_mu - rows[j].log_mu, K)
            bwd = report_from_log_witnesses(rows[j].log_mu - a.log_mu, K)
            best = fwd if fwd.log_witness <= bwd.log_witness else bwd
            if best.verdict != HOLDS:
                best = fwd if fwd.holds else bwd
            out[i, j] = best
    return out


def _crossing(row, h):
    """``row`` with log mu raised by h on (K/2, 5K/8], then held flat until
    the row's own log mu passes it by h: a - b runs 0, -h, then up to h."""
    log_mu = np.array(row.log_mu)
    K = len(log_mu)
    out = log_mu.copy()
    out[K // 2:5 * K // 8] += h
    out[5 * K // 8:] = np.maximum(log_mu[5 * K // 8:] - h, out[5 * K // 8 - 1])
    return sq.from_log_quotients(out, f"crossing({h:g})")


_Q = sq.qgevrey(1.2, K=64)
# pair (0, 1) is INCONCLUSIVE, pairs (0, 2) and (1, 2) FAIL
_CROSSING_ROWS = [_Q, _crossing(_Q, 0.4), _crossing(_Q, 3.0)]


@st.composite
def _rows(draw):
    """1-6 rows of gevrey, qgevrey and powerlog, some of them scaled."""
    K = draw(st.integers(8, 96))
    row = st.one_of(
        st.builds(lambda s: sq.gevrey(s, K=K), st.floats(0.5, 4)),
        st.builds(lambda q: sq.qgevrey(q, K=K), st.floats(1.01, 3)),
        st.builds(lambda A, p: sq.powerlog(A, p, K=K), st.floats(1.01, 5), st.floats(1, 2.5)))
    scale = st.one_of(st.just(None), st.floats(0.1, 10))
    return [r if c is None else r.scaled(c)
            for r, c in draw(st.lists(st.tuples(row, scale), min_size=1, max_size=6))]


class TestAdmissibility:
    def test_comparability_reports_largest_witness(self):
        # pairs (0, 1), (0, 2), (1, 2) need 1/3, 0.5 and 1/6
        g = sq.gevrey(2, K=128)
        adm = wf.check_admissible_matrix(wf.matrix_from_rows([g, g.scaled(3), g.scaled(0.5)]))
        assert adm["4.6-1"].verdict == HOLDS
        assert adm["4.6-1"].log_witness == pytest.approx(math.log(0.5), rel=1e-9)

    def test_comparability_reports_first_failing_pair(self):
        adm = wf.check_admissible_matrix(wf.matrix_from_rows(_CROSSING_ROWS))
        assert adm["4.6-1"].verdict == FAILS
        assert adm["4.6-1"].log_witness == pytest.approx(3.0, rel=1e-9)

    @given(rows=_rows())
    @example(rows=_CROSSING_ROWS)
    @settings(max_examples=60, deadline=None)
    def test_comparability_matches_pair_oracle(self, rows):
        K = rows[0].K
        pairs = _comparability_oracle(rows, K)
        for (i, j), want in pairs.items():
            got = wf.check_admissible_matrix(wf.matrix_from_rows([rows[i], rows[j]]))["4.6-1"]
            assert (got.verdict, got.log_witness) == (want.verdict, want.log_witness)
        # the first FAILS pair, else the first INCONCLUSIVE, else the largest witness
        bad = [r for v in (FAILS, INCONCLUSIVE) for r in pairs.values() if r.verdict == v]
        want = bad[0] if bad else max(pairs.values(), key=lambda r: r.log_witness,
                                      default=None)
        got = wf.check_admissible_matrix(wf.matrix_from_rows(rows))["4.6-1"]
        if want is None:
            assert (got.verdict, got.log_witness) == (HOLDS, 0.0)
        else:
            assert (got.verdict, got.log_witness, got.counterexample_index) == (
                want.verdict, want.log_witness, want.counterexample_index)

    def test_omega2_all_hold(self, omega2_matrix):
        adm = wf.check_admissible_matrix(omega2_matrix)
        assert all(r.verdict == HOLDS for r in adm.values())

    def test_gevrey2_singleton(self, gevrey2):
        mat = wf.matrix_from_rows([gevrey2], params=[1.0])
        adm = wf.check_admissible_matrix(mat)
        assert all(r.verdict == HOLDS for r in adm.values())

    def test_qgevrey_singleton_not_witnessed(self, qgevrey2):
        mat = wf.matrix_from_rows([qgevrey2], params=[1.0])
        adm = wf.check_admissible_matrix(mat)
        assert adm["4.6-4"].verdict == NOT_WITNESSED

    def test_quotient_regularity_reports_first_failing_row(self):
        # omega_s(1.8): rows x = 1/4..1 are INCONCLUSIVE and rows x >= 2 FAIL
        # by trend; the report is the first FAILS row, as in item (1)
        mat = wf.associated_matrix(wf.omega_s(1.8), K=512)
        per_row = [descend.check_43(r) for r in mat.rows]
        verdicts = [r.verdict for r in per_row]
        first_fail = verdicts.index(FAILS)
        assert INCONCLUSIVE in verdicts[:first_fail]
        assert wf.check_admissible_matrix(mat)["4.6-3"] == per_row[first_fail]

    def test_quasianalytic_row_fails_item2(self, gevrey1, gevrey2):
        # (4.3) presumes non-quasianalyticity: the gevrey(1) row is skipped
        adm = wf.check_admissible_matrix(wf.matrix_from_rows([gevrey1, gevrey2]))
        assert adm["4.6-2"].verdict == FAILS
        assert adm["4.6-3"].verdict == HOLDS
        assert adm["4.6-3"].note.endswith("skipped quasianalytic rows [0]")


_LINEAR_TABLE = [(1.0, 0.0), (2.0, 1.0), (10.0, 9.0), (100.0, 99.0),
                 (1e4, 1e4 - 1), (1e8, 1e8 - 1)]


class TestOmegaNonquasianalytic:
    def test_omega2_converges(self):
        reps = wf.check_omega_nonquasianalytic(wf.omega_s(2))
        assert reps["integral"].verdict == HOLDS
        assert reps["averaged"].verdict == HOLDS
        assert reps["averaged"].details["A"] >= 1.0
        assert np.isfinite(reps["averaged"].details["B"])

    def test_omega3_converges(self):
        reps = wf.check_omega_nonquasianalytic(wf.omega_s(3))
        assert reps["integral"].verdict == HOLDS

    def test_linear_table_diverges(self):
        reps = wf.check_omega_nonquasianalytic(wf.omega_table(_LINEAR_TABLE))
        assert reps["integral"].verdict == FAILS

    @pytest.mark.parametrize("s", [1.2, 1.5, 2.0, 2.37, 3.0])
    def test_integral_is_incomplete_gamma(self, s):
        # int_1^inf (log t)^s / t^2 dt = int_0^inf y^s e^{-y} dy = Gamma(s+1),
        # the incomplete gamma integral taken to infinity
        reps = wf.check_omega_nonquasianalytic(wf.omega_s(s))
        assert reps["integral"].log_witness == pytest.approx(math.lgamma(s + 1),
                                                              rel=0, abs=1e-12)
        A = 2.0 ** (s - 1)
        assert reps["averaged"].details["A"] == pytest.approx(A, rel=1e-15)
        assert reps["averaged"].details["B"] == pytest.approx(A * math.gamma(s + 1),
                                                              rel=1e-15)
        assert reps["averaged"].log_witness == pytest.approx(math.log(A), rel=1e-15)

    @given(s=st.floats(min_value=1.0, max_value=4.0, exclude_min=True),
           t=st.floats(min_value=1.0, max_value=1e6))
    @example(s=4.0, t=1e6)
    @settings(max_examples=200, deadline=None)
    def test_averaged_bound_against_incomplete_gamma(self, s, t):
        # int_1^inf omega_s(t y)/y^2 dy = int_0^inf (a + u)^s e^{-u} du
        # = e^a Gamma(s+1, a), a = log t
        a = math.log(t)
        exact = math.exp(a) * math.gamma(s + 1) * gammaincc(s + 1, a)
        det = wf.check_omega_nonquasianalytic(wf.omega_s(s))["averaged"].details
        assert exact <= (det["A"] * a ** s + det["B"]) * (1 + 1e-12)

    @pytest.mark.parametrize("w", [
        wf.omega_s(1.5), wf.omega_s(2.0), wf.omega_s(3.0),
        wf.omega_table([(math.exp(u), u ** 2.2) for u in np.linspace(0.5, 40, 60)])],
        ids=["omega_1.5", "omega_2", "omega_3", "table_60_knots"])
    def test_averaged_integrals_match_quad(self, w):
        # quad is the oracle: the averaged integral lies below the reported
        # A omega(t) + B, and a table's knot intervals match their closed forms
        det = wf.check_omega_nonquasianalytic(w)["averaged"].details
        hi = 64.0
        for t in np.concatenate([[1.5], np.geomspace(4.0, 1e6, 25)]):
            y0 = math.log(t)
            cut = w.table_log_t - y0 if w.kind == "table" else None
            ref, _ = quad(lambda u: float(w.phi(y0 + u)) * math.exp(-u), 0.0, hi,
                          points=None if cut is None else cut[(cut > 0) & (cut < hi)],
                          limit=500, epsabs=0.0, epsrel=1e-12)
            assert ref <= (det["A"] * w(t) + det["B"]) * (1 + 1e-12)
        if w.kind == "table":
            y = w.table_log_t
            pieces, tail = wf._table_integrals(w)
            for lo, up, got in zip(y[:-1], y[1:], pieces):
                ref, _ = quad(lambda u: float(w.phi(u)) * math.exp(-u), lo, up,
                              epsabs=0.0, epsrel=1e-13)
                assert got == pytest.approx(ref, rel=1e-13)
            ref, _ = quad(lambda u: float(w.phi(u)) * math.exp(-u), y[-1], math.inf,
                          epsabs=0.0, epsrel=1e-12)
            assert tail == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("w, head", [
        (wf.omega_s(2), [(HOLDS, 0, None), (HOLDS, 0, None, 2.0)]),
        (wf.omega_s(3), [(HOLDS, 0, None), (HOLDS, 0, None, 4.0)]),
        (wf.omega_table(_LINEAR_TABLE), [(FAILS, 6, 5), (FAILS, 6, 5, 1.0)]),
    ], ids=["omega_2", "omega_3", "linear_table"])
    def test_verdicts_as_adaptive_quadrature(self, w, head):
        # the verdicts the adaptive-quadrature version of the check gave; the
        # prefix is the table's knot count (0 for omega_s, nothing sampled),
        # and A is the closed form's
        reps = wf.check_omega_nonquasianalytic(w)
        got = [(r.verdict, r.prefix_K, r.counterexample_index)
               for r in (reps["integral"], reps["averaged"])]
        assert got[0] == head[0]
        assert got[1] + (reps["averaged"].details["A"],) == head[1]

    @pytest.mark.parametrize("T, verdict, remainder", [
        (1e4, INCONCLUSIVE, 1.03e-2), (1e8, INCONCLUSIVE, 3.76e-6),
        (1e12, HOLDS, 8.18e-10), (1e20, HOLDS, 2.21e-17)])
    def test_log_squared_table_never_fails(self, T, verdict, remainder):
        # omega = (log t)^2 at 40 geometric knots up to T: the integral is 2;
        # a table that stops early reads INCONCLUSIVE, never FAILS, and its
        # averaged bound follows the integral's verdict
        t = np.geomspace(1.0, T, 40)
        reps = wf.check_omega_nonquasianalytic(wf.omega_table(list(zip(t, np.log(t) ** 2))))
        assert [r.verdict for r in reps.values()] == [verdict, verdict]
        assert reps["integral"].details["remainder"] == pytest.approx(remainder, rel=1e-2)
        assert math.exp(reps["integral"].log_witness) == pytest.approx(2.0, rel=0.15)
        # B is the last slope, (y_n^2 - y_{n-1}^2)/(y_n - y_{n-1}) with y_n = log T
        # and y_{n-1} = (38/39) log T
        B = math.log(T) * 77 / 39
        assert reps["averaged"].details == {"A": 1.0, "B": pytest.approx(B, rel=1e-12)}


@pytest.mark.parametrize("spec, code", [
    ({"kind": "omega_s", "s": float("nan")}, "NON_POSITIVE"),
    ({"kind": "omega_s", "s": float("inf")}, "NON_POSITIVE"),
    ({"kind": "omega_s", "s": 1.0}, "NON_POSITIVE"),
    ({"kind": "table", "points": [[1, 0], [2, float("nan")]]}, "NON_POSITIVE"),
    ({"kind": "table", "points": [[1, 0], [2, float("inf")]]}, "NON_POSITIVE"),
    ({"kind": "table", "points": [[float("nan"), 0], [2, 1]]}, "NON_POSITIVE"),
    ({"kind": "table", "points": [[0.5, 0], [1, 0]]}, "NON_POSITIVE"),
    ({"kind": "table", "points": [[1, 0], [2, 0]]}, "NON_POSITIVE"),
    ({"kind": "omega_s"}, "BAD_SPEC"),
    ({"kind": "omega_s", "s": None}, "BAD_SPEC"),
    ({"kind": "table"}, "BAD_SPEC"),
    ({"kind": "table", "points": [[1, 0], [2]]}, "BAD_SPEC"),
    ({"kind": "table", "points": [[1, 0], ["two", 1]]}, "BAD_SPEC"),
    ({"kind": "table", "points": 3}, "BAD_SPEC"),
], ids=lambda v: v if isinstance(v, str) else None)
def test_bad_weight_function_spec_is_coded(spec, code):
    with pytest.raises(SequenceSpecError) as exc:
        serial.weight_function_from_spec(spec)
    assert exc.value.code == code
