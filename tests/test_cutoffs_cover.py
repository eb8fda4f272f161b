import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.special import polygamma

from ultrajet import descend as dsc
from ultrajet import seqcalc as sq
from ultrajet.errors import CutoffError, ExtensionError
from ultrajet.extend import cover as cov_mod
from ultrajet.extend import cutoffs, select_row_chain
from ultrajet.jets import CompactSet1D


@pytest.fixture(scope="module")
def gev2_family():
    g2 = sq.gevrey(2, K=512)
    D = dsc.descend(g2, K_eff=256)
    return cutoffs.make_cutoff_family(D, g2)


@pytest.fixture(scope="module")
def omega2_family(omega2_matrix):
    chain = select_row_chain(omega2_matrix, 0, 256)
    return cutoffs.make_cutoff_family(chain.S_dot, chain.ddot)


class TestAlphaSequence:
    def test_alpha_zero_is_one(self, gev2_family):
        fam = gev2_family
        for p in (1, 2, 5):
            a = cutoffs.alpha_sequence(fam.D, fam.Ndot, p, fam.A)
            assert a.log_alpha[0] == 0.0

    def test_ratio_sum_reads_the_growth_row_tail(self, gev2_family):
        # past the stored k < 255 the ratios are sigma*_{p+1} / (A (k+1)^2):
        # their sum is sigma*_{p+1} / A times psi'(256)
        fam = gev2_family
        for p in (1, 8, 64):
            a = cutoffs.alpha_sequence(fam.D, fam.Ndot, p, 32.0)
            stored = np.sum(np.exp(a.log_alpha[:-1] - a.log_alpha[1:]))
            past = math.exp(fam.D.log_sigma_star[p]) / 32.0 * float(polygamma(1, 256))
            assert a.ratio_sum == pytest.approx(stored + past, rel=1e-12)

    def test_lattice_values(self, gev2_family):
        # alpha_k = (2p)^k below the order: p=2, k=1 -> 4
        fam = gev2_family
        a = cutoffs.alpha_sequence(fam.D, fam.Ndot, 2, fam.A)
        assert math.exp(a.log_alpha[1]) == pytest.approx(4.0, rel=1e-12)

    def test_ratio_sum_within_one(self, gev2_family):
        fam = gev2_family
        for p in (1, 2, 4, 8, 16, 32):
            a = cutoffs.alpha_sequence(fam.D, fam.Ndot, p, fam.A)
            assert a.valid and a.ratio_sum <= 1.0 + 1e-12

    def test_too_small_A_detected(self, gev2_family):
        fam = gev2_family
        a = cutoffs.alpha_sequence(fam.D, fam.Ndot, 4, 0.25)
        assert not a.valid

    def test_order_below_one_is_coded(self, gev2_family):
        fam = gev2_family
        with pytest.raises(CutoffError) as err:
            cutoffs.alpha_sequence(fam.D, fam.Ndot, 0, fam.A)
        assert err.value.code == "BAD_INDEX"


class TestBuildCutoff:
    @pytest.mark.parametrize("eps", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("t", [1.5, 2.0, 4.0])
    def test_acceptance_grid(self, gev2_family, eps, t):
        res = cutoffs.build_cutoff(gev2_family, eps, t)
        rep = cutoffs.verify_cutoff(gev2_family, res, orders=range(0, 9))
        assert rep["range_ok"] and rep["plateau_ok"] and rep["support_exact"]
        assert rep["bound_ok"]
        assert all(o["violations"] == 0 for o in rep["orders"].values()
                   if o["checked"])

    def test_endpoint_values(self, gev2_family):
        res = cutoffs.build_cutoff(gev2_family, 1.0, 2.0)
        assert res.pp(0.0) == 1.0
        assert res.pp(2.0) == 0.0 and res.pp(-2.0) == 0.0

    def test_depth_guard(self, gev2_family):
        with pytest.raises(CutoffError) as err:
            cutoffs.build_cutoff(gev2_family, 1.0, 2.0, min_smoothness=200)
        assert err.value.code == "DEPTH_INSUFFICIENT"

    def test_piece_ceiling(self, gev2_family, monkeypatch):
        # eps = 10^1.5 is order p = 12: at full depth each late box pass
        # doubles the pieces (106,495 at the end), so a low ceiling trips
        monkeypatch.setattr(cutoffs, "MAX_CUTOFF_PIECES", 1000)
        eps = 10.0 ** 1.5
        with pytest.raises(CutoffError, match=r"order p=12 .*min_smoothness") as err:
            cutoffs.build_cutoff(gev2_family, eps, 1.5)
        assert err.value.code == "TOO_MANY_PIECES"
        res = cutoffs.build_cutoff(gev2_family, eps, 1.5, min_smoothness=6)
        assert res.p == 12 and len(res.pp.coeffs) <= 1000

    def test_invalid_inputs(self, gev2_family):
        for eps, t in ((1.0, 1.0), (0.0, 2.0), (-1.0, 2.0)):
            with pytest.raises(CutoffError) as err:
                cutoffs.build_cutoff(gev2_family, eps, t)
            assert err.value.code == "NON_POSITIVE"

    # Orders move with log10 eps on these windows: [-1, 3.5] for gevrey(2),
    # [3.5, 8] for the omega_2 chain (both reach p_cap = 64 and p = 1).
    @given(data=st.data(), which=st.sampled_from(["gev2", "omega2"]),
           t=st.sampled_from([1.5, 2.0]), smooth=st.integers(2, 6))
    @settings(max_examples=40, deadline=None)
    def test_equal_order_equal_spline(self, gev2_family, omega2_family,
                                      data, which, t, smooth):
        fam, lo, hi = ((gev2_family, -1.0, 3.5) if which == "gev2"
                       else (omega2_family, 3.5, 8.0))
        e1 = data.draw(st.floats(lo, hi))
        e2 = e1 + data.draw(st.floats(-0.3, 0.3))
        eps1, eps2 = 10.0 ** e1, 10.0 ** e2
        assume(eps1 != eps2)
        assume(cutoffs.cutoff_order(fam, eps1, t) == cutoffs.cutoff_order(fam, eps2, t))
        a = cutoffs.build_cutoff(fam, eps1, t, min_smoothness=smooth).pp
        b = cutoffs.build_cutoff(fam, eps2, t, min_smoothness=smooth).pp
        assert np.array_equal(a.breakpoints, b.breakpoints)
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_omega2_chain_cutoff(self, omega2_matrix):
        mat = omega2_matrix
        Ddot = dsc.descend(mat.rows[mat.params.index(1.0)], K_eff=256)
        fam = cutoffs.make_cutoff_family(Ddot, mat.rows[mat.params.index(8.0)])
        res = cutoffs.build_cutoff(fam, 1.0, 1.5, min_smoothness=6)
        rep = cutoffs.verify_cutoff(fam, res, orders=range(0, 7))
        assert rep["range_ok"] and rep["plateau_ok"] and rep["bound_ok"]


def _measure_loop(cov):
    """(a, b, n0) of a cover by one probe linspace and one overlap count per
    ball."""
    lo, hi = cov.working
    a, b = math.inf, 0.0
    for (cx, r) in cov.balls:
        edge = cov_mod.OVERLAP_C * r
        probes = np.linspace(cx - edge, cx + edge, 17)
        ratios = cov.E.distance(probes[(probes > lo) & (probes < hi)]) / r
        a, b = min(a, float(ratios.min())), max(b, float(ratios.max()))
    arr = np.array(cov.balls)
    n0 = 0
    for (cx, r) in cov.balls:
        li, hi_i = cx - cov_mod.OVERLAP_C * r, cx + cov_mod.OVERLAP_C * r
        n0 = max(n0, int(np.sum((arr[:, 0] - cov_mod.OVERLAP_C * arr[:, 1] < hi_i)
                                & (arr[:, 0] + cov_mod.OVERLAP_C * arr[:, 1] > li))))
    return a, b, n0


_coords = st.floats(-4.0, 4.0, allow_nan=False)


@st.composite
def _compact_sets(draw):
    points = draw(st.lists(_coords, max_size=4))
    ends = sorted(set(draw(st.lists(_coords, max_size=4))))
    intervals = list(zip(ends[::2], ends[1::2]))
    assume(points or intervals)
    return CompactSet1D(points=points, intervals=intervals)


class TestWhitneyCover:
    @pytest.mark.parametrize("pts", [(0.0,), (0.0, 1.0), (0.0, 0.1, 1.0)])
    def test_cover_constants(self, pts):
        cov = cov_mod.whitney_cover(CompactSet1D(points=pts), d_min=1e-6)
        assert cov.n0 <= 5
        assert 0 < cov.a < cov.b
        # distance comparability within every inflated interval
        for (cx, r) in cov.balls[:: max(1, len(cov.balls) // 20)]:
            probes = np.linspace(cx - cov.c * r, cx + cov.c * r, 11)
            inside = (probes > cov.working[0]) & (probes < cov.working[1])
            d = cov.E.distance(probes[inside])
            assert np.all(d >= cov.a * r - 1e-15)
            assert np.all(d <= cov.b * r + 1e-15)

    @settings(max_examples=60, deadline=None)
    @given(E=_compact_sets(), d_min=st.sampled_from([1e-2, 1e-3, 1e-5]))
    def test_measure_equals_ball_loops(self, E, d_min):
        # coverage is not this test's subject (see test_short_interior_gap_is_covered)
        with mock.patch.object(cov_mod, "_verify_coverage", lambda cov: None):
            cov = cov_mod.whitney_cover(E, d_min=d_min)
        assert (cov.a, cov.b, cov.n0) == _measure_loop(cov)

    def test_coverage_probes(self):
        E = CompactSet1D(points=(0.0, 1.0))
        cov = cov_mod.whitney_cover(E, d_min=1e-6)
        xs = np.linspace(cov.working[0], cov.working[1], 1000)
        need = E.distance(xs) >= cov.d_min
        assert np.all(cov.covers(xs)[need])

    def test_gap_is_coded(self):
        cov = cov_mod.whitney_cover(CompactSet1D(points=(0.0,)), d_min=1e-6)
        widest = max(cov.balls, key=lambda b: b[1])
        gappy = dataclasses.replace(cov, balls=tuple(b for b in cov.balls if b != widest))
        with pytest.raises(ExtensionError) as exc:
            cov_mod._verify_coverage(gappy)
        assert exc.value.code == "COVER_INCOMPLETE"

    def test_non_positive_d_min_is_coded(self):
        for d_min in (0.0, -1e-3):
            with pytest.raises(ExtensionError) as exc:
                cov_mod.whitney_cover(CompactSet1D(points=(0.0,)), d_min=d_min)
            assert exc.value.code == "NON_POSITIVE"

    def test_single_point_symmetric(self):
        cov = cov_mod.whitney_cover(CompactSet1D(points=(0.0,)), d_min=1e-6)
        centers = np.array([b[0] for b in cov.balls])
        assert np.allclose(np.sort(centers), np.sort(-centers))
        assert cov.n0 <= 3

    def test_short_interior_gap_is_covered(self):
        cov_mod.whitney_cover(CompactSet1D(points=(1.90625,), intervals=((0.0, 1.875),)),
                              d_min=0.01)

    @settings(max_examples=60, deadline=None)
    @given(ratio=st.floats(2.0, 3.999), d_min=st.sampled_from([1e-2, 1e-4, 1e-6]))
    def test_short_interior_gap_interval(self, ratio, d_min):
        # one interval reaches every point of the gap with d >= d_min, and its
        # c-inflated interval stays off E, for every length in [2, 4) d_min
        length = ratio * d_min
        E = CompactSet1D(points=(0.0, length))
        cov = cov_mod.whitney_cover(E, d_min=d_min)
        assert cov.degenerate_gaps == ((0.0, length),)
        (cx, r), = [b for b in cov.balls if 0.0 < b[0] < length]
        xs = np.linspace(0.0, length, 4001)
        assert np.all(np.abs(xs[E.distance(xs) >= d_min] - cx) < r)
        assert 0.0 < cx - cov.c * r and cx + cov.c * r < length

    def test_short_gap_single_interval(self):
        E = CompactSet1D(points=(0.0, 3e-6))
        cov = cov_mod.whitney_cover(E, d_min=1e-6)
        assert cov.degenerate_gaps == ((0.0, 3e-6),)

    def test_interval_component(self):
        E = CompactSet1D(points=(2.0,), intervals=((0.0, 1.0),))
        cov = cov_mod.whitney_cover(E, d_min=1e-5)
        xs = np.linspace(-1.9, 3.9, 800)
        need = E.distance(xs) >= cov.d_min
        assert np.all(cov.covers(xs)[need])
