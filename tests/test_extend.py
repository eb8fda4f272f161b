import functools
import math
from unittest import mock

import numpy as np
import pytest

from ultrajet import descend as dsc
from ultrajet import jets
from ultrajet import seqcalc as sq
from ultrajet import weightfunc as wf
from ultrajet.errors import ExtensionError
from ultrajet.extend import (ExtensionConfig, check_taylor_difference_bound,
                             cutoffs, extend_jet, partition_of_unity,
                             select_row_chain, verify_partition, whitney_cover)
from hypothesis import example, given, settings, strategies as st

from ultrajet.extend.cover import OVERLAP_C
from ultrajet.extend import operator, ppoly
from ultrajet.extend.ppoly import PiecewisePolynomial, constant_on
from ultrajet.extend.operator import fit_rho, h_power_constant, search_lambda


def _verify_partition_oracle(part, orders, n_probes=1000):
    """The scalar form of verify_partition: every phi evaluated per check,
    log h per (ball, order, probe)."""
    cov = part.cover
    lo, hi = cov.working
    xs = np.linspace(lo, hi, n_probes)
    covered = cov.covers(xs) & (cov.E.distance(xs) >= cov.d_min)
    phis = part.phis.splines()
    s = sum(f(xs) for f in phis)
    out = {
        "sum_max_err": float(np.max(np.abs(s[covered] - 1.0))) if np.any(covered) else 0.0,
        "range_ok": all(bool(np.all((f(xs) >= -1e-12) & (f(xs) <= 1 + 1e-12)))
                        for f in phis),
    }
    sup_ok = True
    for f, (cx, r) in zip(phis, cov.balls):
        slo, shi = f.support()
        if slo < cx - cov.c * r - 1e-12 or shi > cx + cov.c * r + 1e-12:
            sup_ok = False
    out["support_ok"] = sup_ok
    worst = {k: -math.inf for k in orders}
    viol = {k: 0 for k in orders}
    d_all = cov.E.distance(xs)
    log_nd = np.concatenate([[0.0], np.cumsum(part.fam.Ndot.log_mu)])
    log_b1_eps = math.log(part.B1) + math.log(part.epsilon)
    for f in phis:
        slo, shi = f.support()
        sel = (xs > slo) & (xs < shi) & (d_all > 0)
        if not np.any(sel):
            continue
        for k in orders:
            if k > max(f.smoothness_order, 0) + 1:
                continue
            lhs = np.log(np.maximum(np.abs(f(xs[sel], order=k)), 1e-300))
            rhs = np.array([
                k * math.log(part.epsilon) + log_nd[k]
                - sq.log_h_assoc(part.landing_small_s, log_b1_eps + math.log(dv))
                for dv in d_all[sel]])
            viol[k] += int(np.sum(lhs > rhs + 1e-9))
            worst[k] = max(worst[k], float(np.max(lhs - rhs)))
    out["bound_violations"] = viol
    out["bound_margins"] = worst
    out["bound_ok"] = all(v == 0 for v in viol.values())
    return out


def _running_product_partition(cover, fam, epsilon, min_smoothness):
    """The partition functions by a running product over the working domain:
    phi_i = psi_i prod with prod = 1 - sum_{k<i} phi_k, one cutoff per order."""
    prod = constant_on(*cover.working)
    funcs, cache = [], {}
    for cx, r in cover.balls:
        eps_i = epsilon * r / cover.n0
        p = cutoffs.cutoff_order(fam, eps_i, OVERLAP_C)
        if p not in cache:
            cache[p] = cutoffs.build_cutoff(fam, eps_i, OVERLAP_C,
                                            min_smoothness=min_smoothness)
        phi = (cache[p].pp.compose_affine(cx, r) * prod).trimmed()
        prod = prod - phi
        funcs.append(phi)
    return funcs


def _per_ball_partition(cover, fam, epsilon, min_smoothness):
    """The partition functions one ball at a time: psi_i, clipped to the
    working domain where it leaves it, then phi_i <- phi_i - phi_i psi_k for
    each earlier k whose span meets psi_i's, each operation one spline."""
    lo_w, hi_w = cover.working
    window = constant_on(lo_w, hi_w)
    cache, psis = {}, []
    for cx, r in cover.balls:
        eps_i = epsilon * r / cover.n0
        p = cutoffs.cutoff_order(fam, eps_i, OVERLAP_C)
        if p not in cache:
            cache[p] = cutoffs.build_cutoff(fam, eps_i, OVERLAP_C,
                                            min_smoothness=min_smoothness)
        psis.append(cache[p].pp.compose_affine(cx, r))
    funcs = []
    for i, psi in enumerate(psis):
        lo, hi = psi.span
        phi = psi if lo_w <= lo and hi <= hi_w else psi * window
        for prev in psis[:i]:
            if prev.span[0] < hi and prev.span[1] > lo:
                phi = phi - phi * prev
        funcs.append(phi.trimmed())
    return funcs


_coords = st.sampled_from(np.round(np.linspace(-1.0, 1.0, 33), 6).tolist())


@st.composite
def _point_and_interval_sets(draw):
    points = draw(st.lists(_coords, max_size=4))
    ends = sorted(set(draw(st.lists(_coords, max_size=4))))
    intervals = list(zip(ends[::2], ends[1::2]))
    if not (points or intervals):
        points = [0.0]
    return jets.CompactSet1D(points=points, intervals=intervals)


@pytest.fixture(scope="module")
def gev2_matrix(gevrey2):
    return wf.matrix_from_rows([gevrey2], params=[1.0], origin="gevrey2-singleton")


@pytest.fixture(scope="module")
def gev2_family(gevrey2):
    D = dsc.descend(gevrey2, K_eff=256)
    return cutoffs.make_cutoff_family(D, gevrey2)


@pytest.fixture(scope="module")
def partition_zero(gev2_family):
    cov = whitney_cover(jets.CompactSet1D(points=(0.0,)), d_min=1e-5)
    return partition_of_unity(cov, gev2_family, epsilon=2.0, min_smoothness=6)


class TestPartition:
    def test_sum_to_one(self, partition_zero):
        rep = verify_partition(partition_zero, orders=(0, 1, 2, 3, 4))
        assert rep["sum_max_err"] < 1e-9
        assert rep["range_ok"] and rep["support_ok"] and rep["bound_ok"]

    @pytest.mark.parametrize("pts, d_min", [((0.0,), 1e-5), ((0.0, 0.1, 1.0), 1e-4)])
    def test_sum_is_one_on_covered(self, gev2_family, pts, d_min):
        # exactly 1, not 1 up to rounding: a covered probe lies where some
        # psi_k is exactly 1, and every later phi is exactly 0 there
        cov = whitney_cover(jets.CompactSet1D(points=pts), d_min=d_min)
        part = partition_of_unity(cov, gev2_family, epsilon=2.0, min_smoothness=6)
        xs = np.linspace(*cov.working, 700)
        covered = cov.covers(xs)
        assert np.any(covered)
        assert np.max(np.abs(1.0 - sum(f(xs) for f in part.phis.splines()))[covered]) == 0.0

    @pytest.mark.parametrize("E, d_min", [
        (jets.CompactSet1D(points=(0.0,)), 1e-5),
        (jets.CompactSet1D(points=(0.0, 0.1, 1.0)), 1e-4),
        (jets.CompactSet1D(points=(2.0,), intervals=((0.0, 1.0),)), 1e-4)])
    def test_local_products_equal_running_product(self, gev2_family, E, d_min):
        cov = whitney_cover(E, d_min=d_min)
        part = partition_of_unity(cov, gev2_family, epsilon=2.0, min_smoothness=4)
        oracle = _running_product_partition(cov, gev2_family, 2.0, 4)
        xs = np.linspace(*cov.working, 1000)
        lo_w, hi_w = cov.working
        phis = part.phis.splines()
        assert len(phis) == len(oracle) == len(cov.balls)
        for f, g in zip(phis, oracle):
            assert np.max(np.abs(f(xs) - g(xs))) <= 1e-14
            assert f.support() == pytest.approx(g.support(), abs=1e-12, rel=0)
            assert lo_w <= f.span[0] and f.span[1] <= hi_w

    @settings(max_examples=40, deadline=None)
    @given(E=_point_and_interval_sets(), d_min=st.sampled_from([1e-2, 1e-3, 1e-4]),
           epsilon=st.sampled_from([0.5, 2.0, 1e3]),
           entries=st.sampled_from([1, 16, 256, ppoly._BATCH_ENTRIES]))
    # the 73 balls of extend-interval with a cap of one coefficient: every
    # round of cuts runs one pass per ball
    @example(E=jets.CompactSet1D(points=(2.0,), intervals=((0.0, 1.0),)), d_min=1e-3,
             epsilon=2.0, entries=1)
    def test_batched_partition_equals_per_ball_loop(self, gev2_family, E, d_min, epsilon,
                                                    entries):
        # small caps split each round into many passes
        cov = whitney_cover(E, d_min=d_min)
        with mock.patch.object(ppoly, "_BATCH_ENTRIES", entries), \
                mock.patch.object(operator, "batch_cut", wraps=ppoly.batch_cut) as rounds, \
                mock.patch.object(ppoly, "_cut_pass", wraps=ppoly._cut_pass) as passes:
            part = partition_of_unity(cov, gev2_family, epsilon=epsilon, min_smoothness=4)
        # a pass takes consecutive balls until one starts a cap past the first
        for (a, _), _ in passes.call_args_list:
            assert (len(a.coeffs) - np.diff(a.starts)[-1] + 1) * a.coeffs.shape[1] < entries
        assert passes.call_count >= rounds.call_count
        if entries == 1:        # one pass per ball of each round
            assert passes.call_count == sum(len(c.args[2]) for c in rounds.call_args_list)
        oracle = _per_ball_partition(cov, gev2_family, epsilon, 4)
        phis = part.phis.splines()
        assert len(phis) == len(oracle) == len(cov.balls)
        for f, g in zip(phis, oracle):
            assert f.breakpoints.tobytes() == g.breakpoints.tobytes()
            assert f.coeffs.shape == g.coeffs.shape and f.coeffs.tobytes() == g.coeffs.tobytes()
            assert f.smoothness_order == g.smoothness_order

    def test_products_bounded_by_rounds(self, extend_interval_input, count_calls):
        # the partition calls one product for the clipping and one cut per
        # round, each over all the balls it changes, never one per ball
        part = extend_jet(*extend_interval_input).partition
        cov = part.cover
        assert len(cov.balls) == 73 and cov.degenerate_gaps == ()
        products = count_calls(ppoly.batch_product)
        cuts = count_calls(ppoly.batch_cut)
        partition_of_unity(cov, part.fam, part.epsilon, min_smoothness=3,
                           landing=(part.landing_small_s, part.lemma410_A, part.B1))
        calls = products + cuts
        assert len(products) == 1 and cuts and len(calls) <= cov.n0
        assert sum(len(i) for _, _, i, _ in calls) > len(calls)
        # and no phi_i grows past n0 cutoffs: none spans the working domain
        biggest = np.diff(part.phis.starts).max() - 1
        assert max(np.diff(a.starts).max() - 1 for a, *_ in calls) <= cov.n0 * biggest

    def test_no_spline_spans_the_working_domain(self, extend_point_input, monkeypatch):
        # each phi needs at most n0 cutoffs, so no spline built inside the
        # partition, alone or side by side in a batch, outgrows n0 times the
        # largest cutoff
        res = extend_jet(*extend_point_input)
        part, cov = res.partition, res.cover
        smooth = min(extend_point_input[2].p_max_eval, cutoffs.CONV_DEPTH - 2)
        biggest = max(len(cutoffs.build_cutoff(part.fam, part.epsilon * r / cov.n0,
                                               OVERLAP_C, min_smoothness=smooth).pp.coeffs)
                      for _, r in cov.balls)
        sizes, batches = [], []
        init, batch = PiecewisePolynomial.__init__, ppoly._batch

        def counted(self, *args):
            init(self, *args)
            sizes.append(len(self.coeffs))

        def batched(*args):
            out = batch(*args)
            batches.append(int(np.diff(out.starts).max()) - 1)
            return out

        monkeypatch.setattr(PiecewisePolynomial, "__init__", counted)
        monkeypatch.setattr(ppoly, "_batch", batched)
        partition_of_unity(cov, part.fam, part.epsilon, min_smoothness=smooth,
                           landing=(part.landing_small_s, part.lemma410_A, part.B1))
        monkeypatch.undo()
        assert sizes and batches
        assert max(sizes + batches) <= cov.n0 * biggest

    def test_supports_subordinate(self, partition_zero):
        for f, (cx, r) in zip(partition_zero.phis.splines(), partition_zero.cover.balls):
            lo, hi = f.support()
            assert lo >= cx - 1.5 * r - 1e-12
            assert hi <= cx + 1.5 * r + 1e-12

    def test_omega2_chain_family_near_point(self, omega2_matrix):
        # the smallest balls ask for orders p past 64; A is validated only up
        # to the family's p_cap, and build_cutoff stays there
        chain = select_row_chain(omega2_matrix, 0, 256)
        fam = cutoffs.make_cutoff_family(chain.S_dot, chain.ddot)
        assert fam.p_cap == 64
        cov = whitney_cover(jets.CompactSet1D(points=(0.0,)), d_min=1e-5)
        part = partition_of_unity(cov, fam, epsilon=2.0, min_smoothness=4)
        rep = verify_partition(part, orders=(0, 1, 2, 3, 4))
        assert rep["sum_max_err"] < 1e-9
        assert rep["range_ok"] and rep["support_ok"] and rep["bound_ok"]

    @pytest.mark.parametrize("pts", [(0.0, 1.0), (0.0, 0.1, 1.0)])
    def test_other_sets(self, gev2_family, pts):
        cov = whitney_cover(jets.CompactSet1D(points=pts), d_min=1e-4)
        part = partition_of_unity(cov, gev2_family, epsilon=2.0, min_smoothness=4)
        rep = verify_partition(part, orders=(0, 1, 2, 3, 4))
        assert rep["sum_max_err"] < 1e-9
        assert rep["support_ok"] and rep["bound_ok"]


    def test_one_cutoff_per_order(self, gev2_family, count_calls):
        # epsilon 1e3 spreads the 20 ball radii of this cover over several
        # orders p; one cutoff is built per order, not per radius
        cov = whitney_cover(jets.CompactSet1D(points=(0.0,)), d_min=1e-3)
        calls = count_calls(cutoffs.build_cutoff)
        part = partition_of_unity(cov, gev2_family, epsilon=1e3, min_smoothness=4)
        orders = {cutoffs.cutoff_order(gev2_family, 1e3 * r / cov.n0, OVERLAP_C)
                  for _, r in cov.balls}
        assert 1 < len(orders) < len({r for _, r in cov.balls})
        assert len(calls) == len(orders)
        assert verify_partition(part, orders=(0, 1, 2))["sum_max_err"] < 1e-9

    @pytest.mark.parametrize("E", [jets.CompactSet1D(points=(0.0,)),
                                   jets.CompactSet1D(points=(2.0,),
                                                     intervals=((0.0, 1.0),))])
    def test_verify_equals_scalar_oracle(self, gev2_family, E):
        cov = whitney_cover(E, d_min=1e-4)
        part = partition_of_unity(cov, gev2_family, epsilon=2.0, min_smoothness=4)
        orders = (0, 1, 2, 3, 4)
        assert verify_partition(part, orders) == _verify_partition_oracle(part, orders)


class TestRowChain:
    def test_singleton_chain(self, gev2_matrix, count_calls):
        calls = count_calls(dsc.descend)
        chain = select_row_chain(gev2_matrix, 0, 256)
        assert chain.indices == (0, 0, 0)
        assert len(calls) == 1
        assert chain.S is chain.S_dot is chain.S_ddot

    def test_omega2_chain(self, omega2_matrix):
        chain = select_row_chain(omega2_matrix, 0, 256)
        i0, i1, i2 = chain.indices
        assert i0 == 0 and i1 > i0 and i2 > i1

    def test_qgevrey_chain_unavailable(self, qgevrey2):
        mat = wf.matrix_from_rows([qgevrey2], params=[1.0])
        with pytest.raises(ExtensionError) as err:
            select_row_chain(mat, 0, 128)
        assert err.value.code == "ROW_CHAIN_UNAVAILABLE"

    def test_constants_searches(self, omega2_matrix):
        chain = select_row_chain(omega2_matrix, 0, 256)
        lam = search_lambda(chain.S, chain.S_dot)
        assert 0 < lam < 1
        D = h_power_constant(chain.S_dot.small_s, chain.S_ddot.small_s, 2)
        assert D >= 1.0


_H_POWER_ROWS = st.one_of(
    st.builds(lambda s: sq.gevrey(s, K=64), st.floats(1.0, 3.0)),
    st.builds(lambda A, p: sq.powerlog(A, p, K=64), st.floats(1.5, 4.0), st.floats(1.0, 1.5)))


class TestHPowerConstant:
    @given(num=_H_POWER_ROWS, den=_H_POWER_ROWS, n=st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_smallest_power_of_two(self, num, den, n):
        C = h_power_constant(num, den, n)
        # the grid documented by h_power_constant
        grid = np.linspace(-0.9 * float(num.log_mu[-1]), -1e-3, 48)

        def holds_at(c):
            return [sq.log_h_assoc(num, lt) <= n * sq.log_h_assoc(den, lt + math.log(c)) + 1e-9
                    for lt in grid]

        assert C == 2.0 ** round(math.log2(C)) and C >= 1.0
        assert all(holds_at(C))
        if C > 1.0:
            assert not all(holds_at(C / 2.0))


class TestExtendJet:
    def test_polynomial_reproduction(self, gev2_matrix):
        E = jets.CompactSet1D(points=(0.0, 1.0))
        F = jets.sample_jet({"kind": "polynomial", "coeffs": [0, 0, 1]}, E, 12)
        res = extend_jet(F, gev2_matrix, ExtensionConfig(p_max_eval=4, d_min=1e-5))
        xs = np.linspace(-0.49, 1.49, 501)
        sel = E.distance(xs) < 0.5
        assert np.max(np.abs(res.f(xs[sel]) - xs[sel] ** 2)) < 1e-9

    def test_exp_boundary_match(self, omega2_matrix):
        E = jets.CompactSet1D(points=(0.0,))
        F = jets.sample_jet({"kind": "exp"}, E, 16)
        res = extend_jet(F, omega2_matrix,
                         ExtensionConfig(p_max_eval=8, d_min=1e-5))
        for k in range(9):
            for x in (1e-4, -1e-4):
                assert abs(res.f(x, order=k) - 1.0) <= 1e-3
        assert res.verification["boundary"]["monotone_ok"]
        assert res.verification["growth"]["finite"]

    def test_exp_interval_and_point(self, gev2_matrix):
        E = jets.CompactSet1D(points=(2.0,), intervals=((0.0, 1.0),))
        F = jets.sample_jet({"kind": "exp"}, E, 3)
        res = extend_jet(F, gev2_matrix, ExtensionConfig(p_max_eval=3, d_min=1e-3))
        v = res.verification
        assert v["partition"]["bound_ok"]
        assert v["boundary"]["monotone_ok"]
        assert v["taylor_estimates"]["5.4"]["violations"] == 0
        assert v["taylor_estimates"]["5.5"]["violations"] == 0
        # C(0.5) = 2 C_inf exactly: an order n >= 1 binds at rho = 0.5
        assert res.constants["C"] == pytest.approx(2.0 * math.e ** 2, rel=1e-12)
        assert res.constants["rho"] == pytest.approx(0.5, rel=1e-12)

    @pytest.mark.parametrize("offset", [0.0, 0.37])
    def test_fit_rho_tie_does_not_move_with_the_set(self, gevrey2, offset):
        # the exact tie C(0.5) = 2 C_inf, with C_inf = e^(2 + offset) the
        # value at the point, gives the same rho at every offset
        E = jets.CompactSet1D(points=(2.0 + offset,), intervals=((offset, 1.0 + offset),))
        F = jets.sample_jet({"kind": "exp"}, E, 3)
        C, rho = fit_rho(F, dsc.descend(gevrey2, K_eff=256))
        assert rho == pytest.approx(0.5, rel=1e-12)
        assert C == pytest.approx(2.0 * math.exp(2.0 + offset), rel=1e-12)

    def test_lemma410_constants_computed_once(self, extend_interval_input, count_calls):
        calls = count_calls(operator.lemma410_B1)
        res = extend_jet(*extend_interval_input)
        assert len(calls) == 1
        assert res.constants["B1"] == res.partition.B1

    def test_remainder_table_built_once(self, extend_interval_input, count_calls):
        # the class trend and (C, rho) read the jet's one reduction; a fresh
        # jet, since the reduction is cached on the jet
        F, mat, cfg = extend_interval_input
        calls = count_calls(jets.remainder_table)
        extend_jet(jets.sample_jet({"kind": "exp"}, F.E, F.order_cap), mat, cfg)
        assert len(calls) == 1

    def test_not_in_class_rejected(self, omega2_matrix):
        # k!^2 outgrows every descendant row of the log-square classes
        E = jets.CompactSet1D(points=(0.0,))
        bad = jets.table_jet(E, {0.0: [math.factorial(k) ** 2 for k in range(13)]}, 12)
        with pytest.raises(ExtensionError) as err:
            extend_jet(bad, omega2_matrix, ExtensionConfig())
        assert err.value.code == "JET_NOT_IN_CLASS"

    @pytest.mark.parametrize("field, value", [
        ("L", 0.0), ("L", -2.0), ("epsilon", 0.0), ("d_min", 0.0), ("d_min", -1e-3),
        ("p_max_eval", -1), ("base_row", -1)])
    def test_bad_config_is_coded(self, field, value):
        # p_max_eval=-1 would chop every coefficient: f = 0 with F(0) = 1
        with pytest.raises(ExtensionError) as err:
            ExtensionConfig(**{field: value})
        assert err.value.code == "NON_POSITIVE"
        assert str(err.value).startswith(f"{field} must be ")

    def test_zero_jet(self, omega2_matrix):
        E = jets.CompactSet1D(points=(0.0,))
        res = extend_jet(jets.table_jet(E, {0.0: np.zeros(17)}, 16), omega2_matrix,
                         ExtensionConfig(p_max_eval=4, d_min=1e-4, L=16.0,
                                         epsilon=64.0))
        xs = np.linspace(-2, 2, 300)
        assert np.max(np.abs(res.f(xs))) == 0.0
        assert res.verification["growth"]["C_prime"] == 0.0

    def test_linearity(self, omega2_matrix, combine):
        E = jets.CompactSet1D(points=(0.0,))
        F1 = jets.sample_jet({"kind": "exp"}, E, 16)
        F2 = jets.sample_jet({"kind": "sin"}, E, 16)
        cfg = ExtensionConfig(p_max_eval=4, d_min=1e-4, L=16.0, epsilon=64.0)
        r1 = extend_jet(F1, omega2_matrix, cfg)
        r2 = extend_jet(F2, omega2_matrix, cfg)
        rc = extend_jet(combine(F1, F2, 2.0, -3.0), omega2_matrix, cfg)
        xs = np.linspace(-1.9, 1.9, 400)
        gap = np.abs(2 * r1.f(xs) - 3 * r2.f(xs) - rc.f(xs))
        assert np.max(gap) < 1e-9

    def test_assembly_consistency(self, omega2_matrix):
        E = jets.CompactSet1D(points=(0.0,))
        F = jets.sample_jet({"kind": "exp"}, E, 16)
        res = extend_jet(F, omega2_matrix,
                         ExtensionConfig(p_max_eval=4, d_min=1e-4, L=16.0,
                                         epsilon=64.0))
        assert res.verification["assembly_consistency"]["max_abs_gap"] < 1e-8

    def test_global_cutoff_support(self, omega2_matrix):
        E = jets.CompactSet1D(points=(0.0,))
        F = jets.sample_jet({"kind": "exp"}, E, 16)
        res = extend_jet(F, omega2_matrix,
                         ExtensionConfig(p_max_eval=4, d_min=1e-4, L=16.0,
                                         epsilon=64.0))
        lo, hi = res.f.support()
        assert lo >= -1.0 - 1e-9 and hi <= 1.0 + 1e-9


class TestTaylorEstimates:
    def test_difference_bound_trivial_cases(self, omega2_matrix):
        E = jets.CompactSet1D(points=(0.0, 1.0))
        F = jets.sample_jet({"kind": "exp"}, E, 12)
        chain = select_row_chain(omega2_matrix, 0, 256)
        C, rho = fit_rho(F, chain.S)
        lhs, rhs = check_taylor_difference_bound(F, chain.S, 0.0, 0.0, 4, 0, 0.5,
                                                 C, rho)
        assert lhs == -math.inf < rhs
        # polynomial jet: identical Taylor polynomials above the degree
        Fp = jets.sample_jet({"kind": "polynomial", "coeffs": [0, 0, 1]}, E, 12)
        lhs, rhs = check_taylor_difference_bound(Fp, chain.S, 0.0, 1.0, 5, 0, 0.3,
                                                 1.0, 1.0)
        assert lhs < math.log(1e-12)

    def test_difference_bound_exp(self, omega2_matrix):
        E = jets.CompactSet1D(points=(0.0, 1.0))
        F = jets.sample_jet({"kind": "exp"}, E, 12)
        chain = select_row_chain(omega2_matrix, 0, 256)
        C, rho = fit_rho(F, chain.S)
        rng = np.random.default_rng(5)
        for _ in range(100):
            p = int(rng.integers(1, 9))
            k = int(rng.integers(0, p + 1))
            a1, a2 = rng.choice([0.0, 1.0], 2)
            x = float(rng.uniform(-0.5, 1.5))
            lhs, rhs = check_taylor_difference_bound(F, chain.S, a1, a2, p, k, x,
                                                     C, rho)
            assert lhs <= rhs + 1e-9


# -- array Taylor checks against their scalar loops ------------------------------

def _scalar_taylor(F, a, p, x, order):
    j = np.arange(0, p + 1 - order)
    if len(j) == 0:
        return 0.0
    return float(np.sum(F.values[F.rows(a)][order: p + 1] * np.power(x - a, j)
                        * np.exp(-sq.log_factorial(j))))


def _taylor_degree_scalar(S_dot, L, dist, cap):
    """The per-entry degree rule: min(max(2 Gamma(L d), DEG_FLOOR), cap) with
    Gamma(t) = min{k : sigma*_{k+1} >= 1/t} under a 1e-12 relative tie
    tolerance, and K - 1 past the prefix edge."""
    log_mu = S_dot.small_s.log_mu
    target = -(math.log(L) + math.log(dist))
    target -= 1e-12 * max(1.0, abs(target))
    g = int(np.searchsorted(log_mu, target)) if target <= log_mu[-1] else len(log_mu) - 1
    return int(min(max(2 * g, operator.DEG_FLOOR), cap))


def _taylor_estimates_loop(F, chain, C, L, cover, cfg, n_probes=60):
    """One scalar Taylor evaluation per probe and order."""
    rng = np.random.default_rng(operator.PROBE_SEED)
    lo, hi = cover.working
    xs = rng.uniform(lo, hi, n_probes)
    log_S = chain.S.big_S.log_M
    log_s = np.concatenate([[0.0], np.cumsum(chain.S.log_sigma_star)])
    out = {"5.4": {"violations": 0, "max_log_margin": -math.inf, "checked": 0},
           "5.5": {"violations": 0, "max_log_margin": -math.inf, "checked": 0}}
    if C == 0.0:
        return out
    logC = math.log(C)
    for x in xs:
        xhat, dist = (v[0] for v in F.E.nearest(x))
        if dist <= 0:
            continue
        p = _taylor_degree_scalar(chain.S_dot, L, dist, F.order_cap)
        for k in range(0, min(p, cfg.p_max_eval) + 1):
            val = _scalar_taylor(F, xhat, p, float(x), k)
            lhs = math.log(max(abs(val), 1e-300))
            rhs = logC + (k + 1) * math.log(2 * L) + log_S[k]
            out["5.4"]["checked"] += 1
            if lhs > rhs + 1e-9:
                out["5.4"]["violations"] += 1
            out["5.4"]["max_log_margin"] = max(out["5.4"]["max_log_margin"], lhs - rhs)
            if k < p:
                val2 = val - F.values[F.rows(xhat), k]
                lhs2 = math.log(max(abs(val2), 1e-300))
                rhs2 = (logC + (k + 1) * math.log(2 * L) + sq.log_factorial(k)
                        + log_s[k + 1] + math.log(max(dist, 1e-300)))
                out["5.5"]["checked"] += 1
                if lhs2 > rhs2 + 1e-9:
                    out["5.5"]["violations"] += 1
                out["5.5"]["max_log_margin"] = max(out["5.5"]["max_log_margin"],
                                                   lhs2 - rhs2)
    return out


def _assembly_loop(f, part, F, carried, chain, degrees, gcut, L, cfg, n_probes=200):
    """Per probe, the defining sum term by term in ball order."""
    rng = np.random.default_rng(operator.PROBE_SEED + 2)
    lo, hi = part.cover.working
    xs = rng.uniform(lo, hi, n_probes)
    p_col = _taylor_degree_scalar(chain.S_dot, L, cfg.d_min, F.order_cap)
    anchors = operator._nearest(carried, [F.E.nearest(cx)[0][0]
                                          for cx, _ in part.cover.balls])
    phis = np.array([phi(xs) for phi in part.phis.splines()])
    worst = 0.0
    for x, a, pv, g, fx in zip(xs, operator._nearest(carried, xs), phis.T,
                               gcut(xs), f(xs)):
        x = float(x)
        base = _scalar_taylor(F, a, p_col, x, 0)
        direct = base
        for i in np.flatnonzero(pv):
            direct += pv[i] * (_scalar_taylor(F, anchors[i], degrees[i], x, 0) - base)
        direct *= g
        worst = max(worst, abs(direct - fx))
    return {"max_abs_gap": float(worst)}


class TestArrayTaylorChecks:
    def test_taylor_estimates_equal_scalar_loop(self, extension_case):
        (F, _, cfg), res = extension_case
        c = res.constants
        args = (F, res.chain, c["C"], c["L"], res.cover, cfg)
        got = operator._check_taylor_estimates(*args)
        assert got == _taylor_estimates_loop(*args)
        assert got == res.verification["taylor_estimates"]
        assert got["5.4"]["checked"] > 0

    def test_assembly_consistency_equals_scalar_loop(self, extension_case):
        (F, _, cfg), res = extension_case
        gcut = operator._global_cutoff(F.E, res.partition.fam, res.constants["epsilon"], cfg)
        args = (res.f, res.partition, F, F.carried(), res.chain, res.degrees, gcut,
                res.constants["L"], cfg)
        anchors = operator._nearest(F.carried(), [F.E.nearest(cx)[0][0]
                                                  for cx, _ in res.cover.balls])
        p_col = _taylor_degree_scalar(res.chain.S_dot, res.constants["L"], cfg.d_min,
                                      F.order_cap)
        got = operator._assembly_consistency(res.f, res.partition, F, F.carried(),
                                             anchors, res.degrees, p_col, gcut)
        assert got == _assembly_loop(*args)
        assert got == res.verification["assembly_consistency"]

    def test_chop_moves_no_checked_derivative(self, extension_case, monkeypatch):
        inputs, res = extension_case
        cfg = inputs[2]
        with monkeypatch.context() as m:
            m.setattr(PiecewisePolynomial, "chopped", lambda self, max_order: self)
            full = extend_jet(*inputs)
        f = full.f.chopped(cfg.p_max_eval)
        assert np.array_equal(f.breakpoints, res.f.breakpoints)
        assert f.coeffs.tobytes() == res.f.coeffs.tobytes()
        xs = np.linspace(*res.f.span, 4000)
        orders = range(cfg.p_max_eval + 1)
        for before, after in zip(full.f(xs, order=orders), res.f(xs, order=orders)):
            assert np.max(np.abs(after - before)) <= 1e-15 * np.max(np.abs(before))
        assert full.verification == res.verification
        assert res.coefficients_dropped == int(np.sum(full.f.row_degrees()
                                                      - res.f.row_degrees()))

    def test_degrees_equal_scalar_rule(self, extension_case):
        (F, _, cfg), res = extension_case
        L = res.constants["L"]
        assert list(res.degrees) == [
            _taylor_degree_scalar(res.chain.S_dot, L, F.E.nearest(cx)[1][0], F.order_cap)
            for cx, _ in res.cover.balls]

    def test_checks_read_the_partition_batch(self, extension_case, count_calls):
        # the partition check and the assembly check read the partition's one
        # batch: neither packs splines into a batch of its own
        (F, _, cfg), res = extension_case
        gcut = operator._global_cutoff(F.E, res.partition.fam, res.constants["epsilon"], cfg)
        anchors = _ball_anchors(F, res.cover)
        p_col = _taylor_degree_scalar(res.chain.S_dot, res.constants["L"], cfg.d_min,
                                      F.order_cap)
        calls = count_calls(ppoly.stack)
        verify_partition(res.partition, orders=range(0, min(4, cfg.p_max_eval) + 1))
        operator._assembly_consistency(res.f, res.partition, F, F.carried(), anchors,
                                       res.degrees, p_col, gcut)
        assert calls == []

    def test_taylor_coefficients_read_once_per_table(self, extend_interval_input, count_calls):
        # the base field's table and the differences' two, not two per ball
        calls = count_calls(jets.taylor_coeffs_local)
        res = extend_jet(*extend_interval_input)
        assert len(res.cover.balls) == 73
        assert len(calls) == 3


def _ball_anchors(F, cover):
    """The carried point nearest to each ball's nearest point of E."""
    return operator._nearest(F.carried(), [F.E.nearest(cx)[0][0] for cx, _ in cover.balls])


def _taylor_difference(F, a_i, p_i, anchors, cuts, p_col, slo, shi):
    """T_{a_i}^{p_i} F - base field on [slo, shi], subtracted about a_i, as
    one spline, or None where the two are equal on every piece: one ball of
    the assembly's differences at a time."""
    edges = np.concatenate([[slo], cuts[(cuts > slo) & (cuts < shi)], [shi]])
    keep = edges[1:] > edges[:-1]
    u, v = edges[:-1][keep], edges[1:][keep]
    j = np.clip(np.searchsorted(cuts, 0.5 * (u + v), side="right") - 1,
                0, len(anchors) - 1)
    a_b = anchors[j]
    same = (a_b == a_i) & (p_col == p_i)
    if np.all(same):
        return None
    c_b = np.zeros((len(u), max(p_i, p_col) + 1))
    c_b[:, : p_col + 1] = ppoly.taylor_shift(jets.taylor_coeffs_local(F, a_b, p_col),
                                             a_i - a_b)
    diff = np.zeros(c_b.shape[1])
    diff[: p_i + 1] = jets.taylor_coeffs_local(F, a_i, p_i)
    diff = diff - c_b
    diff[same] = 0.0
    return PiecewisePolynomial(np.append(u, v[-1]), ppoly.taylor_shift(diff, u - a_i), 10 ** 6)


def _assert_differences_match_per_ball(F, a, p, anchors, cuts, p_col, slo, shi):
    """The batched differences are the per-ball ones, laid out as
    :func:`~ultrajet.extend.ppoly.stack` lays them out, byte for byte; returns
    the used balls."""
    used, diffs = operator._taylor_differences(F, a, p, anchors, cuts, p_col, slo, shi)
    oracle = {i: _taylor_difference(F, float(a[i]), int(p[i]), anchors, cuts, p_col,
                                    float(slo[i]), float(shi[i]))
              for i in range(len(a)) if shi[i] > slo[i]}
    oracle = {i: d for i, d in oracle.items() if d is not None}
    assert used.tolist() == sorted(oracle)
    if not oracle:
        assert diffs is None
        return used
    want = ppoly.stack([oracle[i] for i in used.tolist()])
    for name in ("breakpoints", "starts", "coeffs", "widths", "smoothness"):
        got, ref = getattr(diffs, name), getattr(want, name)
        assert (got.dtype, got.shape) == (ref.dtype, ref.shape)
        assert got.tobytes() == ref.tobytes(), name
    return used


class TestTaylorDifferences:
    def test_benchmark_covers_equal_per_ball(self, extension_case):
        (F, _, cfg), res = extension_case
        p_col = _taylor_degree_scalar(res.chain.S_dot, res.constants["L"], cfg.d_min,
                                      F.order_cap)
        _, anchors, cuts = operator._taylor_field(F, p_col, res.cover.working)
        used = _assert_differences_match_per_ball(
            F, _ball_anchors(F, res.cover), np.array(res.degrees), anchors, cuts, p_col,
            *res.partition.phis.supports())
        assert used.size

    @settings(max_examples=40, deadline=None)
    @given(E=_point_and_interval_sets(), d_min=st.sampled_from([1e-2, 1e-3]),
           kind=st.sampled_from(["exp", "sin", "polynomial"]), cap=st.integers(1, 6),
           data=st.data())
    def test_equal_per_ball_on_sets(self, gev2_family, E, d_min, kind, cap, data):
        spec = {"kind": kind, "coeffs": [0, 0, 1]} if kind == "polynomial" else {"kind": kind}
        F = jets.sample_jet(spec, E, cap)
        cov = whitney_cover(E, d_min=d_min)
        part = partition_of_unity(cov, gev2_family, epsilon=2.0, min_smoothness=4)
        p_col = data.draw(st.integers(0, cap))
        # every ball at the base degree, or any degree up to the cap
        p = np.array(data.draw(st.one_of(
            st.just([p_col] * len(cov.balls)),
            st.lists(st.integers(0, cap), min_size=len(cov.balls), max_size=len(cov.balls)))))
        _, anchors, cuts = operator._taylor_field(F, p_col, cov.working)
        _assert_differences_match_per_ball(F, _ball_anchors(F, cov), p, anchors, cuts, p_col,
                                           *part.phis.supports())

    def test_equal_fields_give_no_term(self, partition_zero):
        # one carried point and every ball at the base degree: T_i is the base
        # field on every piece, so no ball has a term
        F = jets.sample_jet({"kind": "exp"}, partition_zero.cover.E, 5)
        _, anchors, cuts = operator._taylor_field(F, 5, partition_zero.cover.working)
        n = len(partition_zero.cover.balls)
        used = _assert_differences_match_per_ball(
            F, np.zeros(n), np.full(n, 5), anchors, cuts, 5, *partition_zero.phis.supports())
        assert used.size == 0

    def test_signed_zeros_follow_each_balls_width(self):
        # F'''(0) = -0 and F'''(0.3) = +0 give a -0 top coefficient on the
        # piece anchored at 0.3 of the ball at 0; a wider ball beside it must
        # not turn it into +0 by re-anchoring the rows at the wider width
        E = jets.CompactSet1D(points=(0.0, 0.3, 1.0))
        F = jets.table_jet(E, {0.0: [1.0, 2.0, 3.0, -0.0, 5.0], 0.3: [1.0, 1.0, 1.0, 0.0, 1.0],
                               1.0: [2.0, 1.0, -1.0, 1.0, 1.0]}, 4)
        anchors = F.carried()
        cuts = np.concatenate([[-1.0], 0.5 * (anchors[1:] + anchors[:-1]), [2.0]])
        args = (F, np.array([0.0, 1.0]), np.array([3, 4]), anchors, cuts, 3,
                np.array([-0.2, 0.5]), np.array([0.9, 1.5]))
        assert _assert_differences_match_per_ball(*args).tolist() == [0, 1]
        c = operator._taylor_differences(*args)[1].coeffs
        assert np.any((c == 0.0) & np.signbit(c))


@functools.lru_cache(maxsize=None)
def _small_desc(which):
    row = (sq.gevrey(2, K=512) if which == "gevrey2"
           else wf.associated_matrix(wf.omega_s(2), K=512).rows[2])
    return dsc.descend(row, K_eff=256)


class TestTaylorDegree:
    @given(which=st.sampled_from(["gevrey2", "omega2"]), log_L=st.floats(0.0, 25.0),
           cap=st.one_of(st.integers(1, 60), st.just(10 ** 6)), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_array_equals_scalar_rule(self, which, log_L, cap, data):
        """Distances at Gamma's jumps (1/(L sigma*_k), and within its tie
        window), anywhere, and so small that L d falls past the prefix."""
        S_dot = _small_desc(which)
        L = math.exp(log_L)
        lm = S_dot.small_s.log_mu
        at_jump = st.tuples(st.integers(0, len(lm) - 1), st.floats(-3e-12, 3e-12)).map(
            lambda p: math.exp(-float(lm[p[0]]) * (1.0 + p[1]) - log_L))
        dists = data.draw(st.lists(st.one_of(
            at_jump, st.floats(1e-300, 10.0), st.floats(1e-300, 1e-200)), max_size=40))
        got = operator.taylor_degree(S_dot, L, dists, cap)
        assert got.shape == (len(dists),)
        assert got.tolist() == [_taylor_degree_scalar(S_dot, L, d, cap) for d in dists]
