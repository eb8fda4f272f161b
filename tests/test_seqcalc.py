import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import gammaln

from ultrajet import seqcalc as sq
from ultrajet.errors import PrefixExhausted, SequenceSpecError, UltrajetError
from ultrajet.report import FAILS, HOLDS, INCONCLUSIVE, verdicts_agree


def h_assoc(M, log_t):
    """h(t) = inf_k M_k t^k on the prefix as ``(value, attained_k, trusted)``,
    ``trusted`` False when the minimum sits at the prefix boundary; ties
    within 1e-12 (1 + |log h|) resolve to the smallest index.  The oracle of
    ``gamma_count``'s tie rule."""
    vals = M.log_M + np.arange(M.K + 1) * log_t
    m = float(np.min(vals))
    k = int(np.nonzero(vals <= m + 1e-12 * (1.0 + abs(m)))[0][0])
    return math.exp(m), k, k < M.K


def brute_force_log_h(M, t):
    # independent route: telescoped quotient sums, exact in rationals (a
    # float running sum drifts by 1e-9 over the 1023 terms of qgevrey(2)),
    # plain python min
    best = acc = Fraction(0)
    log_t = Fraction(math.log(t))
    for k in range(1, M.K + 1):
        acc += Fraction(float(M.log_mu[k - 1])) + log_t
        best = min(best, acc)
    return float(best)


class TestMakeSequence:
    def test_gevrey1_values(self):
        M = sq.gevrey(1, K=5)
        expect = [1, 1, 2, 6, 24, 120]
        assert np.allclose(M.log_M, np.log(expect))

    def test_qgevrey2_quotients(self):
        M = sq.qgevrey(2, K=3)
        assert np.exp(M.log_mu) == pytest.approx([2.0, 8.0, 32.0], rel=1e-12)

    def test_qgevrey_quotients_match_direct_ratios(self):
        # oracle: ratios of 2^{k^2} computed in log domain independently
        M = sq.qgevrey(2, K=12)
        for k in range(1, 13):
            direct = 2.0 ** (k * k) / 2.0 ** ((k - 1) * (k - 1))
            assert math.exp(M.log_mu[k - 1]) == pytest.approx(direct, rel=1e-13)

    def test_log_mu_computed_once_read_only(self, gevrey2):
        assert gevrey2.log_mu is gevrey2.log_mu
        assert not gevrey2.log_mu.flags.writeable
        assert np.array_equal(gevrey2.log_mu, np.diff(gevrey2.log_M))

    def test_table_non_logconvex_rejected(self):
        with pytest.raises(SequenceSpecError) as err:
            sq.make_sequence({"family": "table",
                              "params": {"values": [1, 0.5, 1]}, "K": 2})
        assert err.value.code == "NON_LOGCONVEX"

    def test_table_not_normalized(self):
        with pytest.raises(SequenceSpecError) as err:
            sq.make_sequence({"family": "table",
                              "params": {"values": [2, 4, 16]}, "K": 2})
        assert err.value.code == "NOT_NORMALIZED"

    def test_non_positive(self):
        with pytest.raises(SequenceSpecError) as err:
            sq.make_sequence({"family": "table",
                              "params": {"values": [1, -1, 4]}, "K": 2})
        assert err.value.code == "NON_POSITIVE"


class TestAssociated:
    def test_h_is_one_past_first_quotient(self, gevrey1):
        v, k, trusted = h_assoc(gevrey1, math.log(2.0))
        assert v == 1.0 and k == 0 and trusted

    def test_h_gevrey1_tie(self):
        M = sq.gevrey(1, K=20)
        v, k, trusted = h_assoc(M, math.log(0.2))
        assert v == pytest.approx(0.0384, rel=1e-12)
        assert k == 4  # tie with k = 5 resolves to the smaller index
        assert trusted

    def test_h_boundary_not_trusted(self):
        M = sq.gevrey(1, K=6)
        _, k, trusted = h_assoc(M, math.log(1e-9))
        assert k == M.K and not trusted

    def test_gamma_examples(self):
        M = sq.gevrey(1, K=20)
        assert sq.gamma_count(M, math.log(0.25)) == 3
        assert sq.gamma_count(M, math.log(2.0)) == 0
        with pytest.raises(PrefixExhausted):
            sq.gamma_count(M, math.log(1e-9))
        with pytest.raises(PrefixExhausted):
            sq.gamma_count(M, -math.inf)

    def test_sigma_examples(self):
        assert sq.sigma_count(sq.gevrey(1, K=20), math.log(3.5)) == 3
        assert sq.sigma_count(sq.gevrey(1, K=20), math.log(0.5)) == 0
        assert sq.sigma_count(sq.gevrey(2, K=20), math.log(10.0)) == 3
        assert sq.sigma_count(sq.gevrey(1, K=20), -math.inf) == 0
        with pytest.raises(PrefixExhausted):
            sq.sigma_count(sq.gevrey(1, K=20), math.log(20.0))

    def test_omega_examples(self):
        M = sq.gevrey(1, K=20)
        assert sq.omega_assoc(M, math.log(0.5)) == 0.0
        assert sq.omega_assoc(M, -math.inf) == 0.0
        assert sq.omega_assoc(M, math.log(3.0)) == pytest.approx(math.log(4.5), rel=1e-13)

    @pytest.mark.parametrize("family", ["gevrey1", "gevrey2", "qgevrey2"])
    def test_h_equals_brute_force(self, family, request):
        M = request.getfixturevalue(family)
        for t in np.geomspace(math.exp(-M.log_mu[-1]) * 1.1, 2.0, 25):
            assert sq.log_h_assoc(M, math.log(t)) == pytest.approx(
                brute_force_log_h(M, t), abs=1e-9)

    @pytest.mark.parametrize("family", ["gevrey1", "gevrey2", "qgevrey2",
                                        "omega2_rho64"])
    def test_gamma_sigma_bridge(self, family, request):
        # Gamma(1/t) = Sigma(t) off quotient points
        M = request.getfixturevalue(family)
        rng = np.random.default_rng(7)
        log_lo, log_hi = 1e-3, float(M.log_mu[-1]) * 0.95
        for lt in rng.uniform(log_lo, log_hi, 50):
            if np.min(np.abs(M.log_mu - lt)) < 1e-9:
                continue
            assert sq.gamma_count(M, -lt) == sq.sigma_count(M, lt)

    @pytest.mark.parametrize("family", ["gevrey1", "gevrey2", "qgevrey2",
                                        "omega2_rho64"])
    def test_omega_h_duality(self, family, request):
        # omega(t) = -log h(1/t); compare in the log domain, h underflows
        M = request.getfixturevalue(family)
        for lt in np.linspace(math.log(1.5), float(M.log_mu[-1]) * 0.9, 40):
            _, k, trusted = h_assoc(M, -lt)
            assert trusted
            assert sq.omega_assoc(M, lt) == pytest.approx(
                -sq.log_h_assoc(M, -lt), rel=1e-9, abs=1e-9)

    def test_monotone_before_gamma(self, gevrey2):
        # M_k t^k is non-increasing up to the minimizer
        for t in [1e-4, 1e-2, 0.3]:
            g = sq.gamma_count(gevrey2, math.log(t))
            vals = gevrey2.log_M[: g + 1] + np.arange(g + 1) * math.log(t)
            assert np.all(np.diff(vals) <= 1e-12)
            assert vals[-1] == pytest.approx(sq.log_h_assoc(gevrey2, math.log(t)),
                                             abs=1e-9)

    @pytest.mark.parametrize("family", ["gevrey1", "gevrey2", "qgevrey2"])
    def test_recovery_from_h(self, family, request):
        # M_k = sup_t t^{-k} h(t) on a 1e4-point grid, k below the distorted edge
        M = request.getfixturevalue(family)
        lts = np.linspace(-float(M.log_mu[-1]), -float(M.log_mu[0]) - 1e-9, 10_000)
        k_arr = np.arange(M.K + 1)
        log_h = np.array([np.min(M.log_M + k_arr * lt) for lt in lts])
        upto = int(M.K * (1 - 1 / 8))
        for k in range(1, upto, 37):
            rec = np.max(-k * lts + log_h)
            assert rec == pytest.approx(M.log_M[k], rel=1e-9, abs=1e-9)

    def test_superadditive_logM(self, gevrey2, qgevrey2):
        for M in (gevrey2, qgevrey2):
            rng = np.random.default_rng(3)
            for _ in range(200):
                j, k = rng.integers(0, M.K // 2, 2)
                assert M.log_M[j] + M.log_M[k] <= M.log_M[j + k] + 1e-9


class TestGrowthChecks:
    def test_gevrey_moderate_witness(self, gevrey2):
        reps = sq.check_moderate_growth(gevrey2)
        assert verdicts_agree(reps.values())
        assert reps["L2.2-3"].verdict == HOLDS
        assert reps["L2.2-3"].log_witness == pytest.approx(math.log(4.0), rel=1e-9)

    def test_gevrey_s_witness_closed_form(self):
        # mu_{2k}/mu_k = 2^s exactly
        for s in (1.0, 1.5, 3.0):
            reps = sq.check_moderate_growth(sq.gevrey(s, K=128))
            assert reps["L2.2-3"].log_witness == pytest.approx(s * math.log(2.0), rel=1e-9)

    def test_qgevrey_fails_all_six(self, qgevrey2):
        reps = sq.check_moderate_growth(qgevrey2)
        assert {r.verdict for r in reps.values()} == {FAILS}
        assert all(r.counterexample_index is not None for r in reps.values())

    def test_powerlog_fails_moderate_yet_ratio_bounded(self):
        M = sq.powerlog(2, 2, K=512)
        reps = sq.check_moderate_growth(M)
        assert {r.verdict for r in reps.values()} == {FAILS}
        # (2.10): mu_{k+1}/mu_k = A^2 bounded
        ratios = np.exp(np.diff(M.log_mu))
        assert np.max(ratios) == pytest.approx(4.0, rel=1e-9)

    def test_nonquasianalytic_examples(self, gevrey1, gevrey2, qgevrey2):
        assert sq.check_nonquasianalytic(gevrey2).verdict == HOLDS
        assert sq.check_nonquasianalytic(gevrey1).verdict == FAILS
        assert sq.check_nonquasianalytic(qgevrey2).verdict == HOLDS
        r = sq.check_nonquasianalytic(gevrey2)
        assert math.exp(r.log_witness) == pytest.approx(np.pi ** 2 / 6, abs=2e-3)

    def test_short_or_mismatched_prefix_is_coded(self, gevrey2):
        short = sq.gevrey(2, K=7)
        for check in (sq.check_moderate_growth, sq.check_nonquasianalytic):
            with pytest.raises(SequenceSpecError) as err:
                check(short)
            assert err.value.code == "PREFIX_TOO_SHORT"
        for check in (sq.check_mixed_growth, sq.check_equivalence):
            with pytest.raises(SequenceSpecError) as err:
                check(gevrey2, sq.gevrey(2, K=256))
            assert err.value.code == "PREFIX_MISMATCH"

    def test_equivalence_reflexive(self, gevrey2):
        reps = sq.check_equivalence(gevrey2, gevrey2)
        assert reps["equivalent"].verdict == HOLDS
        assert reps["forward"].log_witness == 0.0
        # C = 1 is log witness 0.0, which is falsy: the summary keeps it
        summary = reps["equivalent"]
        assert (summary.verdict, summary.log_witness, summary.counterexample_index) == (
            HOLDS, 0.0, None)

    def test_equivalence_scaled_factorial(self, gevrey1):
        k = np.arange(513)
        t = sq.make_sequence({"family": "table",
                              "params": {"log_values": gevrey1.log_M + k * math.log(2)},
                              "K": 512})
        reps = sq.check_equivalence(gevrey1, t)
        assert reps["equivalent"].verdict == HOLDS
        assert reps["backward"].log_witness == pytest.approx(math.log(2.0), rel=1e-6)

    def test_equivalence_gevrey_pair_fails(self, gevrey1, gevrey2):
        reps = sq.check_equivalence(gevrey1, gevrey2)
        assert reps["forward"].verdict == HOLDS
        assert reps["backward"].verdict == FAILS

    def test_mixed_growth_gevrey(self, gevrey2):
        reps = sq.check_mixed_growth(gevrey2, gevrey2)
        assert all(r.verdict == HOLDS for r in reps.values())
        assert reps["2.11"].log_witness == pytest.approx(math.log(4.0), rel=1e-9)
        assert reps["2.13"].log_witness < 0.0

    def test_mixed_growth_qgevrey_fails(self, qgevrey2):
        reps = sq.check_mixed_growth(qgevrey2, qgevrey2)
        assert reps["2.11"].verdict == FAILS
        assert reps["2.14"].verdict == FAILS

    def test_mixed_growth_omega_pairs(self, omega2_matrix):
        # adjacent (x, 4x) rows satisfy the doubling condition
        mat = omega2_matrix
        i = mat.params.index(1.0)
        j = mat.params.index(4.0)
        reps = sq.check_mixed_growth(mat.rows[i], mat.rows[j])
        assert reps["2.11"].verdict == HOLDS

    def test_gamma_doubling_checks_every_binding_t(self, gevrey1, gevrey2):
        # 2^-10 holds for k < 256 and fails at the binding t of k = 256
        rep = sq.check_mixed_growth(gevrey2, gevrey1)["2.13"]
        assert rep.verdict == HOLDS
        assert rep.log_witness == math.log(2.0 ** -11)

    def test_h_form_agrees_with_the_other_mixed_forms(self, gevrey1, gevrey2):
        # (gevrey(2), gevrey(1)) breaks mu_{2k} <= C mudot_k; the h-function
        # form, read on each prefix's own grid of t, fails with it and (2.14)
        reps = sq.check_mixed_growth(gevrey2, gevrey1)
        assert [reps[c].verdict for c in ("2.11", "2.12", "2.14")] == [FAILS] * 3

    def test_gamma_doubling_nothing_checked(self, gevrey1, omega2_rho64):
        # lambda t / mudot_1 already lies below 1/mu_K: no binding t to check
        rep = sq.check_mixed_growth(gevrey1, omega2_rho64)["2.13"]
        assert rep.verdict == INCONCLUSIVE
        assert rep.details["checked_k"] == 0


def _log_h_oracle(M, log_t):
    """The scalar form: the minimum of the full term row at one point."""
    return float(np.min(M.log_M + np.arange(M.K + 1) * log_t))


class TestLogHArray:
    # log t reaches -2e4 so that the deepest omega_2 row (log mu_K ~ 1.6e4)
    # has interior minimizers; lengths span several blocks of K = 512 rows
    @given(which=st.sampled_from(["gevrey", "omega2_rho64"]),
           s=st.floats(1.0, 3.5), K=st.integers(2, 600),
           log_t=st.lists(st.floats(-2e4, 10.0), max_size=150))
    @settings(max_examples=60, deadline=None)
    def test_array_equals_scalar(self, omega2_rho64, which, s, K, log_t):
        M = omega2_rho64 if which == "omega2_rho64" else sq.gevrey(s, K=K)
        got = sq.log_h_assoc(M, np.array(log_t))
        assert got.shape == (len(log_t),)
        assert np.array_equal(got, [_log_h_oracle(M, lt) for lt in log_t])
        if log_t:
            assert sq.log_h_assoc(M, log_t[0]) == _log_h_oracle(M, log_t[0])

    @given(log_t=st.lists(st.floats(-50.0, 5.0), min_size=1, max_size=80),
           i=st.integers(0, 79))
    @settings(max_examples=30, deadline=None)
    def test_minus_inf_entry_raises(self, omega2_rho64, log_t, i):
        log_t.insert(i % (len(log_t) + 1), -math.inf)
        with pytest.raises(UltrajetError) as exc:
            sq.log_h_assoc(omega2_rho64, np.array(log_t))
        assert exc.value.code == "NON_POSITIVE"


def _gamma_oracle(M, lt):
    """The scalar Gamma: the count with its tie tolerance, or None past the
    edge (-log t > log mu_K, or log t = -inf)."""
    target = -lt
    target -= 1e-12 * max(1.0, abs(target))
    if not target <= M.log_mu[-1]:
        return None
    return int(np.searchsorted(M.log_mu, target, side="left"))


def _sigma_oracle(M, lt):
    """The scalar Sigma, or None past the edge (log t >= log mu_K)."""
    if lt >= M.log_mu[-1]:
        return None
    return int(np.searchsorted(M.log_mu, lt, side="right"))


def _omega_oracle(M, lt):
    """omega(t) as the sum of log(t / mu_k) over mu_k <= t, or None past the edge."""
    n = _sigma_oracle(M, lt)
    return None if n is None else float(np.sum(lt - M.log_mu[:n]))


@st.composite
def _log_t_near_quotients(draw, M, sign, window=True):
    """log t values that hit the quotient points sign * log mu_k exactly, sit
    within the Gamma tie window of them (if ``window``), or fall anywhere,
    -inf included."""
    lm = M.log_mu
    k = st.integers(0, M.K - 1)
    at = k.map(lambda i: sign * float(lm[i]))
    tie = st.tuples(k, st.floats(-3e-12, 3e-12)).map(
        lambda p: sign * float(lm[p[0]]) * (1.0 + p[1]))
    anywhere = st.floats(-1.2 * float(lm[-1]) - 1.0, 1.2 * float(lm[-1]) + 1.0)
    kinds = [at, anywhere, st.just(-math.inf)] + ([tie] if window else [])
    return draw(st.lists(st.one_of(kinds), max_size=40))


def _row(which, s, K, omega2_rho64):
    return omega2_rho64 if which == "omega2_rho64" else sq.gevrey(s, K=K)


class TestCountingArrays:
    """gamma_count, sigma_count and omega_assoc on an array of log t against
    their scalar definitions, entry by entry."""

    @given(which=st.sampled_from(["gevrey", "omega2_rho64"]),
           s=st.floats(1.0, 3.0), K=st.integers(8, 300), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_gamma_array_equals_entries(self, omega2_rho64, which, s, K, data):
        M = _row(which, s, K, omega2_rho64)
        lts = data.draw(_log_t_near_quotients(M, -1.0))
        expect = [_gamma_oracle(M, lt) for lt in lts]
        got = sq.gamma_count(M, np.array(lts, dtype=float), past_edge=M.K)
        assert got.shape == (len(lts),)
        assert got.tolist() == [M.K if g is None else g for g in expect]
        for lt, g in zip(lts, expect):
            if g is not None:
                assert sq.gamma_count(M, lt) == g
        past = [lt for lt, g in zip(lts, expect) if g is None]
        if past:
            with pytest.raises(PrefixExhausted, match=re.escape(f"log t={past[0]:g})")):
                sq.gamma_count(M, np.array(lts))
        else:
            assert np.array_equal(sq.gamma_count(M, np.array(lts, dtype=float)), got)

    @given(which=st.sampled_from(["gevrey", "omega2_rho64"]),
           s=st.floats(1.0, 3.0), K=st.integers(8, 300), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_sigma_omega_arrays_equal_entries(self, omega2_rho64, which, s, K, data):
        M = _row(which, s, K, omega2_rho64)
        lts = data.draw(_log_t_near_quotients(M, 1.0))
        expect = [_sigma_oracle(M, lt) for lt in lts]
        inside = [lt for lt, n in zip(lts, expect) if n is not None]
        got = sq.sigma_count(M, np.array(inside, dtype=float))
        assert got.tolist() == [n for n in expect if n is not None]
        om = sq.omega_assoc(M, np.array(inside, dtype=float))
        assert om.shape == (len(inside),)
        for lt, n, w in zip(inside, got, om):
            assert sq.sigma_count(M, lt) == n
            assert sq.omega_assoc(M, lt) == w
            assert w == pytest.approx(_omega_oracle(M, lt), rel=1e-13, abs=1e-13)
        past = [lt for lt, n in zip(lts, expect) if n is None]
        for fn in (sq.sigma_count, sq.omega_assoc):
            if past:
                with pytest.raises(PrefixExhausted, match=re.escape(f"log t={past[0]:g})")):
                    fn(M, np.array(lts))

    @given(s=st.floats(1.0, 3.0), K=st.integers(8, 200), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_gamma_is_h_argmin_on_arrays(self, s, K, data):
        # inside the tie window h's tolerance (on log values) and Gamma's (on
        # log 1/t) may resolve a near tie differently; exact ties agree
        M = sq.gevrey(s, K=K)
        lts = [lt for lt in data.draw(_log_t_near_quotients(M, -1.0, window=False))
               if _gamma_oracle(M, lt) is not None]
        got = sq.gamma_count(M, np.array(lts, dtype=float))
        assert got.tolist() == [h_assoc(M, lt)[1] for lt in lts]


class TestLogFactorial:
    def test_within_two_ulp_of_gammaln(self):
        k = np.arange(4100)
        ref = gammaln(k + 1.0)
        got = sq.log_factorial(k)
        assert np.all(np.abs(got - ref) <= 2 * np.spacing(np.abs(ref)))

    def test_exact_for_small_k(self):
        for k in range(21):
            assert sq.log_factorial(k) == math.log(math.factorial(k))

    @given(k=st.one_of(st.integers(0, 4099),
                       st.lists(st.integers(0, 4099), max_size=40)
                       .map(lambda v: np.array(v, dtype=int)),
                       st.lists(st.integers(0, 4099), min_size=6, max_size=6)
                       .map(lambda v: np.array(v).reshape(2, 3))))
    @settings(max_examples=100, deadline=None)
    def test_ints_and_arrays(self, k):
        got = sq.log_factorial(k)
        ref = gammaln(np.asarray(k) + 1.0)
        if isinstance(k, int):
            assert isinstance(got, float)
        else:
            assert got.shape == k.shape
        assert np.all(np.abs(got - ref) <= 2 * np.spacing(np.abs(ref)))

    def test_growth_keeps_small_values(self, monkeypatch):
        monkeypatch.setattr(sq, "_LOG_FACTORIAL", np.zeros(1))
        small = sq.log_factorial(np.arange(30))
        assert len(sq._LOG_FACTORIAL) == 30
        assert sq.log_factorial(4000) == pytest.approx(gammaln(4001.0), rel=1e-15)
        assert len(sq._LOG_FACTORIAL) == 4001
        assert np.array_equal(sq.log_factorial(np.arange(30)), small)


class TestHypothesisInvariants:
    @given(s=st.floats(min_value=1.0, max_value=3.5),
           t=st.floats(min_value=1e-6, max_value=10.0))
    @settings(max_examples=200, deadline=None)
    def test_h_bounded_by_every_term(self, s, t):
        M = sq.gevrey(s, K=48)
        lh = sq.log_h_assoc(M, math.log(t))
        ks = np.arange(M.K + 1)
        assert np.all(lh <= M.log_M + ks * math.log(t) + 1e-12)

    @given(s=st.floats(min_value=1.0, max_value=3.0))
    @settings(max_examples=50, deadline=None)
    def test_quotients_increasing(self, s):
        M = sq.gevrey(s, K=64)
        assert np.all(np.diff(M.log_mu) >= -1e-12)
        assert M.log_mu[0] >= -1e-12

    @given(q=st.floats(min_value=1.1, max_value=4.0),
           c=st.floats(min_value=0.25, max_value=8.0))
    @settings(max_examples=100, deadline=None)
    def test_scaling_preserves_verdicts(self, q, c):
        M = sq.qgevrey(q, K=64)
        r1 = sq.check_nonquasianalytic(M)
        r2 = sq.check_nonquasianalytic(M.scaled(c))
        assert r1.verdict == r2.verdict

    @given(t=st.floats(min_value=0.02, max_value=0.9))
    @settings(max_examples=150, deadline=None)
    def test_gamma_is_argmin(self, t):
        M = sq.gevrey(1, K=64)
        g = sq.gamma_count(M, math.log(t))
        _, k_min, _ = h_assoc(M, math.log(t))
        assert g == k_min  # smallest-index tie rule on both sides
