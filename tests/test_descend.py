import math

import numpy as np
import pytest
from scipy.special import polygamma

from ultrajet import descend as dsc
from ultrajet import seqcalc as sq
from ultrajet import weightfunc as wf
from ultrajet.errors import NonincreasingResult, PrefixExhausted, QuasianalyticInput
from ultrajet.report import FAILS, HOLDS


class TestDescend:
    def test_quasianalytic_rejected(self, gevrey1):
        with pytest.raises(QuasianalyticInput):
            dsc.descend(gevrey1)

    def test_past_prefix_is_coded(self):
        with pytest.raises(PrefixExhausted):
            dsc.descend(sq.gevrey(2, K=16), K_eff=17)

    def test_sigma_star_starts_at_one(self, kplus1_sq):
        D = dsc.descend(kplus1_sq, K_eff=512)
        assert D.log_sigma_star[0] == pytest.approx(0.0, abs=1e-12)
        assert D.log_sigma[0] == pytest.approx(0.0, abs=1e-12)

    def test_tau_against_trigamma_oracle(self, kplus1_sq):
        # nu_k = (k+1)^2: tau_k = k/(k+1)^2 + psi'(k+1) exactly
        D = dsc.descend(kplus1_sq, K_eff=512)
        for k in (1, 2, 17, 128, 511):
            exact = k / (k + 1.0) ** 2 + float(polygamma(1, k + 1))
            assert math.exp(D.log_tau[k - 1]) == pytest.approx(exact, rel=1e-9)

    def test_sigma_equivalent_to_nu_strong_case(self, kplus1_sq):
        # strong non-quasianalyticity: descendant ~ the input quotients
        D = dsc.descend(kplus1_sq, K_eff=512)
        log_nu = kplus1_sq.log_mu[:512]
        gap = D.log_sigma - log_nu
        assert np.max(gap) < 0.0           # sigma <= nu here
        assert np.min(gap) > -3.0          # and within a bounded factor

    def test_monotone_in_tail_handling(self, kplus1_sq):
        N2 = kplus1_sq.truncated(900)
        D1 = dsc.descend(kplus1_sq, K_eff=256)
        D2 = dsc.descend(N2, K_eff=256)
        dev = np.abs(np.exp(D1.log_tau - D2.log_tau) - 1.0)
        err = np.exp(max(kplus1_sq.tail.est.log_err, N2.tail.est.log_err))
        assert np.max(dev) < max(err, 1e-8) * 100


class TestLemma42:
    def test_items_kplus1(self, kplus1_sq):
        D = dsc.descend(kplus1_sq, K_eff=512)
        reps = dsc.check_lemma42(kplus1_sq, D, Ndot=kplus1_sq)
        assert all(r.verdict == HOLDS for r in reps.values())
        # item (2) witness: max_k T_k sigma_k / k, attained at k = 1 where
        # sigma_1 = 1 and T_1 = sum_{j>=1} (j+1)^{-2} = pi^2/6 - 1
        assert math.exp(reps["4.2-2"].log_witness) == pytest.approx(
            math.pi ** 2 / 6 - 1.0, rel=1e-6)

    def test_item6_omega_rows(self, omega2_matrix):
        mat = omega2_matrix
        i, j = mat.params.index(1.0), mat.params.index(4.0)
        D = dsc.descend(mat.rows[i], K_eff=256)
        reps = dsc.check_lemma42(mat.rows[i], D, Ndot=mat.rows[j])
        assert reps["4.2-6"].verdict == HOLDS

    def test_item4_qgevrey_both_routes(self, qgevrey2):
        D = dsc.descend(qgevrey2, K_eff=256)
        reps = dsc.check_lemma42(qgevrey2, D)
        assert reps["4.2-4"].verdict == HOLDS  # ratio bounded: both routes agree

    def test_item4_powerlog_both_routes_fail(self):
        # (4.3) reads the quotient nu*_{k+1} = nu_{k+1}/(k+1): it then fails
        # with sigma_{k+1} <~ sigma_k instead of holding
        N = sq.powerlog(1.05, 3, K=128)
        rep = dsc.check_lemma42(N, dsc.descend(N))["4.2-4"]
        assert rep.note.endswith("direct=FAILS, via-(4.3)=FAILS")
        assert rep.verdict == FAILS and rep.counterexample_index is not None

    def test_item4_both_failing_forms_report_an_index(self):
        # omega_s(1.5), row x = 16: both forms fail by trend
        mat = wf.associated_matrix(wf.omega_s(1.5), K=512)
        N = mat.rows[mat.params.index(16.0)]
        rep = dsc.check_lemma42(N, dsc.descend(N))["4.2-4"]
        assert rep.verdict == FAILS
        assert rep.counterexample_index == rep.details["direct"]["counterexample_index"]

    @pytest.mark.parametrize("rows", ["sequences", 1.5, 2.0, 2.5, 3.0])
    def test_item4_forms_agree(self, rows):
        if rows == "sequences":
            rows = [sq.gevrey(2, K=128), sq.gevrey(3, K=128), sq.qgevrey(2, K=128),
                    sq.powerlog(1.05, 3, K=128)]
        else:
            mat = wf.associated_matrix(wf.omega_s(rows), K=512)
            # omega_s(3) rows x <= 1/4 have no reliable tail at K = 512: their
            # descend raises TAIL_UNRELIABLE before any item is checked
            rows = [r for x, r in zip(mat.params, mat.rows) if rows < 3.0 or x >= 0.5]
        for N in rows:
            d = dsc.check_lemma42(N, dsc.descend(N))["4.2-4"].details
            assert d["direct"]["verdict"] == d["via_43"]["verdict"], N.family_tag

    def test_maximality_probe_fails_scaled_candidates(self, kplus1_sq):
        D = dsc.descend(kplus1_sq, K_eff=512)
        assert dsc.maximality_probe(kplus1_sq, D).verdict == HOLDS


class TestRecover:
    def test_roundtrip_kplus1(self, kplus1_sq):
        D = dsc.descend(kplus1_sq, K_eff=512)
        nu2 = dsc.recover_predecessor(np.exp(D.log_sigma), source_tag="k1sq")
        D2 = dsc.descend(nu2, K_eff=256)
        rel = np.abs(np.exp(D2.log_sigma - D.log_sigma[:256]) - 1.0)
        assert np.max(rel[:128]) < 1e-6

    def test_roundtrip_omega_row(self, omega2_matrix):
        row = omega2_matrix.rows[omega2_matrix.params.index(1.0)]
        D = dsc.descend(row, K_eff=256)
        nu2 = dsc.recover_predecessor(np.exp(np.minimum(D.log_sigma, 700)),
                                      source_tag="w2")
        D2 = dsc.descend(nu2, K_eff=128)
        rel = np.abs(np.exp(D2.log_sigma - D.log_sigma[:128]) - 1.0)
        assert np.max(rel) < 1e-6

    def test_partial_sum_near_one(self, kplus1_sq):
        D = dsc.descend(kplus1_sq, K_eff=512)
        nu2 = dsc.recover_predecessor(np.exp(D.log_sigma))
        partial = float(np.sum(np.exp(-nu2.log_mu)))
        assert 0.9 <= partial <= 1.0

    def test_linear_sigma_rejected(self):
        with pytest.raises(NonincreasingResult):
            dsc.recover_predecessor(np.arange(1, 200, dtype=float))

    def test_recovered_is_increasing(self, kplus1_sq):
        D = dsc.descend(kplus1_sq, K_eff=512)
        nu2 = dsc.recover_predecessor(np.exp(D.log_sigma))
        assert np.all(np.diff(nu2.log_mu) >= -1e-12)
        assert nu2.log_mu[0] >= -1e-12  # nu_1 >= nu_0 = 1
