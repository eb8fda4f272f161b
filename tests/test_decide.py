import math

import numpy as np
import pytest

from ultrajet import decide as dec
from ultrajet import seqcalc as sq
from ultrajet import weightfunc as wf
from ultrajet.errors import QuasianalyticInput
from ultrajet.report import HOLDS


class TestCheck43:
    def test_omega2_rows_hold(self, omega2_matrix):
        for row in omega2_matrix.rows:
            assert dec.check_43(row).verdict == HOLDS

    def test_qgevrey_holds_bounded_ratio(self, qgevrey2):
        r = dec.check_43(qgevrey2)
        assert r.verdict == HOLDS
        assert r.witness_constant <= 3.0 + 1e-6  # ratio 4 needs C = 3 at worst

    def test_fast_table_fails_trend(self):
        # quotients exp(k!): the ratio explodes past every admissible C
        k = np.arange(1, 13, dtype=float)
        import scipy.special as sp
        log_mu = np.exp(sp.gammaln(k + 1))  # log nu_k = k!
        M = sq.WeightSequence(np.concatenate([[0.0], np.cumsum(log_mu)]), "expfact")
        r = dec.check_43(M, K_eff=10)
        assert r.verdict != HOLDS


class TestCheck14:
    def test_gevrey_pair_example(self, gevrey1, gevrey2):
        r = dec.check_14(gevrey1, gevrey2)
        assert r.verdict == HOLDS
        # witness: max_k k T_k with T_k = sum_{l >= k} l^{-2}; at k = 1 this
        # is pi^2/6, and k T_k decreases toward 1
        assert r.witness_constant == pytest.approx(math.pi ** 2 / 6, rel=1e-6)

    def test_self_pair_gevrey2(self, gevrey2):
        r = dec.check_14(gevrey2, gevrey2)
        assert r.verdict == HOLDS

    def test_quasianalytic_target_rejected(self, gevrey2, gevrey1):
        with pytest.raises(QuasianalyticInput):
            dec.check_14(gevrey2, gevrey1)


class TestPhiPk:
    def test_gevrey1_example(self, gevrey1):
        # sup_{j<5} (120 / j!)^{1/(5-j)} = 5 at j = 4
        assert dec.phi_pk(gevrey1, gevrey1, 1, 5) == pytest.approx(5.0, rel=1e-9)

    def test_decreasing_in_p(self, gevrey2):
        vals = [dec.phi_pk(gevrey2, gevrey2, p, 7) for p in (1, 2, 4, 8)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_bounded_by_quotient(self, gevrey1, gevrey2):
        # phi_{p,k} <= mu_k whenever M <= N and p >= 1
        for k in range(1, 40):
            for p in (1, 2, 4):
                assert (dec.phi_pk(gevrey1, gevrey2, p, k)
                        <= math.exp(gevrey1.log_mu[k - 1]) * (1 + 1e-9))

    def test_brute_force_oracle(self, gevrey1):
        for (p, k) in [(1, 5), (2, 9), (4, 12)]:
            vals = [(math.exp(gevrey1.log_M[k]) / (p ** k * math.exp(gevrey1.log_M[j])))
                    ** (1.0 / (k - j)) for j in range(k)]
            assert dec.phi_pk(gevrey1, gevrey1, p, k) == pytest.approx(max(vals),
                                                                       rel=1e-9)


class TestMatrixConditions:
    def test_519_omega2(self, omega2_matrix):
        v = dec.check_519(omega2_matrix)
        assert v.verdict.verdict == HOLDS
        assert len(v.witnessing_row_pairs) == len(omega2_matrix)

    def test_519_gevrey2_singleton(self, gevrey2):
        mat = wf.matrix_from_rows([gevrey2], params=[1.0])
        v = dec.check_519(mat)
        assert v.verdict.verdict == HOLDS
        assert v.witnessing_row_pairs == ((0, 0),)

    def test_519_two_row_cross(self, gevrey2):
        mat = wf.matrix_from_rows([gevrey2, sq.gevrey(3, K=512)], params=[1.0, 2.0])
        v = dec.check_519(mat)
        assert v.verdict.verdict == HOLDS

    def test_lemma_510_coherence(self, omega2_matrix, gevrey2):
        for mat in (omega2_matrix, wf.matrix_from_rows([gevrey2], params=[1.0])):
            coh = dec.lemma_510_coherent(mat)
            assert coh["agree"]

    def test_decide_yes_omega2(self, omega2_matrix):
        v = dec.decide_extension_property(omega2_matrix,
                                          weight_function=wf.omega_s(2))
        assert v["extension_property"] == "YES"
        assert v["lemma_5.10_agree"]

    def test_decide_checks_519_once(self, omega2_matrix, monkeypatch):
        calls = []
        check_519 = dec.check_519

        def counted(*args, **kwargs):
            calls.append(1)
            return check_519(*args, **kwargs)

        monkeypatch.setattr(dec, "check_519", counted)
        v = dec.decide_extension_property(omega2_matrix,
                                          weight_function=wf.omega_s(2))
        assert v["extension_property"] == "YES"
        assert len(calls) == 1

    def test_decide_yes_gevrey2(self, gevrey2):
        mat = wf.matrix_from_rows([gevrey2], params=[1.0])
        assert dec.decide_extension_property(mat)["extension_property"] == "YES"

    def test_mixed_pair_cor55_shape(self, gevrey2):
        # target M = gevrey(3/2) inside N = gevrey(2): tail versus k/mu_k
        M = sq.gevrey(1.5, K=512)
        r = dec.check_14(M, gevrey2)
        assert r.verdict == HOLDS
        quot = sq.check_equivalence(M, gevrey2)
        assert quot["quotient_forward"].verdict == HOLDS  # mu <~ nu

    def test_rescaling_invariance(self, gevrey2):
        mat = wf.matrix_from_rows([gevrey2], params=[1.0])
        scaled = wf.matrix_from_rows([gevrey2.scaled(4.0)], params=[1.0])
        v1 = dec.decide_extension_property(mat)
        v2 = dec.decide_extension_property(scaled)
        assert v1["extension_property"] == v2["extension_property"]
