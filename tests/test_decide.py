import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ultrajet import decide as dec
from ultrajet import descend as dsc
from ultrajet import seqcalc as sq
from ultrajet import tails
from ultrajet import weightfunc as wf
from ultrajet.errors import PrefixExhausted, QuasianalyticInput, ReportError, UltrajetError
from ultrajet.report import FAILS, CheckReport, HOLDS, report_from_log_witnesses


def _log_phi_pk_oracle(M, N, p, K_eff):
    """The scalar definition: one max over j < k per k."""
    out = np.empty(K_eff)
    for k in range(1, K_eff + 1):
        j = np.arange(0, k)
        out[k - 1] = np.max((M.log_M[k] - k * math.log(p) - N.log_M[j]) / (k - j))
    return out


def _best_partners_oracle(table, labels=None):
    """The search over a table of reports: row i -> (label, report) of the
    holding entry of ``table[i]`` with the smallest witness, ties to the first."""
    out = {}
    for i, reps in enumerate(table):
        held = [(lab, rep) for lab, rep in zip(labels or range(len(reps)), reps)
                if rep.holds]
        if held:
            out[i] = min(held, key=lambda c: c[1].log_witness)
    return out


# witness rows near the trend thresholds (growth log 1.25 holds, log 1.75
# fails, cap 60), with non-finite entries; entries of a block repeat rows
# of a small pool, so exact witness ties are common
_ENTRY = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, 0.0, 0.2, 61.0]),
                   st.floats(-5.0, 65.0))


@st.composite
def _witness_blocks(draw):
    k = draw(st.integers(1, 12))
    row = st.one_of(
        st.lists(_ENTRY, min_size=k, max_size=k),
        st.builds(lambda v, g: [v + g * i for i in range(k)], _ENTRY,
                  st.sampled_from([0.0, 0.01, 0.05, 0.1, 1.0])))
    pool = draw(st.lists(row, min_size=1, max_size=5))
    n_rows, n_entries = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    pick = st.lists(st.integers(0, len(pool) - 1), min_size=n_entries, max_size=n_entries)
    return np.array([[pool[i] for i in draw(pick)] for _ in range(n_rows)])


def test_fails_report_needs_counterexample():
    with pytest.raises(ReportError) as err:
        CheckReport(FAILS, 64)
    assert err.value.code == "NO_COUNTEREXAMPLE"
    assert CheckReport(FAILS, 64, counterexample_index=7).counterexample_index == 7


class TestBestPartners:
    @given(blocks=_witness_blocks(), K=st.integers(1, 600), labelled=st.booleans())
    @example(blocks=np.array([
        [[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [1.0, math.nan, 1.0, 1.0]],  # tie
        [[0.0, 0.0, 5.0, 5.0], [61.0, 61.0, 61.0, 61.0], [math.nan] * 4],  # none holds
        [[math.inf, 2.0, -math.inf, 2.1], [3.0, 0.0, 3.0, 0.0], [0.0, 0.3, 0.3, 0.3]],
    ]), K=8, labelled=True)
    @example(blocks=np.array([[[math.nan] * 8 + [2.05e-200], [0.0] * 9]]),  # one exp,
             K=1, labelled=False)                                          # two logs
    @settings(max_examples=200, deadline=None)
    def test_matches_report_oracle(self, blocks, K, labelled):
        labels = ([("row", j) for j in range(blocks.shape[1])] if labelled else None)
        want = _best_partners_oracle(
            [[report_from_log_witnesses(w, K) for w in block] for block in blocks], labels)
        got = wf.best_partners((b for b in blocks), K, labels)
        assert list(got) == list(want)
        for i in want:
            assert got[i][0] == want[i][0]
            assert got[i][1].to_dict() == want[i][1].to_dict()


    def test_smallest_log_wins_where_exps_tie(self):
        # e^2.05e-200 and e^0 round to one double; the partner is the smaller log
        block = np.array([[math.nan] * 8 + [2.05e-200], [0.0] * 9])
        (lab, rep), = wf.best_partners([block], 1).values()
        assert (lab, rep.log_witness) == (1, 0.0)


class TestCheck43:
    def test_omega2_rows_hold(self, omega2_matrix):
        for row in omega2_matrix.rows:
            assert dsc.check_43(row).verdict == HOLDS

    def test_qgevrey_holds_bounded_ratio(self, qgevrey2):
        r = dsc.check_43(qgevrey2)
        assert r.verdict == HOLDS
        assert r.log_witness <= math.log(3.0) + 1e-6  # ratio 4 needs C = 3 at worst

    def test_fast_table_fails_trend(self):
        # quotients exp(k!): the ratio explodes past every admissible C
        k = np.arange(1, 13, dtype=float)
        import scipy.special as sp
        log_mu = np.exp(sp.gammaln(k + 1))  # log nu_k = k!
        M = sq.WeightSequence(np.concatenate([[0.0], np.cumsum(log_mu)]), "expfact")
        r = dsc.check_43(M, K_eff=10)
        assert r.verdict != HOLDS


class TestCheck14:
    def test_gevrey_pair_example(self, gevrey1, gevrey2):
        r = dec.check_14(gevrey1, gevrey2)
        assert r.verdict == HOLDS
        # witness: max_k k T_k with T_k = sum_{l >= k} l^{-2}; at k = 1 this
        # is pi^2/6, and k T_k decreases toward 1
        assert math.exp(r.log_witness) == pytest.approx(math.pi ** 2 / 6, rel=1e-6)

    def test_self_pair_gevrey2(self, gevrey2):
        r = dec.check_14(gevrey2, gevrey2)
        assert r.verdict == HOLDS

    def test_quasianalytic_target_rejected(self, gevrey2, gevrey1):
        with pytest.raises(QuasianalyticInput):
            dec.check_14(gevrey2, gevrey1)


def _phi_pk(M, N, p, k):
    """phi_{p,k}: the last entry of the table up to k, exponentiated."""
    return math.exp(dec.log_phi_pk_all(M, N, (p,), k)[0, -1])


class TestPhiPk:
    def test_gevrey1_example(self, gevrey1):
        # sup_{j<5} (120 / j!)^{1/(5-j)} = 5 at j = 4
        assert _phi_pk(gevrey1, gevrey1, 1, 5) == pytest.approx(5.0, rel=1e-9)

    def test_decreasing_in_p(self, gevrey2):
        vals = [_phi_pk(gevrey2, gevrey2, p, 7) for p in (1, 2, 4, 8)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_bounded_by_quotient(self, gevrey1, gevrey2):
        # phi_{p,k} <= mu_k whenever M <= N and p >= 1
        for p in (1, 2, 4):
            table = dec.log_phi_pk_all(gevrey1, gevrey2, (p,), 39)[0]
            assert np.all(np.exp(table) <= np.exp(gevrey1.log_mu[:39]) * (1 + 1e-9))

    def test_brute_force_oracle(self, gevrey1):
        for (p, k) in [(1, 5), (2, 9), (4, 12)]:
            vals = [(math.exp(gevrey1.log_M[k]) / (p ** k * math.exp(gevrey1.log_M[j])))
                    ** (1.0 / (k - j)) for j in range(k)]
            assert _phi_pk(gevrey1, gevrey1, p, k) == pytest.approx(max(vals), rel=1e-9)

    def test_k_past_prefix_is_coded(self, gevrey1):
        with pytest.raises(PrefixExhausted):
            dec.log_phi_pk_all(gevrey1, gevrey1, (1,), gevrey1.K + 1)


@st.composite
def _family_row(draw, K):
    """A gevrey, qgevrey or powerlog row (powerlog with p = 1 is geometric:
    its log nu is constant, so every slope to (k, A) ties in exact arithmetic)."""
    family = draw(st.sampled_from(["gevrey", "qgevrey", "powerlog"]))
    if family == "gevrey":
        return sq.gevrey(draw(st.floats(1.5, 4)), K=K)
    if family == "qgevrey":
        return sq.qgevrey(draw(st.floats(1.01, 3)), K=K)
    return sq.powerlog(draw(st.floats(1.01, 5)), draw(st.floats(1, 2.5)), K=K)


def _not_log_convex_rows(K=64):
    """A row with a kink (log nu_10 lowered by 3) and a validated row whose
    log nu drops by 5e-6 at K/2, inside MU_MONOTONE_TOL of log nu ~ 1e4."""
    log_nu = 2 * np.log(np.arange(1, K + 1.0))
    log_nu[9] -= 3
    kink = sq.from_log_quotients(log_nu, "kink")
    log_nu = 1e4 + 1e-7 * np.arange(K)
    log_nu[K // 2:] -= 5e-6
    drop = sq.validate_sequence(np.concatenate([[0.0], np.cumsum(log_nu)]), "drop")
    return [kink, drop]


class TestLogPhiTable:
    @given(K=st.integers(2, 96), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_table_equals_scalar_definition(self, K, data):
        M, N = data.draw(_family_row(K)), data.draw(_family_row(K))
        K_eff = data.draw(st.sampled_from([1, 2, K, data.draw(st.integers(1, K))]))
        table = dec.log_phi_pk_all(M, N, dec.P_GRID_DEFAULT, K_eff)
        assert table.shape == (len(dec.P_GRID_DEFAULT), K_eff)
        for row, p in zip(table, dec.P_GRID_DEFAULT):
            assert np.array_equal(row, _log_phi_pk_oracle(M, N, p, K_eff))

    def test_whole_window_rows_equal_scalar_definition(self):
        # rows that are not log-convex keep the whole window; in an omega_s
        # matrix log M^(2x)_k = log M^(x)_{2k} / 2, so at p = 1 and k = 2^m
        # the slopes from row x to row 2^m x tie at j = 0 and 1, and those
        # entries fall back to the whole window
        for rows, K_eff in ((_not_log_convex_rows(), 64),
                            (wf.associated_matrix(wf.omega_s(3), K=64).rows, 32)):
            for M in [*rows, sq.gevrey(2, K=64)]:
                table = dec.log_phi_pk_all(M, rows, dec.P_GRID_DEFAULT, K_eff)
                for N, t_N in zip(rows, table):
                    for row, p in zip(t_N, dec.P_GRID_DEFAULT):
                        assert np.array_equal(row, _log_phi_pk_oracle(M, N, p, K_eff))

    def test_past_prefix_is_coded(self, gevrey2):
        with pytest.raises(PrefixExhausted):
            dec.log_phi_pk_all(gevrey2, gevrey2, dec.P_GRID_DEFAULT, gevrey2.K + 1)

    def test_checks_past_prefix_are_coded(self):
        mat = wf.matrix_from_rows([sq.gevrey(2, K=16)], params=[1.0])
        with pytest.raises(PrefixExhausted):
            dec.check_518(mat, K_eff=17)
        with pytest.raises(PrefixExhausted):
            dec.check_519(mat, K_eff=17)

    def test_check_518_matches_oracle_reference(self):
        for mat in (wf.matrix_from_rows([sq.gevrey(s, K=64) for s in (1.5, 2.0, 3.0)],
                                        params=[1.0, 2.0, 3.0]),
                    wf.associated_matrix(wf.omega_s(2.5), K=128)):
            rows, n, K_eff = mat.rows, len(mat.rows), mat.K // 2
            log_k = np.log(np.arange(1, K_eff + 1, dtype=float))
            table = [[report_from_log_witnesses(
                          Nd.tail.log_T[:K_eff] + _log_phi_pk_oracle(N, Nd, p, K_eff) - log_k,
                          K_eff)
                      for Nd in rows for p in dec.P_GRID_DEFAULT] for N in rows]
            partners = _best_partners_oracle(
                table, labels=[(j, p) for j in range(n) for p in dec.P_GRID_DEFAULT])
            v = dec.check_518(mat)
            assert v.verdict == wf.existential_verdict(
                partners, n, K_eff, "sum_{l>=k} 1/nudot_l <= C k/phi_{p,k} per row")
            assert v.witnessing_row_pairs == tuple(
                (i, j, p) for i, ((j, p), _) in partners.items())
            assert v.log_witnesses == {f"{i}->{j},p={p}": r.log_witness
                                   for i, ((j, p), r) in partners.items()}
            assert len(v.witnessing_row_pairs) == n


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
            v = dec.decide_extension_property(mat, require_admissible=False)
            assert v["lemma_5.10_agree"]

    def test_decide_yes_omega2(self, omega2_matrix):
        v = dec.decide_extension_property(omega2_matrix,
                                          weight_function=wf.omega_s(2))
        assert v["extension_property"] == "YES"
        assert v["lemma_5.10_agree"]

    @pytest.mark.parametrize("s", [1.5, 1.9])
    def test_omega_s_below_2_averaged_holds_beside_43_fails(self, s):
        # omega_s(s) for s < 2: the rows fail quotient regularity (4.3), while
        # the weight-function conditions hold for every s > 1 with A = 2^{s-1}
        w = wf.omega_s(s)
        v = dec.decide_extension_property(wf.associated_matrix(w, K=512),
                                          weight_function=w, require_admissible=False)
        assert v["admissibility"]["4.6-3"]["verdict"] == FAILS
        assert v["extension_property"] == "UNDECIDED_IN_SAMPLE"
        cor = v["cor5.13-3"]
        assert [cor[k]["verdict"] for k in ("integral", "averaged")] == [HOLDS, HOLDS]
        assert cor["averaged"]["details"]["A"] == pytest.approx(2.0 ** (s - 1), rel=1e-15)

    def test_decide_checks_519_once(self, omega2_matrix, count_calls):
        calls = count_calls(dec.check_519)
        v = dec.decide_extension_property(omega2_matrix,
                                          weight_function=wf.omega_s(2))
        assert v["extension_property"] == "YES"
        assert len(calls) == 1

    def test_decide_builds_two_domination_tables(self, omega2_matrix, count_calls):
        calls = count_calls(wf.domination_table)
        v = dec.decide_extension_property(omega2_matrix,
                                          weight_function=wf.omega_s(2))
        assert v["extension_property"] == "YES"
        assert sorted(args[1] for args in calls) == [1, 4, 5]

    def test_decide_builds_few_reports(self, omega2_matrix, monkeypatch):
        # existential searches build a report only for the partner they keep
        made = []
        post_init = CheckReport.__post_init__

        def counted(rep):
            made.append(rep)
            post_init(rep)

        monkeypatch.setattr(CheckReport, "__post_init__", counted)
        v = dec.decide_extension_property(omega2_matrix,
                                          weight_function=wf.omega_s(2))
        assert v["extension_property"] == "YES"
        assert len(made) <= 60

    def test_decide_quasianalytic_row(self, gevrey1, gevrey2):
        mat = wf.matrix_from_rows([gevrey1, gevrey2])
        with pytest.raises(UltrajetError, match=r"\['4\.6-2'\]") as exc:
            dec.decide_extension_property(mat)
        assert exc.value.code == "NOT_ADMISSIBLE_IN_SAMPLE"
        v = dec.decide_extension_property(mat, require_admissible=False)
        assert v["admissibility"]["4.6-2"]["verdict"] == FAILS
        assert v["extension_property"] == "UNDECIDED_IN_SAMPLE"
        assert "['4.6-2']" in v["warning"]

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


class TestOneTailPerRow:
    def test_decide_computes_each_row_tail_once(self, count_calls):
        mat = wf.associated_matrix(wf.omega_s(2), K=512)  # no tail cached yet
        calls = count_calls(tails.log_suffix_sums)
        v = dec.decide_extension_property(mat, weight_function=wf.omega_s(2))
        assert v["extension_property"] == "YES"
        assert len(calls) == len(mat.rows) == 10

    def test_decide_checks_each_row_nonquasianalytic_once(self, count_calls):
        mat = wf.associated_matrix(wf.omega_s(2), K=512)  # no report cached yet
        calls = count_calls(sq.check_nonquasianalytic)
        v = dec.decide_extension_property(mat, weight_function=wf.omega_s(2))
        assert v["extension_property"] == "YES"
        assert len(calls) == len(mat.rows) == 10

    def test_row_tail_equals_a_fresh_one(self, omega2_matrix):
        for N in omega2_matrix.rows:
            fresh = tails.log_suffix_sums(-N.log_mu).log_T
            assert N.tail.log_T.tobytes() == fresh.tobytes()

    def test_deep_underflow_row_is_reliable(self, omega2_rho64):
        est = omega2_rho64.tail.est
        assert est.method == "geometric"
        assert math.isfinite(est.log_err)  # a finite, nonzero error bar
        omega2_rho64.tail.require_reliable(omega2_rho64.family_tag)
