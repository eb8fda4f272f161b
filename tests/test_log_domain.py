"""Witnesses and exported sequence values are logs, end to end.

Rows built from weight functions leave double range inside the stored
prefix (log mu_512 = 16,368 on the top omega_2 row), so no witness, table
column or weight-function value may pass through exp on its way out.
"""

import math
import warnings

import numpy as np
import pytest

from ultrajet import decide as dec
from ultrajet import descend as dsc
from ultrajet import jets
from ultrajet import seqcalc as sq
from ultrajet import serial, tails
from ultrajet import weightfunc as wf
from ultrajet.extend import ExtensionConfig, extend_jet
from ultrajet.report import FAILS, HOLDS, report_from_log_witnesses


def test_report_keeps_a_witness_past_double_range():
    rep = report_from_log_witnesses(np.array([0.0, 800.0]), 2)
    assert rep.log_witness == 800.0
    assert rep.to_dict()["log_witness"] == 800.0


def test_qgevrey16_doubling_witness_is_its_log():
    # log mu_{2k} - log mu_k = 2k log 16: 256 log 16 on the half prefix,
    # 512 log 16 = 1419.6 on the full one
    rep = sq.check_moderate_growth(sq.qgevrey(16, 512))["L2.2-3"]
    assert rep.verdict == FAILS
    assert rep.log_witness == pytest.approx(512 * math.log(16), rel=1e-13)
    assert rep.details["log_witness_growth"] == pytest.approx(256 * math.log(16),
                                                              rel=1e-13)


def test_table_weight_function_extrapolates_in_log_t():
    # phi = 3 + 2 (y - 2) past the last knot log t = 2
    w = wf.omega_table([(1, 0), (math.e, 1), (math.e ** 2, 3)])
    assert w.phi(800.0) == 1599.0
    assert w(math.e ** 3) == pytest.approx(5.0, rel=1e-15)
    assert w.phi(-math.inf) == 0.0 and w(0.0) == 0.0


def test_sequence_table_of_the_top_omega2_row_is_its_log_data(omega2_rho64):
    M = omega2_rho64
    assert M.log_mu[-1] > 16_000
    cols = serial.sequence_csv_columns(M)
    assert list(cols) == ["k", "logM", "log_mu", "log_m"]
    assert np.array_equal(cols["k"], np.arange(M.K + 1))
    assert np.array_equal(cols["logM"], M.log_M)
    assert np.array_equal(cols["log_mu"], np.concatenate([[0.0], M.log_mu]))
    assert np.array_equal(cols["log_m"], M.log_m_small)


def test_power_law_tail_with_amplitude_past_double_range():
    # 1/nu_j = a j^-250 with log a = 250 log 32 = 866 on the fitted window:
    # the amplitude has no double, but the fit and its sum are logs
    j = np.arange(1, 65, dtype=float)
    log_a, b = 250 * math.log(32.0), 250.0
    log_vals = np.where(j < 32, 0.0, log_a - b * np.log(j))
    n = np.arange(65.0, 20_000.0)
    log_true = np.logaddexp.reduce(log_a - b * np.log(n))
    est = tails.estimate_tail(log_vals)
    assert est.method == "powerlaw"
    rel = abs(math.expm1(est.log_beyond - log_true))
    assert rel <= 1e-10
    assert math.log(rel) + log_true <= est.log_err  # |estimate - truth| <= error bar


def _omega_doubling_full_grid(M):
    """L2.2-5's witness pair by the half-unit grid run to log C = 2100."""
    edge = M.log_mu[-1]

    def smallest(upto):
        lt = M.log_mu[:upto]
        lt = lt[lt < edge]
        om = sq.omega_assoc(M, lt)
        for logC in np.arange(0.0, 2100.0, 0.5):
            inside = lt + logC < edge
            if not np.any(inside) or not np.any(
                    2 * om[inside] > sq.omega_assoc(M, lt[inside] + logC)
                    + math.exp(min(logC, 700.0))):
                return logC
        return math.inf

    return smallest(M.K // 2), smallest(M.K)


@pytest.mark.parametrize("M", [
    sq.gevrey(1), sq.gevrey(2), sq.qgevrey(1.2), sq.qgevrey(16), sq.powerlog(2, 2)],
    ids=["gevrey1", "gevrey2", "qgevrey1.2", "qgevrey16", "powerlog2_2"])
def test_omega_doubling_stops_where_every_t_holds(M):
    half, full = _omega_doubling_full_grid(M)
    rep = sq.check_moderate_growth(M)["L2.2-5"]
    assert rep.log_witness == full
    assert rep.details["log_witness_growth"] == full - half


def test_omega_doubling_on_omega2_rows(omega2_matrix):
    for M in omega2_matrix.rows:
        half, full = _omega_doubling_full_grid(M)
        assert sq.check_moderate_growth(M)["L2.2-5"].log_witness == full <= 15.5


def test_no_overflow_anywhere():
    """Each pipeline on fresh inputs, with floating overflow raised and every
    RuntimeWarning an error: no dropped clamp moved an overflow elsewhere."""
    with np.errstate(over="raise"), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        w2 = wf.omega_s(2)
        v = dec.decide_extension_property(wf.associated_matrix(w2, K=128),
                                          weight_function=w2)
        assert v["extension_property"] == "YES"
        sq.check_moderate_growth(sq.qgevrey(16, 512))
        om2 = wf.associated_matrix(w2, K=512)
        serial.sequence_csv_columns(om2.rows[-1])
        g2 = sq.gevrey(2, K=512)
        D = dsc.descend(g2)
        assert all(r.verdict == HOLDS for r in dsc.check_lemma42(g2, D, Ndot=g2).values())
        point = jets.sample_jet({"kind": "exp"}, jets.CompactSet1D(points=(0.0,)), 16)
        extend_jet(point, om2, ExtensionConfig(p_max_eval=6, d_min=1e-3))
        E = jets.CompactSet1D(points=(2.0,), intervals=((0.0, 1.0),))
        extend_jet(jets.sample_jet({"kind": "exp"}, E, 3),
                   wf.matrix_from_rows([sq.gevrey(2, K=512)], params=[1.0]),
                   ExtensionConfig(p_max_eval=3, d_min=1e-3))
