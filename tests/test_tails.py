import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.special import polygamma
import mpmath

from ultrajet import seqcalc as sq
from ultrajet import weightfunc as wf
from ultrajet.errors import TailUnreliable
from ultrajet.tails import (FIT_ORDERS, RESID_GOOD, TAIL_REL_CAP, estimate_tail,
                            hurwitz_zeta, log_suffix_sums)


def _zeta_em_60(s, a):
    """a^s zeta(s, a) to 60 digits: 200 direct terms, then Euler-Maclaurin
    with B_2..B_40 (at 40 digits mpmath.zeta(50.03, 572) is 1.6e-10 off)."""
    with mpmath.workdps(60):
        s, a = mpmath.mpf(s), mpmath.mpf(a)
        x = a + 200
        tail = x ** (1 - s) / (s - 1) + x ** -s / 2 + mpmath.fsum(
            mpmath.bernoulli(2 * j) / mpmath.factorial(2 * j) * mpmath.rf(s, 2 * j - 1)
            * x ** (-s - 2 * j + 1) for j in range(1, 21))
        return (mpmath.fsum((a + n) ** -s for n in range(200)) + tail) * a ** s


def _rel_err(got, want):
    return float(abs((mpmath.mpf(float(got)) - want) / want))


class TestHurwitzZeta:
    @given(s=st.floats(1.05, 12.0), a=st.floats(1.0, 5000.0))
    @settings(max_examples=200, deadline=None)
    def test_matches_mpmath_zeta(self, s, a):
        # 60 digits: at 40, mpmath.zeta(12, 2487) is 6.5e-13 off
        with mpmath.workdps(60):
            want = mpmath.zeta(s, a) * mpmath.mpf(a) ** s
        assert _rel_err(hurwitz_zeta(np.array([s]), a)[0], want) <= 1e-14

    @given(s=st.floats(12.0, 60.0), a=st.floats(1.0, 5000.0))
    @settings(max_examples=100, deadline=None)
    def test_large_s_matches_60_digit_sum(self, s, a):
        assert _rel_err(hurwitz_zeta(np.array([s]), a)[0], _zeta_em_60(s, a)) <= 1e-14

    @given(s=st.lists(st.floats(1.05, 60.0), min_size=1, max_size=8),
           a=st.floats(1.0, 5000.0))
    @settings(max_examples=100, deadline=None)
    def test_array_equals_one_element_calls(self, s, a):
        got = hurwitz_zeta(np.array(s), a)
        assert got.shape == (len(s),)
        for si, zi in zip(s, got):
            assert zi == hurwitz_zeta(np.array([si]), a)[0]

    def test_gevrey2_fit_order_4(self):
        # the q = 4 term of the gevrey(2) power-law fit; mpmath.zeta at
        # 53 bits is 2.3e-11 off here
        s, a = 6.000000000029447, 513
        assert _rel_err(hurwitz_zeta(np.array([s]), a)[0], _zeta_em_60(s, a)) <= 5e-16


def test_powerlaw_exact_families():
    K = 512
    j = np.arange(1, K + 1, dtype=float)
    cases = [
        (1.0 / (j + 1.0) ** 2, float(polygamma(1, K + 2))),
        (1.0 / j ** 2, float(polygamma(1, K + 1))),
        (1.0 / j ** 1.2, float(mpmath.zeta(1.2, K + 1))),
        (1.0 / (j + 3.0) ** 2.5, float(mpmath.zeta(2.5, K + 4))),
    ]
    for vals, true in cases:
        est = estimate_tail(np.log(vals))
        assert est.method == "powerlaw"
        assert math.exp(est.log_beyond) == pytest.approx(true, rel=1e-8)
        assert abs(math.exp(est.log_beyond) - true) <= math.exp(est.log_err)

def test_geometric_family():
    K = 256
    j = np.arange(1, K + 1, dtype=float)
    log_vals = -0.5 * j
    true = np.exp(-0.5 * (K + 1)) / (1 - np.exp(-0.5))
    est = estimate_tail(log_vals)
    assert est.method == "geometric"
    assert math.exp(est.log_beyond) == pytest.approx(true, rel=1e-10)


def test_log_corrected_family_covered_by_err_bar():
    K = 512
    j = np.arange(1, K + 1, dtype=float)
    vals = 1.0 / (j ** 2 * (1.0 + np.log(j)))
    true = sum(1.0 / (m ** 2 * (1.0 + np.log(m))) for m in range(K + 1, 300_000))
    est = estimate_tail(np.log(vals))
    assert abs(math.exp(est.log_beyond) - true) <= math.exp(est.log_err)


def test_suffix_sums_match_prefix():
    j = np.arange(1, 257, dtype=float)
    vals = 1.0 / j ** 2
    suffix = np.exp(log_suffix_sums(np.log(vals)).log_T)
    assert suffix[10] - suffix[200] == pytest.approx(np.sum(vals[10:200]), rel=1e-12)


def test_tail_unreliable_raised():
    j = np.arange(1, 65, dtype=float)
    vals = 1.0 / j ** 1.2  # heavy tail: estimate dwarfs the cap
    tail = log_suffix_sums(np.log(vals))  # computing it never raises
    log_bound = np.logaddexp(tail.est.log_beyond, tail.est.log_err)
    assert log_bound > math.log(TAIL_REL_CAP) + tail.log_T[0]
    with pytest.raises(TailUnreliable, match=r"^heavy: tail bound .* exceeds 1% of partial sum"):
        tail.require_reliable("heavy")


def test_log_suffix_deep_underflow():
    # decays e^{-8} per step: values hit e^{-2000}, far below double range
    k = np.arange(1, 257, dtype=float)
    log_vals = -4.0 * (2.0 * k - 1.0)
    log_T = log_suffix_sums(log_vals).log_T
    # T_k is dominated by its first term: log T_k = log v_k + log(1/(1-q))
    q = np.exp(-8.0)
    expect = log_vals + np.log(1.0 / (1.0 - q))
    assert np.allclose(log_T, expect, atol=1e-10)


def test_deep_underflow_without_decay_is_unreliable():
    log_vals = np.concatenate([-4.0 * np.arange(1.0, 201.0), np.full(16, -800.0)])
    tail = log_suffix_sums(log_vals)  # computing it never raises
    assert tail.est.method == "none" and tail.est.log_err == np.inf
    with pytest.raises(TailUnreliable, match=r"^row: tail bound inf exceeds 1% of partial sum"):
        tail.require_reliable("row")


def test_log_suffix_matches_linear_when_healthy():
    j = np.arange(1, 257, dtype=float)
    vals = 1.0 / j ** 2
    tail = log_suffix_sums(np.log(vals))
    suffix = np.cumsum(vals[::-1])[::-1] + math.exp(tail.est.log_beyond)
    assert np.allclose(tail.log_T, np.log(suffix), atol=1e-12)


def _oracle_powerlaw_fit(vals, K, orders, lo_frac):
    """The linear-domain power-law fit: a sum_q e_q zeta(b + q, K + 1)."""
    j = np.arange(1, K + 1, dtype=float)
    w = slice(int(lo_frac * K), K)
    jw, yw = j[w], np.log(vals[w])
    X = np.stack([np.ones_like(jw), np.log(jw)]
                 + [(K / jw) ** q for q in range(1, orders + 1)], axis=1)
    coef, *_ = np.linalg.lstsq(X, yw, rcond=None)
    resid = float(np.abs(X @ coef - yw).max())
    b = -coef[1]
    if not np.isfinite(b) or b <= 1.05:
        return None
    c = np.zeros(orders + 1)
    for q in range(1, orders + 1):
        c[q] = coef[2 + q - 1] * K ** q
    e = np.zeros(orders + 1)
    e[0] = 1.0
    for n in range(1, orders + 1):
        e[n] = sum(m * c[m] * e[n - m] for m in range(1, n + 1)) / n
    if np.max(np.abs(e[1:]) * (1.0 / K) ** np.arange(1, orders + 1)) > 0.5:
        return None
    s = b + np.arange(orders + 1)
    z = hurwitz_zeta(s, K + 1) * (K + 1.0) ** -s  # zeta(s, K + 1) itself
    est = math.exp(coef[0]) * sum(float(e[q]) * float(z[q]) for q in range(orders + 1))
    if not np.isfinite(est) or est < 0:
        return None
    return est, resid


def _oracle_suffix_sums(vals):
    """The linear-domain suffix sums for rows within double range:
    (log T, method, estimate past K)."""
    K = len(vals)
    fits = {(o, f): _oracle_powerlaw_fit(vals, K, o, f)
            for o, f in [(FIT_ORDERS, 0.5), (FIT_ORDERS - 1, 0.5), (FIT_ORDERS, 0.75)]}
    main = fits[(FIT_ORDERS, 0.5)]
    ratios = vals[-8:] / vals[-9:-1]
    r = float(ratios[-1])
    if main is not None and main[1] < RESID_GOOD:
        method, beyond = "powerlaw", main[0]
    elif np.all(ratios < 0.999) and r < 0.999:
        method, beyond = "geometric", vals[-1] * r / (1.0 - r)
    else:
        method, beyond = "none", 0.0
    return np.log(np.cumsum(vals[::-1])[::-1] + beyond), method, beyond


@st.composite
def _in_range_row(draw):
    """1/nu_k for k <= K of a gevrey(s), powerlog or omega_2 (x <= 2) row."""
    K = draw(st.integers(64, 1024))
    family = draw(st.sampled_from(["gevrey", "powerlog", "omega2"]))
    if family == "gevrey":
        row = sq.gevrey(draw(st.floats(1.2, 3.0)), K=K)
    elif family == "powerlog":
        row = sq.powerlog(draw(st.floats(1.01, 5.0)), draw(st.floats(1.0, 2.5)), K=K)
    else:
        x = draw(st.sampled_from([0.125, 0.25, 0.5, 1.0, 2.0]))
        row = wf.associated_matrix(wf.omega_s(2), params=(x,), K=K).rows[0]
    return -row.log_mu


@given(log_vals=_in_range_row())
@settings(max_examples=60, deadline=None)
def test_log_path_matches_linear_oracle(log_vals):
    assume(np.min(log_vals) > -700.0)
    log_T_lin, method, beyond = _oracle_suffix_sums(np.exp(log_vals))
    tail = log_suffix_sums(log_vals)
    assert tail.est.method == method
    assert np.max(np.abs(tail.log_T - log_T_lin)) <= 1e-12
    if method != "none":
        assert abs(tail.est.log_beyond - math.log(beyond)) <= 1e-12 * abs(math.log(beyond))
