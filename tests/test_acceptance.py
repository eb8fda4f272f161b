"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; tolerances are fixed here and match the package contracts.
"""

import math
import time

import numpy as np
import pytest

from ultrajet import decide as dec
from ultrajet import descend as dsc
from ultrajet import jets
from ultrajet import seqcalc as sq
from ultrajet import weightfunc as wf
from ultrajet.extend import (ExtensionConfig, check_taylor_difference_bound,
                             cutoffs, extend_jet, partition_of_unity,
                             select_row_chain, verify_cutoff, verify_partition,
                             whitney_cover)
from ultrajet.extend.operator import fit_rho, search_lambda, taylor_degree
from ultrajet.report import FAILS, HOLDS, verdicts_agree


def _report(n, ok, detail=""):
    print(f"\nACCEPTANCE {n}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"acceptance criterion {n} failed: {detail}"


@pytest.fixture(scope="module")
def families512(omega2_matrix):
    fams = {f"gevrey({s:g})": sq.gevrey(s, K=512) for s in (1, 1.5, 2, 3)}
    fams["qgevrey(2)"] = sq.qgevrey(2, K=512)
    fams["powerlog(2,2)"] = sq.powerlog(2, 2, K=512)
    for p, row in zip(omega2_matrix.params, omega2_matrix.rows):
        fams[f"W2[rho={p:g}]"] = row
    return fams


def test_criterion_1_moderate_growth_coherence(families512):
    t0 = time.monotonic()
    disagreements = []
    for name, M in families512.items():
        reps = sq.check_moderate_growth(M)
        if not verdicts_agree(reps.values()):
            disagreements.append((name, {k: r.verdict for k, r in reps.items()}))
    elapsed = time.monotonic() - t0
    _report(1, not disagreements and elapsed < 5.0,
            f"{len(families512)} families, {elapsed:.2f} s"
            + (f"; disagreements: {disagreements}" if disagreements else ""))


def test_criterion_2_associated_identities(families512):
    t0 = time.monotonic()
    worst_dual = 0.0
    worst_rec = 0.0
    bridge_bad = 0
    for name, M in families512.items():
        lo = -float(M.log_mu[-1]) * 0.999
        hi = -float(M.log_mu[0]) if M.log_mu[0] > 1e-12 else -1e-6
        hi = min(hi, -1e-6)
        lts = np.linspace(lo, hi, 10_000)
        k_arr = np.arange(M.K + 1)[None, :]
        vals = M.log_M[None, :] + k_arr * lts[:, None]
        log_h = np.min(vals, axis=1)
        arg = np.argmin(vals, axis=1)
        # Gamma(1/t') = Sigma(t') off quotient points, via the counting forms
        csum = np.concatenate([[0.0], np.cumsum(M.log_mu)])
        n_sig = np.searchsorted(M.log_mu, -lts, side="right")
        om = n_sig * (-lts) - csum[n_sig]
        dual = np.abs(om + log_h)
        worst_dual = max(worst_dual, float(np.max(dual / np.maximum(1.0, np.abs(om)))))
        for lt in lts[:: 1013]:
            if np.min(np.abs(M.log_mu - (-lt))) < 1e-9:
                continue
            if sq.gamma_count(M, lt) != sq.sigma_count(M, -lt):
                bridge_bad += 1
        upto = int(M.K * (1 - 1 / 8))
        ks = np.arange(1, upto, 29)
        rec = np.max(-ks[:, None] * lts[None, :] + log_h[None, :], axis=1)
        err = np.abs(rec - M.log_M[ks]) / np.maximum(1.0, np.abs(M.log_M[ks]))
        worst_rec = max(worst_rec, float(np.max(err)))
    elapsed = time.monotonic() - t0
    ok = worst_dual < 1e-9 and worst_rec < 1e-6 and bridge_bad == 0 and elapsed < 10.0
    _report(2, ok, f"duality {worst_dual:.1e}, recovery {worst_rec:.1e}, "
                   f"bridge mismatches {bridge_bad}, {elapsed:.2f} s")


def test_criterion_3_descendant_suite(kplus1_sq, omega2_matrix):
    checked = []
    # (k+1)^2 family at K_eff = 512 and an omega_2 row, items (1)-(4), (6)
    D = dsc.descend(kplus1_sq, K_eff=512)
    reps = dsc.check_lemma42(kplus1_sq, D, Ndot=kplus1_sq)
    checked.append(all(reps[i].verdict == HOLDS
                       for i in ("4.2-1", "4.2-2", "4.2-3", "4.2-4", "4.2-6")))
    witnesses = {i: reps[i].log_witness for i in reps}
    checked.append(all(w is not None and np.isfinite(w)
                       for w in witnesses.values()))
    row = omega2_matrix.rows[omega2_matrix.params.index(1.0)]
    rowdot = omega2_matrix.rows[omega2_matrix.params.index(4.0)]
    Dw = dsc.descend(row, K_eff=256)
    repw = dsc.check_lemma42(row, Dw, Ndot=rowdot)
    checked.append(all(repw[i].verdict == HOLDS
                       for i in ("4.2-1", "4.2-2", "4.2-3", "4.2-4", "4.2-6")))
    # round trip within 1e-6 for k <= 128
    nu2 = dsc.recover_predecessor(np.exp(D.log_sigma))
    D2 = dsc.descend(nu2, K_eff=256)
    rel = np.abs(np.exp(D2.log_sigma[:128] - D.log_sigma[:128]) - 1.0)
    checked.append(float(np.max(rel)) < 1e-6)
    # partial sums of 1/nu at K = 512 inside [0.9, 1.0]
    partial = float(np.sum(np.exp(-nu2.log_mu)))
    checked.append(0.9 <= partial <= 1.0)
    _report(3, all(checked),
            f"items ok={checked[:3]}, roundtrip {np.max(rel):.1e}, "
            f"partial sum {partial:.4f}")


def test_criterion_4_prop_5_14():
    ok = []
    details = []
    for rho in (0.5, 1.0, 2.0, 4.0):
        mat = wf.associated_matrix(wf.omega_s(2), params=[rho, 6 * rho], K=512)
        row, row6 = mat.rows
        # (1) self tail domination with tail machinery, k <= 256
        w = dec._pair_tail_witness(row, row.tail.log_T, 256)
        from ultrajet.report import report_from_log_witnesses
        rep = report_from_log_witnesses(w, 256)
        ok.append(rep.verdict == HOLDS)
        details.append(f"rho={rho:g}: (1) log C={rep.log_witness:.3g}")
        # (2) quotient regularity per row
        ok.append(dsc.check_43(row).verdict == HOLDS)
        # (3) exact inequality against the 6 rho row, k <= 256
        k = np.arange(1, 257)
        lhs = row.log_mu[k]            # log theta_{k+1}
        rhs = row6.log_M[1:257] / k    # log (W_k^{6 rho})^{1/k}
        ok.append(bool(np.all(lhs <= rhs + 1e-9)))
    # (4) averaged integral condition with finite (A, B) for every t >= 1
    reps = wf.check_omega_nonquasianalytic(wf.omega_s(2))
    A = reps["averaged"].details["A"]
    B = reps["averaged"].details["B"]
    ok.append(reps["averaged"].verdict == HOLDS and np.isfinite(A) and np.isfinite(B))
    _report(4, all(ok), "; ".join(details) + f"; (4) A={A:g}, B={B:.3g}")


def test_criterion_5_cutoffs(gevrey2):
    D = dsc.descend(gevrey2, K_eff=256)
    fam = cutoffs.make_cutoff_family(D, gevrey2)
    failures = []
    for eps in (0.5, 1.0, 2.0):
        for t in (1.5, 2.0, 4.0):
            res = cutoffs.build_cutoff(fam, eps, t)
            rep = verify_cutoff(fam, res, orders=range(0, 9))
            if not (rep["range_ok"] and rep["plateau_ok"] and rep["support_exact"]):
                failures.append((eps, t, "shape"))
            viol = sum(o["violations"] for o in rep["orders"].values()
                       if o["checked"])
            if viol:
                failures.append((eps, t, f"{viol} bound violations"))
    _report(5, not failures, f"9 (eps, t) pairs, orders <= 8"
            + (f"; failures: {failures}" if failures else ""))


def test_criterion_6_partition(gevrey2):
    D = dsc.descend(gevrey2, K_eff=256)
    fam = cutoffs.make_cutoff_family(D, gevrey2)
    failures = []
    for pts in [(0.0,), (0.0, 1.0), (0.0, 0.1, 1.0)]:
        cov = whitney_cover(jets.CompactSet1D(points=pts), d_min=1e-6)
        part = partition_of_unity(cov, fam, epsilon=2.0, min_smoothness=4)
        rep = verify_partition(part, orders=(0, 1, 2, 3, 4))
        if rep["sum_max_err"] >= 1e-9:
            failures.append((pts, f"sum err {rep['sum_max_err']:.1e}"))
        if not rep["support_ok"]:
            failures.append((pts, "support"))
        if not rep["bound_ok"]:
            failures.append((pts, f"bounds {rep['bound_violations']}"))
    _report(6, not failures, "3 point sets, orders <= 4"
            + (f"; failures: {failures}" if failures else ""))


def test_criterion_7_extension(omega2_matrix, gevrey2, combine):
    failures = []
    timings = []
    # (a) polynomial reproduction on {d < 1/2} within 1e-9
    t0 = time.monotonic()
    matg = wf.matrix_from_rows([gevrey2], params=[1.0])
    E = jets.CompactSet1D(points=(0.0, 1.0))
    F = jets.sample_jet({"kind": "polynomial", "coeffs": [0, 0, 1]}, E, 12)
    res = extend_jet(F, matg, ExtensionConfig(p_max_eval=4, d_min=1e-6))
    xs = np.linspace(-0.49, 1.49, 701)
    sel = E.distance(xs) < 0.5
    err_a = float(np.max(np.abs(res.f(xs[sel]) - xs[sel] ** 2)))
    timings.append(time.monotonic() - t0)
    if err_a >= 1e-9:
        failures.append(f"(a) {err_a:.1e}")
    # (b) exp jet on {0} under the omega_2 matrix
    t0 = time.monotonic()
    E0 = jets.CompactSet1D(points=(0.0,))
    Fe = jets.sample_jet({"kind": "exp"}, E0, 16)
    res_b = extend_jet(Fe, omega2_matrix, ExtensionConfig(p_max_eval=8, d_min=1e-6))
    err_b = max(abs(res_b.f(x, order=k) - 1.0)
                for k in range(9) for x in (1e-4, -1e-4))
    mono = res_b.verification["boundary"]["monotone_ok"]
    timings.append(time.monotonic() - t0)
    if err_b > 1e-3 or not mono:
        failures.append(f"(b) err {err_b:.1e} monotone={mono}")
    # (c) fitted growth bound finite
    g = res_b.verification["growth"]
    if not (g["finite"] and g["C_prime"] > 0):
        failures.append(f"(c) {g}")
    # (d) linearity within 1e-9 at identical config
    t0 = time.monotonic()
    cfg = ExtensionConfig(p_max_eval=4, d_min=1e-5, L=16.0, epsilon=64.0)
    F2 = jets.sample_jet({"kind": "sin"}, E0, 16)
    r1 = extend_jet(Fe, omega2_matrix, cfg)
    r2 = extend_jet(F2, omega2_matrix, cfg)
    rc = extend_jet(combine(Fe, F2, 2.0, -3.0), omega2_matrix, cfg)
    xs = np.linspace(-1.9, 1.9, 500)
    err_d = float(np.max(np.abs(2 * r1.f(xs) - 3 * r2.f(xs) - rc.f(xs))))
    timings.append(time.monotonic() - t0)
    if err_d >= 1e-9:
        failures.append(f"(d) {err_d:.1e}")
    if any(t >= 60.0 for t in timings):
        failures.append(f"timings {timings}")
    _report(7, not failures,
            f"(a) {err_a:.1e}, (b) {err_b:.1e}, (c) C'={g['C_prime']:.3g} at "
            f"rho'={g['rho_prime']:g}, (d) {err_d:.1e}; "
            f"cases {', '.join(f'{t:.0f}s' for t in timings)}"
            + (f"; failures: {failures}" if failures else ""))


def test_criterion_8_decision_coherence(omega2_matrix, gevrey2, gevrey1):
    ok = []
    matrices = {
        "omega_2": omega2_matrix,
        "gevrey2-singleton": wf.matrix_from_rows([gevrey2], params=[1.0]),
        "gevrey-2-3-pair": wf.matrix_from_rows([gevrey2, sq.gevrey(3, K=512)],
                                               params=[1.0, 2.0]),
    }
    for name, mat in matrices.items():
        # lemma_5.10_agree is true where 5.17 (Def 4.6 item 4) does not hold
        ok.append(dec.decide_extension_property(
            mat, require_admissible=False)["lemma_5.10_agree"])
    v1 = dec.decide_extension_property(omega2_matrix, weight_function=wf.omega_s(2))
    v2 = dec.decide_extension_property(matrices["gevrey2-singleton"])
    ok.append(v1["extension_property"] == "YES")
    ok.append(v2["extension_property"] == "YES")
    r14 = dec.check_14(gevrey1, gevrey2)
    ok.append(r14.verdict == HOLDS and np.isfinite(r14.log_witness))
    _report(8, all(ok), f"5.10 agreement on {len(matrices)} matrices; omega_2 YES, "
                        f"gevrey(2) YES; (1.4) log witness {r14.log_witness:.4g}")


def test_criterion_9_taylor_estimates(omega2_matrix):
    E = jets.CompactSet1D(points=(0.0, 1.0))
    F = jets.sample_jet({"kind": "exp"}, E, 12)
    chain = select_row_chain(omega2_matrix, 0, 256)
    C, rho = fit_rho(F, chain.S)
    lam = search_lambda(chain.S, chain.S_dot)
    D1 = 4.0 / lam
    L = D1 * max(rho, 1.0)
    rng = np.random.default_rng(0)
    cfg = ExtensionConfig(p_max_eval=8)
    viol_51 = 0
    for _ in range(200):
        p = int(rng.integers(1, 11))
        k = int(rng.integers(0, p + 1))
        a1, a2 = rng.choice([0.0, 1.0], 2)
        x = float(rng.uniform(-1.0, 2.0))
        lhs, rhs = check_taylor_difference_bound(F, chain.S, a1, a2, p, k, x, C, rho)
        if lhs > rhs + 1e-9:
            viol_51 += 1
    # 5.2-style bounds at 200 probe points with the searched L
    from scipy.special import gammaln
    log_S = chain.S.big_S.log_M
    log_s = np.concatenate([[0.0], np.cumsum(chain.S.log_sigma_star)])
    viol_52 = 0
    checked = 0
    for x in rng.uniform(-1.5, 2.5, 200):
        xhat, dist = (v[0] for v in E.nearest(x))
        if dist <= 0:
            continue
        p = int(taylor_degree(chain.S_dot, L, [dist], F.order_cap)[0])
        for k in range(0, min(p, 8) + 1):
            val = float(jets.taylor_values(F, xhat, p, float(x), k))
            rhs = math.log(C) + (k + 1) * math.log(2 * L) + log_S[k]
            checked += 1
            if math.log(max(abs(val), 1e-300)) > rhs + 1e-9:
                viol_52 += 1
            if k < p:
                v2 = val - F.values[F.rows(xhat), k]
                rhs2 = (math.log(C) + (k + 1) * math.log(2 * L) + gammaln(k + 1)
                        + log_s[k + 1] + math.log(max(dist, 1e-300)))
                checked += 1
                if math.log(max(abs(v2), 1e-300)) > rhs2 + 1e-9:
                    viol_52 += 1
    _report(9, viol_51 == 0 and viol_52 == 0,
            f"200 difference-bound tuples (C={C:.3g}, rho={rho:g}); "
            f"{checked} two-sided estimates at L={L:g}, D1={D1:g}; "
            f"violations {viol_51}+{viol_52}")
