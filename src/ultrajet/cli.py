"""Command-line front end.

Commands: analyze, descend, decide, extend, matrix, selftest.
Exit codes: 0 success; 1 a check reported FAILS (the run itself succeeded);
2 usage or spec errors; 3 internal coherence diagnostics (equivalent
conditions disagreeing).  ULTRAJET_K overrides the default prefix length.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import decide as dec
from . import descend as dsc
from . import seqcalc as sq
from . import serial
from . import weightfunc as wfn
from .errors import UltrajetError
from .extend import ExtensionConfig, extend_jet
from .report import FAILS, HOLDS, verdicts_agree

EXIT_OK = 0
EXIT_FAILS = 1
EXIT_USAGE = 2
EXIT_DIACRIT = 3


def default_K() -> int:
    return int(os.environ.get("ULTRAJET_K", "512"))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return EXIT_USAGE
    try:
        return args.func(args)
    except UltrajetError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ultrajet",
                                description="weight-sequence calculus and "
                                            "constructive Whitney extension")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("-K", type=int, default=None, help="prefix length override")
    sub = p.add_subparsers(dest="command")

    pa = sub.add_parser("analyze", help="growth checks for one weight sequence")
    pa.add_argument("seq_spec", help="JSON file with the sequence spec")
    pa.set_defaults(func=cmd_analyze)

    pd = sub.add_parser("descend", help="descendant construction and checks")
    pd.add_argument("seq_spec")
    pd.set_defaults(func=cmd_descend)

    pc = sub.add_parser("decide", help="extension-property verdict for a matrix")
    pc.add_argument("matrix_spec")
    pc.set_defaults(func=cmd_decide)

    pm = sub.add_parser("matrix", help="generate a weight matrix from omega")
    pm.add_argument("wf_spec")
    pm.set_defaults(func=cmd_matrix)

    extend_help = ("extend a jet through a matrix; writes extension.json, "
                   "extension_spline.npy, probes.csv and plot_extension.gp")
    pe = sub.add_parser("extend", help=extend_help, description=extend_help)
    pe.add_argument("jet_file")
    pe.add_argument("matrix_spec")
    pe.add_argument("--L", type=float, default=None)
    pe.add_argument("--epsilon", type=float, default=None)
    pe.add_argument("--d-min", type=float, default=1e-6)
    pe.add_argument("--p-max-eval", type=int, default=8)
    pe.add_argument("--base-row", type=int, default=0)
    pe.set_defaults(func=cmd_extend)

    ps = sub.add_parser("selftest", help="quick internal coherence run")
    ps.set_defaults(func=cmd_selftest)
    return p


def _outdir(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def cmd_analyze(args) -> int:
    K = args.K or default_K()
    spec = serial.load_json(args.seq_spec)
    M = sq.make_sequence(spec, K=K)
    out = _outdir(args)
    moderate = sq.check_moderate_growth(M)
    nq = M.nonquasianalytic
    report = {
        "family": M.family_tag,
        "prefix_K": M.K,
        "weight_sequence_trend_ok": M.weight_trend_ok(),
        "moderate_growth": {k: r.to_dict() for k, r in sorted(moderate.items())},
        "nonquasianalytic": nq.to_dict(),
    }
    serial.dump_json(os.path.join(out, "analyze.json"), report)
    serial.write_csv(os.path.join(out, "sequence.csv"),
                     serial.sequence_csv_columns(M))
    _assoc_csv(M, os.path.join(out, "associated.csv"))
    agree = verdicts_agree(moderate.values())
    print(f"{M.family_tag}: moderate growth "
          f"{'agrees: ' + next(iter(moderate.values())).verdict if agree else 'DISAGREES'}"
          f"; nonquasianalytic {nq.verdict}")
    if not agree:
        return EXIT_DIACRIT
    if any(r.verdict == FAILS for r in moderate.values()) or nq.verdict == FAILS:
        return EXIT_FAILS
    return EXIT_OK


def _assoc_csv(M: sq.WeightSequence, path: str) -> None:
    lo = -float(M.log_mu[-1]) * 0.9
    hi = -float(M.log_mu[0]) if M.log_mu[0] > 0 else -1e-3
    hi = min(hi, -1e-3)
    lts = np.linspace(min(lo, hi - 5.0), hi, 200)
    # Gamma(t), Sigma(1/t) and omega(1/t) need 1/t < mu_K; -1 past that edge
    inside = -lts < M.log_mu[-1]

    def on_inside(fn, sign):
        vals = fn(M, sign * lts[inside])
        col = np.full(len(lts), -1, dtype=vals.dtype)
        col[inside] = vals
        return col

    serial.write_csv(path, {
        "log_t": lts,
        "log_h": sq.log_h_assoc(M, lts),
        "Gamma": on_inside(sq.gamma_count, 1.0),
        "Sigma_at_1_over_t": on_inside(sq.sigma_count, -1.0),
        "omega_at_1_over_t": on_inside(sq.omega_assoc, -1.0),
    })


def cmd_descend(args) -> int:
    K = args.K or default_K()
    spec = serial.load_json(args.seq_spec)
    N = sq.make_sequence(spec, K=K)
    out = _outdir(args)
    D = dsc.descend(N)
    reps = dsc.check_lemma42(N, D, Ndot=N)
    serial.write_csv(os.path.join(out, "descendant.csv"),
                     serial.descendant_csv_columns(N, D))
    serial.dump_json(os.path.join(out, "lemma42.json"),
                     {k: r.to_dict() for k, r in sorted(reps.items())})
    bad = [k for k, r in reps.items() if r.verdict == FAILS]
    print(f"{N.family_tag}: descendant on {D.K_eff} indices; "
          f"tail {N.tail.est.method} (err bar {np.exp(N.tail.est.log_err):.2e}); "
          f"{'all items hold' if not bad else 'FAILS: ' + ', '.join(bad)}")
    return EXIT_FAILS if bad else EXIT_OK


def cmd_decide(args) -> int:
    K = args.K or default_K()
    spec = serial.load_json(args.matrix_spec)
    mat, w = serial.matrix_from_spec(spec, K_default=K)
    out = _outdir(args)
    verdicts = dec.decide_extension_property(mat, weight_function=w)
    serial.dump_json(os.path.join(out, "decide.json"), verdicts)
    print(f"{mat.origin}: extension property {verdicts['extension_property']}")
    if not verdicts.get("lemma_5.10_agree", True):
        print("diagnostic: phi-form and plain tail conditions disagree",
              file=sys.stderr)
        return EXIT_DIACRIT
    return EXIT_OK if verdicts["extension_property"] == "YES" else EXIT_FAILS


def cmd_matrix(args) -> int:
    K = args.K or default_K()
    spec = serial.load_json(args.wf_spec)
    mat, w = serial.matrix_from_spec(spec, K_default=K)
    out = _outdir(args)
    serial.write_csv(os.path.join(out, "matrix.csv"),
                     serial.matrix_csv_columns(mat))
    adm = wfn.check_admissible_matrix(mat)
    serial.dump_json(os.path.join(out, "admissibility.json"),
                     {k: r.to_dict() for k, r in sorted(adm.items())})
    worst = [k for k, r in adm.items() if r.verdict == FAILS]
    print(f"{mat.origin}: {len(mat)} rows, K={mat.K}; "
          f"{'admissibility conditions hold in sample' if not worst else 'FAILS: ' + ', '.join(worst)}")
    return EXIT_FAILS if worst else EXIT_OK


def cmd_extend(args) -> int:
    K = args.K or default_K()
    jet_spec = serial.load_json(args.jet_file)
    mat_spec = serial.load_json(args.matrix_spec)
    mat, _w = serial.matrix_from_spec(mat_spec, K_default=K)
    F = serial.jet_from_file(jet_spec)
    cfg = ExtensionConfig(L=args.L, epsilon=args.epsilon, d_min=args.d_min,
                          p_max_eval=args.p_max_eval, base_row=args.base_row)
    out = _outdir(args)
    res = extend_jet(F, mat, cfg)
    kept = int(np.sum(res.f.row_degrees() + 1))
    manifest = {
        "jet": {"label": F.label, "order_cap": F.order_cap,
                "points": list(F.E.points),
                "intervals": [list(iv) for iv in F.E.intervals]},
        "matrix": {"origin": mat.origin, "rows": len(mat), "K": mat.K},
        "constants": res.constants,
        "degrees": list(res.degrees),
        "verification": res.verification,
        "spline": {"pieces": len(res.f.coeffs), "degree": res.f.degree,
                   "span": list(res.f.span), "coefficients": kept,
                   "coefficients_dropped": res.coefficients_dropped},
    }
    serial.dump_json(os.path.join(out, "extension.json"), manifest)
    serial.write_spline(os.path.join(out, "extension_spline.npy"), res.f)
    _probe_csv(res, os.path.join(out, "probes.csv"), cfg)
    _gnuplot_script(out)
    bm = res.verification["boundary"]
    print(f"extension built: {len(res.f.coeffs)} pieces, degree {res.f.degree}, "
          f"{kept} coefficients; "
          f"boundary error {bm['final_max_err']:.2e} "
          f"({'monotone' if bm['monotone_ok'] else 'NOT monotone'}); "
          f"growth C'={res.verification['growth']['C_prime']:.3g} at "
          f"rho'={res.verification['growth']['rho_prime']:g}")
    taylor = res.verification["taylor_estimates"]
    part = res.verification["partition"]
    ok = (bm["monotone_ok"]
          and part["bound_ok"] and part["range_ok"] and part["support_ok"]
          and taylor["5.4"]["violations"] == 0 and taylor["5.5"]["violations"] == 0)
    return EXIT_OK if ok else EXIT_FAILS


def _probe_csv(res, path: str, cfg) -> None:
    lo, hi = res.f.span
    xs = np.linspace(lo, hi, 400)
    cols = {"x": xs, "d": res.cover.E.distance(xs)}
    for k, vals in enumerate(res.f(xs, order=range(cfg.p_max_eval + 1))):
        cols[f"f{k}"] = vals
    serial.write_csv(path, cols)


def _gnuplot_script(out: str) -> None:
    script = """# plot the extension and its first derivatives
set datafile separator ','
set key autotitle columnhead
set xlabel 'x'
set ylabel 'f^{(k)}(x)'
plot for [k=0:2] 'probes.csv' using 1:(column(3+k)) with lines title sprintf('order %d', k)
pause -1
"""
    serial.atomic_write_text(os.path.join(out, "plot_extension.gp"), script)


def cmd_selftest(args) -> int:
    K = min(args.K or 128, 256)
    g2 = sq.gevrey(2, K=K)
    moderate = sq.check_moderate_growth(g2)
    ok = verdicts_agree(moderate.values())
    D = dsc.descend(g2)
    reps = dsc.check_lemma42(g2, D, Ndot=g2)
    ok &= all(r.verdict != FAILS for r in reps.values())
    mat = wfn.associated_matrix(wfn.omega_s(2.0), K=K)
    v = dec.decide_extension_property(mat, require_admissible=False)
    ok &= v["lemma_5.10_agree"] and all(v[c]["verdict"]["verdict"] == HOLDS
                                        for c in ("5.18", "5.19"))
    print("selftest:", "ok" if ok else "FAILED")
    return EXIT_OK if ok else EXIT_DIACRIT


if __name__ == "__main__":
    sys.exit(main())
