"""The three benchmark workloads: inputs from a seed, one operation, a gate.

Each workload puts a different layer on the critical path:

- ``decide-omega``: the decision procedures (``decide``, ``tails``) on the
  omega_s matrix; no spline or jet work.
- ``extend-point``: the ``ultrajet extend`` command on an exp jet at one
  point; the partition of unity and its splines (``operator``, ``ppoly``,
  ``cutoffs``) dominate, and the spline is evaluated by the verification
  and the probe table.
- ``extend-interval``: ``extend_jet`` on an exp jet on an interval plus a
  point (66 carried points); jet-constant fitting (``jets``) dominates.

Seed 0 gives the default inputs; any other seed draws one parameter per run.
The gates are the verification results the program itself returns, held to
the tier-1 test tolerances.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

MATRIX_K = 512


class DecideOmega:
    name = "decide-omega"

    def __init__(self, seed: int, workdir: str):
        from ultrajet import weightfunc
        s = 2.0 if seed == 0 else random.Random(seed).uniform(2.0, 3.0)
        self.params = {"s": s}
        self.w = weightfunc.omega_s(s)
        self.mat = weightfunc.associated_matrix(self.w, K=MATRIX_K)

    def run(self):
        from ultrajet import decide
        return decide.decide_extension_property(self.mat, weight_function=self.w)

    def check(self, verdicts) -> list[str]:
        bad = []
        if verdicts["extension_property"] != "YES":
            bad.append(f"verdict {verdicts['extension_property']}")
        if verdicts["lemma_5.10_agree"] is not True:
            bad.append("lemma 5.10 disagreement")
        return bad


class ExtendPoint:
    """``ultrajet extend`` in-process: exp jet (order cap 16) at one point,
    the omega_2 matrix, ``--p-max-eval 6 --d-min 1e-3``."""

    name = "extend-point"

    def __init__(self, seed: int, workdir: str):
        x0 = 0.0 if seed == 0 else random.Random(seed).uniform(-1.0, 1.0)
        self.params = {"point": x0}
        self.out = os.path.join(workdir, "out")
        self.jet_file = os.path.join(workdir, "jet.json")
        self.matrix_file = os.path.join(workdir, "matrix.json")
        with open(self.jet_file, "w") as fh:
            json.dump({"kind": "exp", "points": [x0], "order_cap": 16}, fh)
        with open(self.matrix_file, "w") as fh:
            json.dump({"kind": "omega_s", "s": 2.0, "K": MATRIX_K}, fh)
        from ultrajet import cli  # noqa: F401  (import belongs to set-up)

    def run(self):
        from ultrajet import cli
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["--out", self.out, "extend", self.jet_file,
                             self.matrix_file, "--p-max-eval", "6",
                             "--d-min", "1e-3"])

    def check(self, rc) -> list[str]:
        if rc != 0:
            return [f"exit code {rc}"]
        with open(os.path.join(self.out, "extension.json")) as fh:
            verification = json.load(fh)["verification"]
        bad = []
        if not verification["partition"]["sum_max_err"] < 1e-9:
            bad.append(f"partition sum error {verification['partition']['sum_max_err']}")
        if not verification["boundary"]["monotone_ok"]:
            bad.append("boundary ladder not monotone")
        return bad


class ExtendInterval:
    """``extend_jet``: exp jet (order cap 3) on [0, 1] u {2}, translated by
    the seed's offset, through the gevrey(2) singleton matrix."""

    name = "extend-interval"

    def __init__(self, seed: int, workdir: str):
        from ultrajet import jets, seqcalc, weightfunc
        from ultrajet.extend import ExtensionConfig
        off = 0.0 if seed == 0 else random.Random(seed).uniform(-1.0, 1.0)
        self.params = {"offset": off}
        E = jets.CompactSet1D(points=(2.0 + off,), intervals=((off, 1.0 + off),))
        self.jet = jets.sample_jet({"kind": "exp"}, E, 3)
        self.mat = weightfunc.matrix_from_rows(
            [seqcalc.gevrey(2, K=MATRIX_K)], params=[1.0], origin="gevrey2-singleton")
        self.cfg = ExtensionConfig(p_max_eval=3, d_min=1e-3)

    def run(self):
        import ultrajet
        return ultrajet.extend_jet(self.jet, self.mat, self.cfg)

    def check(self, res) -> list[str]:
        v = res.verification
        bad = []
        if not v["partition"]["bound_ok"]:
            bad.append("partition derivative bound violated")
        if not v["boundary"]["monotone_ok"]:
            bad.append("boundary ladder not monotone")
        for cid in ("5.4", "5.5"):
            if v["taylor_estimates"][cid]["violations"]:
                bad.append(f"{v['taylor_estimates'][cid]['violations']} violations of {cid}")
        return bad


WORKLOADS = {w.name: w for w in (DecideOmega, ExtendPoint, ExtendInterval)}
