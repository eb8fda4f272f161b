import ast
import csv
import dataclasses
import json
import os
import stat
import subprocess
import sys

import numpy as np
import pytest

from ultrajet import cli, serial
from ultrajet.errors import JetSpecError
from ultrajet.extend import extend_jet
from ultrajet.jets import CompactSet1D, sample_jet


def write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


@pytest.fixture
def gev2_spec(tmp_path):
    return write(tmp_path, "gev2.json",
                 {"family": "gevrey", "params": {"s": 2}, "K": 128})


@pytest.fixture
def om2_spec(tmp_path):
    return write(tmp_path, "om2.json", {"kind": "omega_s", "s": 2, "K": 128})


class TestAnalyze:
    def test_gevrey2_holds(self, tmp_path, gev2_spec):
        out = str(tmp_path / "o")
        assert cli.main(["--out", out, "analyze", gev2_spec]) == 0
        rep = json.load(open(os.path.join(out, "analyze.json")))
        assert all(v["verdict"] == "HOLDS_UP_TO_K"
                   for v in rep["moderate_growth"].values())
        assert os.path.exists(os.path.join(out, "sequence.csv"))
        assert os.path.exists(os.path.join(out, "associated.csv"))

    def test_qgevrey_fails_exit_1(self, tmp_path):
        spec = write(tmp_path, "q.json",
                     {"family": "qgevrey", "params": {"q": 2}, "K": 128})
        assert cli.main(["--out", str(tmp_path / "o"), "analyze", spec]) == 1

    def test_qgevrey_deep_prefix_exit_1(self, tmp_path):
        # log mu_K ~ 1419 at K = 1024: the associated table must stay in logs
        spec = write(tmp_path, "q.json", {"family": "qgevrey", "params": {"q": 2}})
        out = str(tmp_path / "o")
        assert cli.main(["--out", out, "-K", "1024", "analyze", spec]) == 1
        path = os.path.join(out, "associated.csv")
        assert os.path.exists(path)
        assert open(path).readline().startswith("log_t,log_h,")

    def test_short_row_associated_table(self, tmp_path):
        # log mu_K = log 8: the log t grid runs past -log mu_K
        spec = write(tmp_path, "g1.json", {"family": "gevrey", "params": {"s": 1}, "K": 8})
        out = str(tmp_path / "o")
        assert cli.main(["--out", out, "analyze", spec]) in (0, 1)
        assert os.path.exists(os.path.join(out, "associated.csv"))

    def test_malformed_spec_exit_2(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        assert cli.main(["--out", str(tmp_path / "o"), "analyze", str(p)]) == 2

    def test_env_K_override(self, tmp_path, gev2_spec, monkeypatch):
        spec = write(tmp_path, "noK.json", {"family": "gevrey", "params": {"s": 2}})
        monkeypatch.setenv("ULTRAJET_K", "64")
        out = str(tmp_path / "o")
        assert cli.main(["--out", out, "analyze", spec]) == 0
        rep = json.load(open(os.path.join(out, "analyze.json")))
        assert rep["prefix_K"] == 64


class TestDescendDecide:
    def test_descend_outputs(self, tmp_path, gev2_spec):
        out = str(tmp_path / "o")
        assert cli.main(["--out", out, "descend", gev2_spec]) == 0
        header = open(os.path.join(out, "descendant.csv")).readline().strip()
        assert header == "k,log_nu,log_tau,log_sigma,log_sigma_star,log_s"

    def test_descendant_nu_column_is_nu_k(self, tmp_path, gev2_spec):
        # gevrey(2): nu_k = M_k / M_{k-1} = k^2
        out = str(tmp_path / "o")
        assert cli.main(["--out", out, "descend", gev2_spec]) == 0
        tab = np.genfromtxt(os.path.join(out, "descendant.csv"), delimiter=",", names=True)
        assert np.allclose(tab["log_nu"], 2 * np.log(tab["k"]), rtol=1e-12, atol=0.0)

    def test_decide_yes(self, tmp_path, om2_spec):
        out = str(tmp_path / "o")
        assert cli.main(["--out", out, "decide", om2_spec]) == 0
        rep = json.load(open(os.path.join(out, "decide.json")))
        assert rep["extension_property"] == "YES"
        assert rep["5.19"]["condition_id"] == "5.19"

    @pytest.mark.parametrize("spec, code", [
        ({"kind": "table", "points": [[0.5, 0], [1, 0]]}, "NON_POSITIVE"),
        ({"kind": "table", "points": [[1, 0], [10, float("nan")]]}, "NON_POSITIVE"),
        ({"kind": "omega_s", "s": float("inf")}, "NON_POSITIVE"),
        ({"kind": "omega_s"}, "BAD_SPEC"),
        ({"kind": "table", "points": [[1, 0], [10]]}, "BAD_SPEC")])
    def test_decide_bad_weight_function_is_coded(self, tmp_path, capsys, spec, code):
        # an uncaught exception would propagate out of main: each is a coded
        # usage error instead
        spec_file = write(tmp_path, "w.json", spec)
        assert cli.main(["--out", str(tmp_path / "o"), "decide", spec_file]) == 2
        assert capsys.readouterr().err.startswith(f"error [{code}]: ")

    def test_decide_deterministic(self, tmp_path, om2_spec):
        o1, o2 = str(tmp_path / "r1"), str(tmp_path / "r2")
        cli.main(["--out", o1, "decide", om2_spec])
        cli.main(["--out", o2, "decide", om2_spec])
        assert (open(os.path.join(o1, "decide.json")).read()
                == open(os.path.join(o2, "decide.json")).read())

    def test_matrix_outputs(self, tmp_path, om2_spec):
        out = str(tmp_path / "o")
        assert cli.main(["--out", out, "matrix", om2_spec]) == 0
        assert os.path.exists(os.path.join(out, "matrix.csv"))
        assert os.path.exists(os.path.join(out, "admissibility.json"))


class TestExtendCmd:
    def test_extend_exp(self, tmp_path, om2_spec):
        jet = write(tmp_path, "jet.json",
                    {"kind": "exp", "points": [0.0], "order_cap": 16})
        out = str(tmp_path / "o")
        code = cli.main(["--out", out, "extend", jet, om2_spec,
                         "--d-min", "1e-4", "--p-max-eval", "4"])
        assert code == 0
        man = json.load(open(os.path.join(out, "extension.json")))
        assert man["verification"]["boundary"]["monotone_ok"]
        assert os.path.exists(os.path.join(out, "extension_spline.npy"))
        assert os.path.exists(os.path.join(out, "probes.csv"))
        assert os.path.exists(os.path.join(out, "plot_extension.gp"))

    def test_outputs_follow_the_umask(self, tmp_path, om2_spec):
        jet = write(tmp_path, "jet.json",
                    {"kind": "exp", "points": [0.0], "order_cap": 16})
        out = tmp_path / "o"
        old = os.umask(0o022)
        try:
            assert cli.main(["--out", str(out), "extend", jet, om2_spec,
                             "--d-min", "1e-4", "--p-max-eval", "4"]) == 0
            os.umask(0o027)
            serial.atomic_write_text(str(out / "other.txt"), "x")
        finally:
            os.umask(old)
        modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in out.iterdir()}
        assert modes["extension.json"] == modes["extension_spline.npy"] == 0o644
        assert modes["other.txt"] == 0o640

    def test_writes_pass_whole_text(self, tmp_path, om2_spec, monkeypatch):
        # every text output reaches atomic_write_text as one str holding the
        # file; the spline table is the documented .npy
        written = {}
        write_text = serial.atomic_write_text

        def record(path, text):
            write_text(path, text)
            written[path] = text

        monkeypatch.setattr(serial, "atomic_write_text", record)
        jet = write(tmp_path, "jet.json",
                    {"kind": "exp", "points": [0.0], "order_cap": 16})
        out = str(tmp_path / "o")
        assert cli.main(["--out", out, "extend", jet, om2_spec,
                         "--d-min", "1e-4", "--p-max-eval", "4"]) == 0
        names = {os.path.basename(p) for p in written}
        assert names == {"extension.json", "probes.csv", "plot_extension.gp"}
        for path, text in written.items():
            assert isinstance(text, str)
            assert len(text.encode()) == os.path.getsize(path)
        spline = json.load(open(os.path.join(out, "extension.json")))["spline"]
        table = np.load(os.path.join(out, "extension_spline.npy"))
        assert table.dtype == np.float64
        assert table.shape == (spline["pieces"], 2 + spline["degree"] + 1)

    def test_taylor_55_violation_exits_1(self, tmp_path, om2_spec, monkeypatch):
        def one_55_violation(*args):
            res = extend_jet(*args)
            v = json.loads(json.dumps(res.verification, default=str))
            v["taylor_estimates"]["5.5"]["violations"] = 1
            return dataclasses.replace(res, verification=v)

        monkeypatch.setattr(cli, "extend_jet", one_55_violation)
        jet = write(tmp_path, "jet.json",
                    {"kind": "exp", "points": [0.0], "order_cap": 16})
        assert cli.main(["--out", str(tmp_path / "o"), "extend", jet, om2_spec,
                         "--d-min", "1e-4", "--p-max-eval", "4"]) == 1

    @pytest.mark.parametrize("gate", ["range_ok", "support_ok"])
    def test_partition_gate_exits_1(self, tmp_path, om2_spec, monkeypatch, gate):
        def gate_false(*args):
            res = extend_jet(*args)
            v = json.loads(json.dumps(res.verification, default=str))
            v["partition"][gate] = False
            return dataclasses.replace(res, verification=v)

        monkeypatch.setattr(cli, "extend_jet", gate_false)
        jet = write(tmp_path, "jet.json",
                    {"kind": "exp", "points": [0.0], "order_cap": 16})
        assert cli.main(["--out", str(tmp_path / "o"), "extend", jet, om2_spec,
                         "--d-min", "1e-4", "--p-max-eval", "4"]) == 1

    @pytest.mark.parametrize("flag, value", [
        ("--p-max-eval", "-1"), ("--L", "0"), ("--L", "-2"), ("--base-row", "-1")])
    def test_bad_config_is_coded(self, tmp_path, om2_spec, capsys, flag, value):
        jet = write(tmp_path, "jet.json",
                    {"kind": "exp", "points": [0.0], "order_cap": 16})
        code = cli.main(["--out", str(tmp_path / "o"), "extend", jet, om2_spec,
                         "--d-min", "1e-3", "--p-max-eval", "4", flag, value])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error [NON_POSITIVE]: ")
        assert flag.lstrip("-").replace("-", "_") in err

    def test_csv_files_round_trip(self, tmp_path, om2_spec, monkeypatch, capsys):
        results = []

        def record(*args):
            results.append(extend_jet(*args))
            return results[-1]

        monkeypatch.setattr(cli, "extend_jet", record)
        jet = write(tmp_path, "jet.json",
                    {"kind": "exp", "points": [0.0], "order_cap": 16})
        out = tmp_path / "o"
        assert cli.main(["--out", str(out), "extend", jet, om2_spec,
                         "--d-min", "1e-4", "--p-max-eval", "4"]) == 0
        f = results[0].f
        man = json.loads((out / "extension.json").read_text())
        kept = int(np.sum(f.row_degrees() + 1))
        assert man["spline"]["coefficients"] == kept
        assert man["spline"]["coefficients_dropped"] == results[0].coefficients_dropped > 0
        assert f"{kept} coefficients" in capsys.readouterr().out

        table = np.load(out / "extension_spline.npy", allow_pickle=False)
        assert table.dtype == np.float64 and table.shape == (len(f.coeffs), 2 + f.degree + 1)
        breakpoints = np.append(table[:, 0], table[-1, 1])
        assert breakpoints.tobytes() == f.breakpoints.tobytes()
        assert table[:, 2:].tobytes() == f.coeffs.tobytes()

        with open(out / "probes.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["x", "d", "f0", "f1", "f2", "f3", "f4"]
        probes = np.array(rows, dtype=float)
        assert len(probes) == 400
        for k in range(5):
            assert probes[:, 2 + k].tobytes() == f(probes[:, 0], order=k).tobytes()

    def test_zero_epsilon_is_coded(self, tmp_path, om2_spec, capsys):
        jet = write(tmp_path, "jet.json",
                    {"kind": "exp", "points": [0.0], "order_cap": 16})
        code = cli.main(["--out", str(tmp_path / "o"), "extend", jet, om2_spec,
                         "--d-min", "1e-3", "--p-max-eval", "4", "--epsilon", "0"])
        assert code == 2
        assert "error [NON_POSITIVE]" in capsys.readouterr().err

    def test_omega_s_28_decides_yes_but_extend_names_row(self, tmp_path, capsys):
        # the decision reads uncapped tails and answers YES; the extension's
        # descendant requires a reliable tail, which the first omega_s(2.8)
        # row lacks, and its refusal names the row
        spec = write(tmp_path, "om28.json", {"kind": "omega_s", "s": 2.8, "K": 512})
        assert cli.main(["--out", str(tmp_path / "d"), "decide", spec]) == 0
        assert capsys.readouterr().out == "omega_s(2.8): extension property YES\n"
        jet = write(tmp_path, "jet.json",
                    {"kind": "exp", "points": [0.0], "order_cap": 16})
        code = cli.main(["--out", str(tmp_path / "o"), "extend", jet, spec,
                         "--p-max-eval", "6", "--d-min", "1e-3"])
        assert code == 2
        assert "error [TAIL_UNRELIABLE]: omega_s(2.8)|x=0.125: tail bound" in capsys.readouterr().err

    def test_selftest(self):
        assert cli.main(["selftest"]) == 0


GEVREY_NO_S = {"family": "gevrey", "params": {}}


@pytest.mark.parametrize("command, specs", [
    ("decide", [[1, 2]]),
    ("decide", [{"kind": "rows", "rows": [GEVREY_NO_S]}]),
    ("analyze", [GEVREY_NO_S]),
    ("extend", [[0], {"kind": "omega_s", "s": 2, "K": 64}]),
    ("extend", [{"points": [0.0], "values": [[1.0, 1.0]]},
                {"kind": "omega_s", "s": 2, "K": 64}]),
    ("decide", [{"kind": "rows"}]),
    ("decide", [{"kind": "rows", "rows": 5}]),
    ("decide", [{"kind": "omega_s", "s": 2, "K": "x"}]),
    ("decide", [{"kind": "omega_s", "s": 2, "K": 64, "params": "x"}]),
    ("extend", [{"kind": "exp", "points": [0.0], "order_cap": "x"},
                {"kind": "omega_s", "s": 2, "K": 64}]),
    ("extend", [{"kind": "exp", "intervals": [[1]]},
                {"kind": "omega_s", "s": 2, "K": 64}])],
    ids=["decide-list", "decide-row-without-s", "analyze-without-s", "extend-jet-list",
         "extend-jet-without-order-cap", "decide-rows-missing", "decide-rows-not-a-list",
         "decide-K-not-int", "decide-params-not-numbers", "extend-order-cap-not-int",
         "extend-interval-not-a-pair"])
def test_malformed_spec_is_coded(tmp_path, capsys, command, specs):
    files = [write(tmp_path, f"spec{i}.json", spec) for i, spec in enumerate(specs)]
    assert cli.main(["--out", str(tmp_path / "o"), command, *files]) == 2
    assert capsys.readouterr().err.startswith("error [BAD_SPEC]: ")


class TestSerial:
    def test_jet_roundtrip(self, tmp_path):
        E = CompactSet1D(points=(0.0, 1.0))
        F = sample_jet({"kind": "exp"}, E, p_max=8)
        d = {"points": list(E.points), "intervals": [], "order_cap": F.order_cap,
             "values": F.values.tolist()}
        F2 = serial.jet_from_file(d)
        assert F2.order_cap == 8
        assert np.allclose(F2.values[F2.rows(1.0)], F.values[F.rows(1.0)])

    def test_jet_value_row_mismatch(self):
        with pytest.raises(JetSpecError) as err:
            serial.jet_from_file({"points": [0.0, 1.0], "order_cap": 2,
                                  "values": [[1, 1, 1]]})
        assert err.value.code == "BAD_JET_VALUES"

    def test_csv_format(self, tmp_path):
        path = str(tmp_path / "t.csv")
        serial.write_csv(path, {"a": np.array([1.0, 2.0]),
                                "b": np.array([3, 4])})
        lines = open(path).read().strip().split("\n")
        assert lines[0] == "a,b"
        assert len(lines) == 3

    def test_csv_bytes_match_per_value_format(self, tmp_path):
        def fmt(v):   # the per-value formatter the column writer replaced
            if isinstance(v, (int, np.integer)):
                return str(int(v))
            return repr(float(v))

        n = 2 * serial.CSV_BLOCK_ROWS + 3   # two full blocks and a partial one
        rng = np.random.default_rng(0)
        cases = [
            {"i": np.array([0, -3, 2 ** 40, 7, 1]),
             "u": np.arange(5, dtype=np.uint8),
             "f": np.array([0.1, -0.0, 1e-300, 2.5e17, 1 / 3]),
             "b": np.array([True, False, True, True, False]),
             "nan": np.array([np.nan, np.inf, -np.inf, 0.0, -1.5]),
             "f32": np.array([0.1, 2, 3, 4, 5], dtype=np.float32),
             "list": [1, 2, -1, 4, 5]},
            {"i": np.arange(n) - 7, "f": rng.standard_normal(n) * 1e5,
             "b": rng.random(n) < 0.5},
            # unequal lengths: rows stop at the shortest column
            {"long": rng.standard_normal(n), "short": np.arange(serial.CSV_BLOCK_ROWS + 1)},
            {"short": rng.standard_normal(3), "long": np.arange(n)},
        ]
        for k, cols in enumerate(cases):
            path = str(tmp_path / f"t{k}.csv")
            serial.write_csv(path, cols)
            rows = zip(*[np.atleast_1d(c) for c in cols.values()])
            expect = "\n".join([",".join(cols)] + [",".join(map(fmt, r)) for r in rows]) + "\n"
            with open(path, "rb") as fh:
                assert fh.read() == expect.encode()


NO_SCIPY_RUN = """
import sys
from ultrajet import cli, decide, jets, seqcalc, weightfunc as wf
from ultrajet.extend import ExtensionConfig, extend_jet
w = wf.omega_s(2)
v = decide.decide_extension_property(wf.associated_matrix(w, K=512), weight_function=w)
assert v["extension_property"] == "YES", v["extension_property"]
F = jets.sample_jet({"kind": "exp"}, jets.CompactSet1D(points=(0.0,)), 3)
mat = wf.matrix_from_rows([seqcalc.gevrey(2, K=512)], params=[1.0])
extend_jet(F, mat, ExtensionConfig(p_max_eval=3, d_min=1e-3))
# the power-law tail estimate is the one that sums Hurwitz zeta values
assert mat.rows[0].tail.est.method == "powerlaw"
# a table weight function's conditions are closed forms too
table = wf.omega_table([(1, 0), (10, 4), (100, 20), (1e4, 90)])
assert wf.check_omega_nonquasianalytic(table)["integral"].verdict == "INCONCLUSIVE"
print(sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "mpmath")))
"""


def test_runs_import_no_scipy():
    # a fresh interpreter: the test process itself imports scipy and mpmath
    # for oracles
    import ultrajet
    src = os.path.dirname(os.path.dirname(ultrajet.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", NO_SCIPY_RUN], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_no_function_local_imports():
    # every ultrajet module imports the others at module level, so no import
    # cycle hides inside a function
    import ultrajet
    root = os.path.dirname(ultrajet.__file__)
    local = []
    for dirpath, _, files in os.walk(root):
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            with open(path) as fh:
                tree = ast.parse(fh.read())
            for fn in ast.walk(tree):
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for node in ast.walk(fn):
                    if isinstance(node, ast.ImportFrom):
                        mods = [node.module or ""] if node.level == 0 else ["ultrajet"]
                    elif isinstance(node, ast.Import):
                        mods = [a.name for a in node.names]
                    else:
                        continue
                    if any(m.split(".")[0] == "ultrajet" for m in mods):
                        local.append(f"{os.path.relpath(path, root)}:{node.lineno}")
    assert local == []


def test_no_unused_imports():
    # every name an ultrajet module imports is used in that module; a
    # package __init__ imports to re-export, so it is not scanned
    import ultrajet
    root = os.path.dirname(ultrajet.__file__)
    unused = []
    for dirpath, _, files in os.walk(root):
        for name in sorted(f for f in files if f.endswith(".py")):
            if name == "__init__.py":
                continue
            path = os.path.join(dirpath, name)
            with open(path) as fh:
                tree = ast.parse(fh.read())
            imported = {}
            for node in tree.body:
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    for a in node.names:
                        bound = a.asname or a.name.split(".")[0]
                        if bound != "annotations":
                            imported[bound] = node.lineno
            used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            unused += [f"{os.path.relpath(path, root)}:{line} {bound}"
                       for bound, line in imported.items() if bound not in used]
    assert unused == []


def test_no_unread_private_names():
    # every module-level private name (a function, class or constant whose
    # name starts with one underscore) is read in the module defining it, and
    # every private method of a module-level class is read there as an
    # attribute (``self._name``, ``Class._name``)
    import ultrajet
    root = os.path.dirname(ultrajet.__file__)
    unread = []
    for dirpath, _, files in os.walk(root):
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            with open(path) as fh:
                tree = ast.parse(fh.read())
            defined, methods = {}, {}
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    defined[node.name] = node.lineno
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    for n in (n for t in targets for n in ast.walk(t)):
                        if isinstance(n, ast.Name):
                            defined[n.id] = node.lineno
                if isinstance(node, ast.ClassDef):
                    methods.update({f"{node.name}.{m.name}": m.lineno for m in node.body
                                    if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))})
            read = {n.id for n in ast.walk(tree)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            attrs = {n.attr for n in ast.walk(tree)
                     if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
            unread += [f"{os.path.relpath(path, root)}:{line} {d}"
                       for d, line in defined.items()
                       if d.startswith("_") and not d.startswith("__") and d not in read]
            unread += [f"{os.path.relpath(path, root)}:{line} {d}"
                       for d, line in methods.items()
                       for m in [d.split(".")[1]]
                       if m.startswith("_") and not m.startswith("__") and m not in attrs]
    assert unread == []


def test_no_unused_parameters():
    # every parameter of every function in an ultrajet module, other than
    # self and cls, is read in that function's body
    import ultrajet
    root = os.path.dirname(ultrajet.__file__)
    unused = []
    for dirpath, _, files in os.walk(root):
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            with open(path) as fh:
                tree = ast.parse(fh.read())
            for fn in ast.walk(tree):
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    continue
                a = fn.args
                params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                          if p is not None and p.arg not in ("self", "cls")]
                body = fn.body if isinstance(fn.body, list) else [fn.body]
                read = {n.id for stmt in body for n in ast.walk(stmt)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                unused += [f"{os.path.relpath(path, root)}:{fn.lineno} "
                           f"{getattr(fn, 'name', 'lambda')}({p})" for p in params if p not in read]
    assert unused == []


def test_every_dataclass_field_is_read():
    # every field of a dataclass in src/ultrajet is read as ``.name`` somewhere
    # in src/, tests/ or perfbench/: a field nothing reads is dead weight
    import ultrajet
    pkg = os.path.dirname(ultrajet.__file__)
    repo = os.path.join(pkg, os.pardir, os.pardir)
    trees = {}
    for top in ("src", "tests", "perfbench"):
        for dirpath, _, files in os.walk(os.path.join(repo, top)):
            for name in sorted(f for f in files if f.endswith(".py")):
                path = os.path.join(dirpath, name)
                with open(path) as fh:
                    trees[os.path.relpath(path, repo)] = ast.parse(fh.read())
    read = {n.attr for tree in trees.values() for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}

    def is_dataclass(cls):
        return any((d.func if isinstance(d, ast.Call) else d).id == "dataclass"
                   for d in cls.decorator_list
                   if isinstance(d.func if isinstance(d, ast.Call) else d, ast.Name))

    unread = [f"{path}:{node.lineno} {cls.name}.{node.target.id}"
              for path, tree in trees.items() if path.startswith("src")
              for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) and is_dataclass(cls)
              for node in cls.body
              if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
              and node.target.id not in read]
    assert unread == []
