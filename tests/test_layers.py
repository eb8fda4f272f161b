"""The benchmark's layer tracer (``perfbench/layers.py``) wraps the program as
it is: every method it names must exist, and uninstalling restores them.
The benchmark's workloads (``perfbench/workloads.py``) pass their own gates,
with and without the tracer."""

import importlib.util
import os
import time

import pytest

from ultrajet import decide
from ultrajet import seqcalc as sq
from ultrajet import weightfunc as wf
from ultrajet.extend.ppoly import PiecewisePolynomial

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


WORKLOADS = _load("workloads").WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_gates_pass_untraced_and_traced(tmp_path, name):
    """One operation at seed 0 passes the workload's gate; so does one under
    the installed tracer, whose metrics read the result (search steps from
    the extension's constants and partition)."""
    wl = WORKLOADS[name](0, str(tmp_path))
    assert wl.check(wl.run()) == []
    tracer = _load("layers").LayerTracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        result = wl.run()
        metrics = tracer.op_metrics(time.perf_counter() - t0)
    finally:
        tracer.uninstall()
    assert wl.check(result) == []
    assert metrics["trace.self_sum_frac"] > 0


def test_layer_tracer_installs_and_uninstalls():
    layers = _load("layers")
    names = layers.PPOLY_BUILD + layers.PPOLY_EVAL + layers.PPOLY_OTHER
    methods = {name: PiecewisePolynomial.__dict__.get(name) for name in names}
    entry = decide.decide_extension_property
    tracer = layers.LayerTracer()
    tracer.install()  # a PPOLY_* name the class lacks raises here
    try:
        mat = wf.matrix_from_rows([sq.gevrey(2, K=64)], params=[1.0])
        assert decide.decide_extension_property(mat)["extension_property"] == "YES"
        metrics = tracer.op_metrics(1.0)
    finally:
        tracer.uninstall()
    assert tracer.calls["decide.decide_extension_property"] == 1
    assert tracer.calls["decide.check_519"] == 1
    assert metrics["decide.check_517_s"] == 0.0
    assert decide.decide_extension_property is entry
    assert {name: PiecewisePolynomial.__dict__.get(name) for name in names} == methods
