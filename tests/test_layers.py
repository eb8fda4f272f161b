"""The benchmark's layer tracer (``perfbench/layers.py``) wraps the program as
it is: every method it names must exist, and uninstalling restores them."""

import importlib.util
import os

from ultrajet import decide
from ultrajet import seqcalc as sq
from ultrajet import weightfunc as wf
from ultrajet.extend.ppoly import PiecewisePolynomial

LAYERS_PY = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                         "perfbench", "layers.py")


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_layer_tracer_installs_and_uninstalls():
    layers = _load_layers()
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
