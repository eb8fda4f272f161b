import functools
import sys

import numpy as np
import pytest

from ultrajet import seqcalc as sq
from ultrajet import weightfunc as wf


@pytest.fixture(scope="session")
def gevrey1():
    return sq.gevrey(1, K=512)


@pytest.fixture(scope="session")
def gevrey2():
    return sq.gevrey(2, K=512)


@pytest.fixture(scope="session")
def qgevrey2():
    return sq.qgevrey(2, K=512)


@pytest.fixture(scope="session")
def omega2_matrix():
    return wf.associated_matrix(wf.omega_s(2), K=512)


@pytest.fixture(scope="session")
def omega2_rho64(omega2_matrix):
    """The deepest omega_2 row: log mu_K ~ 1.6e4, far past double range."""
    return omega2_matrix.rows[omega2_matrix.params.index(64.0)]


@pytest.fixture(scope="session")
def kplus1_sq():
    """The table family with quotients nu_k = (k+1)^2."""
    K = 1024
    k = np.arange(1, K + 1, dtype=float)
    log_M = np.concatenate([[0.0], np.cumsum(2.0 * np.log(k + 1.0))])
    return sq.make_sequence({"family": "table",
                             "params": {"log_values": log_M}, "K": K})


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(fn)`` wraps ``fn`` under every ultrajet module attribute
    that holds it (callers look the name up in their own module), and as a
    static method under every ultrajet class that holds it, and returns the
    list that receives each call's positional arguments."""
    def install(fn):
        calls = []

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)

        mods = [mod for modname, mod in list(sys.modules.items())
                if modname == "ultrajet" or modname.startswith("ultrajet.")]
        holders = [(mod, name, counted) for mod in mods
                   for name, obj in list(vars(mod).items()) if obj is fn]
        # a class is shared by every module naming it
        statics = {(cls, name) for mod in mods for cls in vars(mod).values()
                   if isinstance(cls, type) for name, obj in vars(cls).items()
                   if isinstance(obj, staticmethod) and obj.__func__ is fn}
        holders += [(cls, name, staticmethod(counted)) for cls, name in statics]
        assert holders, f"no ultrajet module holds {fn.__name__}"
        for owner, name, wrapper in holders:
            monkeypatch.setattr(owner, name, wrapper)
        return calls

    return install


@pytest.fixture(scope="session")
def combine():
    """``combine(F, G, ca, cb)``: the jet ca F + cb G of two jets on one set
    with one order cap."""
    from ultrajet import jets

    def lin(F, G, ca, cb):
        return jets.Jet(F.E, F.order_cap, ca * F.values + cb * G.values, label="table")
    return lin


@pytest.fixture(scope="session")
def extend_point_input(omega2_matrix):
    """(jet, matrix, config) of the extend-point benchmark at its default
    point: exp jet (order cap 16) at {0}, omega_2 matrix, K = 512."""
    from ultrajet import jets
    from ultrajet.extend import ExtensionConfig
    F = jets.sample_jet({"kind": "exp"}, jets.CompactSet1D(points=(0.0,)), 16)
    return F, omega2_matrix, ExtensionConfig(p_max_eval=6, d_min=1e-3)


@pytest.fixture(scope="session")
def extend_interval_input(gevrey2):
    """(jet, matrix, config) of the extend-interval benchmark at offset 0:
    exp jet (order cap 3) on [0, 1] u {2}, gevrey(2) singleton matrix."""
    from ultrajet import jets
    from ultrajet.extend import ExtensionConfig
    E = jets.CompactSet1D(points=(2.0,), intervals=((0.0, 1.0),))
    F = jets.sample_jet({"kind": "exp"}, E, 3)
    mat = wf.matrix_from_rows([gevrey2], params=[1.0], origin="gevrey2-singleton")
    return F, mat, ExtensionConfig(p_max_eval=3, d_min=1e-3)


@pytest.fixture(scope="session", params=["point", "interval"])
def extension_case(request):
    """One of the two benchmark inputs and its extension: (inputs, result)."""
    from ultrajet.extend import extend_jet
    inputs = request.getfixturevalue(f"extend_{request.param}_input")
    return inputs, extend_jet(*inputs)
