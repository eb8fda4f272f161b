"""Layer tracing from outside the program.

``LayerTracer.install`` replaces each public function of an ultrajet layer
module, and the public methods of ``PiecewisePolynomial``, by a timing
wrapper.  A function is replaced under every module attribute that names it
(for example ``ultrajet.decide.log_suffix_sums`` as well as
``ultrajet.tails.log_suffix_sums``), because callers look the name up in
their own module.  ``uninstall`` puts the originals back.  Nothing in the
program changes; private helpers and methods of other classes are not
wrapped, so their time is the self time of the layer that calls them.

A layer's self time is the time in its wrapped spans minus the time of the
wrapped spans they call.  Over a whole operation the self times of all
layers add up to the time spent inside outermost spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time

import numpy as np

LAYERS = {
    "ultrajet.seqcalc": "seqcalc",
    "ultrajet.tails": "tails",
    "ultrajet.weightfunc": "weightfunc",
    "ultrajet.descend": "descend",
    "ultrajet.decide": "decide",
    "ultrajet.jets": "jets",
    "ultrajet.extend.cover": "cover",
    "ultrajet.extend.cutoffs": "cutoffs",
    "ultrajet.extend.ppoly": "ppoly",
    "ultrajet.extend.operator": "operator",
    "ultrajet.serial": "serial",
    "ultrajet.cli": "cli",
}

# PiecewisePolynomial methods that return a new spline, and the one that
# evaluates it.  The rest of its public methods are wrapped without a group.
PPOLY_BUILD = ("__mul__", "__rmul__", "__add__", "__sub__", "trimmed",
               "convolve_box", "compose_affine")
PPOLY_EVAL = ("__call__",)
PPOLY_OTHER = ("support", "derivative", "integral", "antiderivative_parts",
               "translate", "seam_gaps", "restrict")
SERIAL_WRITE = ("dump_json", "write_csv", "atomic_write_text")

# Counters that are not call counts or times.
COUNTS = ("ppoly.pieces_out", "ppoly.pieces_max", "ppoly.trim_in",
          "ppoly.trim_dropped", "ppoly.eval.points", "cover.balls",
          "partition.balls", "partition.cutoff_builds", "serial.bytes_written")

# Groups whose time is summed over outermost spans only, so that a build
# operation calling another (``__sub__`` multiplies by -1) counts once.
GROUPS = {
    **{f"ppoly.{m}": ("ppoly.build",) for m in PPOLY_BUILD},
    **{f"ppoly.{m}": ("ppoly.eval",) for m in PPOLY_EVAL},
    **{f"serial.{m}": ("serial.write",) for m in SERIAL_WRITE},
}


class LayerTracer:
    """Span timer and counters for the wrapped layer functions."""

    def __init__(self):
        self._patches = []        # (owner, attribute name, original)
        self._stack = []          # child seconds of each open span
        self.calls = {}           # function key -> calls
        self.time = {}            # function key or group -> outermost seconds
        self.key_self_time = {}   # function key -> self seconds
        self.depth = {}           # function key or group -> open spans
        self.self_time = dict.fromkeys(LAYERS.values(), 0.0)
        self.counts = dict.fromkeys(COUNTS, 0)
        self.extension = None     # last ExtensionResult returned by extend_jet

    def reset(self) -> None:
        """Zero every counter in place (the wrappers hold these objects)."""
        for d in (self.calls, self.time, self.key_self_time, self.depth):
            d.clear()
        self.self_time.update(dict.fromkeys(self.self_time, 0.0))
        self.counts.update(dict.fromkeys(self.counts, 0))
        self.extension = None

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            return
        wrappers = {}             # id(original) -> wrapper
        for modname, layer in LAYERS.items():
            mod = importlib.import_module(modname)
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == modname
                        and not name.startswith("_")):
                    wrappers[id(obj)] = self._wrap(obj, layer, f"{layer}.{name}")
        for mod in [m for n, m in sys.modules.items()
                    if n == "ultrajet" or n.startswith("ultrajet.")]:
            for name, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj)) if inspect.isfunction(obj) else None
                if w is not None:
                    self._patches.append((mod, name, obj))
                    setattr(mod, name, w)
        from ultrajet.extend.ppoly import PiecewisePolynomial
        for name in PPOLY_BUILD + PPOLY_EVAL + PPOLY_OTHER:
            orig = PiecewisePolynomial.__dict__[name]
            self._patches.append((PiecewisePolynomial, name, orig))
            setattr(PiecewisePolynomial, name,
                    self._wrap(orig, "ppoly", f"ppoly.{name}"))

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._patches):
            setattr(owner, name, orig)
        self._patches = []

    # -- spans ---------------------------------------------------------------

    def _wrap(self, fn, layer: str, key: str):
        groups = (key,) + GROUPS.get(key, ())
        observe = _OBSERVERS.get(key)
        stack, depth, self_time = self._stack, self.depth, self.self_time
        calls, times, key_self_time = self.calls, self.time, self.key_self_time
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for g in groups:
                depth[g] = depth.get(g, 0) + 1
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                self_time[layer] += dt - child
                key_self_time[key] = key_self_time.get(key, 0.0) + dt - child
                calls[key] = calls.get(key, 0) + 1
                for g in groups:
                    if depth[g] == 1:
                        times[g] = times.get(g, 0.0) + dt
                    depth[g] -= 1
            if observe is not None:
                observe(self, args, result)
            return result

        return wrapper

    # -- metrics ---------------------------------------------------------------

    def op_metrics(self, op_seconds: float) -> dict:
        """Per-layer metrics of the operation traced since the last reset."""
        c, t, n = self.calls, self.time, self.counts

        def ppoly_calls(names):
            return sum(c.get(f"ppoly.{m}", 0) for m in names)

        m = {
            "decide.log_phi_pk_all.calls": c.get("decide.log_phi_pk_all", 0),
            "decide.log_phi_pk_all_s": t.get("decide.log_phi_pk_all", 0.0),
            "decide.check_517_s": t.get("decide.check_517", 0.0),
            "decide.check_518_s": t.get("decide.check_518", 0.0),
            "decide.check_519_s": t.get("decide.check_519", 0.0),
            "tails.log_suffix_sums.calls": c.get("tails.log_suffix_sums", 0),
            "weightfunc.check_admissible_matrix_s":
                t.get("weightfunc.check_admissible_matrix", 0.0),
            "operator.partition_s": t.get("operator.partition_of_unity", 0.0),
            "ppoly.build.calls": ppoly_calls(PPOLY_BUILD),
            "ppoly.build_s": t.get("ppoly.build", 0.0),
            "ppoly.pieces_out": n["ppoly.pieces_out"],
            "ppoly.pieces_max": n["ppoly.pieces_max"],
            "ppoly.trim_ratio": _ratio(n["ppoly.trim_dropped"], n["ppoly.trim_in"]),
            "cutoffs.build_cutoff.calls": c.get("cutoffs.build_cutoff", 0),
            "cutoffs.build_cutoff_s": t.get("cutoffs.build_cutoff", 0.0),
            "cutoffs.cache_hit_ratio": (
                1.0 - _ratio(n["partition.cutoff_builds"], n["partition.balls"])
                if n["partition.balls"] else 0.0),
            "cover.balls": n["cover.balls"],
            "ppoly.eval.calls": ppoly_calls(PPOLY_EVAL),
            "ppoly.eval.points": n["ppoly.eval.points"],
            "ppoly.eval_s": t.get("ppoly.eval", 0.0),
            "operator.verify_partition_s": t.get("operator.verify_partition", 0.0),
            "operator.fit_rho_s": t.get("operator.fit_rho", 0.0),
            "jets.remainder.calls": c.get("jets.remainder", 0),
            "jets.fit_jet_constants.calls": c.get("jets.fit_jet_constants", 0),
            "jets.fit_jet_constants_s": t.get("jets.fit_jet_constants", 0.0),
            "jets.jet_norm_profile_s": t.get("jets.jet_norm_profile", 0.0),
            "seqcalc.log_h_assoc.calls": c.get("seqcalc.log_h_assoc", 0),
            "serial.write_s": t.get("serial.write", 0.0),
            "serial.bytes_written": n["serial.bytes_written"],
        }
        for layer, s in self.self_time.items():
            m[f"{layer}.self_s"] = s
        m["operator.extend_self_s"] = self.key_self_time.get("operator.extend_jet", 0.0)
        m.update(_search_steps(self.extension))
        m["spline_pieces"] = (len(self.extension.f.coeffs)
                              if self.extension is not None else 0)
        m["trace.self_sum_frac"] = sum(self.self_time.values()) / op_seconds
        return m


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _search_steps(res) -> dict:
    """Steps of each doubling search, read back from the returned constants:
    every search starts at a known value and doubles (or halves) it."""
    names = ("operator.L_doublings", "operator.lambda_steps", "operator.D_steps",
             "operator.A410_steps", "cutoffs.A_steps")
    if res is None:
        return dict.fromkeys(names, 0)
    k = res.constants
    ratios = (k["L"] / (k["D1"] * max(k["rho"], 1.0)), 1.0 / k["lambda"], k["D"],
              res.partition.lemma410_A, k["A"])
    return {n: math.log2(r) for n, r in zip(names, ratios)}


def metric_unit(name: str) -> str:
    if name.endswith("_ratio") or name.endswith("_frac"):
        return "1"
    if name == "serial.bytes_written":
        return "B"
    return "s" if name.endswith("_s") else "count"


# -- observers: counts read at the call boundary ----------------------------------

def _obs_build(tr: LayerTracer, args, result) -> None:
    pieces = len(result.coeffs)
    tr.counts["ppoly.pieces_out"] += pieces
    tr.counts["ppoly.pieces_max"] = max(tr.counts["ppoly.pieces_max"], pieces)


def _obs_trimmed(tr: LayerTracer, args, result) -> None:
    _obs_build(tr, args, result)
    n_in = len(args[0].coeffs)
    tr.counts["ppoly.trim_in"] += n_in
    tr.counts["ppoly.trim_dropped"] += n_in - len(result.coeffs)


def _obs_eval(tr: LayerTracer, args, result) -> None:
    tr.counts["ppoly.eval.points"] += int(np.size(args[1]))


def _obs_cover(tr: LayerTracer, args, result) -> None:
    tr.counts["cover.balls"] += len(result.balls)


def _obs_partition(tr: LayerTracer, args, result) -> None:
    tr.counts["partition.balls"] += len(args[0].balls)


def _obs_build_cutoff(tr: LayerTracer, args, result) -> None:
    if tr.depth.get("operator.partition_of_unity", 0) > 0:
        tr.counts["partition.cutoff_builds"] += 1


def _obs_extend(tr: LayerTracer, args, result) -> None:
    tr.extension = result


def _obs_write(tr: LayerTracer, args, result) -> None:
    tr.counts["serial.bytes_written"] += len(args[1].encode())


_OBSERVERS = {
    **{f"ppoly.{m}": _obs_build for m in PPOLY_BUILD},
    "ppoly.trimmed": _obs_trimmed,
    "ppoly.__call__": _obs_eval,
    "cover.whitney_cover": _obs_cover,
    "operator.partition_of_unity": _obs_partition,
    "cutoffs.build_cutoff": _obs_build_cutoff,
    "operator.extend_jet": _obs_extend,
    "serial.atomic_write_text": _obs_write,
}
