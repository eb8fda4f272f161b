"""ultrajet benchmark: one workload per process, closed loop, one client.

Run from the repository root:

    python3 perfbench/run.py --workload decide-omega --seed 0 --seconds 30 --trace 0

The process sets up the workload (import plus input generation), then
issues one operation at a time, each only after the previous one returned,
until ``--seconds`` have passed.  Every operation is checked by its
workload's gate; one that raises or fails its gate counts as failed.  The
last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: the median operation time,
the median of several set-ups, and the peak resident memory of this
process.  The set-ups are the one in this process and ``SETUP_PROBES`` more
in fresh interpreters, spread between operations over the run.

The shared host's CPU speed drifts by a quarter within minutes, and the
program's time drifts with it.  So the run also times a fixed loop of NumPy
array arithmetic (``ref_unit``) between operations, about ``REF_SHARE`` of
the operation time, and reports both times at reference speed: measured
seconds times ``REF_UNIT_NOMINAL_S`` over the run's median reference-loop
seconds.  The raw medians go to standard error.

``--trace 1`` wraps the layer functions (see ``layers.py``), alternates
untraced and traced operations, and reports per-layer metrics as medians
over the traced ones, together with the tracing overhead.

BLAS runs on one thread and the program is imported from ``src/`` of the
current directory; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_PROBES = 4            # extra set-ups, each in a fresh interpreter
SELF_SUM_TOL = 0.01         # |1 - sum(layer self times) / op time| in traced ops
REF_ITERS = 100             # iterations of one reference-loop unit
REF_UNIT_NOMINAL_S = 0.025  # seconds of one unit at reference speed
REF_SHARE = 0.1             # reference-loop time over operation time


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only time one set-up and print its seconds")
    return p.parse_args(argv)


def set_up(workload, seed: int, workdir: str, tracer=None):
    """Import the program and build the workload inputs; returns
    (workload object, seconds)."""
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import ultrajet
    if not os.path.abspath(ultrajet.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"ultrajet imported from {ultrajet.__file__}, not {SRC}")
    if tracer is not None:
        tracer.install()
    wl = workload(seed, workdir)
    return wl, time.perf_counter() - t0


def probe_setup(args) -> float:
    """Set-up seconds measured in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def ref_unit() -> float:
    """Seconds of a fixed loop of NumPy array arithmetic that uses no
    program code."""
    import numpy as np
    m = np.linspace(0.0, 1.0, 2000 * 38).reshape(2000, 38)
    w = np.ones(8)
    t0 = time.perf_counter()
    for _ in range(REF_ITERS):
        c = m * 1.0001
        c.sum(axis=1)
        c[:, :8] @ w
        np.diff(c, axis=1)
    return time.perf_counter() - t0


def run_op(wl):
    """(seconds, failure reasons) of one operation."""
    t0 = time.perf_counter()
    try:
        result = wl.run()
    except Exception as exc:  # a raising operation is a failed operation
        return time.perf_counter() - t0, [f"{type(exc).__name__}: {exc}"]
    dt = time.perf_counter() - t0
    try:
        return dt, wl.check(result)
    except (KeyError, OSError, ValueError) as exc:
        return dt, [f"gate could not read the result: {exc!r}"]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ultrajet", "__init__.py")):
        print(f"error: no ultrajet package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.setup_probe:
            print(repr(set_up(WORKLOADS[args.workload], args.seed, workdir)[1]))
            return 0
        return measure(args, WORKLOADS[args.workload], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)    # only when no other run is using it


def measure(args, workload, workdir: str) -> int:
    tracer = None
    if args.trace:
        from layers import LayerTracer, metric_unit
        tracer = LayerTracer()
    wl, setup_s = set_up(workload, args.seed, workdir, tracer)
    setups = [setup_s]
    if tracer is not None:
        assoc_s = tracer.time.get("weightfunc.associated_matrix", 0.0)
        tracer.uninstall()

    plain, traced, per_op, refs, failed = [], [], [], [], 0
    probes_left = 0 if tracer is not None else SETUP_PROBES
    start = time.perf_counter()
    paused = 0.0              # seconds spent in set-up probes
    while True:
        trace_this = tracer is not None and len(plain) > len(traced)
        if trace_this:
            tracer.reset()
            tracer.install()
        dt, bad = run_op(wl)
        if trace_this:
            tracer.uninstall()
            m = tracer.op_metrics(dt)
            if abs(1.0 - m["trace.self_sum_frac"]) > SELF_SUM_TOL:
                bad = bad + [f"layer self times sum to {m['trace.self_sum_frac']:.4f} "
                             f"of the operation time"]
            per_op.append(m)
            traced.append(dt)
        else:
            plain.append(dt)
            while sum(refs) < REF_SHARE * sum(plain):
                refs.append(ref_unit())
        if bad:
            failed += 1
            print(f"operation {len(plain) + len(traced)} failed: {'; '.join(bad)}",
                  file=sys.stderr)
        elapsed = time.perf_counter() - start - paused
        # Probe k is due at k / (SETUP_PROBES + 1) of the run; at most one
        # per gap between operations, the rest after the loop.
        if probes_left and elapsed >= (
                (SETUP_PROBES - probes_left + 1) * args.seconds / (SETUP_PROBES + 1)):
            t0 = time.perf_counter()
            setups.append(probe_setup(args))
            probes_left -= 1
            paused += time.perf_counter() - t0
        if elapsed >= args.seconds and (tracer is None or traced):
            break
    setups += [probe_setup(args) for _ in range(probes_left)]

    attempted = len(plain) + len(traced)
    info = {}
    if tracer is None:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ref_s = statistics.median(refs)
        speed = REF_UNIT_NOMINAL_S / ref_s
        info = {"ref_unit_s": ref_s, "ref_units": len(refs),
                "op_s_p50_raw": statistics.median(plain),
                "setup_s_raw": statistics.median(setups)}
        metrics = {
            "op_s_p50": (statistics.median(plain) * speed, "s"),
            "setup_s": (statistics.median(setups) * speed, "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
    else:
        metrics = {k: (statistics.median(m[k] for m in per_op), metric_unit(k))
                   for k in per_op[0]}
        metrics["weightfunc.associated_matrix_s"] = (assoc_s, "s")
        p50_plain, p50_traced = statistics.median(plain), statistics.median(traced)
        metrics["ops_failed_frac"] = (failed / attempted, "1")
        metrics["trace.op_s_p50"] = (p50_traced, "s")
        metrics["trace.overhead_s"] = (p50_traced - p50_plain, "s")
        metrics["trace.overhead_frac"] = ((p50_traced - p50_plain) / p50_plain, "1")
    print(json.dumps({"workload": args.workload, "params": wl.params,
                      "op_samples": len(traced) if tracer else len(plain),
                      "setups_s": setups, **info}),
          file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
