"""Run every workload over several seeds and at one fixed seed, and
summarise the spread.

Run from the repository root:

    python3 perfbench/baseline.py --out perfbench/baseline.json

For each workload this makes ``RUNS`` untraced runs with seeds 1..RUNS,
``RUNS`` untraced runs at ``FIXED_SEED``, alternating with the first set so
that both see the same machine, and one traced run at ``FIXED_SEED``.  Each
run is its own ``perfbench/run.py`` process with the ``run_seconds`` of
BENCHMARK.json.  The seed-varied set mixes input variation with machine
noise; the fixed-seed set holds the inputs still, so it shows machine noise
alone.

The output keeps every result line as printed, with the run's set-up
timings and its raw (not speed-scaled) figures.  Per set and end-to-end
metric it gives the median, the quartiles and the quartile spread as a
share of the median, checked against the metric's bound; the same for a
single set-up (the one in the run's own process) beside the reported
median of set-ups; and, without a bound, for the raw operation and set-up
medians and the reference-loop time, so that the effect of scaling to
reference speed shows.  For the traced run it adds
each time metric's share of the traced operation time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

RUNS = 10
FIXED_SEED = 0


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    info = json.loads(out.stderr.strip().splitlines()[-1])
    declared = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    if sorted(result["metrics"]) != sorted(declared):
        raise ValueError(f"{workload}: reported metrics differ from BENCHMARK.json: "
                         f"{sorted(set(result['metrics']) ^ set(declared))}")
    keep = ("setups_s", "ref_unit_s", "op_s_p50_raw", "setup_s_raw")
    return {"seed": seed, "trace": trace, **{k: info[k] for k in keep if k in info},
            "result": result}


def spread(values: list[float], bound: float | None) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    rel = (q3 - q1) / med if med else None
    return {"median": med, "q1": q1, "q3": q3, "iqr_over_median": rel,
            "bound": bound,
            "within_third_of_bound": None if bound is None else rel < bound / 3}


def summarise_set(spec: dict, runs: list[dict]) -> dict:
    summary = {m["name"]: spread([r["result"]["metrics"][m["name"]]["value"]
                                  for r in runs], m["bound"])
               for m in spec["end_to_end"]}
    setup_bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")
    # One set-up (the run's own), at reference speed like the reported median.
    summary["setup_s_single"] = spread(
        [r["setups_s"][0] * r["result"]["metrics"]["setup_s"]["value"] / r["setup_s_raw"]
         for r in runs], setup_bound)
    for raw in ("op_s_p50_raw", "setup_s_raw", "ref_unit_s"):
        summary[raw] = spread([r[raw] for r in runs], None)
    return summary


def traced_shares(traced: dict) -> dict:
    tm = traced["result"]["metrics"]
    op = tm["trace.op_s_p50"]["value"]
    shares = {k: v["value"] / op for k, v in tm.items()
              if v["unit"] == "s" and k.endswith("_s") and not k.startswith("trace.")
              and k != "weightfunc.associated_matrix_s" and v["value"] > 0}
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", default=None, help="write the JSON here")
    args = p.parse_args(argv)
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    report = {"run_seconds": spec["run_seconds"], "runs_per_set": RUNS,
              "fixed_seed": FIXED_SEED, "workloads": {}}
    for name in [w["name"] for w in spec["workloads"]]:
        varied, fixed = [], []
        for seed in range(1, RUNS + 1):
            for runs, s in ((varied, seed), (fixed, FIXED_SEED)):
                runs.append(run_once(spec, name, s, 0))
                print(name, json.dumps(runs[-1]), file=sys.stderr, flush=True)
        traced = run_once(spec, name, FIXED_SEED, 1)
        report["workloads"][name] = {
            "summary": {"seeds_varied": summarise_set(spec, varied),
                        "seed_fixed": summarise_set(spec, fixed),
                        "traced_share_of_op": traced_shares(traced)},
            "seed_varied_runs": varied,
            "seed_fixed_runs": fixed,
            "traced_run": traced,
        }
        print(name, json.dumps(report["workloads"][name]["summary"]), file=sys.stderr,
              flush=True)
    text = json.dumps(report, indent=1) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
