"""Run the benchmark repeatedly and append one point to bench/trajectory.json.

    python3 bench/baseline.py --label "<commit> <what changed>"

From the root of a source checkout, runs every workload of BENCHMARK.json
once per seed with tracing off, in SETS sets of RUNS seeds each (set k
uses seeds k*RUNS+1 .. (k+1)*RUNS), then once traced.  The point
records every run made; per set, end-to-end metric and workload the
median, the quartiles and their distance as a share of the median (the
spread) next to the metric's bound; the largest relative distance of a
later set's median from the first set's, in either direction; the traced
run with the sizing shares; and the machine facts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

RUNS = 10   # seeds per set: each spread is taken over ten runs
SETS = 2    # sets whose medians must agree


def machine() -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    from run import THREAD_CAP
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "thread_cap": f"one worker process at a time; {THREAD_CAP} BLAS/OpenMP "
                          "thread per pool"}


def run_once(cmd: list[str], workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(cmd + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["seed"] = seed
    return result


# The layers of the sizing table: self time of each, as a share of the
# median traced body.
SIZING = {
    "norm rows": ["spectral.scaled_norm_rows.s"],
    "gevrey": ["spectral.gevrey_norm.s"],
    "quadrature": ["quadrature.exp_kernel_profile.s", "quadrature.backward_cumulative.s"],
    "fixed_point_map": ["solver.fixed_point_map.self_s"],
    "reference": ["reference.build_reference.s"],
}


def shares(metrics: dict) -> dict:
    base = metrics["trace.run_s"]["value"]
    return {layer: sum(metrics[m]["value"] for m in names) / base
            for layer, names in SIZING.items()}


def summarise(spec: dict, runs: list[dict]) -> dict:
    summary = {}
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        summary[metric["name"]] = {
            "unit": metric["unit"], "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med, "bound": metric["bound"]}
    return summary


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--out", default=str(BENCH / "trajectory.json"))
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    sets = []
    for k in range(SETS):
        seeds = range(1 + k * RUNS, 1 + (k + 1) * RUNS)
        runs = {w: [run_once(spec["command"], w, s, spec["run_seconds"], 0) for s in seeds]
                for w in names}
        sets.append({w: {"summary": summarise(spec, runs[w]), "runs": runs[w]}
                     for w in names})
        print(f"set {k + 1}:", json.dumps({w: sets[-1][w]["summary"] for w in names},
                                          indent=1), flush=True)
    agreement = {}
    for w in names:
        agreement[w] = {}
        for metric in spec["end_to_end"]:
            meds = [st[w]["summary"][metric["name"]]["median"] for st in sets]
            change = max(abs(m - meds[0]) / meds[0] for m in meds[1:])
            agreement[w][metric["name"]] = {"medians": meds, "worst_change": change,
                                            "bound": metric["bound"],
                                            "ok": change <= metric["bound"]}
    traced = {}
    for w in names:
        result = run_once(spec["command"], w, 1, spec["run_seconds"], 1)
        traced[w] = {"result": result, "shares_of_traced_body": shares(result["metrics"])}
    point = {"label": args.label, "machine": machine(), "run_seconds": spec["run_seconds"],
             "correct": all(r["correct"] for st in sets for w in names for r in st[w]["runs"])
             and all(t["result"]["correct"] for t in traced.values()),
             "sets": sets, "agreement": agreement, "traced": traced}
    print("agreement:", json.dumps(agreement, indent=1))

    path = Path(args.out)
    trajectory = json.loads(path.read_text()) if path.exists() else []
    trajectory.append(point)
    path.write_text(json.dumps(trajectory, indent=1) + "\n")


if __name__ == "__main__":
    sys.path.insert(0, str(BENCH))
    main()
