"""Benchmark of fvptrunc: one workload, one seed, one measured run.

    python3 bench/run.py --workload sin-ladder --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/`.  A run is BATCHES batches, one after the other, each a fresh
interpreter (bench/worker.py) that times its set-up once and then forks
one child per body, with BLAS and OpenMP pools capped at THREAD_CAP
threads.  Only one process computes at a time.

--trace 0 reports the end-to-end metrics:
  run_s        wall time of one body, normalised to machine speed: the
               median over bodies of body time / calibration_s, times
               CALIBRATION_REF_S, where calibration_s times a fixed kernel
               (worker.calibrate) next to the body in the same process.
               Other tenants of the machine slow both alike, by up to a
               third for minutes at a time, so raw medians wander run to
               run several times more than the ratio does.
  setup_s      import fvptrunc plus config generation and parsing in a
               fresh interpreter, normalised the same way against the
               kernel timed right after it; median over batches.
  peak_rss_mb  ru_maxrss of the forked body process, median over bodies.
               Pages of imported libraries that a body never touches are
               not counted, so it reads below a fresh CLI process.
  passed_frac  checked outputs that pass over outputs attempted.
The raw medians are printed as run_wall_s and setup_wall_s.
--trace 1 alternates untraced and traced bodies and reports the per-layer
metrics of bench/spans.py as medians over traced bodies, with
trace.run_s, the median traced body (raw, the base of the layer shares),
and trace.overhead_s, the median traced body minus the median untraced
one, both normalised as run_s.  Traced targets the program no longer has
are listed as missing_spans, on stderr and in the printed table (the
result line holds only correct, attempted, failed and metrics); their
layers read 0.  The spans of every
traced body go to one file under bench/out/.  The last line printed is
the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import workloads
from spans import PER_LAYER

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

THREAD_CAP = 1
BATCHES = 5
SETUP_ALLOWANCE_S = 1.5   # interpreter start and set-up of one batch
LAST_START_S = 100.0      # no batch starts later, so a run ends within 180 s
BATCH_TIMEOUT_S = 75.0    # on top of the batch's own budget
# Fixed scale of the normalised times: about the calibration kernel's time
# on the machine of bench/record.json, so they read as seconds there.
CALIBRATION_REF_S = 0.025


def worker_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = str(THREAD_CAP)
    return env


def run_batch(workload: str, seed: int, seconds: float, trace: int, spans_file: Path,
              run_id: str) -> dict | None:
    """One batch; None when it dies or prints no result."""
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    # own session, so a timeout can stop the batch and the body it forked
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), workload, str(seed), str(workdir),
         repr(seconds), str(trace), str(spans_file), run_id],
        env=worker_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=seconds + BATCH_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"batch {run_id} timed out", file=sys.stderr)
        return None
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stderr.write(stderr)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"batch {run_id} exited {proc.returncode}", file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    if Path(result["fvptrunc"]) != SRC / "fvptrunc":
        raise SystemExit(f"imported fvptrunc from {result['fvptrunc']}, not {SRC}")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # stop the running batch on SIGTERM too (see run_batch)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "fvptrunc" / "__init__.py").is_file():
        print(f"no fvptrunc sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    if args.trace:
        spans_file.write_text("")

    setups, bodies = [], []
    attempted = failed = lost = 0
    start = perf_counter()
    for b in range(BATCHES):
        elapsed = perf_counter() - start
        if elapsed > LAST_START_S:
            break
        budget = max(0.0, (args.seconds - elapsed) / (BATCHES - b) - SETUP_ALLOWANCE_S)
        res = run_batch(args.workload, args.seed, budget, args.trace, spans_file,
                        f"{args.workload}:{args.seed}:{b}")
        if res is None:
            lost += 1  # at least one body's outputs
            continue
        setups.append(res)
        for body in res["bodies"]:
            if body.get("died"):
                lost += 1
                continue
            attempted += body["attempted"]
            failed += body["failed"]
            bodies.append(body)
    # a body that dies fails every output it would have produced
    attempted += lost * workloads.expected_outputs(args.workload)
    failed += lost * workloads.expected_outputs(args.workload)
    plain = [r for r in bodies if not r["traced"]]
    traced = [r for r in bodies if r["traced"]]
    if not plain or (args.trace and not traced):
        print("no body completed", file=sys.stderr)
        return 1

    lines, metrics = [], {}

    def report(name: str, unit: str, values: list[float], result: bool = True):
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [med] * 3
        lines.append(f"{name:36s} {med:14.6g} {unit:6s} "
                     f"[q1 {q1:.6g}, q3 {q3:.6g}, n {len(values)}]")
        if result:
            metrics[name] = {"value": med, "unit": unit}

    def normalised(runs: list[dict]) -> list[float]:
        return [CALIBRATION_REF_S * r["run_s"] / r["calibration_s"] for r in runs]

    if args.trace:
        by_name = {"trace.run_s": [statistics.median(r["run_s"] for r in traced)],
                   "trace.overhead_s": [statistics.median(normalised(traced))
                                        - statistics.median(normalised(plain))]}
        for name, unit in PER_LAYER.items():
            report(name, unit, by_name.get(name) or [r["layers"][name] for r in traced])
        missing = sorted({m for r in traced for m in r["missing_spans"]})
        if missing:
            # their layers read 0 because nothing was traced, not because they got faster
            print(f"missing spans: {', '.join(missing)}", file=sys.stderr)
        lines.append(f"{'missing_spans':36s} {len(missing):14d} count  [{', '.join(missing)}]")
    else:
        report("run_s", "s", normalised(plain))
        report("setup_s", "s", [CALIBRATION_REF_S * r["setup_s"] / r["calibration_s"]
                                for r in setups])
        report("peak_rss_mb", "MB", [r["peak_rss_mb"] for r in plain])
        report("passed_frac", "frac", [1.0 - failed / attempted])
        report("run_wall_s", "s", [r["run_s"] for r in plain], result=False)
        report("setup_wall_s", "s", [r["setup_s"] for r in setups], result=False)
        report("calibration_s", "s", [r["calibration_s"] for r in plain], result=False)
    lines.append(f"{'failed_frac':36s} {failed / attempted:14.6g} frac   "
                 f"[{failed} of {attempted} checked outputs]")
    print(f"workload {args.workload}, seed {args.seed}: {len(setups)} batches, "
          f"{len(plain)} untraced and {len(traced)} traced bodies, "
          f"{perf_counter() - start:.1f} s")
    print("\n".join(lines))
    print(json.dumps({"correct": lost == 0 and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
