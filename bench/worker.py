"""One batch of benchmark bodies: a fresh interpreter that forks one child per body.

    python3 bench/worker.py WORKLOAD SEED WORKDIR SECONDS TRACE SPANS_FILE RUN_ID

The batch times its own set-up (import fvptrunc, generate and parse the
config) in a fresh interpreter and then the calibration kernel, and forks
one child per body until SECONDS have passed.  Every child starts from the state right after
set-up, so each body finds the package's lru_cache weight tables cold and
runs nothing a previous body warmed, as on every `fvptrunc` CLI call,
without paying the import again.  Each child also times a calibration
kernel before and after its body.  With TRACE 1 every second body is
traced and appends its spans to SPANS_FILE.  The last line printed is one
JSON object: setup_s, calibration_s and one record per body (run_s,
calibration_s, peak_rss_mb, attempted, failed and, when traced, the
per-layer metrics and the traced targets the program lacks).
"""

from __future__ import annotations

import json
import os
import resource
import select
import signal
import sys
import traceback
from pathlib import Path
from time import perf_counter

import workloads

BODY_TIMEOUT_S = 60.0
CALIBRATION_REPS = 25


def calibrate() -> float:
    """Seconds for a fixed kernel shaped like the package's hot paths.

    Per repetition: a six-point stencil gather and weighted sum over a
    4000-step column, a first-order backward recurrence (lfilter),
    row-max-scaled norms of a 4001 x 12 state array, and 40 log-sum-exp
    reductions over single 12-mode rows, each called from Python.  It slows
    down with the machine when other tenants contend for the core and its
    caches, and it touches nothing of fvptrunc, so a change to the package
    cannot move it.
    """
    import numpy as np
    from scipy.signal import lfilter
    n, k = 4000, 6
    lam = (np.arange(1.0, 13.0) * np.pi) ** 2
    states = np.sin(np.outer(np.linspace(0.1, 1.0, n + 1), np.arange(1.0, 13.0)))
    weights = np.cos(np.outer(np.arange(n), np.arange(k)) * 1e-3)
    idx = np.clip(np.arange(n) - 2, 0, n + 1 - k)[:, None] + np.arange(k)[None, :]
    start = perf_counter()
    acc = 0.0
    for i in range(CALIBRATION_REPS):
        w = states[:, i % 12]
        a = np.einsum("ik,ik->i", weights, w[idx])
        y = lfilter([1.0], [1.0, -0.999], a[::-1])
        row_max = np.max(np.abs(states), axis=1)
        acc += float(y[-1]) + float((row_max * np.linalg.norm(states / row_max[:, None],
                                                              axis=1)).max())
        for row in states[40 * i:40 * i + 40]:
            t = 2.0 * np.log(lam) + 1.5 * lam + 2.0 * np.log(np.abs(row))
            m = t.max()
            acc += m + np.log(np.exp(t - m).sum())
    return perf_counter() - start


def native_threads() -> int:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("Threads:"):
            return int(line.split()[1])
    return 1


def body(workload: str, seed: int, cfg, workdir: Path, spans_file: str | None,
         run_id: str) -> dict:
    """Run and check one body; the caller is a freshly forked child."""
    calibration_s = calibrate()
    tracer = None
    if spans_file:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    exit_code, out = None, None
    start = perf_counter()
    try:
        if workload in workloads.LADDERS:
            exit_code = workloads.run_ladder(cfg, workdir)
        else:
            out = workloads.run_acceptance(cfg)
            exit_code = 0
    except Exception:
        # a body that raises fails every output it would have produced
        traceback.print_exc()
    finally:
        run_s = perf_counter() - start
        if tracer is not None:
            tracer.restore()
    calibration_s = 0.5 * (calibration_s + calibrate())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if exit_code is None:
        attempted = failed = workloads.expected_outputs(workload)
    elif workload in workloads.LADDERS:
        csv_path = workdir / "out" / "experiment.csv"
        attempted, failed = workloads.check_ladder(
            workload, seed, exit_code,
            csv_path.read_text() if csv_path.exists() else None,
            workloads.load_golden(workload))
    else:
        attempted, failed = workloads.check_acceptance(cfg, out)
    result = {"run_s": run_s, "calibration_s": calibration_s, "peak_rss_mb": peak_rss_mb,
              "attempted": attempted, "failed": failed, "traced": tracer is not None}
    if tracer is not None:
        tracer.write(spans_file, run_id)
        result["layers"] = tracer.metrics()
        result["missing_spans"] = tracer.missing
    return result


def forked(fn, *args) -> dict | None:
    """fn(*args) in a forked child; its JSON result, or None if it dies or hangs."""
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        code = 1
        try:
            payload = json.dumps(fn(*args)).encode()
            with os.fdopen(wfd, "wb") as pipe:
                pipe.write(payload)
            code = 0
        except BaseException:
            # the child's only exit: report, then leave without unwinding
            # into the parent's code
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    os.close(wfd)
    chunks, deadline = [], perf_counter() + BODY_TIMEOUT_S
    with os.fdopen(rfd, "rb") as pipe:
        while True:
            ready, _, _ = select.select([pipe], [], [], max(0.0, deadline - perf_counter()))
            if not ready:
                os.kill(pid, signal.SIGKILL)
                break
            chunk = os.read(pipe.fileno(), 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    _, status = os.waitpid(pid, 0)
    if status != 0 or not chunks:
        return None
    return json.loads(b"".join(chunks))


def main(argv: list[str]) -> int:
    workload, seed, workdir, seconds, trace, spans_file, run_id = argv
    seed, workdir, seconds, trace = int(seed), Path(workdir), float(seconds), trace == "1"

    start = perf_counter()
    import fvptrunc
    import fvptrunc.cli  # noqa: F401  (the ladders run through it)
    doc = workloads.make_config(workload, seed)
    cfg = workloads.parse_config(workload, doc, workdir)
    setup_s = perf_counter() - start
    setup_calibration_s = 0.5 * (calibrate() + calibrate())
    if native_threads() != 1:
        raise SystemExit("bodies are forked: cap BLAS/OpenMP pools at one thread")

    bodies, body_s = [], 0.0
    start = perf_counter()
    while len(bodies) < 1 + trace or perf_counter() - start + body_s <= seconds:
        t0 = perf_counter()
        k = len(bodies)
        traced = trace and k % 2 == 1
        bodydir = workdir / f"body{k}"
        bodydir.mkdir()
        res = forked(body, workload, seed, cfg, bodydir,
                     spans_file if traced else None, f"{run_id}.{k}")
        bodies.append(res if res is not None else {"traced": traced, "died": True})
        body_s = perf_counter() - t0
    print(json.dumps({"setup_s": setup_s, "calibration_s": setup_calibration_s,
                      "bodies": bodies,
                      "fvptrunc": str(Path(fvptrunc.__file__).resolve().parent)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
