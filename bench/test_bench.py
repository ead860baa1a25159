"""Self-tests of the benchmark: output checks, tracer and config generator.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import spans  # noqa: E402
import workloads  # noqa: E402

SMALL_LADDER = {
    "instance": {"tau": 0.25, "mode_count": 4, "source": {"kind": "sin"},
                 "reference": {"kind": "self_convergent", "data": [[1, 0.2]]}},
    "noise": {"deltas": [1e-3, 1e-4], "direction": "seeded_random", "seed": 3,
              "trials": 1},
    "solver": {"n_steps": 64, "picard_tol": 1e-11, "max_iters": 500},
    "choice": {"regime": "holder_rule", "q": 0.5, "rho": "certified"},
    "eval_times": [0.0, 0.25],
}


def golden_csv(workload: str, seed: int) -> str:
    return (workloads.GOLDEN_DIR / f"{workload}-seed{seed}.csv").read_text()


def replace_field(text: str, row: int, column: str, value: str) -> str:
    lines = text.splitlines()
    col = lines[0].split(",").index(column)
    cells = lines[row + 1].split(",")
    cells[col] = value
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


UNRECORDED_SEED = 5


@pytest.fixture(scope="module")
def unrecorded_csv():
    """experiment.csv of each ladder on a seed with no recorded rows."""
    from fvptrunc.harness import ExperimentConfig, run_experiment
    return {w: run_experiment(ExperimentConfig.from_dict(
        workloads.ladder_config(w, UNRECORDED_SEED))).to_csv() for w in workloads.LADDERS}


@pytest.mark.parametrize("workload", workloads.LADDERS)
@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED,
                                  UNRECORDED_SEED])
def test_program_rows_pass(workload, seed, unrecorded_csv):
    golden = workloads.load_golden(workload)
    text = unrecorded_csv[workload] if seed == UNRECORDED_SEED else golden_csv(workload, seed)
    attempted, failed = workloads.check_ladder(workload, seed, 0, text, golden)
    assert (attempted, failed) == (workloads.expected_outputs(workload), 0)


@pytest.mark.parametrize("column,value", [
    ("measured_error", "0.5"),
    ("N", "3"),
    ("total_bound", "1e300"),
    ("truncation_bound", "48417.0963"),
    ("seed", "12345"),
])
def test_corrupted_row_raises_failed_frac(column, value):
    golden = workloads.load_golden("sin-ladder")
    text = replace_field(golden_csv("sin-ladder", 0), 7, column, value)
    attempted, failed = workloads.check_ladder("sin-ladder", 0, 0, text, golden)
    assert failed == 1 and failed / attempted > 0.0


@pytest.mark.parametrize("workload", workloads.LADDERS)
@pytest.mark.parametrize("row", [0, 1, 2])
def test_rows_of_an_unrecorded_seed_are_checked(workload, row, unrecorded_csv):
    # no recorded rows for this seed: the benchmark's own ODE solve checks
    # measured_error (rows 0-2 are the largest errors, t = 0 and the largest delta)
    golden = workloads.load_golden(workload)
    text = unrecorded_csv[workload]
    err = float(workloads.read_csv_rows(text)[row]["measured_error"])
    bad = replace_field(text, row, "measured_error", repr(err * (1 + 1e-3)))
    n = workloads.expected_outputs(workload)
    assert workloads.check_ladder(workload, UNRECORDED_SEED, 0, bad, golden) == (n, 1)
    # a row claiming another cell's noise draw fails too
    other = workloads.read_csv_rows(text)[row + 1]["seed"]
    swapped = replace_field(text, row, "seed", other)
    assert workloads.check_ladder(workload, UNRECORDED_SEED, 0, swapped, golden) == (n, 1)


def test_missing_row_or_bad_exit_fails_every_row():
    golden = workloads.load_golden("linear-ladder")
    text = golden_csv("linear-ladder", 0)
    short = "\n".join(text.splitlines()[:-1]) + "\n"
    n = workloads.expected_outputs("linear-ladder")
    assert workloads.check_ladder("linear-ladder", 0, 0, short, golden) == (n, n)
    assert workloads.check_ladder("linear-ladder", 0, 4, text, golden) == (n, n)
    assert workloads.check_ladder("linear-ladder", 0, 0, None, golden) == (n, n)


def test_acceptance_thresholds():
    cfg = workloads.make_config("acceptance-solves", 0)
    good = {"criterion1": [1e-9, 2e-9], "criterion5": {"total": 40, "violations": 0},
            "criterion7": [8.0, 2.0, 0.5, 0.125]}
    assert workloads.check_acceptance(cfg, good) == (45, 0)
    bad = {"criterion1": [1e-7, 2e-9], "criterion5": {"total": 40, "violations": 2},
           "criterion7": [8.0, 4.0, 0.5, 0.125]}
    assert workloads.check_acceptance(cfg, bad) == (45, 4)


def _bindings():
    """Every attribute of every fvptrunc module and traced class."""
    mods = {name: dict(vars(mod)) for name, mod in sys.modules.items()
            if name == "fvptrunc" or name.startswith("fvptrunc.")}
    from fvptrunc.grids import Trajectory
    from fvptrunc.problem import SourceFunction
    mods["Trajectory"] = dict(vars(Trajectory))
    mods["SourceFunction"] = dict(vars(SourceFunction))
    return mods


def test_tracer_restores_wrappers_and_self_times_fit_wall_time(tmp_path):
    import fvptrunc.cli  # noqa: F401
    before = _bindings()
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SMALL_LADDER))
    with spans.Tracer() as tracer:
        start = perf_counter()
        assert workloads.run_ladder(config, tmp_path) == 0
        wall = perf_counter() - start
    after = _bindings()
    assert before.keys() == after.keys()
    for name in before:
        changed = [k for k in before[name] if before[name][k] is not after[name].get(k)]
        assert not changed, (name, changed)

    own = tracer.self_times()
    assert sum(own) <= wall
    assert min(own) > -1e-6
    m = tracer.metrics()
    assert set(m) | {"trace.run_s", "trace.overhead_s"} == set(spans.PER_LAYER)
    assert m["harness.cells"] == 4 and m["reference.ladder_solves"] == 3
    assert m["harness.cell_solves"] == 4 and m["solver.picard_solve.calls"] == 7
    assert m["spectral.gevrey_norm.calls"] == 65


def test_tracer_restores_when_the_body_raises():
    import fvptrunc.solver
    original = fvptrunc.solver.picard_solve
    with pytest.raises(RuntimeError):
        with spans.Tracer():
            assert fvptrunc.solver.picard_solve is not original
            raise RuntimeError
    assert fvptrunc.solver.picard_solve is original


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_config_is_deterministic_in_seed(workload):
    assert workloads.make_config(workload, 17) == workloads.make_config(workload, 17)
    a, b = workloads.make_config(workload, 17), workloads.make_config(workload, 18)
    if workload in workloads.LADDERS:
        assert (a["noise"]["seed"], b["noise"]["seed"]) == (17, 18)
        b["noise"]["seed"] = 17
    assert a == b


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sin-ladder",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_declared_metric(trace, section):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "acceptance-solves",
                           "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                          cwd=BENCH.parent, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 45
    assert {m["name"]: m["unit"] for m in spec[section]} == \
        {k: v["unit"] for k, v in result["metrics"].items()}


def test_tracer_skips_a_target_the_program_lacks(monkeypatch):
    import fvptrunc.solver
    original = fvptrunc.solver.picard_solve
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (
        ("solver.gone", "fvptrunc.solver", "no_such_function"),))
    with spans.Tracer() as tracer:
        assert fvptrunc.solver.picard_solve is not original
    assert fvptrunc.solver.picard_solve is original
    assert tracer.metrics()["solver.picard_solve.calls"] == 0
    assert tracer.missing == ["fvptrunc.solver.no_such_function"]


@pytest.mark.parametrize("name", spans.QUADRATURE)
def test_quadrature_points_count_every_mode(name):
    # a mode-batched call passes a 2-D w: points and bytes count all of it
    import numpy as np
    one, batched = spans.Tracer(), spans.Tracer()
    lead = (1.0,) if name == "quadrature.exp_kernel_profile" else ()
    one._observe(name, lead + (1e-3, np.zeros(101), 6), {}, None)
    batched._observe(name, lead + (1e-3, np.zeros((4, 101)), 6), {}, None)
    assert (one.points, batched.points) == (101, 404)
    assert batched.bytes == 4 * one.bytes
