"""Record the ladder outputs the benchmark checks against.

    PYTHONPATH=src python3 bench/make_golden.py

Writes bench/golden/<workload>-seed<seed>.csv for the default and the
held-out seed, and bench/golden/<workload>.json with the certified rho and
the reference sup norm the row checks need.  Rerun only when a change is
meant to alter the experiment output, and say so in CHANGES.md.
"""

from __future__ import annotations

import json

import workloads
from workloads import DEFAULT_SEED, GOLDEN_DIR, HELD_OUT_SEED


def main():
    from fvptrunc.harness import ExperimentConfig, run_experiment

    GOLDEN_DIR.mkdir(exist_ok=True)
    for workload in workloads.LADDERS:
        meta = {"seeds": [DEFAULT_SEED, HELD_OUT_SEED]}
        for seed in meta["seeds"]:
            cfg = ExperimentConfig.from_dict(workloads.ladder_config(workload, seed))
            report = run_experiment(cfg)
            (GOLDEN_DIR / f"{workload}-seed{seed}.csv").write_text(report.to_csv())
            meta["rho"] = report.rho
            meta["ref_sup_norm"] = report.reference.trajectory.sup_norm()
        (GOLDEN_DIR / f"{workload}.json").write_text(json.dumps(meta, indent=1) + "\n")
        print(f"{workload}: rho {meta['rho']!r}, sup ||reference|| {meta['ref_sup_norm']!r}")


if __name__ == "__main__":
    main()
