"""Command-line interface.

Subcommands:
  solve           one instance -> trajectory CSV
  demo-illposed   the small-data / huge-solution table
  choose-n        print the rule-chosen truncation level
  experiment      full delta-ladder run -> report CSV + summary

Exit codes: 0 on success, 4 when an experiment's rows violate their bound,
and for every package error the `exit_code` of its type, with one line on
stderr, its `label` and the message, and no traceback.  The README's CLI
section tabulates the codes and labels.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .errors import ConfigError, FvptruncError
from .harness import ExperimentConfig, noisy_solve, run_experiment
from .param_choice import choose_level
from .reference import illposed_pair
from .spectral import EigenModel, require_buildable, require_int

EXIT_OK = 0
EXIT_VIOLATION = 4


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _load_config(path: str) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return ExperimentConfig.from_json(text)


def _write(path: Path, text: str | None = None):
    """Write `text` to `path`, or make the directory `path` when text is None;
    an OSError (a missing parent, a parent that is a file) is a ConfigError."""
    try:
        if text is None:
            path.mkdir(parents=True, exist_ok=True)
        else:
            path.write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _cmd_solve(args) -> int:
    cfg = _load_config(args.config)
    # before the noise: add_noise's worst-case direction reads mode `level`
    require_int("level", args.level, high=cfg.mode_count)
    res = noisy_solve(cfg, cfg.final_data(), args.level, args.delta, cfg.seed, cfg.n_steps)
    traj = res.trajectory
    header = "t," + ",".join(f"c{j}" for j in range(1, cfg.mode_count + 1)) + ",l2_norm"
    lines = [header]
    norms = traj.norms()
    for i, t in enumerate(traj.grid.points):
        coeffs = ",".join(_fmt(c) for c in traj.states[:, i])
        lines.append(f"{_fmt(t)},{coeffs},{_fmt(norms[i])}")
    out = "\n".join(lines) + "\n"
    if args.output:
        _write(Path(args.output), out)
        print(f"wrote {args.output} ({res.iterations} iterations, "
              f"defect {res.defect:.3e})")
    else:
        sys.stdout.write(out)
    return EXIT_OK


def _cmd_demo_illposed(args) -> int:
    require_int("--modes", args.modes)
    model = require_buildable(f"--modes {args.modes}",
                              lambda: EigenModel.dirichlet_1d(args.modes))
    # each pair is evaluated as it is built, and every row before the first
    # line prints: a norm past the range stops the build and prints no table
    pairs = (illposed_pair(model, n, args.tau) for n in range(1, args.modes + 1))
    rows = [(pair.mode, pair.data_norm, float(pair.solution_norm(0.0)),
             float(pair.lower_bound(0.0))) for pair in pairs]
    print(f"{'n':>3} {'data_norm':>24} {'solution_norm(0)':>24} {'lower_bound(0)':>24}")
    for n, data, sol, low in rows:
        print(f"{n:>3} {_fmt(data):>24} {_fmt(sol):>24} {_fmt(low):>24}")
    return EXIT_OK


def _cmd_choose_n(args) -> int:
    choice = choose_level(rho=args.rho, delta=args.delta, t=args.t, tau=args.tau,
                          d=args.d, e1=args.e1, e2=args.e2, p=args.p, q=args.q)
    print(f"N = {choice.level}  (raw rule value {choice.raw:.6g}"
          + (", clamped to 1" if choice.clamped else "") + ")")
    return EXIT_OK


def _cmd_experiment(args) -> int:
    cfg = _load_config(args.config)
    outdir = Path(args.output_dir)
    _write(outdir)    # before the run, so an unwritable directory costs no solve
    report = run_experiment(cfg)
    _write(outdir / "experiment.csv", report.to_csv())
    _write(outdir / "summary.txt", report.summary())
    sys.stdout.write(report.summary())
    return EXIT_OK if report.dominance.ok else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fvptrunc",
        description="Spectral-truncation regularization of a backward "
                    "parabolic problem with a memory term")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one instance, write the trajectory CSV")
    p.add_argument("--config", required=True, help="experiment JSON document")
    p.add_argument("--level", type=int, required=True, help="truncation level N")
    p.add_argument("--delta", type=float, default=0.0, help="noise level (0 = exact data)")
    p.add_argument("--output", default=None, help="CSV path (stdout if omitted)")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("demo-illposed", help="print the instability table")
    p.add_argument("--modes", type=int, default=8)
    p.add_argument("--tau", type=float, default=1.0)
    p.set_defaults(func=_cmd_demo_illposed)

    p = sub.add_parser("choose-n", help="print the rule-chosen truncation level")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--e1", type=float, default=math.pi ** 2)
    p.add_argument("--e2", type=float, default=math.pi ** 2)
    p.add_argument("--p", type=float, default=0.0, help="the log rule's smoothness")
    p.add_argument("--q", type=float, default=0.0, help="the Holder rule's margin")
    p.set_defaults(func=_cmd_choose_n)

    p = sub.add_parser("experiment", help="run a delta-ladder experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--output-dir", required=True)
    p.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FvptruncError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
