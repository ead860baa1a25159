"""Command-line interface.

Subcommands:
  solve           one instance -> trajectory CSV
  demo-illposed   the small-data / huge-solution table
  choose-n        print the rule-chosen truncation level
  experiment      full delta-ladder run -> report CSV + summary
  gronwall-check  property sweep of the iterated-integral inequality against
                  the exact (closed-form) solution of its equality case

Exit codes: 0 on success, 4 on a dominance (or inequality) violation, and
for every package error the `exit_code` of its type, with one line on
stderr, its `label` and the message, and no traceback.  The README's CLI
section tabulates the codes and labels.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .bounds import gronwall_bound, gronwall_comparison_solution
from .errors import ConfigError, FvptruncError
from .harness import ExperimentConfig, noisy_solve, run_experiment
from .param_choice import (HOLDER_RULE, LOG_RULE, ChoiceInputs, choose_level)
from .reference import illposed_pair
from .spectral import EigenModel

EXIT_OK = 0
EXIT_VIOLATION = 4


def _number(text: str, admits, meaning: str) -> float:
    """Parse a finite float that satisfies `admits`, or fail with a usage error."""
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not (math.isfinite(x) and admits(x)):
        raise argparse.ArgumentTypeError(f"expected {meaning}, got {text!r}")
    return x


def _positive(text: str) -> float:
    return _number(text, lambda x: x > 0.0, "a finite number > 0")


def _non_negative(text: str) -> float:
    return _number(text, lambda x: x >= 0.0, "a finite number >= 0")


def _positive_int(text: str) -> int:
    return int(_number(text, lambda x: x >= 1.0 and x.is_integer(), "an integer >= 1"))


def _non_negative_int(text: str) -> int:
    return int(_number(text, lambda x: x >= 0.0 and x.is_integer(), "an integer >= 0"))


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
    if args.level > cfg.mode_count:
        raise ConfigError(f"--level {args.level} exceeds instance.mode_count {cfg.mode_count}")
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
    try:
        model = EigenModel.dirichlet_1d(args.modes)
    except (MemoryError, ValueError) as exc:    # "Maximum allowed size exceeded"
        raise ConfigError(f"--modes {args.modes} is too large to build: {exc}") from exc
    # every row before the first line: a norm past the range prints no table
    pairs = [illposed_pair(model, n, args.tau) for n in range(1, args.modes + 1)]
    rows = [(pair.mode, pair.data_norm, float(pair.solution_norm(0.0)),
             float(pair.lower_bound(0.0))) for pair in pairs]
    print(f"{'n':>3} {'data_norm':>24} {'solution_norm(0)':>24} {'lower_bound(0)':>24}")
    for n, data, sol, low in rows:
        print(f"{n:>3} {_fmt(data):>24} {_fmt(sol):>24} {_fmt(low):>24}")
    data_ok = all(b[1] < a[1] for a, b in zip(rows, rows[1:]))
    sol_ok = all(b[2] > a[2] for a, b in zip(rows, rows[1:]))
    bound_ok = all(sol >= low for _, _, sol, low in rows)
    print(f"data norms strictly decreasing: {data_ok}")
    print(f"solution norms strictly increasing: {sol_ok}")
    print(f"solution >= lower bound everywhere: {bound_ok}")
    return EXIT_OK if (data_ok and sol_ok and bound_ok) else EXIT_VIOLATION


def _cmd_choose_n(args) -> int:
    if args.t > args.tau:
        raise ConfigError(f"--t {args.t:g} lies past --tau {args.tau:g}")
    regime = LOG_RULE if args.rule == "log" else HOLDER_RULE
    ci = ChoiceInputs(regime=regime, rho=args.rho, delta=args.delta, t=args.t,
                      tau=args.tau, d=args.d, e1=args.e1, e2=args.e2,
                      p=args.p, q=args.q)
    choice = choose_level(ci)
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


def _cmd_gronwall_check(args) -> int:
    rng = np.random.default_rng(args.seed)
    violations = 0
    for _ in range(args.samples):
        c0 = float(rng.uniform(0.05, 10.0))
        c1 = float(rng.uniform(0.05, 5.0))
        tau = float(rng.uniform(0.5, 2.0))
        pts, u = gronwall_comparison_solution(c0, c1, tau, n_steps=200)
        bound = np.array([gronwall_bound(c0, c1, t, tau) for t in pts])
        if np.any(u > bound):
            violations += 1
    # no margin is printed: at t = tau both sides equal c0, so it is always 0
    print(f"samples: {args.samples}, violations: {violations}")
    return EXIT_OK if violations == 0 else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fvptrunc",
        description="Spectral-truncation regularization of a backward "
                    "parabolic problem with a memory term")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one instance, write the trajectory CSV")
    p.add_argument("--config", required=True, help="experiment JSON document")
    p.add_argument("--level", type=_positive_int, required=True, help="truncation level N")
    p.add_argument("--delta", type=_non_negative, default=0.0,
                   help="noise level (0 = exact data)")
    p.add_argument("--output", default=None, help="CSV path (stdout if omitted)")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("demo-illposed", help="print the instability table")
    p.add_argument("--modes", type=_positive_int, default=8)
    p.add_argument("--tau", type=_positive, default=1.0)
    p.set_defaults(func=_cmd_demo_illposed)

    p = sub.add_parser("choose-n", help="print the rule-chosen truncation level")
    p.add_argument("--rule", choices=("log", "holder"), required=True)
    p.add_argument("--delta", type=_positive, required=True)
    p.add_argument("--rho", type=_positive, required=True)
    p.add_argument("--t", type=_non_negative, default=0.0)
    p.add_argument("--tau", type=_positive, default=1.0)
    p.add_argument("--d", type=_positive_int, default=1)
    p.add_argument("--e1", type=_positive, default=math.pi ** 2)
    p.add_argument("--e2", type=_positive, default=math.pi ** 2)
    p.add_argument("--p", type=_non_negative, default=0.0)
    p.add_argument("--q", type=_non_negative, default=0.0)
    p.set_defaults(func=_cmd_choose_n)

    p = sub.add_parser("experiment", help="run a delta-ladder experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--output-dir", required=True)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("gronwall-check", help="sweep the iterated-integral inequality")
    p.add_argument("--samples", type=_positive_int, default=100)
    p.add_argument("--seed", type=_non_negative_int, default=7)
    p.set_defaults(func=_cmd_gronwall_check)
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
