"""Experiment runner: noise injection, delta ladders, rate fits, CSV output.

A single JSON document configures an experiment; see `ExperimentConfig`.
Every cell (evaluation time, noise level, trial) is solved independently
with a deterministic per-cell seed, so identical configurations reproduce
byte-identical CSV output.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from itertools import groupby
from typing import NamedTuple

import numpy as np

from .bounds import (BoundInputs, DominanceReport, DominanceSample, check_dominance,
                     log_total_bound, noise_bound, total_bound, truncation_bound)
from .errors import ConfigError, NonConvergenceError
from .grids import TimeGrid
from .param_choice import (HOLDER_RULE, LOG_RULE, ChoiceInputs, choose_level)
from .problem import FvpInstance, SourceFunction
from .reference import (ReferenceSolution, combined_closed_form, richardson_estimate,
                        self_convergent_reference)
from .solver import DEFAULT_MAX_ITERS, DEFAULT_PICARD_TOL, PicardResult, SolverConfig, picard_solve
from .spectral import (EigenModel, GevreyParams, SpectralField, checked, exp_checked,
                       gevrey_log_norms, l2_norm, scaled_norm_rows)

RHO_SAFETY = 1.01                # grid-max to essential-sup safety factor


# --------------------------------------------------------------------------
# noise injection

def add_noise(g: SpectralField, delta: float, direction: str = "seeded_random",
              seed: int = 0, mode: int | None = None) -> SpectralField:
    """g + delta * e with ||e|| = 1 (post-normalization).

    direction 'worst_case_mode' sets e to the basis mode `mode` (the
    direction the noise bound amplifies hardest); 'seeded_random' draws a
    deterministic direction over all model modes from `seed`.  The noise
    vector is rescaled once after rounding so its stored norm equals delta
    to a few ulp.
    """
    if not (math.isfinite(delta) and delta >= 0.0):
        raise ValueError(f"delta must be finite and >= 0, got {delta!r}")
    if delta == 0.0:
        return g
    m = g.model.mode_count
    if direction == "worst_case_mode":
        if mode is None or not 1 <= mode <= m:
            raise ValueError("worst_case_mode needs a valid mode index")
        e = np.zeros(m)
        e[mode - 1] = 1.0
    elif direction == "seeded_random":
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        e = rng.standard_normal(m)
        if not np.any(e):
            e[0] = 1.0
    else:
        raise ValueError(f"unknown noise direction {direction!r}")
    # the overflow/underflow-safe norm: plain sums of squares underflow
    # for delta below ~1e-154
    e = e / scaled_norm_rows(e)[0]
    d = delta * e
    d *= delta / scaled_norm_rows(d)[0]
    return SpectralField(g.model, g.coeffs + d)


# --------------------------------------------------------------------------
# configuration

_SOURCE_KEYS = {"zero": set(), "linear": {"c"}, "sin": set()}


def _check_keys(obj: dict, allowed: set, where: str):
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


# Typed readers of JSON values: a value of the wrong type is a ConfigError
# naming its key, never a TypeError or ValueError from a conversion.

def _section(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object")
    return value


def _is_number(value) -> bool:
    """A finite JSON number; booleans are not numbers here."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer literal past the double range
        return False


def _number(value, where: str) -> float:
    if not _is_number(value):
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    return float(value)


def _integer(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return value


def _list(value, where: str) -> list:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{where} must be a non-empty list")
    return value


def _mode_coeff(pair) -> tuple:
    """One [mode, coeff] entry of a self-convergent reference's data."""
    if not isinstance(pair, list) or len(pair) != 2:
        raise ConfigError(f"instance.reference.data entries must be [mode, coeff], got {pair!r}")
    return (_integer(pair[0], "instance.reference.data mode"),
            _number(pair[1], "instance.reference.data coeff"))


@dataclass(frozen=True)
class ExperimentConfig:
    """Mirror of the JSON experiment document, checked on construction."""

    tau: float
    mode_count: int
    source_kind: str
    source_c: float
    reference_kind: str               # "closed_form" | "self_convergent"
    reference_data: tuple             # ((mode, coeff), ...)
    deltas: tuple
    direction: str
    seed: int
    trials: int
    n_steps: int
    picard_tol: float
    max_iters: int
    regime: str                       # "log_rule" | "holder_rule"
    p: float
    q: float
    rho: float | str                  # number or "certified"
    eval_times: tuple

    @staticmethod
    def from_json(text: str) -> "ExperimentConfig":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON: {exc}") from exc
        return ExperimentConfig.from_dict(doc)

    @staticmethod
    def from_dict(doc: dict) -> "ExperimentConfig":
        _section(doc, "config document")
        _check_keys(doc, {"instance", "noise", "solver", "choice", "eval_times"}, "config")
        for section in ("instance", "noise", "solver", "choice", "eval_times"):
            if section not in doc:
                raise ConfigError(f"missing config section {section!r}")

        inst = _section(doc["instance"], "instance")
        _check_keys(inst, {"tau", "mode_count", "source", "reference"}, "instance")
        src = _section(inst.get("source", {}), "instance.source")
        kind = src.get("kind")
        if not isinstance(kind, str) or kind not in _SOURCE_KEYS:
            raise ConfigError(f"instance.source.kind must be one of {sorted(_SOURCE_KEYS)}")
        _check_keys(src, {"kind"} | _SOURCE_KEYS[kind], "instance.source")
        ref = _section(inst.get("reference", {}), "instance.reference")
        rkind = ref.get("kind")
        if rkind == "closed_form":
            _check_keys(ref, {"kind", "mode"}, "instance.reference")
            rdata = ((_integer(ref.get("mode", 1), "instance.reference.mode"), 1.0),)
        elif rkind == "self_convergent":
            _check_keys(ref, {"kind", "data"}, "instance.reference")
            rdata = tuple(_mode_coeff(pair)
                          for pair in _list(ref.get("data"), "instance.reference.data"))
        else:
            raise ConfigError("instance.reference.kind must be 'closed_form' or 'self_convergent'")

        noise = _section(doc["noise"], "noise")
        _check_keys(noise, {"deltas", "direction", "seed", "trials"}, "noise")
        deltas = tuple(_number(d, "noise.deltas entry")
                       for d in _list(noise.get("deltas"), "noise.deltas"))

        solver = _section(doc["solver"], "solver")
        _check_keys(solver, {"n_steps", "picard_tol", "max_iters"}, "solver")

        choice = _section(doc["choice"], "choice")
        _check_keys(choice, {"regime", "p", "q", "rho"}, "choice")
        regime = choice.get("regime")
        if regime == LOG_RULE and "q" in choice:
            raise ConfigError("choice.q is not used by the log rule")
        if regime == HOLDER_RULE and "p" in choice:
            raise ConfigError("choice.p is not used by the holder rule")
        rho = choice.get("rho", "certified")

        times = _list(doc["eval_times"], "eval_times")

        return ExperimentConfig(
            tau=_number(inst.get("tau", 1.0), "instance.tau"),
            mode_count=_integer(inst.get("mode_count", 8), "instance.mode_count"),
            source_kind=kind,
            source_c=_number(src.get("c", 0.0), "instance.source.c"),
            reference_kind=rkind,
            reference_data=rdata,
            deltas=deltas,
            direction=noise.get("direction", "seeded_random"),
            seed=_integer(noise.get("seed", 0), "noise.seed"),
            trials=_integer(noise.get("trials", 3), "noise.trials"),
            n_steps=_integer(solver.get("n_steps", 1024), "solver.n_steps"),
            picard_tol=_number(solver.get("picard_tol", DEFAULT_PICARD_TOL),
                               "solver.picard_tol"),
            max_iters=_integer(solver.get("max_iters", DEFAULT_MAX_ITERS),
                               "solver.max_iters"),
            regime=regime,
            p=_number(choice.get("p", 0.0), "choice.p"),
            q=_number(choice.get("q", 0.0), "choice.q"),
            rho=float(rho) if _is_number(rho) else rho,
            eval_times=tuple(_number(t, "eval_times entry") for t in times),
        )

    def __post_init__(self):
        if not self.tau > 0:
            raise ConfigError("instance.tau must be positive")
        if self.mode_count < 1:
            raise ConfigError("instance.mode_count must be >= 1")
        try:  # each mode in 1..mode_count, at most once
            self.final_data()
        except (IndexError, ValueError) as exc:
            raise ConfigError(f"instance.reference: {exc}") from exc
        if any(b >= a for a, b in zip(self.deltas, self.deltas[1:])):
            raise ConfigError("noise.deltas must be strictly decreasing")
        if not all(d > 0 for d in self.deltas):
            raise ConfigError("noise.deltas must be positive")
        if self.direction not in ("seeded_random", "worst_case_mode"):
            raise ConfigError("noise.direction must be 'seeded_random' or 'worst_case_mode'")
        if self.seed < 0:
            raise ConfigError("noise.seed must be >= 0")
        if self.trials < 1:
            raise ConfigError("noise.trials must be >= 1")
        if self.n_steps < 16 or self.n_steps % 2:
            raise ConfigError("solver.n_steps must be an even integer >= 16")
        if not self.picard_tol > 0.0:
            raise ConfigError("solver.picard_tol must be positive")
        if self.max_iters < 1:
            raise ConfigError("solver.max_iters must be >= 1")
        if self.regime not in (LOG_RULE, HOLDER_RULE):
            raise ConfigError(f"choice.regime must be '{LOG_RULE}' or '{HOLDER_RULE}'")
        if self.regime == LOG_RULE and not self.p > 0.0:
            raise ConfigError("the log rule needs choice.p > 0")
        if self.regime == HOLDER_RULE and not self.q > 0.0:
            raise ConfigError("the holder rule needs choice.q > 0")
        if not (self.rho == "certified" or (_is_number(self.rho) and self.rho > 0)):
            raise ConfigError("choice.rho must be a positive number or 'certified'")
        if any(t < 0 or t > self.tau for t in self.eval_times):
            raise ConfigError("eval_times must lie in [0, tau]")
        grid = TimeGrid(self.tau, self.n_steps)
        for t in self.eval_times:
            try:
                grid.index_of(t)
            except ValueError as exc:
                raise ConfigError(f"eval time {t} is not a grid point") from exc
        # the closed form is exact for the zero and linear sources only
        if (self.reference_kind == "closed_form") != (self.source_kind in ("zero", "linear")):
            raise ConfigError("the zero and linear sources take a closed_form reference, "
                              "the sin source a self_convergent one")
        if self.reference_kind == "self_convergent":
            if self.n_steps < 64 or self.n_steps % 4:
                raise ConfigError("self_convergent references need n_steps divisible "
                                  "by 4 and >= 64")

    def source(self) -> SourceFunction:
        return SourceFunction(self.source_kind, self.source_c)

    def model(self) -> EigenModel:
        return EigenModel.dirichlet_1d(self.mode_count)

    def final_data(self) -> SpectralField:
        """The exact final data g: the reference's data coefficients."""
        return SpectralField.from_coeffs(self.model(), self.reference_data)

    def solver(self, level: int, n_steps: int) -> SolverConfig:
        """This experiment's Picard controls at truncation level `level` on n_steps."""
        return SolverConfig(level=level, n_steps=n_steps,
                            picard_tol=self.picard_tol, max_iters=self.max_iters)


# --------------------------------------------------------------------------
# rate fitting

class RateFit(NamedTuple):
    slope: float
    intercept: float
    r2: float
    stderr: float
    ci95: tuple


def fit_rate_logs(log_x: np.ndarray, log_y: np.ndarray) -> RateFit:
    log_x = np.asarray(log_x, dtype=float)
    log_y = np.asarray(log_y, dtype=float)
    if log_x.size < 4:
        raise ValueError("rate fits need at least 4 points")
    slope, intercept = np.polyfit(log_x, log_y, 1)
    fitted = slope * log_x + intercept
    ss_res = float(np.sum((log_y - fitted) ** 2))
    ss_tot = float(np.sum((log_y - log_y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    dof = log_x.size - 2
    sxx = float(np.sum((log_x - log_x.mean()) ** 2))
    stderr = math.sqrt(ss_res / dof / sxx) if dof > 0 and sxx > 0 else 0.0
    half = 1.96 * stderr
    return RateFit(slope=float(slope), intercept=float(intercept), r2=r2,
                   stderr=stderr, ci95=(float(slope - half), float(slope + half)))


def fit_rate(points) -> RateFit:
    """Least squares on (ln delta, ln error); needs >= 4 positive pairs."""
    pts = [(float(d), float(e)) for d, e in points]
    if any(d <= 0 or e <= 0 for d, e in pts):
        raise ValueError("rate fits need positive deltas and errors")
    return fit_rate_logs(np.log([d for d, _ in pts]), np.log([e for _, e in pts]))


# --------------------------------------------------------------------------
# experiment runner

@dataclass(frozen=True)
class ExperimentRow:
    t: float
    delta: float
    seed: int
    level: int
    measured_error: float
    truncation_bound: float
    noise_bound: float
    total_bound: float
    iterations: int
    residual: float


@dataclass
class ExperimentReport:
    rows: list = field(default_factory=list)
    fits: dict = field(default_factory=dict)          # t -> RateFit | None
    flags: list = field(default_factory=list)
    dominance: DominanceReport | None = None
    rho: float = math.nan
    reference: ReferenceSolution | None = None

    CSV_HEADER = ("t,delta,seed,N,measured_error,truncation_bound,"
                  "noise_bound,total_bound,iterations,residual")

    def to_csv(self) -> str:
        def fmt(x: float) -> str:
            return f"{x:.17g}"

        lines = [self.CSV_HEADER]
        for r in self.rows:
            lines.append(",".join([
                fmt(r.t), fmt(r.delta), str(r.seed), str(r.level),
                fmt(r.measured_error), fmt(r.truncation_bound),
                fmt(r.noise_bound), fmt(r.total_bound),
                str(r.iterations), fmt(r.residual),
            ]))
        return "\n".join(lines) + "\n"

    def summary(self) -> str:
        lines = [f"rho = {self.rho:.6g}", f"rows = {len(self.rows)}"]
        for t, fit in sorted(self.fits.items()):
            if fit is None:
                lines.append(f"t = {t:g}: no rate fit (insufficient ladder)")
            else:
                lines.append(f"t = {t:g}: fitted slope {fit.slope:.4f} "
                             f"(95% CI {fit.ci95[0]:.4f}..{fit.ci95[1]:.4f}, r2 {fit.r2:.4f})")
        if self.dominance is not None:
            lines.append(f"dominance: {self.dominance.total - len(self.dominance.violations)}"
                         f"/{self.dominance.total} rows below bound"
                         + ("" if self.dominance.ok else "  [VIOLATIONS]"))
        for fl in self.flags:
            lines.append(f"flag: {fl}")
        return "\n".join(lines) + "\n"


def _certified_rho(reference: ReferenceSolution, gp: GevreyParams) -> float:
    """RHO_SAFETY times the largest Gevrey norm over the reference's grid points.

    One row-wise log-norm pass over the modes that are nonzero anywhere,
    and one exp of the largest row.
    """
    traj = reference.trajectory
    live = np.any(traj.states != 0.0, axis=1)
    log_norms = gevrey_log_norms(traj.model.lambdas[live], traj.states[live].T, gp)
    worst = exp_checked(float(np.max(log_norms)), "Gevrey norm")
    if worst <= 0.0:
        raise ConfigError("cannot certify rho: reference has zero weighted norm")
    return checked(RHO_SAFETY * worst, "certified rho (%g times the Gevrey norm %.6g) "
                   "exceeds the floating range", RHO_SAFETY, worst)


def build_reference(cfg: ExperimentConfig) -> ReferenceSolution:
    grid = TimeGrid(cfg.tau, cfg.n_steps)
    if cfg.reference_kind == "closed_form":
        # source_c is 0.0 for the zero source, which takes no "c" key
        return combined_closed_form(cfg.model(), cfg.reference_data, cfg.source_c,
                                    cfg.tau, grid)
    data = cfg.final_data()
    instance = FvpInstance(model=data.model, tau=cfg.tau, source=cfg.source(),
                           final_data=data)
    level = max(m for m, _ in cfg.reference_data)
    return self_convergent_reference(instance, cfg.solver(level, cfg.n_steps))


def noisy_solve(cfg: ExperimentConfig, g: SpectralField, level: int, delta: float,
                seed: int, n_steps: int) -> PicardResult:
    """Solve at level `level` on n_steps from g plus noise of size delta drawn
    from `seed` (along mode `level` in the worst case; g itself at delta 0)."""
    noisy = add_noise(g, delta, cfg.direction, seed=seed, mode=level)
    instance = FvpInstance(model=g.model, tau=cfg.tau, source=cfg.source(),
                           final_data=g, noisy_data=noisy, delta=delta)
    return picard_solve(instance, cfg.solver(level, n_steps), noisy)


class _PlannedRow(NamedTuple):
    ti: int                 # index of t in cfg.eval_times
    trial: int
    seed: int
    inputs: BoundInputs     # carries t, delta and the level
    bounds: dict            # truncation_bound, noise_bound, total_bound
    capped: bool            # the rule's level was cut to mode_count


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Solve every (t, delta, trial) cell with the rule-chosen level.

    Plan: per (t, delta), choose N by the configured rule and compute the
    bounds its rows share, so a rule or bound error comes before any solve.
    Solve: one noisy solve per (level, delta, seed), read by every row
    that shares it, against the reference at the row's t.  Emit: the rows
    in (t, delta, trial) order and per t a fit of ln(error) vs ln(delta)
    over the ladder (max error across trials) when it has >= 4 points.

    A row passes dominance when its error is at most `total_bound`, and
    its sample then carries slack 0.  Only when a row is above that bound
    (or has a NaN error) does its key run a second solve on n/2 steps; the
    row passes within 10x the Richardson estimate plus the reference's
    error estimate.  So `dominance.min_margin` leaves out the slack on the
    rows that met the bare bound.
    """
    model = cfg.model()
    source = cfg.source()
    reference = build_reference(cfg)
    g = reference.final_data
    regime = "gevrey_p" if cfg.regime == LOG_RULE else "gevrey_q"
    gp = GevreyParams(cfg.p, cfg.tau) if regime == "gevrey_p" \
        else GevreyParams(0.0, cfg.q + cfg.tau)
    rho = _certified_rho(reference, gp) if cfg.rho == "certified" else float(cfg.rho)
    if any(d >= rho for d in cfg.deltas):
        raise ConfigError("every delta must be below rho")
    eval_idx = [reference.trajectory.grid.index_of(t) for t in cfg.eval_times]
    # the noise seed of delta number di, trial `trial`: the same at every t
    seeds = [[int(np.random.SeedSequence(cfg.seed, spawn_key=(di, trial)).generate_state(1)[0])
              for trial in range(cfg.trials)] for di in range(len(cfg.deltas))]

    # plan: the level and bounds of each (t, delta), one record per row,
    # and the rows of each solve key (level, delta, seed) by first use
    plan, keys = [], {}
    for ti, t in enumerate(cfg.eval_times):
        for di, delta in enumerate(cfg.deltas):
            ci = ChoiceInputs(regime=cfg.regime, rho=rho, delta=delta,
                              t=t, tau=cfg.tau, d=model.dimension,
                              e1=model.e1, e2=model.e2, p=cfg.p, q=cfg.q)
            level = choose_level(ci).level
            bi = BoundInputs(model=model, level=min(level, model.mode_count), t=t,
                             tau=cfg.tau, delta=delta, rho=rho, kappa=source.kappa,
                             regime=regime, p=cfg.p, q=cfg.q)
            bounds = dict(truncation_bound=truncation_bound(bi),
                          noise_bound=noise_bound(bi), total_bound=total_bound(bi))
            for trial, seed in enumerate(seeds[di]):
                keys.setdefault((bi.level, delta, seed), []).append(len(plan))
                plan.append(_PlannedRow(ti, trial, seed, bi, bounds, level > model.mode_count))

    # solve: one noisy solve per key, and one n/2 solve only for a key
    # with a row above its total bound
    measured = [None] * len(plan)    # (error, slack, iterations, defect) per row
    for (level, delta, seed), members in keys.items():
        try:
            fine = noisy_solve(cfg, g, level, delta, seed, cfg.n_steps)
            errs = [l2_norm(reference.trajectory.state(idx) - fine.trajectory.state(idx))
                    for idx in (eval_idx[plan[i].ti] for i in members)]
            # a NaN error fails this test, so it takes the slack path too
            above = [not err <= plan[i].bounds["total_bound"] for i, err in zip(members, errs)]
            slack = 0.0
            if any(above):
                coarse = noisy_solve(cfg, g, level, delta, seed, cfg.n_steps // 2)
                rich = richardson_estimate(fine.trajectory.sup_distance(coarse.trajectory))
                slack = 10.0 * rich + reference.error_estimate
        except NonConvergenceError as exc:
            first = plan[members[0]]
            raise NonConvergenceError(
                f"cell (t={first.inputs.t:g}, delta={delta:g}, trial={first.trial}) did not "
                f"converge: {exc}", increments=exc.increments, defect=exc.defect) from exc
        for i, err, over in zip(members, errs, above):
            measured[i] = (err, slack if over else 0.0, fine.iterations, fine.defect)
        del fine    # hold one trajectory at a time

    # emit: rows, samples, fits and flags in (t, delta, trial) order
    report = ExperimentReport(rho=rho, reference=reference)
    samples = []
    for ti, rows in groupby(zip(plan, measured), key=lambda pair: pair[0].ti):
        t = cfg.eval_times[ti]
        series = {}                  # delta -> worst error over its trials
        for row, (err, slack, iterations, defect) in rows:
            bi = row.inputs
            if row.capped and row.trial == 0:
                report.flags.append(f"level capped at mode_count for t={t:g}, delta={bi.delta:g}")
            samples.append(DominanceSample(inputs=bi, measured=err, slack=slack))
            report.rows.append(ExperimentRow(
                t=t, delta=bi.delta, seed=row.seed, level=bi.level, measured_error=err,
                **row.bounds, iterations=iterations, residual=defect))
            series[bi.delta] = max(series.get(bi.delta, -math.inf), err)
        if len(series) >= 4 and all(e > 0 for e in series.values()):
            report.fits[t] = fit_rate(series.items())
        else:
            report.fits[t] = None
            report.flags.append(f"insufficient ladder for a rate fit at t={t:g}")
        errs = list(series.values())
        if any(b > a * (1 + 1e-12) for a, b in zip(errs, errs[1:])):
            report.flags.append(f"errors not non-increasing along the ladder at t={t:g}")

    report.dominance = check_dominance(samples)
    if not report.dominance.ok:
        report.flags.append(
            f"dominance violated on {len(report.dominance.violations)} rows")
    return report


# --------------------------------------------------------------------------
# theory-side rate check (bound staircase under the holder rule)

@dataclass(frozen=True)
class StaircaseResult:
    deltas: tuple
    levels: tuple
    log_bounds: tuple
    fit: RateFit
    theoretical_slope: float

    @property
    def non_increasing(self) -> bool:
        lb = self.log_bounds
        return all(b <= a + 1e-12 for a, b in zip(lb, lb[1:]))


def holder_bound_staircase(model: EigenModel, tau: float, t: float, q: float,
                           rho: float, kappa: float, n_points: int = 8,
                           r_min: float = 1.5, r_max: float = 5.2) -> StaircaseResult:
    """Total-bound decay along a ladder sampled uniformly in the rule variable.

    The rule floor makes the chosen level a staircase in delta, so the
    bound's decay only approximates the theoretical delta-power; sampling
    uniformly in r = (ln(rho/delta)/denom)^{d/2} spreads the ladder evenly
    across level transitions.  Deltas stay within the double range.
    """
    denom = model.e1 * (q + t) + model.e2 * (tau - t)
    rs = np.linspace(r_min, r_max, n_points)
    deltas, levels, log_bounds = [], [], []
    for r in rs:
        delta = math.exp(math.log(rho) - denom * r ** (2.0 / model.dimension))
        if delta < sys.float_info.min:  # a subnormal delta lost digits; 0 has no log
            raise ValueError("ladder delta is not a normal double; reduce r_max")
        ci = ChoiceInputs(regime=HOLDER_RULE, rho=rho, delta=delta, t=t, tau=tau,
                          d=model.dimension, e1=model.e1, e2=model.e2, q=q)
        level = min(choose_level(ci).level, model.mode_count)
        bi = BoundInputs(model=model, level=level, t=t, tau=tau, delta=delta,
                         rho=rho, kappa=kappa, regime="gevrey_q", q=q)
        deltas.append(delta)
        levels.append(level)
        log_bounds.append(log_total_bound(bi))
    fit = fit_rate_logs(np.log(deltas), np.array(log_bounds))
    theo = model.e1 * (q + t) / denom
    return StaircaseResult(deltas=tuple(deltas), levels=tuple(levels),
                           log_bounds=tuple(log_bounds), fit=fit,
                           theoretical_slope=theo)

