"""Experiment runner: noise injection, delta ladders, rate fits, CSV output.

A single JSON document configures an experiment; see `ExperimentConfig`.
Its reference is exact final data, `data` or the `mode` shorthand, for
every source; the source picks how the reference is built, in closed form
or by a self-convergent ladder.  Each (noise level, trial) draws its noise
from a deterministic seed, the same at every evaluation time; the
worst-case direction reads no seed, so it takes one trial.  Rows that
share a level, a noise level and a seed share one solve.  Identical
configurations reproduce byte-identical CSV output.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields
from itertools import groupby
from typing import NamedTuple

import numpy as np

from .bounds import (BoundInputs, DominanceReport, DominanceSample, check_dominance,
                     noise_bound, total_bound, truncation_bound)
from .errors import ConfigError, NonConvergenceError
from .grids import TimeGrid
from .param_choice import (HOLDER_RULE, LOG_RULE, ChoiceInputs, choose_level)
from .problem import FvpInstance, SourceFunction
from .reference import (ReferenceSolution, combined_closed_form, richardson_estimate,
                        self_convergent_reference)
from .solver import DEFAULT_MAX_ITERS, DEFAULT_PICARD_TOL, PicardResult, SolverConfig, picard_solve
from .spectral import (EigenModel, GevreyParams, SpectralField, checked, exp_checked,
                       gevrey_log_norms, l2_norm, require_buildable, require_finite,
                       require_int, scaled_norm_rows)

RHO_SAFETY = 1.01                # grid-max to essential-sup safety factor


# --------------------------------------------------------------------------
# noise injection

def add_noise(g: SpectralField, delta: float, direction: str = "seeded_random",
              seed: int = 0, mode: int | None = None) -> SpectralField:
    """g + delta * e with ||e|| = 1 (post-normalization).

    direction 'worst_case_mode' sets e to the basis mode `mode` (the
    direction the noise bound amplifies hardest); 'seeded_random' draws a
    deterministic direction over all model modes from `seed`, an int >= 0.
    The noise vector is rescaled once after rounding so its stored norm
    equals delta to a few ulp.
    """
    require_finite("delta", delta, ">= 0")
    require_int("seed", seed, low=0)
    if delta == 0.0:
        return g
    if direction == "worst_case_mode":
        e = SpectralField.basis(g.model, mode).coeffs
    elif direction == "seeded_random":
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        e = rng.standard_normal(g.model.mode_count)
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

_SECTIONS = ("instance", "noise", "solver", "choice", "eval_times")   # the last is a list


def _check_keys(obj: dict, allowed: set, where: str):
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _section(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object")
    return value


# Checks of config values: each takes a value and its JSON name and
# returns the value in its stored type, or raises a ConfigError naming the
# key, never a TypeError or ValueError from a conversion.  A number's type
# and range are those of the input policy (`require_finite`, `require_int`),
# so a refusal reads `<key> must be ..., got <value>`.

def _number(sign: str | None = None):
    """A finite real of the given sign (see `require_finite`), stored as a float."""
    return lambda value, where: float(require_finite(where, value, sign))


def _integer(low: int = 1):
    """An int >= low, stored as an int."""
    return lambda value, where: int(require_int(where, value, low))


def _list(value, where: str) -> list | tuple:
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"{where} must be a non-empty list, got {value!r}")
    return value


def _numbers(sign: str | None = None):
    """A non-empty list of finite reals of the given sign, stored as a tuple."""
    entry = _number(sign)
    return lambda value, where: tuple(entry(x, f"{where} entry") for x in _list(value, where))


def _mode_coeffs(value, where: str) -> tuple:
    """A reference's data: [[mode, coeff], ...], each mode an int >= 1."""
    pairs = []
    for pair in _list(value, f"{where} data"):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ConfigError(f"{where} data entries must be [mode, coeff], got {pair!r}")
        pairs.append((_integer()(pair[0], f"{where} mode"), _number()(pair[1], f"{where} coeff")))
    return tuple(pairs)


def _one_of(*options):
    def check(value, where: str) -> str:
        if value not in options:
            raise ConfigError(f"{where} must be one of {list(options)}, got {value!r}")
        return value
    return check


def _rho(value, where: str) -> float | str:
    if value == "certified":
        return value
    try:
        return float(require_finite(where, value, "positive"))
    except ValueError:
        raise ConfigError(f"{where} must be a positive number or 'certified', "
                          f"got {value!r}") from None


def _key(path: str, check, default=MISSING):
    """A field read from the document at the dotted `path`, where a missing
    key takes `default`, and checked by `check` on construction."""
    return field(default=default, metadata={"path": path, "check": check})


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """The JSON experiment document, one field per key.

    Each field is declared once, by `_key`: its document path, its default
    and its check, the key's type and range.  `from_dict` routes a document
    onto the fields; construction checks every field by its JSON name, then
    the rules that read more than one value, so a directly built config is
    refused like a parsed one.  Those rules: the deltas decrease, n_steps
    is even (and suits a self_convergent reference), the reference modes
    and eval times fit the model and the grid, whose sizes numpy must be
    able to allocate, worst_case_mode noise takes one trial, and `c` is
    for the linear source only, `p` for the log rule and `q` for the
    holder rule, an unused one holding only its default, 0.
    Every source reads `instance.reference` alike: `{"data": [[mode,
    coeff], ...]}`, or `{"mode": k}` for `[[k, 1.0]]`, where neither is
    phi_1.  The reference kind follows from the source (closed_form for
    zero and linear, self_convergent for sin); a `kind` key is optional
    and refused when it contradicts the source.
    """

    tau: float = _key("instance.tau", _number("positive"), 1.0)
    mode_count: int = _key("instance.mode_count", _integer(), 8)
    source_kind: str = _key("instance.source.kind", _one_of("zero", "linear", "sin"))
    source_c: float = _key("instance.source.c", _number(), 0.0)
    reference_data: tuple = _key("instance.reference", _mode_coeffs)   # ((mode, coeff), ...)
    deltas: tuple = _key("noise.deltas", _numbers("positive"))
    direction: str = _key("noise.direction", _one_of("seeded_random", "worst_case_mode"),
                          "seeded_random")
    seed: int = _key("noise.seed", _integer(0), 0)
    trials: int = _key("noise.trials", _integer(), 3)
    n_steps: int = _key("solver.n_steps", _integer(16), 1024)
    picard_tol: float = _key("solver.picard_tol", _number("positive"), DEFAULT_PICARD_TOL)
    max_iters: int = _key("solver.max_iters", _integer(), DEFAULT_MAX_ITERS)
    regime: str = _key("choice.regime", _one_of(LOG_RULE, HOLDER_RULE))
    p: float = _key("choice.p", _number(), 0.0)
    q: float = _key("choice.q", _number(), 0.0)
    rho: float | str = _key("choice.rho", _rho, "certified")
    eval_times: tuple = _key("eval_times", _numbers())

    @staticmethod
    def from_json(text: str) -> "ExperimentConfig":
        try:
            doc = json.loads(text)
        # a JSONDecodeError is a ValueError, and so is an integer literal past
        # Python's digit limit; a RecursionError is a document nested too deep
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"invalid JSON: {exc}") from exc
        return ExperimentConfig.from_dict(doc)

    @staticmethod
    def from_dict(doc: dict) -> "ExperimentConfig":
        """Route the document's keys onto the fields; the constructor checks them."""
        objects = {"": _section(doc, "config document")}
        _check_keys(doc, set(_SECTIONS), "config")
        for section in _SECTIONS:
            if section not in doc:
                raise ConfigError(f"missing config section {section!r}")
        for path in _SECTIONS[:-1] + ("instance.source", "instance.reference"):
            parent, _, key = path.rpartition(".")
            objects[path] = _section(objects[parent].get(key, {}), path)
        paths = [f.metadata["path"] for f in fields(ExperimentConfig)]
        for section in _SECTIONS[:-1] + ("instance.source",):
            _check_keys(objects[section], {p[len(section) + 1:].split(".")[0] for p in paths
                                           if p.startswith(section + ".")}, section)
        ref = objects["instance.reference"]
        _check_keys(ref, {"kind", "mode", "data"}, "instance.reference")
        if "mode" in ref and "data" in ref:
            raise ConfigError("instance.reference takes data or its mode shorthand, not both")

        values = {}
        for f, path in zip(fields(ExperimentConfig), paths):
            parent, _, key = path.rpartition(".")
            if key in objects[parent]:
                values[f.name] = objects[parent][key]
            elif f.default is MISSING:
                raise ConfigError(f"missing config key {path!r}")
        values["reference_data"] = ref["data"] if "data" in ref else [[ref.get("mode", 1), 1.0]]
        cfg = ExperimentConfig(**values)
        if ref.get("kind", cfg.reference_kind) != cfg.reference_kind:
            raise ConfigError("instance.reference.kind: the zero and linear sources take a "
                              "closed_form reference, the sin source a self_convergent one")
        return cfg

    def __post_init__(self):
        for f in fields(self):    # each key's type and range, its value stored in its type
            object.__setattr__(self, f.name, f.metadata["check"](getattr(self, f.name),
                                                                  f.metadata["path"]))
        need = self._need
        model = require_buildable(self._path("mode_count"), self.model)
        try:  # each mode in 1..mode_count, at most once
            SpectralField.from_coeffs(model, self.reference_data)
        except (IndexError, ValueError) as exc:
            need(False, "reference_data", str(exc))
        need(all(b < a for a, b in zip(self.deltas, self.deltas[1:])), "deltas",
             "must be strictly decreasing")
        need(self.n_steps % 2 == 0, "n_steps", "must be even")
        need(self.direction == "seeded_random" or self.trials == 1, "trials",
             "must be 1 under worst_case_mode, whose noise reads no seed")
        # a key that its source or rule does not use may hold only its default, 0
        need(self.source_kind == "linear" or self.source_c == 0.0, "source_c",
             "is used by the linear source only")
        need(self.regime != LOG_RULE or self.p > 0.0, "p", "must be > 0 under the log rule")
        need(self.regime != HOLDER_RULE or self.p == 0.0, "p", "is not used by the holder rule")
        need(self.regime != HOLDER_RULE or self.q > 0.0, "q", "must be > 0 under the holder rule")
        need(self.regime != LOG_RULE or self.q == 0.0, "q", "is not used by the log rule")
        need(len(set(self.eval_times)) == len(self.eval_times), "eval_times", "must not repeat")
        grid = require_buildable(self._path("n_steps"), lambda: TimeGrid(self.tau, self.n_steps))
        for t in self.eval_times:
            try:
                grid.index_of(t)
            except ValueError:
                need(False, "eval_times", f"entry {t} is not a grid point")
        need(self.reference_kind == "closed_form" or self.n_steps >= 64 and self.n_steps % 4 == 0,
             "n_steps", "must be divisible by 4 and >= 64 for a self_convergent reference")

    def _path(self, name: str) -> str:
        """The JSON path of field `name`, the name its refusals use."""
        return self.__dataclass_fields__[name].metadata["path"]

    def _need(self, ok: bool, name: str, what: str):
        """Refuse the value of field `name`, by its JSON path, unless `ok`."""
        if not ok:
            raise ConfigError(f"{self._path(name)} {what}")

    @property
    def reference_kind(self) -> str:
        """The closed form is exact for the zero and linear sources only."""
        return "closed_form" if self.source_kind in ("zero", "linear") else "self_convergent"

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


# 97.5% quantiles of Student's t at 2, 3 and 4 degrees of freedom; past
# them, the normal quantile's Cornish-Fisher series in 1/dof (four terms)
# is within 3e-4 of the true quantile
_T975 = {2: 4.303, 3: 3.182, 4: 2.776}
_T975_SERIES = (1.959964, 2.372271, 2.822499, 2.555850, 1.589534)


def _t975(dof: int) -> float:
    """Student's t 97.5% quantile at `dof` >= 2 degrees of freedom, within 1e-3."""
    return _T975.get(dof) or sum(c / dof ** k for k, c in enumerate(_T975_SERIES))


def fit_rate(points) -> RateFit:
    """Least squares on (ln delta, ln error); needs >= 4 finite positive pairs.

    The 95% CI is slope +- _t975(points - 2) * stderr.
    """
    pts = [(require_finite("delta", d, "positive"), require_finite("error", e, "positive"))
           for d, e in points]
    if len(pts) < 4:
        raise ValueError("rate fits need at least 4 points")
    log_x, log_y = np.log([d for d, _ in pts]), np.log([e for _, e in pts])
    slope, intercept = np.polyfit(log_x, log_y, 1)
    fitted = slope * log_x + intercept
    ss_res = float(np.sum((log_y - fitted) ** 2))
    ss_tot = float(np.sum((log_y - log_y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    dof = log_x.size - 2
    sxx = float(np.sum((log_x - log_x.mean()) ** 2))
    stderr = math.sqrt(ss_res / dof / sxx) if sxx > 0 else 0.0
    half = _t975(dof) * stderr
    return RateFit(slope=float(slope), intercept=float(intercept), r2=r2,
                   stderr=stderr, ci95=(float(slope - half), float(slope + half)))


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


@dataclass(frozen=True)
class ExperimentReport:
    rows: list
    fits: dict          # t -> RateFit | None
    flags: list
    dominance: DominanceReport
    rho: float
    reference: ReferenceSolution

    CSV_HEADER = ("t,delta,seed,N,measured_error,truncation_bound,"
                  "noise_bound,total_bound,iterations,residual")

    def to_csv(self) -> str:
        """The header, then each row's fields in declaration order, every
        one by `.17g`: the floats round-trip, and the ints (32-bit seeds,
        small levels and iteration counts) print exactly."""
        lines = [self.CSV_HEADER]
        lines += [",".join(f"{x:.17g}" for x in vars(row).values()) for row in self.rows]
        return "\n".join(lines) + "\n"

    def summary(self) -> str:
        lines = [f"rho = {self.rho:.6g}", f"rows = {len(self.rows)}"]
        for t, fit in sorted(self.fits.items()):
            if fit is None:
                lines.append(f"t = {t:g}: no rate fit (insufficient ladder)")
            else:
                lines.append(f"t = {t:g}: fitted slope {fit.slope:.4f} "
                             f"(95% CI {fit.ci95[0]:.4f}..{fit.ci95[1]:.4f}, r2 {fit.r2:.4f})")
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
        # source_c is 0.0 for the zero source (checked by ExperimentConfig)
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


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Solve every (t, delta, trial) cell with the rule-chosen level.

    Plan: per (t, delta), choose N by the configured rule and compute the
    bounds its rows share, so a rule or bound error (a delta not below rho
    among them) comes before any solve.
    Solve: one noisy solve per (level, delta, seed), read by every row
    that shares it, against the reference at the row's t; each row and its
    dominance sample are built there.  Emit: per t a fit of ln(error) vs
    ln(delta) over the ladder (max error across trials) when it has >= 4
    points, and the flags, in (t, delta, trial) order.

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
    # the rule's bound regime, and the Gevrey weight its rho is certified in
    regime, gp = ("gevrey_p", GevreyParams(cfg.p, cfg.tau)) if cfg.regime == LOG_RULE \
        else ("gevrey_q", GevreyParams(0.0, cfg.q + cfg.tau))
    rho = _certified_rho(reference, gp) if cfg.rho == "certified" else cfg.rho
    eval_idx = {t: reference.trajectory.grid.index_of(t) for t in cfg.eval_times}
    # the noise seed of delta number di, trial `trial`: the same at every t
    seeds = [[int(np.random.SeedSequence(cfg.seed, spawn_key=(di, trial)).generate_state(1)[0])
              for trial in range(cfg.trials)] for di in range(len(cfg.deltas))]
    flags = {t: [] for t in cfg.eval_times}

    # plan: the bound inputs, bounds, trial and seed of each row in (t,
    # delta, trial) order, and the rows of each (level, delta, seed) solve
    # key by first use
    plan, keys = [], {}
    for t in cfg.eval_times:
        for di, delta in enumerate(cfg.deltas):
            level = choose_level(ChoiceInputs(
                regime=cfg.regime, rho=rho, delta=delta, t=t, tau=cfg.tau, d=model.dimension,
                e1=model.e1, e2=model.e2, p=cfg.p, q=cfg.q)).level
            if level > model.mode_count:
                flags[t].append(f"level capped at mode_count for t={t:g}, delta={delta:g}")
            bi = BoundInputs(model=model, level=min(level, model.mode_count), t=t, tau=cfg.tau,
                             delta=delta, rho=rho, kappa=source.kappa, regime=regime,
                             p=cfg.p, q=cfg.q)
            bounds = dict(truncation_bound=truncation_bound(bi),
                          noise_bound=noise_bound(bi), total_bound=total_bound(bi))
            for trial, seed in enumerate(seeds[di]):
                keys.setdefault((bi.level, delta, seed), []).append(len(plan))
                plan.append((bi, bounds, trial, seed))

    # solve: one noisy solve per key, and one n/2 solve only for a key
    # with a row above its total bound
    rows, samples = [None] * len(plan), [None] * len(plan)
    for (level, delta, seed), members in keys.items():
        cells = [plan[i] for i in members]
        try:
            fine = noisy_solve(cfg, g, level, delta, seed, cfg.n_steps)
            errs = [l2_norm(reference.trajectory.state(idx) - fine.trajectory.state(idx))
                    for idx in (eval_idx[bi.t] for bi, _, _, _ in cells)]
            # a NaN error fails this test, so it takes the slack path too
            above = [not err <= bounds["total_bound"]
                     for (_, bounds, _, _), err in zip(cells, errs)]
            slack = 0.0
            if any(above):
                coarse = noisy_solve(cfg, g, level, delta, seed, cfg.n_steps // 2)
                rich = richardson_estimate(fine.trajectory.sup_distance(coarse.trajectory))
                slack = 10.0 * rich + reference.error_estimate
        except NonConvergenceError as exc:
            bi, _, trial, _ = cells[0]
            raise NonConvergenceError(
                f"cell (t={bi.t:g}, delta={delta:g}, trial={trial}) did not "
                f"converge: {exc}", increments=exc.increments, defect=exc.defect) from exc
        for i, (bi, bounds, _, row_seed), err, over in zip(members, cells, errs, above):
            samples[i] = DominanceSample(inputs=bi, measured=err, slack=slack if over else 0.0)
            rows[i] = ExperimentRow(t=bi.t, delta=delta, seed=row_seed, level=level,
                                    measured_error=err, **bounds, iterations=fine.iterations,
                                    residual=fine.defect)
        del fine    # hold one trajectory at a time

    # emit: fits and flags in (t, delta, trial) order
    fits, report_flags = {}, []
    for t, t_rows in groupby(rows, key=lambda row: row.t):
        series = {}                  # delta -> worst error over its trials
        for row in t_rows:
            series[row.delta] = max(series.get(row.delta, -math.inf), row.measured_error)
        if len(series) >= 4 and all(e > 0 for e in series.values()):
            fits[t] = fit_rate(series.items())
        else:
            fits[t] = None
            flags[t].append(f"insufficient ladder for a rate fit at t={t:g}")
        errs = list(series.values())
        if any(b > a * (1 + 1e-12) for a, b in zip(errs, errs[1:])):
            flags[t].append(f"errors not non-increasing along the ladder at t={t:g}")
        report_flags += flags[t]

    dominance = check_dominance(samples)
    if not dominance.ok:
        report_flags.append(f"dominance violated on {len(dominance.violations)} rows")
    return ExperimentReport(rows=rows, fits=fits, flags=report_flags, dominance=dominance,
                            rho=rho, reference=reference)
